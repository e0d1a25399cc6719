"""Numerical validation: path simulation and finite symmetry-map checks.

Randomness is counter-based so that ensembles are bit-reproducible and
independent of execution order: the normal increment for (seed, path p,
step s, component k) is

    ndtri(u) * sqrt(dt),
    u   = ((v >> 11) + 0.5) * 2^-53,
    v   = mix13(P_p + GOLDEN * (s*m + k + 1)),
    P_p = mix13(K + GOLDEN * (p + 1)),
    K   = mix13(seed XOR GOLDEN),

where GOLDEN = 0x9E3779B97F4A7C15 and mix13 is the Stafford variant-13
SplitMix64 finalizer (z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27;
z *= 0x94D049BB133111EB; z ^= z>>31).  Normal variates use the inverse
CDF, so any implementation of this recipe reproduces the same paths.

`Increments` is the recipe's only implementation here; every simulation,
quadrature and grid draws from it.  Runs that share increments (the two
ensembles of a symmetry validation, the two halves of a pipeline
cross-check, a scheme comparison) are stepped in lockstep by one loop,
`_lockstep`, on one draw per step, so each increment is generated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import expm
from scipy.special import ndtri
from scipy.stats import ks_2samp

from .expr import (
    Context,
    EvaluationError,
    Kernel,
    TIME,
    evaluate,
    free_vars,
    simplify,
    state,
)
from .expr.calculus import differentiate
from .reduction import ChangeOfVariables, ReductionError, SolutionForm, numeric_inverse
from .sde import ItoSystem, StratSystem, System
from .symmetry import LinearW, VectorField

# the integrator of each calculus, by the name ``Ensemble.scheme`` records
SCHEMES = {"ito": "euler_maruyama", "stratonovich": "heun"}

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_DIVERGENCE_BOUND = 1e10


def _mix13(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The finalizer applied to the uint64 array z in place; ``tmp`` is
    scratch of the same size.  Returns z."""
    z ^= np.right_shift(z, np.uint64(30), out=tmp)
    z *= _M1
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= _M2
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def _path_keys(seed: int, n_paths: int) -> np.ndarray:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ GOLDEN])
    keys = _mix13(key, np.empty_like(key)) + GOLDEN * np.arange(1, n_paths + 1, dtype=np.uint64)
    return _mix13(keys, np.empty_like(keys))


def _uniforms(path_keys: np.ndarray, positions: np.ndarray, bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill the float64 array ``out`` of shape (len(path_keys), len(positions))
    with uniforms in (0, 1); ``bits`` is uint64 scratch of that shape.
    Returns ``out``."""
    np.add(path_keys[:, None], GOLDEN * (positions + np.uint64(1)), out=bits)
    _mix13(bits, out.view(np.uint64))  # out is free until the conversion below
    np.right_shift(bits, np.uint64(11), out=bits)
    np.copyto(out, bits)
    out += 0.5
    out *= 2.0 ** -53
    return out


class Increments:
    """Brownian increments of (seed, n_paths, m, dt), one time step at a time.

    The path keys are computed once.  ``step(s)`` returns the (n_paths, m)
    block Delta W of step s in a buffer that the next call overwrites;
    readers must not write into it."""

    def __init__(self, seed: int, n_paths: int, m: int, dt: float):
        self.keys = _path_keys(seed, n_paths)
        self.m = m
        self.sqrt_dt = math.sqrt(dt)
        self._components = np.arange(m, dtype=np.uint64)
        self._bits = np.empty((n_paths, m), dtype=np.uint64)
        self._block = np.empty((n_paths, m))

    def step(self, s: int) -> np.ndarray:
        positions = np.uint64(s) * np.uint64(self.m) + self._components
        u = _uniforms(self.keys, positions, self._bits, self._block)
        ndtri(u, out=u)
        u *= self.sqrt_dt
        return u


def step_normals(seed: int, n_paths: int, step: int, m: int, dt: float) -> np.ndarray:
    """Increments Delta W for one time step, shape (n_paths, m)."""
    return Increments(seed, n_paths, m, dt).step(step)


@dataclass
class BrownianGrid:
    """A single discretized Brownian path with its increments."""

    t0: float
    T: float
    dt: float
    steps: int
    m: int
    seed: int
    path_index: int
    increments: np.ndarray  # (steps, m)
    w: np.ndarray  # (steps + 1, m), w(t0) = 0

    @staticmethod
    def generate(seed: int, path_index: int, t0: float, T: float, dt: float, m: int) -> "BrownianGrid":
        steps = int(round((T - t0) / dt))
        source = Increments(seed, path_index + 1, m, dt)
        incs = np.empty((steps, m))
        for s in range(steps):
            incs[s] = source.step(s)[path_index]
        w = np.vstack([np.zeros((1, m)), np.cumsum(incs, axis=0)])
        return BrownianGrid(t0, T, dt, steps, m, seed, path_index, incs, w)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.steps + 1)


@dataclass
class Ensemble:
    """Snapshots of an ensemble simulation on a shared time grid."""

    ctx: Context
    scheme: str
    t0: float
    T: float
    dt: float
    steps: int
    n_paths: int
    seed: int
    snap_steps: np.ndarray  # (K,) step indices of the stored snapshots
    states: np.ndarray  # (K, N, n)
    w: np.ndarray  # (K, N, m) cumulative Brownian values
    excluded: np.ndarray  # (N,) bool

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * self.snap_steps

    @property
    def excluded_fraction(self) -> float:
        return float(np.mean(self.excluded))

    def terminal_states(self) -> np.ndarray:
        return self.states[-1]


def _snapshot_steps(steps: int, snapshots: int) -> np.ndarray:
    if snapshots <= 0 or snapshots >= steps:
        return np.arange(steps + 1)
    idx = np.unique(np.round(np.linspace(0, steps, snapshots + 1)).astype(int))
    return idx


def _lockstep(steppers: Sequence, seed: int, n_paths: int, m: int, t0: float, dt: float, steps: int) -> None:
    """The only time-step loop: draw each step's increments once and advance
    every stepper on them, in order.  A stepper reads the shared block and
    never writes into it."""
    increments = Increments(seed, n_paths, m, dt)
    with np.errstate(all="ignore"):
        for s in range(steps):
            dW = increments.step(s)
            t = t0 + s * dt
            for stepper in steppers:
                stepper.step(s, t, dW)


class Run(NamedTuple):
    """One ensemble of a lockstep set: ``system`` advanced from x0 by the
    scheme of its calculus (Euler-Maruyama for an ItoSystem, Heun for a
    StratSystem) on the shared increments, mapped to dW R^T when
    ``dw_transform`` R is given."""

    system: System
    x0: Sequence[float]
    dw_transform: Optional[np.ndarray] = None


class _Integrator:
    """One run's paths and the buffers its steps reuse."""

    def __init__(self, run: Run, t0: float, T: float, dt: float, n_paths: int, seed: int, snapshots: int):
        ctx = run.system.ctx
        n, m = ctx.n, ctx.m
        # one kernel for all coefficients: column i is f_i, column n + i*m + k is sigma_ik
        coefficients = [*run.system.drift, *(run.system.sigma[i][k] for i in range(n) for k in range(m))]
        self.kernel = Kernel([simplify(e) for e in coefficients], ctx.states() + (TIME,), ctx.params)
        self.run, self.n, self.m = run, n, m
        self.t0, self.T, self.dt, self.n_paths, self.seed = t0, T, dt, n_paths, seed
        self.steps = int(round((T - t0) / dt))
        self.snap = _snapshot_steps(self.steps, snapshots)
        self.snap_index = {int(s): i for i, s in enumerate(self.snap)}
        self.c = np.empty((n_paths, len(coefficients)))
        self.c_pred = np.empty_like(self.c) if run.system.calculus == "stratonovich" else None
        self.x = np.tile(np.asarray(run.x0, dtype=float), (n_paths, 1))
        self.new_x = np.empty_like(self.x)
        self.incr = np.empty(n_paths)
        self.term = np.empty(n_paths)
        self.magnitude = np.empty_like(self.x)
        self.ok = np.empty(self.x.shape, dtype=bool)
        self.alive = np.ones(n_paths, dtype=bool)
        self.w = np.zeros((n_paths, m))
        self.states = np.empty((len(self.snap), n_paths, n))
        self.ws = np.empty((len(self.snap), n_paths, m))
        if 0 in self.snap_index:
            self.states[self.snap_index[0]] = self.x
            self.ws[self.snap_index[0]] = self.w

    def step(self, s: int, t: float, dW: np.ndarray) -> None:
        n, m, dt = self.n, self.m, self.dt
        x, new_x, c, incr, term = self.x, self.new_x, self.c, self.incr, self.term
        if self.run.dw_transform is not None:
            dW = dW @ self.run.dw_transform.T
        # Euler-Maruyama step, which is also Heun's predictor
        self.kernel([*x.T, t], out=c)
        for i in range(n):
            np.multiply(c[:, i], dt, out=incr)
            for k in range(m):
                incr += np.multiply(c[:, n + i * m + k], dW[:, k], out=term)
            np.add(x[:, i], incr, out=new_x[:, i])
        if self.c_pred is not None:
            c_pred = self.kernel([*new_x.T, t + dt], out=self.c_pred)
            for i in range(n):
                np.add(c[:, i], c_pred[:, i], out=incr)
                incr *= 0.5
                incr *= dt
                for k in range(m):
                    j = n + i * m + k
                    np.add(c[:, j], c_pred[:, j], out=term)
                    term *= 0.5
                    term *= dW[:, k]
                    incr += term
                np.add(x[:, i], incr, out=new_x[:, i])

        # also false for NaN and inf
        np.less(np.abs(new_x, out=self.magnitude), _DIVERGENCE_BOUND, out=self.ok)
        self.alive &= self.ok.all(axis=1)
        np.copyto(x, new_x, where=self.alive[:, None])
        self.w += dW
        if (s + 1) in self.snap_index:
            self.states[self.snap_index[s + 1]] = x
            self.ws[self.snap_index[s + 1]] = self.w

    def ensemble(self) -> Ensemble:
        return Ensemble(
            ctx=self.run.system.ctx,
            scheme=SCHEMES[self.run.system.calculus],
            t0=self.t0,
            T=self.T,
            dt=self.dt,
            steps=self.steps,
            n_paths=self.n_paths,
            seed=self.seed,
            snap_steps=self.snap,
            states=self.states,
            w=self.ws,
            excluded=~self.alive,
        )


def _simulate(
    runs: Sequence[Run],
    t0: float,
    T: float,
    dt: float,
    n_paths: int,
    seed: int,
    snapshots: int,
) -> List[Ensemble]:
    """Advance every run on the increments of (seed, n_paths) in lockstep.
    Each ensemble equals the one its run gives alone."""
    m = runs[0].system.ctx.m
    if any(run.system.ctx.m != m for run in runs):
        raise ValueError("runs in lockstep must share the number of Wiener processes")
    integrators = [_Integrator(run, t0, T, dt, n_paths, seed, snapshots) for run in runs]
    _lockstep(integrators, seed, n_paths, m, t0, dt, integrators[0].steps)
    return [integrator.ensemble() for integrator in integrators]


def euler_maruyama(
    sys: ItoSystem,
    x0: Sequence[float],
    t0: float = 0.0,
    T: float = 1.0,
    dt: float = 1e-3,
    n_paths: int = 1000,
    seed: int = 0,
    snapshots: int = 100,
    dw_transform: Optional[np.ndarray] = None,
) -> Ensemble:
    """Strong order-1/2 explicit scheme for the Ito interpretation:
    x_{s+1} = x_s + f(x_s, t_s) dt + sigma(x_s, t_s) dW_s."""
    sys.require("ito", "euler_maruyama")
    run = Run(sys, x0, dw_transform)
    return _simulate([run], t0, T, dt, n_paths, seed, snapshots)[0]


def heun_stratonovich(
    sys: StratSystem,
    x0: Sequence[float],
    t0: float = 0.0,
    T: float = 1.0,
    dt: float = 1e-3,
    n_paths: int = 1000,
    seed: int = 0,
    snapshots: int = 100,
    dw_transform: Optional[np.ndarray] = None,
) -> Ensemble:
    """Predictor-corrector (midpoint) scheme converging to the Stratonovich
    interpretation; reuses the same Brownian increments as the Ito scheme
    for a given seed."""
    sys.require("stratonovich", "heun_stratonovich")
    run = Run(sys, x0, dw_transform)
    return _simulate([run], t0, T, dt, n_paths, seed, snapshots)[0]


# ---------------------------------------------------------------------------
# finite group maps


class FlowError(ValueError):
    pass


def _affine_generator(X: VectorField) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """If the field is affine in (x, w) once ``ctx.params`` are bound, return (L, c)
    with dz/ds = L z + c over z = (x, w), else None: L holds the derivatives,
    which must be free of every variable, and c is the field at the origin."""
    ctx = X.ctx
    d = ctx.n + ctx.m
    coords = ctx.states() + ctx.wieners()
    components = [simplify(e) for e in list(X.phi) + list(X.noise_exprs())]
    if any(TIME in free_vars(comp) for comp in components):
        return None
    slopes = [simplify(differentiate(comp, v)) for comp in components for v in coords]
    if any(free_vars(slope) for slope in slopes):
        return None
    try:
        values, failed = Kernel(slopes + components, coords, ctx.params).strict([0.0] * d)
    except EvaluationError:  # an unbound parameter
        return None
    if failed[0]:
        return None
    return values[: d * d, 0].reshape(d, d), values[d * d :, 0]


def flow_map(X: VectorField, s: float) -> Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]:
    """Finite flow exp(s X) acting on stacked (states, w) arrays.

    Affine fields (all the linear scaling / rotation / shear actions) flow
    exactly through the matrix exponential of the augmented generator;
    anything else is integrated numerically with fixed-step RK4."""
    ctx = X.ctx
    d = ctx.n + ctx.m
    affine = _affine_generator(X)
    if affine is not None:
        L, c = affine
        aug = np.zeros((d + 1, d + 1))
        aug[:d, :d] = L
        aug[:d, d] = c
        Phi = expm(s * aug)

        def apply_affine(states: np.ndarray, w: np.ndarray):
            z = np.concatenate([states, w, np.ones((states.shape[0], 1))], axis=1)
            out = z @ Phi.T
            return out[:, : ctx.n], out[:, ctx.n : d]

        return apply_affine

    components = [simplify(e) for e in list(X.phi) + list(X.noise_exprs())]
    kernel = Kernel(components, ctx.states() + ctx.wieners() + (TIME,), ctx.params)

    def velocity(z: np.ndarray) -> np.ndarray:
        return kernel([*z.T, 0.0], out=np.empty(z.shape))

    substeps = 64

    def apply_numeric(states: np.ndarray, w: np.ndarray):
        z = np.concatenate([states, w], axis=1).astype(float)
        h = s / substeps
        with np.errstate(all="ignore"):
            for _ in range(substeps):
                k1 = velocity(z)
                k2 = velocity(z + 0.5 * h * k1)
                k3 = velocity(z + 0.5 * h * k2)
                k4 = velocity(z + h * k3)
                z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return z[:, : ctx.n], z[:, ctx.n :]

    return apply_numeric


def apply_group_map(ens: Ensemble, X: VectorField, s: float) -> Ensemble:
    """Apply the finite map exp(s X) to every snapshot of an ensemble,
    transforming states and Brownian values consistently."""
    mapping = flow_map(X, s)
    states = np.empty_like(ens.states)
    ws = np.empty_like(ens.w)
    for snap in range(ens.states.shape[0]):
        states[snap], ws[snap] = mapping(ens.states[snap], ens.w[snap])
    excluded = ens.excluded | ~np.all(np.isfinite(states[-1]), axis=1)
    return Ensemble(
        ctx=ens.ctx,
        scheme=ens.scheme + "+map",
        t0=ens.t0,
        T=ens.T,
        dt=ens.dt,
        steps=ens.steps,
        n_paths=ens.n_paths,
        seed=ens.seed,
        snap_steps=ens.snap_steps,
        states=states,
        w=ws,
        excluded=excluded,
    )


# ---------------------------------------------------------------------------
# statistics


@dataclass
class StatsReport:
    times: np.ndarray
    mean: np.ndarray  # (K, n)
    var: np.ndarray
    se: np.ndarray
    n_effective: int
    excluded_fraction: float
    ks_at_terminal: Optional[np.ndarray] = None  # per component, when compared

    def to_csv(self) -> str:
        n = self.mean.shape[1]
        header = ["t"]
        for i in range(1, n + 1):
            header += [f"mean_{i}", f"var_{i}", f"se_{i}"]
        lines = [",".join(header)]
        for row in range(len(self.times)):
            cells = [f"{self.times[row]:.10g}"]
            for i in range(n):
                cells += [
                    f"{self.mean[row, i]:.10g}",
                    f"{self.var[row, i]:.10g}",
                    f"{self.se[row, i]:.10g}",
                ]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def ensemble_stats(ens: Ensemble) -> StatsReport:
    include = ~ens.excluded
    n_eff = int(np.sum(include))
    if n_eff == 0:
        raise FlowError("all paths were excluded")
    data = ens.states[:, include, :]
    mean = data.mean(axis=1)
    var = data.var(axis=1, ddof=1) if n_eff > 1 else np.zeros_like(mean)
    se = np.sqrt(var / n_eff)
    return StatsReport(
        times=ens.times,
        mean=mean,
        var=var,
        se=se,
        n_effective=n_eff,
        excluded_fraction=ens.excluded_fraction,
    )


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    return float(ks_2samp(a, b, method="asymp").statistic)


def ks_threshold(n1: int, n2: int, alpha: float = 1e-3) -> float:
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c * math.sqrt((n1 + n2) / (n1 * n2))


@dataclass
class ValidationReport:
    verdict: str  # 'pass' | 'fail' | 'inconclusive'
    mean_sigmas: np.ndarray  # |mean difference| / SE per component
    ks: np.ndarray
    ks_limit: float
    excluded_fraction: float
    detail: str = ""


def symmetry_validation(
    sys,
    X: VectorField,
    s: float,
    x0: Sequence[float],
    t0: float = 0.0,
    T: float = 1.0,
    dt: float = 1e-3,
    n_paths: int = 10000,
    seed: int = 0,
    scheme: Optional[str] = None,
    mean_sigma_limit: float = 4.0,
    ks_alpha: float = 1e-3,
    max_excluded: float = 0.05,
) -> ValidationReport:
    """Distributional check that exp(s X) maps solutions to solutions.

    Ensemble (a): solve from x0 and push every path through the finite map.
    Ensemble (b): solve from the mapped initial point, driving the same
    Brownian increments through the map's Wiener-sector action.  Both are
    stepped in lockstep on one draw of the increments.  For exact
    linear flows the two are nearly pathwise equal; the verdict compares
    terminal means (in units of the standard error of the difference) and
    the per-component Kolmogorov-Smirnov statistic.  The scheme follows the
    calculus of ``sys`` (see `SCHEMES`); a ``scheme`` given must name it,
    and any other name raises ValueError.
    """
    if scheme is not None:
        calculus = {name: calc for calc, name in SCHEMES.items()}.get(scheme)
        if calculus is None:
            raise ValueError(f"unknown scheme {scheme!r}")
        sys.require(calculus, f"scheme {scheme!r}")
    mapping = flow_map(X, s)
    x0_arr = np.asarray(x0, dtype=float)[None, :]
    x0_mapped, _ = mapping(x0_arr, np.zeros((1, sys.ctx.m)))
    if isinstance(X.noise, LinearW):
        dw_transform = expm(s * X.noise.matrix)
    else:
        dw_transform = None
    base, direct = _simulate(
        [Run(sys, x0), Run(sys, x0_mapped[0], dw_transform)],
        t0, T, dt, n_paths, seed, snapshots=2,
    )
    mapped = apply_group_map(base, X, s)

    include = ~(mapped.excluded | direct.excluded)
    frac_excluded = 1.0 - float(np.mean(include))
    n_eff = int(np.sum(include))
    a = mapped.terminal_states()[include]
    b = direct.terminal_states()[include]
    se = np.sqrt(a.var(axis=0, ddof=1) / n_eff + b.var(axis=0, ddof=1) / n_eff)
    se = np.where(se == 0, 1e-300, se)
    mean_sigmas = np.abs(a.mean(axis=0) - b.mean(axis=0)) / se
    ks = np.array([ks_statistic(a[:, i], b[:, i]) for i in range(a.shape[1])])
    limit = ks_threshold(n_eff, n_eff, ks_alpha)

    if frac_excluded > max_excluded:
        verdict = "inconclusive"
        detail = f"{frac_excluded:.1%} of paths excluded (> {max_excluded:.0%})"
    elif np.all(mean_sigmas < mean_sigma_limit) and np.all(ks < limit):
        verdict = "pass"
        detail = ""
    else:
        verdict = "fail"
        detail = f"max mean deviation {float(np.max(mean_sigmas)):.2f} SE, max KS {float(np.max(ks)):.4f}"
    return ValidationReport(verdict, mean_sigmas, ks, limit, frac_excluded, detail)


# ---------------------------------------------------------------------------
# evaluation of stochastic quadrature solution forms


def evaluate_solution_form(sf: SolutionForm, grid: BrownianGrid, x0: float) -> np.ndarray:
    """Evaluate x(t) = x0 + int F dt + sum_k int S_k dw^k along one path:
    trapezoidal rule for the dt integral, left-point (non-anticipating)
    sums for the stochastic integrals."""
    times = grid.times
    K = len(times)
    kernel = Kernel([sf.drift, *sf.noises], (TIME,) + sf.ctx.wieners(), sf.ctx.params)
    values = kernel([times, *grid.w.T], out=np.empty((K, 1 + len(sf.noises))))
    drift_vals = values[:, 0]
    out = np.empty(K)
    out[0] = x0
    drift_cum = np.concatenate(
        [[0.0], np.cumsum(0.5 * (drift_vals[1:] + drift_vals[:-1]) * grid.dt)]
    )
    stoch_cum = np.zeros(K)
    for k in range(len(sf.noises)):
        noise_vals = values[:, 1 + k]
        stoch_cum += np.concatenate(
            [[0.0], np.cumsum(noise_vals[:-1] * grid.increments[:, k])]
        )
    return x0 + drift_cum + stoch_cum


class _Quadrature:
    """Running sums of a solution form x0 + int F dt + sum_k int S_k dw^k over
    every path: trapezoidal in time, left-point in w.  Only the sums and the
    current w are stored."""

    def __init__(self, sf: SolutionForm, t0: float, dt: float, n_paths: int, x0: float):
        m = sf.ctx.m
        columns = (TIME,) + sf.ctx.wieners()
        self.drift = Kernel([sf.drift], columns, sf.ctx.params)
        self.noises = Kernel(sf.noises[:m], columns, sf.ctx.params)
        self.m, self.dt, self.n_paths, self.x0 = m, dt, n_paths, x0
        self.w = np.zeros((n_paths, m))
        self.drift_sum = np.zeros(n_paths)
        self.stoch_sum = np.zeros(n_paths)
        with np.errstate(all="ignore"):
            self.prev_drift = self.at(self.drift, t0)[:, 0]

    def at(self, kernel: Kernel, t: float) -> np.ndarray:
        return kernel([t, *self.w.T], out=np.empty((self.n_paths, len(kernel.outputs))))

    def step(self, s: int, t: float, dW: np.ndarray) -> None:
        noise_vals = self.at(self.noises, t)
        for k in range(self.m):
            self.stoch_sum += noise_vals[:, k] * dW[:, k]
        self.w = self.w + dW
        new_drift = self.at(self.drift, t + self.dt)[:, 0]
        self.drift_sum += 0.5 * (self.prev_drift + new_drift) * self.dt
        self.prev_drift = new_drift

    def terminals(self) -> np.ndarray:
        return self.x0 + self.drift_sum + self.stoch_sum


def solution_form_terminals(
    sf: SolutionForm,
    t0: float,
    T: float,
    dt: float,
    n_paths: int,
    seed: int,
    x0: float,
) -> np.ndarray:
    """Terminal values of the solution form over the same Brownian ensemble
    that `euler_maruyama` would generate for (seed, n_paths); streamed, so
    nothing but running sums is stored."""
    steps = int(round((T - t0) / dt))
    quadrature = _Quadrature(sf, t0, dt, n_paths, x0)
    _lockstep([quadrature], seed, n_paths, sf.ctx.m, t0, dt, steps)
    return quadrature.terminals()


@dataclass
class PipelineReport:
    """Solution-form terminals mapped back to the original variable and
    compared with direct simulation on the same increments."""

    excluded_fraction: float
    terminal_mean_pipeline: float
    terminal_mean_direct: float
    difference_se_units: float  # |mean difference| / SE of the difference


def pipeline_crosscheck(
    system: ItoSystem,
    cov: ChangeOfVariables,
    form: SolutionForm,
    x0: float,
    T: float,
    dt: float,
    n_paths: int,
    seed: int,
) -> PipelineReport:
    """Cross-check a scalar system integrated in its symmetry-adapted
    variable against direct simulation of the system itself.

    The solution form starts from forward(x0) at t = 0 and is summed in
    lockstep with the direct Euler-Maruyama run, on one draw of the
    increments of (seed, n_paths).  Its terminals are mapped back through ``cov.inverse``, or through the
    damped-Newton `numeric_inverse` when no inverse is given.  Paths whose
    map-back is not finite, or that the direct run excluded, are dropped
    from both means."""
    system.require("ito", "pipeline_crosscheck")
    ctx = system.ctx
    start = dict.fromkeys(ctx.all_vars(), 0.0)
    start[state(1)] = x0
    y0 = evaluate(cov.forward[0], start, ctx.params)
    if form.ctx.m != ctx.m:
        raise ValueError("the solution form and the system differ in the number of Wiener processes")
    quadrature = _Quadrature(form, 0.0, dt, n_paths, y0)
    integrator = _Integrator(Run(system, [x0]), 0.0, T, dt, n_paths, seed, snapshots=2)
    _lockstep([quadrature, integrator], seed, n_paths, ctx.m, 0.0, dt, integrator.steps)
    terminals = quadrature.terminals()
    direct = integrator.ensemble()
    w_T = direct.w[-1]
    x_T = direct.terminal_states()[:, 0]
    if cov.inverse is not None:
        inverse = Kernel(cov.inverse[:1], ctx.all_vars(), ctx.params)
        mapped_back = inverse([terminals, T, *w_T.T], out=np.empty((n_paths, 1)))[:, 0]
    else:
        solve = numeric_inverse(cov)
        mapped_back = np.full_like(terminals, np.nan)
        for p in range(n_paths):
            try:
                mapped_back[p] = solve(terminals[p], T, w_T[p], x_T[p])
            except ReductionError:
                pass
    ok = np.isfinite(mapped_back) & ~direct.excluded
    a = mapped_back[ok]
    b = x_T[ok]
    se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    diff = abs(float(a.mean() - b.mean()))
    return PipelineReport(
        excluded_fraction=1.0 - float(np.mean(ok)),
        terminal_mean_pipeline=float(a.mean()),
        terminal_mean_direct=float(b.mean()),
        # a NaN SE (fewer than two kept paths) stays NaN and fails any bound
        difference_se_units=diff / se if se != 0 else 0.0,
    )
