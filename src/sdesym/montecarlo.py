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
That loop draws on both threads: each block of several steps is cut into
chunks of whole steps, one executor worker claims the chunks of the next
block from the front while the calling thread steps the current block, and
the calling thread then claims what is left from the back before it waits
for the worker.  Where stepping is slower than drawing, the worker has
claimed every chunk by then and the calling thread only steps.  No setting
changes this, and because each value depends only on (seed, path, step,
component), no output depends on the number of CPUs, on how the steps are
blocked and chunked, or on which thread filled a chunk.

The steppers' per-step buffers are rows of N paths, the path index on the
contiguous axis; blocks of increments and histories stay (steps, N, m) and
(K, N, n).  Each path sees the same operations in either layout.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
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
from .symmetry import GeneralH, LinearW, VectorField

# the integrator of each calculus, by the name ``Ensemble.scheme`` records
SCHEMES = {"ito": "euler_maruyama", "stratonovich": "heun"}

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_DIVERGENCE_BOUND = 1e10
# `_lockstep` draws increments in blocks of about _BLOCK_VALUES values (at
# least one step) in two buffers, each block filled in chunks of about
# _CHUNK_VALUES values (whole steps, at least one) by two threads.  Smaller
# chunks hand the interpreter lock between the threads more often: one-step
# chunks of 20 000 values made a Heun run slower than one drawing thread.
_CHUNK_VALUES = 1 << 16
_BLOCK_VALUES = 3 * _CHUNK_VALUES
# the paired rule (`_verdict`): more than MAX_EXCLUDED of the paths excluded
# is inconclusive, a gap of MEAN_SIGMA_LIMIT SE or more fails; a symmetry
# validation also fails on a KS statistic over its level-KS_ALPHA threshold
MEAN_SIGMA_LIMIT = 4.0
MAX_EXCLUDED = 0.05
KS_ALPHA = 1e-3


class FlowError(ValueError):
    """A simulation, map or statistic that cannot be carried out on its
    inputs: a time grid that does not reach the horizon, a flow that fails,
    an ensemble with every path excluded."""


def _step_count(t0: float, T: float, dt: float) -> int:
    """The number of steps dt from t0 to T.  Raises FlowError unless
    (T - t0) / dt is within 1e-9 (relative) of a whole number >= 1: a
    rounded count would end the run at another time than T."""
    ratio = (T - t0) / dt
    steps = round(ratio) if math.isfinite(ratio) else 0
    if steps < 1 or abs(ratio - steps) > 1e-9 * steps:
        raise FlowError(f"dt = {dt:g} does not divide the time span {T - t0:g} "
                        f"into a whole number of steps (it gives {ratio:.6g})")
    return steps


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
    """Fill the float64 array ``out`` of shape (steps, len(path_keys), m)
    with the uniforms in (0, 1) of each path at the (steps, m) counter
    ``positions``; ``bits`` is uint64 scratch of that shape.  Returns
    ``out``."""
    np.add(path_keys[:, None], GOLDEN * (positions[:, None, :] + np.uint64(1)), out=bits)
    _mix13(bits, out.view(np.uint64))  # out is free until the conversion below
    np.right_shift(bits, np.uint64(11), out=bits)
    np.add(bits, 0.5, out=out)  # bits < 2^53 converts exactly
    out *= 2.0 ** -53
    return out


class Increments:
    """Brownian increments of (seed, n_paths, m, dt).

    The path keys are computed once.  ``fill(out, s0)`` writes the
    increments of steps s0, s0 + 1, ... into the (steps, n_paths, m) array
    ``out``.  ``step(s)`` is its one-step case: the (n_paths, m) block
    Delta W of step s."""

    def __init__(self, seed: int, n_paths: int, m: int, dt: float):
        self.keys = _path_keys(seed, n_paths)
        self.m = m
        self.sqrt_dt = math.sqrt(dt)
        self._components = np.arange(m, dtype=np.uint64)

    def fill(self, out: np.ndarray, s0: int) -> np.ndarray:
        steps = np.arange(s0, s0 + len(out), dtype=np.uint64)
        positions = steps[:, None] * np.uint64(self.m) + self._components
        bits = np.empty(out.shape, dtype=np.uint64)
        _uniforms(self.keys, positions, bits, out)
        ndtri(out, out=out)
        out *= self.sqrt_dt
        return out

    def step(self, s: int) -> np.ndarray:
        return self.fill(np.empty((1, len(self.keys), self.m)), s)[0]


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
        steps = _step_count(t0, T, dt)
        block = Increments(seed, path_index + 1, m, dt).fill(np.empty((steps, path_index + 1, m)), 0)
        incs = block[:, path_index].copy()
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
    w: Optional[np.ndarray]  # (K, N, m) cumulative Brownian values; None when not recorded
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
    """The only time-step loop: advance every stepper on each step's
    increments, in order.  A stepper reads the shared block and never writes
    into it.

    Each block of increments is filled in chunks, popped by the executor's
    one worker from the front of a deque and by this thread from the back.
    The worker is queued on block i + 1, into the buffer block i - 1 has
    left, before this thread fills what is left of block i and waits for
    the worker's share; while this thread steps block i, the worker draws
    ahead.  Where stepping is slow the worker has popped every chunk first,
    and this thread only steps.  An error in either thread is raised here,
    and the worker has ended when the call returns."""
    increments = Increments(seed, n_paths, m, dt)
    width = max(n_paths * m, 1)
    per_block = min(steps, max(1, _BLOCK_VALUES // width))
    per_chunk = max(1, _CHUNK_VALUES // width)
    n_blocks = -(-steps // per_block)
    buffers = [np.empty((per_block, n_paths, m)) for _ in range(min(2, n_blocks))]

    def fill(block: np.ndarray, s0: int, claim: Callable[[], int]) -> None:
        """Fill the chunks of ``block`` (steps s0, s0 + 1, ...) that
        ``claim`` hands out, until it has none left."""
        with np.errstate(all="ignore"):
            while True:
                try:
                    j = claim()
                except IndexError:
                    return
                increments.fill(block[j : j + per_chunk], s0 + j)

    with ThreadPoolExecutor(max_workers=1) as worker, np.errstate(all="ignore"):

        def queue(i: int):
            s0 = i * per_block
            block = buffers[i % len(buffers)][: min(per_block, steps - s0)]
            chunks = deque(range(0, len(block), per_chunk))
            return block, s0, chunks, worker.submit(fill, block, s0, chunks.popleft)

        ahead = queue(0)
        for i in range(n_blocks):
            block, s0, chunks, front = ahead
            if i + 1 < n_blocks:
                ahead = queue(i + 1)
            fill(block, s0, chunks.pop)
            front.result()
            for j, dW in enumerate(block):
                s = s0 + j
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
    """One run's paths and the buffers its steps reuse, as rows of N paths:
    ``x`` and ``new_x`` (n, N), ``c`` (n + n*m, N) with row i f_i and row
    n + i*m + k sigma_ik.  While every path lives a step swaps ``x`` and
    ``new_x``; once one is excluded, only kept paths are copied back."""

    def __init__(self, run: Run, t0: float, T: float, dt: float, n_paths: int, seed: int, snapshots: int,
                 wiener: bool = True):
        ctx = run.system.ctx
        n, m = ctx.n, ctx.m
        x0 = np.asarray(run.x0, dtype=float).ravel()
        if x0.size != n:
            raise FlowError(f"the start x0 has {x0.size} entries; the model has n = {n} states")
        coefficients = [*run.system.drift, *(run.system.sigma[i][k] for i in range(n) for k in range(m))]
        self.kernel = Kernel([simplify(e) for e in coefficients], ctx.states() + (TIME,), ctx.params)
        self.run, self.n, self.m = run, n, m
        self.RT = None if run.dw_transform is None else np.ascontiguousarray(np.transpose(run.dw_transform))
        self.t0, self.T, self.dt, self.n_paths, self.seed = t0, T, dt, n_paths, seed
        self.steps = _step_count(t0, T, dt)
        self.snap = _snapshot_steps(self.steps, snapshots)
        self.snap_index = {int(s): i for i, s in enumerate(self.snap)}
        self.c = np.empty((len(coefficients), n_paths))
        self.c_pred = np.empty_like(self.c) if run.system.calculus == "stratonovich" else None
        self.x = np.repeat(x0[:, None], n_paths, axis=1)
        self.new_x = np.empty_like(self.x)
        self.incr = np.empty(n_paths)
        self.term = np.empty(n_paths)
        self.magnitude = np.empty_like(self.x)
        self.ok = np.empty(self.x.shape, dtype=bool)
        self.alive = np.ones(n_paths, dtype=bool)
        self.every_path_alive = True
        self.states = np.empty((len(self.snap), n_paths, n))
        # the running w and its snapshots, or None when w is not recorded
        self.w = np.zeros((n_paths, m)) if wiener else None
        self.ws = np.empty((len(self.snap), n_paths, m)) if wiener else None
        if 0 in self.snap_index:
            self._record(self.snap_index[0])

    def _record(self, k: int) -> None:
        self.states[k] = self.x.T
        if self.ws is not None:
            self.ws[k] = self.w

    def step(self, s: int, t: float, dW: np.ndarray) -> None:
        n, m, dt = self.n, self.m, self.dt
        x, new_x, c, incr, term = self.x, self.new_x, self.c, self.incr, self.term
        if self.RT is not None:
            dW = np.dot(dW, self.RT)
        # Euler-Maruyama step, which is also Heun's predictor
        self.kernel([*x, t], out=c)
        for i in range(n):
            np.multiply(c[i], dt, out=incr)
            for k in range(m):
                incr += np.multiply(c[n + i * m + k], dW[:, k], out=term)
            np.add(x[i], incr, out=new_x[i])
        if self.c_pred is not None:
            c_pred = self.kernel([*new_x, t + dt], out=self.c_pred)
            for i in range(n):
                np.add(c[i], c_pred[i], out=incr)
                incr *= 0.5
                incr *= dt
                for k in range(m):
                    j = n + i * m + k
                    np.add(c[j], c_pred[j], out=term)
                    term *= 0.5
                    term *= dW[:, k]
                    incr += term
                np.add(x[i], incr, out=new_x[i])

        # also false for NaN and inf
        np.less(np.abs(new_x, out=self.magnitude), _DIVERGENCE_BOUND, out=self.ok)
        if self.every_path_alive and self.ok.all():
            self.x, self.new_x = new_x, x
        else:
            self.every_path_alive = False
            self.alive &= self.ok.all(axis=0)
            np.copyto(x, new_x, where=self.alive)
        if self.w is not None:
            self.w += dW
        if (s + 1) in self.snap_index:
            self._record(self.snap_index[s + 1])

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
    *,
    wiener: bool = True,
) -> List[Ensemble]:
    """Advance every run on the increments of (seed, n_paths) in lockstep.
    Each ensemble equals the one its run gives alone.  With ``wiener``
    false no ensemble records its Wiener values (``Ensemble.w`` is None);
    every other array is the same."""
    m = runs[0].system.ctx.m
    if any(run.system.ctx.m != m for run in runs):
        raise ValueError("runs in lockstep must share the number of Wiener processes")
    integrators = [_Integrator(run, t0, T, dt, n_paths, seed, snapshots, wiener) for run in runs]
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
    *,
    wiener: bool = True,
) -> Ensemble:
    """Strong order-1/2 explicit scheme for the Ito interpretation:
    x_{s+1} = x_s + f(x_s, t_s) dt + sigma(x_s, t_s) dW_s.

    dt must divide T - t0 into a whole number of steps (FlowError
    otherwise).  With ``wiener`` false the (K, N, m) history of w is not
    stored and ``Ensemble.w`` is None; the states and excluded paths are the
    same."""
    sys.require("ito", "euler_maruyama")
    run = Run(sys, x0, dw_transform)
    return _simulate([run], t0, T, dt, n_paths, seed, snapshots, wiener=wiener)[0]


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
    *,
    wiener: bool = True,
) -> Ensemble:
    """Predictor-corrector (midpoint) scheme converging to the Stratonovich
    interpretation; reuses the same Brownian increments as the Ito scheme
    for a given seed.  The grid and ``wiener`` are as in `euler_maruyama`."""
    sys.require("stratonovich", "heun_stratonovich")
    run = Run(sys, x0, dw_transform)
    return _simulate([run], t0, T, dt, n_paths, seed, snapshots, wiener=wiener)[0]


# ---------------------------------------------------------------------------
# finite group maps


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
        return kernel([*z, 0.0], out=np.empty(z.shape))

    substeps = 64

    def apply_numeric(states: np.ndarray, w: np.ndarray):
        z = np.concatenate([states, w], axis=1).T.astype(float, order="C")  # (d, N) rows
        h = s / substeps
        with np.errstate(all="ignore"):
            for _ in range(substeps):
                k1 = velocity(z)
                k2 = velocity(z + 0.5 * h * k1)
                k3 = velocity(z + 0.5 * h * k2)
                k4 = velocity(z + h * k3)
                z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return z[: ctx.n].T, z[ctx.n :].T

    return apply_numeric


def apply_group_map(ens: Ensemble, X: VectorField, s: float) -> Ensemble:
    """Apply the finite map exp(s X) to every snapshot of an ensemble,
    transforming states and Brownian values consistently."""
    if ens.w is None:
        raise FlowError("the ensemble did not record w: simulate it with wiener=True to map it")
    mapping = flow_map(X, s)
    states = np.empty_like(ens.states)
    ws = np.empty_like(ens.w)
    for snap in range(ens.states.shape[0]):
        states[snap], ws[snap] = mapping(ens.states[snap], ens.w[snap])
    excluded = ens.excluded | ~np.all(np.isfinite(states[-1]), axis=1)
    return replace(ens, scheme=ens.scheme + "+map", states=states, w=ws, excluded=excluded)


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
    """Mean, sample variance (ddof 1) and standard error over the kept paths
    at every snapshot; the variance is zero when one path is kept.

    The history is reduced one snapshot at a time: the scratch is a few
    (N', n) arrays for N' kept paths (one of them the snapshot's kept
    rows), with no copy of ``ens.states`` and no temporary of its size.  The sums keep the order of
    ``ens.states[:, kept].mean(axis=1)`` and ``.var(axis=1, ddof=1)``, so
    the values equal those bit for bit: mean = S(x) / N' and
    var = S((x - mean)^2) / (N' - 1), where S adds the kept paths one after
    the other in path order (a cumulative sum), except for a single scalar
    snapshot (K = n = 1), where S is numpy's pairwise sum of a contiguous
    vector.
    """
    include = ~ens.excluded
    n_eff = int(np.sum(include))
    if n_eff == 0:
        raise FlowError("all paths were excluded")
    K, _, n = ens.states.shape
    pairwise = K * n == 1
    partial = np.empty((n_eff, n))
    dev = np.empty((n_eff, n))

    def path_sum(x: np.ndarray) -> np.ndarray:
        return x.sum(axis=0) if pairwise else np.cumsum(x, axis=0, out=partial)[-1]

    mean = np.empty((K, n))
    var = np.zeros((K, n))
    for k in range(K):
        x = ens.states[k][include]
        mean[k] = path_sum(x) / n_eff
        if n_eff > 1:
            np.square(np.subtract(x, mean[k], out=dev), out=dev)
            var[k] = path_sum(dev) / (n_eff - 1)
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


def _verdict(excluded_fraction: float, gaps) -> str:
    """The paired rule; a NaN gap means fewer than two paths were kept."""
    if excluded_fraction > MAX_EXCLUDED or np.any(np.isnan(gaps)):
        return "inconclusive"
    return "pass" if np.all(gaps < MEAN_SIGMA_LIMIT) else "fail"


def _paired(a: np.ndarray, b: np.ndarray, kept: np.ndarray) -> Tuple[float, np.ndarray, str]:
    """The excluded fraction, the gaps |mean a - mean b| / sqrt(var a / N +
    var b / N) over the N paths ``kept`` (along axis 0, ddof 1; NaN when
    N < 2) and the verdict of two sides' terminal values, (N,) or (N, n).
    A zero SE gives a gap of 0 when the means are equal, else inf."""
    excluded_fraction = 1.0 - float(np.mean(kept))
    n = int(np.sum(kept))
    gaps = np.full(a.shape[1:], np.nan)
    if n >= 2:
        a, b = a[kept], b[kept]
        se = np.sqrt(a.var(axis=0, ddof=1) / n + b.var(axis=0, ddof=1) / n)
        diff = np.abs(a.mean(axis=0) - b.mean(axis=0))
        with np.errstate(divide="ignore", invalid="ignore"):
            gaps = np.where(diff == 0, 0.0, diff / se)
    return excluded_fraction, gaps, _verdict(excluded_fraction, gaps)


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
) -> ValidationReport:
    """Distributional check that exp(s X) maps solutions to solutions.

    Ensemble (a): solve from x0 and push every path through the finite map.
    Ensemble (b): solve from the mapped initial point, driving the same
    Brownian increments through the map's Wiener-sector action.  Both are
    stepped in lockstep on one draw of the increments.  For exact
    linear flows the two are nearly pathwise equal; the verdict is
    `_paired`'s on the terminal states, and a pass also needs every
    per-component Kolmogorov-Smirnov statistic below its threshold.  A
    `GeneralH` field is inconclusive without a run: its Wiener action is not
    a map of the increments, so (b) would have no driver.  The scheme
    follows the calculus of ``sys`` (see `SCHEMES`); a ``scheme`` given must
    name it, and any other name raises ValueError.
    """
    if scheme is not None:
        calculus = {name: calc for calc, name in SCHEMES.items()}.get(scheme)
        if calculus is None:
            raise ValueError(f"unknown scheme {scheme!r}")
        sys.require(calculus, f"scheme {scheme!r}")
    nan = np.full(sys.ctx.n, np.nan)
    if isinstance(X.noise, GeneralH):
        detail = "a GeneralH field gives the mapped run no driver: its w action maps no increments"
        return ValidationReport("inconclusive", nan, nan.copy(), math.nan, math.nan, detail)
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
    a, b = mapped.terminal_states(), direct.terminal_states()
    frac_excluded, mean_sigmas, verdict = _paired(a, b, include)
    n_eff = int(np.sum(include))
    if n_eff < 2:
        detail = f"{frac_excluded:.1%} of paths excluded, {n_eff} kept (< 2)"
        return ValidationReport(verdict, mean_sigmas, nan, math.nan, frac_excluded, detail)
    a, b = a[include], b[include]
    ks = np.array([ks_statistic(a[:, i], b[:, i]) for i in range(a.shape[1])])
    limit = ks_threshold(n_eff, n_eff, KS_ALPHA)

    if verdict == "inconclusive":
        detail = f"{frac_excluded:.1%} of paths excluded (> {MAX_EXCLUDED:.0%})"
    elif verdict == "pass" and np.all(ks < limit):
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
    values = kernel([times, *grid.w.T], out=np.empty((1 + len(sf.noises), K)))
    drift_vals = values[0]
    drift_cum = np.concatenate(
        [[0.0], np.cumsum(0.5 * (drift_vals[1:] + drift_vals[:-1]) * grid.dt)]
    )
    stoch_cum = np.zeros(K)
    for k in range(len(sf.noises)):
        noise_vals = values[1 + k]
        stoch_cum += np.concatenate(
            [[0.0], np.cumsum(noise_vals[:-1] * grid.increments[:, k])]
        )
    return x0 + drift_cum + stoch_cum


class _Quadrature:
    """Running sums of a solution form x0 + int F dt + sum_k int S_k dw^k over
    every path: trapezoidal in time, left-point in w.  Only the sums, the
    current w and one step's integrand values are stored, as rows of paths."""

    def __init__(self, sf: SolutionForm, t0: float, dt: float, n_paths: int, x0: float):
        m = sf.ctx.m
        columns = (TIME,) + sf.ctx.wieners()
        held = set().union(*(free_vars(e) for e in (sf.drift, *sf.noises[:m]))).difference(columns)
        if held:
            names = ", ".join(sorted(v.name for v in held))
            raise ReductionError(f"the solution form still depends on {names}; "
                                 "its integrands may hold only t and w")
        self.drift = Kernel([sf.drift], columns, sf.ctx.params)
        self.noises = Kernel(sf.noises[:m], columns, sf.ctx.params)
        self.m, self.dt, self.n_paths, self.x0 = m, dt, n_paths, x0
        self.w = np.zeros((m, n_paths))
        self.drift_sum = np.zeros(n_paths)
        self.stoch_sum = np.zeros(n_paths)
        self.noise_vals = np.empty((m, n_paths))
        self.prev_drift = np.empty((1, n_paths))
        self.new_drift = np.empty((1, n_paths))
        with np.errstate(all="ignore"):
            self.drift([t0, *self.w], out=self.prev_drift)

    def step(self, s: int, t: float, dW: np.ndarray) -> None:
        self.noises([t, *self.w], out=self.noise_vals)
        for k in range(self.m):
            self.stoch_sum += self.noise_vals[k] * dW[:, k]
        self.w += dW.T
        self.drift([t + self.dt, *self.w], out=self.new_drift)
        self.drift_sum += 0.5 * (self.prev_drift[0] + self.new_drift[0]) * self.dt
        self.prev_drift, self.new_drift = self.new_drift, self.prev_drift

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
    steps = _step_count(t0, T, dt)
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

    @property
    def verdict(self) -> str:
        return _verdict(self.excluded_fraction, self.difference_se_units)


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
    variable y = Phi(x, t; w), a map that fixes w, against direct simulation
    of the system itself.

    The solution form starts from forward(x0) at t = 0 and is summed in
    lockstep with the direct Euler-Maruyama run, on one draw of the
    increments of (seed, n_paths).  Its terminals are mapped back through ``cov.inverse``, or through the
    damped-Newton `numeric_inverse` when no inverse is given.  Paths whose
    map-back is not finite, or that the direct run excluded, are dropped
    from both means."""
    system.require("ito", "pipeline_crosscheck")
    if cov.wiener is not None:
        raise ReductionError("the cross-check needs a change of variables that fixes the Wiener variables")
    ctx = system.ctx
    start = dict.fromkeys(ctx.all_vars(), 0.0)
    start[state(1)] = x0
    try:
        y0 = evaluate(cov.forward[0], start, ctx.params)
    except EvaluationError as err:
        raise FlowError(f"the change of variables has no finite value at x0 = {x0:g}: {err}") from None
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
        mapped_back = inverse([terminals, T, *w_T.T], out=np.empty((1, n_paths)))[0]
    else:
        solve = numeric_inverse(cov)
        mapped_back = np.full_like(terminals, np.nan)
        for p in range(n_paths):
            try:
                mapped_back[p] = solve(terminals[p], T, w_T[p], x_T[p])
            except ReductionError:
                pass
    ok = np.isfinite(mapped_back) & ~direct.excluded
    excluded_fraction, gap, _ = _paired(mapped_back, x_T, ok)
    return PipelineReport(excluded_fraction, float(mapped_back[ok].mean()), float(x_T[ok].mean()), float(gap))
