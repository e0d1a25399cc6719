"""Regression corpus over the bundled models.

Every case returns pass/fail/inconclusive with a one-line detail; the CLI
``examples`` subcommand prints the table and exits nonzero on failure.
The randomized-family generators and the measurements behind the Monte
Carlo and randomized cases live here too, so that the acceptance tests
run the same code as this corpus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import montecarlo as mc
from .expr import (
    Const,
    Context,
    Expr,
    Power,
    TIME,
    Var,
    ZERO,
    ZeroTestConfig,
    add,
    differentiate,
    expressions_equal,
    is_identically_zero,
    mul,
    parse,
    simplify,
    state,
    to_string,
)
from .modelfile import ModelBundle, load_model
from .reduction import (
    ChangeOfVariables,
    compatibility_check,
    integrate_scalar,
    reduce_step,
    rotation_adapted_cov,
    scaling_adapted_cov,
    transform_ito,
    transform_W,
)
from .sde import ItoSystem, ito_to_strat
from .symmetry import (
    LinearW,
    VectorField,
    agreement_analysis,
    classify,
    compare_calculi,
    conformal_check,
    residuals,
    solvability_check,
)


@dataclass
class CaseResult:
    name: str
    status: str  # 'pass' | 'fail' | 'inconclusive'
    detail: str = ""
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail, **self.data}


def _bundled(name: str) -> ModelBundle:
    from .cli import bundled_model

    return load_model(bundled_model(name))


def _ok(name, condition: bool, detail: str = "", data: Optional[dict] = None) -> CaseResult:
    return CaseResult(name, "pass" if condition else "fail", detail, data or {})


# ---------------------------------------------------------------------------
# randomized families reused by the acceptance tests


def random_scalar_family(count: int, seed: int) -> List[Tuple[ItoSystem, VectorField, Expr]]:
    """Scalar systems with a non-constant diffusion engineered so that the
    given (phi, R) solves the shared noise-family determining equation:
    phi = x with sigma ~ x^(1-R), or phi = x^2 with sigma ~ x^2 e^(R/x).
    The drift is arbitrary.  Returns (system, field, sigma*sigma_x*R)."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        ctx = Context(n=1, m=1)
        x = Var(state(1))
        mu = float(rng.uniform(0.5, 1.5))
        R = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.4, 1.6))
        a = float(rng.uniform(-1.0, 1.0))
        b = float(rng.uniform(-1.0, 1.0))
        f = add(mul(Const(Fraction(a)), x), mul(Const(Fraction(b)), Power(x, Const(2))))
        if i % 2 == 0:
            if abs(1.0 - R) < 0.05:
                R = 0.5
            phi = x
            sigma = mul(Const(Fraction(mu)), Power(x, Const(Fraction(1.0 - R))))
        else:
            phi = Power(x, Const(2))
            sigma = simplify(
                mul(Const(Fraction(mu)), Power(x, Const(2)),
                    Power(parse("exp(1/x)", ctx), Const(Fraction(R))))
            )
        sys_i = ItoSystem(ctx, (simplify(f),), ((simplify(sigma),),))
        X = VectorField(ctx, (phi,), noise=LinearW.from_matrix([[R]]))
        sig = sys_i.sigma[0][0]
        obstruction = simplify(
            mul(sig, differentiate(sig, state(1)), Const(Fraction(R)))
        )
        out.append((sys_i, X, obstruction))
    return out


def random_split_map_case(rng: np.random.Generator) -> Tuple[ItoSystem, ChangeOfVariables]:
    """A random polynomial Ito system together with a random split map:
    triangular polynomial state map Phi(y, t) of degree <= 3 with unit
    diagonal (hence globally invertible) and a random conformal R."""
    n = int(rng.integers(1, 3))
    m = n
    ctx = Context(n=n, m=m)

    def poly(vars_allowed: List[int], degree: int) -> Expr:
        terms = [Const(Fraction(float(rng.uniform(-0.5, 0.5))))]
        for v in vars_allowed:
            coeff = Const(Fraction(float(rng.uniform(-0.5, 0.5))))
            power = int(rng.integers(1, degree + 1))
            terms.append(mul(coeff, Power(Var(state(v)), Const(power))))
        return simplify(add(*terms))

    drift = tuple(poly(list(range(1, n + 1)), 2) for _ in range(n))
    sigma = tuple(
        tuple(
            simplify(add(Const(Fraction(float(rng.uniform(0.8, 1.5)))) if i == k else ZERO,
                         poly([1], 1) if rng.uniform() < 0.5 else ZERO))
            for k in range(n)
        )
        for i in range(n)
    )
    sys_r = ItoSystem(ctx, drift, sigma)

    # triangular with unit diagonal => Jacobian determinant 1 everywhere;
    # time dependence kept Wiener-free so the map stays split
    forward = []
    for i in range(1, n + 1):
        pieces = [Var(state(i))]
        lower = list(range(1, i))
        if lower:
            pieces.append(poly(lower, 3))
        pieces.append(mul(Const(Fraction(float(rng.uniform(-0.3, 0.3)))), Var(TIME)))
        forward.append(simplify(add(*pieces)))

    lam = float(rng.uniform(0.3, 1.2))
    A = rng.uniform(-1.0, 1.0, size=(m, m))
    R = lam * np.eye(m) + (A - A.T) / 2.0
    return sys_r, ChangeOfVariables(ctx, tuple(forward), wiener=LinearW.from_matrix(R))


# ---------------------------------------------------------------------------
# individual cases


def case_exp_decay_diffusion(config: ZeroTestConfig) -> CaseResult:
    bundle = _bundled("exp_decay_diffusion")
    good = residuals(bundle.vectorfields["shift"], bundle.system, config)
    bad = residuals(bundle.vectorfields["not_a_symmetry"], bundle.system, config)
    ok = good.verdict == "symmetry" and bad.verdict == "not_symmetry"
    return _ok("exp_decay_diffusion", ok, f"shift={good.verdict}, control={bad.verdict}")


def case_exponential_drift(config: ZeroTestConfig) -> CaseResult:
    bundle = _bundled("exponential_drift")
    sys_i: ItoSystem = bundle.system
    rep = residuals(bundle.vectorfields["random"], sys_i, config)
    cls = classify(bundle.vectorfields["timeshift"], sys_i, config)
    control = residuals(bundle.vectorfields["not_a_symmetry"], sys_i, config)
    compat = compatibility_check(sys_i, bundle.vectorfields["random"].phi[0], config)
    rhs_is_expw = expressions_equal(compat.rhs, parse("exp(w)", bundle.ctx), bundle.ctx, config)
    lhs_zero = is_identically_zero(compat.lhs, bundle.ctx, config)
    cov = bundle.covs["rectify"]
    g = transform_ito(sys_i, cov, config)
    F_ok = expressions_equal(g.F[0], parse("exp(w)", bundle.ctx), bundle.ctx, config).is_zero
    S_ok = is_identically_zero(g.S[0][0], bundle.ctx, config).is_zero
    ok = (
        rep.verdict == "symmetry"
        and not cls.simple
        and control.verdict == "not_symmetry"
        and compat.compatible is False
        and lhs_zero.is_zero
        and rhs_is_expw.is_zero
        and F_ok
        and S_ok
        and g.ito_like is False
    )
    return _ok(
        "exponential_drift",
        ok,
        f"random={rep.verdict}, timeshift simple={cls.simple}, compat={compat.compatible}, "
        f"transformed F=e^w:{F_ok} S=0:{S_ok} ito_like={g.ito_like}",
    )


def case_linear_additive(config: ZeroTestConfig) -> CaseResult:
    bundle = _bundled("linear_additive")
    X = bundle.vectorfields["scaling"]
    ito_rep = residuals(X, bundle.system, config)
    strat_rep = residuals(X, ito_to_strat(bundle.system), config)
    agree = compare_calculi(X, ito_rep, strat_rep, bundle.system, config)
    ok = (
        ito_rep.verdict == "symmetry"
        and strat_rep.verdict == "symmetry"
        and agree.agreement == "guaranteed"
    )
    return _ok("linear_additive", ok, f"ito={ito_rep.verdict}, strat={strat_rep.verdict}, {agree.agreement}")


def case_power_noise(config: ZeroTestConfig) -> CaseResult:
    bundle = _bundled("power_noise")
    X = bundle.vectorfields["scaling"]
    ito_rep = residuals(X, bundle.system, config)
    strat_rep = residuals(X, ito_to_strat(bundle.system), config)
    target = parse("alpha*(alpha-1)*mu^2*x^(2*alpha-1)", bundle.ctx)
    resid_matches = expressions_equal(
        strat_rep.entries[0].expr, target, bundle.ctx, config
    )
    agree = compare_calculi(X, ito_rep, strat_rep, bundle.system, config)
    ok = (
        ito_rep.verdict == "symmetry"
        and strat_rep.verdict == "not_symmetry"
        and resid_matches.is_zero
        and agree.agreement == "broken"
    )
    return _ok(
        "power_noise",
        ok,
        f"ito={ito_rep.verdict}, strat={strat_rep.verdict}, residual match={resid_matches.status}",
    )


def case_ei_drift(config: ZeroTestConfig) -> CaseResult:
    bundle = _bundled("ei_drift")
    X = bundle.vectorfields["wscaling"]
    ito_rep = residuals(X, bundle.system, config)
    strat_rep = residuals(X, ito_to_strat(bundle.system), config)
    ok = ito_rep.verdict == "symmetry" and strat_rep.verdict == "not_symmetry"
    return _ok("ei_drift", ok, f"ito={ito_rep.verdict}, strat={strat_rep.verdict}")


def case_conformal_gate(config: ZeroTestConfig) -> CaseResult:
    bundle = _bundled("isotropic_oscillator_2d")
    verdicts = {}
    for name, X in bundle.vectorfields.items():
        verdicts[name] = conformal_check(X.noise.matrix).accepted
    expected = {
        "scaling": True,
        "opposite_scaling": False,
        "hyperbolic": False,
        "rotation": True,
    }
    forced_ok = True
    for name in ("opposite_scaling", "hyperbolic"):
        rep = residuals(bundle.vectorfields[name], bundle.system, config, force=True)
        forced_ok &= rep.verdict == "symmetry"
    ok = verdicts == expected and forced_ok
    return _ok(
        "conformal_gate",
        ok,
        f"accepted={[k for k, v in verdicts.items() if v]}, forced residuals pass={forced_ok}",
    )


def case_commutator_table(config: ZeroTestConfig) -> CaseResult:
    bundle = _bundled("isotropic_oscillator_2d")
    names = ["scaling", "opposite_scaling", "hyperbolic", "rotation"]
    gens = [bundle.vectorfields[n] for n in names]
    # expected [X_i, X_j] = c * X_k with (i, j) -> (coefficient, k); 0 elsewhere
    expected = {
        (1, 2): (-2.0, 3),
        (1, 3): (-2.0, 2),
        (2, 3): (2.0, 1),
    }
    solv = solvability_check(gens, config)
    if solv.structure_constants is None:
        return CaseResult("commutator_table", "inconclusive", solv.detail)
    c = solv.structure_constants
    ok = True
    for i in range(4):
        for j in range(4):
            want = np.zeros(4)
            key = (i, j) if i < j else (j, i)
            if key in expected:
                coeff, k = expected[key]
                want[k] = coeff if i < j else -coeff
            if np.max(np.abs(c[i, j] - want)) > 1e-9:
                ok = False
    pair = solvability_check([gens[0], gens[3]], config)
    ok = ok and pair.status == "solvable" and pair.abelian
    ok = ok and solv.status == "not_solvable"
    return _ok(
        "commutator_table",
        ok,
        f"structure constants recovered, pair solvable+abelian={pair.abelian}, "
        f"full set {solv.status}",
    )


def case_anisotropic_gate(config: ZeroTestConfig) -> CaseResult:
    bundle = _bundled("anisotropic_oscillator_2d")
    joint = bundle.vectorfields["joint_scaling"]
    opposite = bundle.vectorfields["opposite_scaling"]
    ok = conformal_check(joint.noise.matrix).accepted
    ok &= not conformal_check(opposite.noise.matrix).accepted
    ok &= residuals(joint, bundle.system, config).verdict == "symmetry"
    ok &= residuals(opposite, bundle.system, config, force=True).verdict == "symmetry"
    ok &= residuals(joint, ito_to_strat(bundle.system), config).verdict == "symmetry"
    return _ok("anisotropic_gate", ok)


def case_nonlinear_rotation(config: ZeroTestConfig) -> CaseResult:
    bundle = _bundled("isotropic_nonlinear_oscillator")
    X = bundle.vectorfields["rotation"]
    ito_rep = residuals(X, bundle.system, config)
    strat_rep = residuals(X, ito_to_strat(bundle.system), config)
    agree = compare_calculi(X, ito_rep, strat_rep, bundle.system, config)
    ok = (
        ito_rep.verdict == "symmetry"
        and strat_rep.verdict == "symmetry"
        and agree.agreement == "guaranteed"
        and agree.skew
        and not agree.constant_sigma
    )
    return _ok("nonlinear_rotation", ok, f"{ito_rep.verdict}/{strat_rep.verdict}, {agree.agreement}")


def case_scaling_reduction(config: ZeroTestConfig) -> CaseResult:
    bundle = _bundled("linear_additive")
    ctx = bundle.ctx
    cov = scaling_adapted_cov(ctx)
    g = transform_W(bundle.system, cov, config)
    S_ok = expressions_equal(g.S[0][0], parse("mu/(1 - mu*w)", ctx), ctx, config).is_zero
    F_ok = expressions_equal(
        g.F[0], parse("(lam + (1/2)*mu^2/(1 - mu*w))/(1 - mu*w)", ctx), ctx, config
    ).is_zero
    ok = S_ok and F_ok and g.ito_like is False
    return _ok(
        "scaling_reduction",
        ok,
        f"S=mu/(1-mu*z):{S_ok}, F=(lam+mu^2/(2(1-mu*z)))/(1-mu*z):{F_ok}, ito_like={g.ito_like}",
    )


def case_rotation_reduction(config: ZeroTestConfig) -> CaseResult:
    bundle = _bundled("isotropic_nonlinear_oscillator")
    cov = rotation_adapted_cov(bundle.ctx)
    step = reduce_step(bundle.system, bundle.vectorfields["rotation"], cov, config)
    ok = (
        step.translation_kind == "driver"
        and step.coefficients_translation_free
        and step.transformed.ito_like is False
    )
    return _ok(
        "rotation_reduction",
        ok,
        f"translation={step.translation_kind}[{step.translation_index}], "
        f"coefficients free={step.coefficients_translation_free}, ito_like={step.transformed.ito_like}",
    )


def case_counterexamples(config: ZeroTestConfig) -> CaseResult:
    bundle = _bundled("counterexample_fields")
    v1 = residuals(bundle.vectorfields["exponential_w"], bundle.system, config)
    v2 = residuals(bundle.vectorfields["quadratic_w"], bundle.system, config)
    ok = v1.verdict == "not_symmetry" and v2.verdict == "not_symmetry"
    ok = ok and v1.witness is not None and v2.witness is not None
    return _ok("counterexample_fields", ok, f"{v1.verdict}/{v2.verdict}")


def case_constant_coefficients(config: ZeroTestConfig, seed: int) -> CaseResult:
    bundle = _bundled("constant_coefficients")
    X = bundle.vectorfields["shear"]
    rep = residuals(X, bundle.system, config)
    strat_rep = residuals(X, ito_to_strat(bundle.system), config)
    exact, flow_exact = constant_coefficient_deviations(seed, 0.4)
    ok = (
        rep.verdict == "symmetry"
        and strat_rep.verdict == "symmetry"
        and exact < 1e-12
        and flow_exact < 1e-12
    )
    return _ok(
        "constant_coefficients",
        ok,
        f"verdicts {rep.verdict}/{strat_rep.verdict}, scheme exactness {exact:.1e}, "
        f"flow exactness {flow_exact:.1e}",
    )


def case_agreement_randomized(config: ZeroTestConfig, seed: int) -> CaseResult:
    failure = agreement_failure(config, seed)
    return _ok("agreement_randomized", failure is None,
               failure or f"{AGREEMENT_SYSTEMS} randomized scalar systems")


def case_split_w_property(config: ZeroTestConfig, seed: int) -> CaseResult:
    failure = split_map_failure(config, seed)
    return _ok("split_w_property", failure is None,
               failure or f"{SPLIT_MAPS} random split maps stay Ito")


def case_linear_sde_moments(seed: int) -> CaseResult:
    mean_dev, var_dev, excluded = linear_moments(seed)
    ok = mean_dev < 3.0 and var_dev < 3.0 and excluded == 0.0
    return _ok(
        "linear_sde_moments",
        ok,
        f"mean dev {mean_dev:.2f} SE, var dev {var_dev:.2f} SE",
    )


def case_cross_scheme(seed: int) -> CaseResult:
    (_, dev, verdict), _, _ = _cross_scheme(seed)
    return _ok("cross_scheme", verdict == "pass",
               f"terminal-mean difference {dev:.2f} SE on shared increments")


def case_pipelines(seed: int, config: ZeroTestConfig) -> CaseResult:
    decay = pipeline_run("exp_decay_diffusion", "shift", 1.0, 1.0, seed, config)
    drift = pipeline_run("exponential_drift", "random", 0.0, 0.3, seed + 1, config)
    ok = all(r.verdict == "pass" for r in (decay, drift))
    return _ok(
        "integrable_pipelines",
        ok,
        f"diffusion-decay: {decay.difference_se_units:.2f} SE, "
        f"{decay.excluded_fraction:.1%} excluded; "
        f"exponential-drift: {drift.difference_se_units:.2f} SE, "
        f"{drift.excluded_fraction:.1%} excluded",
    )


def case_validation_runs(seed: int) -> CaseResult:
    good = scaling_validation(0.3, 1.0, 20000, seed)
    control = stratonovich_control(20000, seed + 1)
    zero = scaling_validation(0.0, 0.2, 2000, seed + 2)
    ok = good.verdict == "pass" and control.verdict == "fail" and zero.verdict == "pass"
    return _ok(
        "validation_runs",
        ok,
        f"scaling={good.verdict}, stratonovich control={control.verdict}, s=0={zero.verdict}",
    )


# ---------------------------------------------------------------------------
# measurements shared by the cases above and the acceptance tests; each
# returns what it measured and leaves the pass/fail bounds to its caller

AGREEMENT_SYSTEMS = 50
SPLIT_MAPS = 200


def agreement_failure(config: ZeroTestConfig, seed: int) -> Optional[str]:
    """Agreement analysis over randomized scalar systems with sigma_x != 0
    and R != 0 (`random_scalar_family`): the drift-family discrepancy must
    be identically sigma sigma_x R, and the two calculi's verdicts must
    coincide with sigma made constant or with R = 0.  Returns the first
    failure, or None."""
    for sys_i, X, obstruction in random_scalar_family(AGREEMENT_SYSTEMS, seed):
        ctx = sys_i.ctx
        rep = agreement_analysis(X, sys_i, config)
        if rep.discrepancy_matches_half_obstruction is None:
            return "shared family did not verify"
        if not expressions_equal(rep.discrepancy[0], obstruction, ctx, config).is_zero:
            return f"discrepancy != sigma*sigma_x*R: {to_string(rep.discrepancy[0])}"
        const_sys = ItoSystem(ctx, sys_i.drift, ((Const(Fraction(3, 4)),),))
        a = residuals(X, const_sys, config, force=True)
        b = residuals(X, ito_to_strat(const_sys), config, force=True)
        if a.verdict != b.verdict:
            return "constant-sigma verdicts differ"
        X0 = VectorField(ctx, X.phi, noise=None)
        a0 = residuals(X0, sys_i, config)
        b0 = residuals(X0, ito_to_strat(sys_i), config)
        if a0.verdict != b0.verdict:
            return "R=0 verdicts differ"
    return None


def split_map_failure(config: ZeroTestConfig, seed: int) -> Optional[str]:
    """Random split maps (`random_split_map_case`) on random systems must
    all give Ito-type output.  Returns the first trial that does not, or
    None."""
    rng = np.random.default_rng(seed)
    for trial in range(SPLIT_MAPS):
        sys_r, cov = random_split_map_case(rng)
        g = transform_W(sys_r, cov, config)
        if g.ito_like is not True:
            return f"trial {trial}: ito_like={g.ito_like}"
    return None


def linear_moments(seed: int) -> Tuple[float, float, float]:
    """Euler-Maruyama on the bundled linear additive model (x0 = 1, T = 1,
    dt = 1e-3, 10^5 paths).  Returns the terminal mean's and variance's
    deviations from e^lam and mu^2 (1 - e^(2 lam)) / (-2 lam) in SE units,
    and the excluded fraction."""
    bundle = _bundled("linear_additive")
    ens = mc.euler_maruyama(
        bundle.system, [1.0], T=1.0, dt=1e-3, n_paths=100000, seed=seed, snapshots=4,
        wiener=False,
    )
    stats = mc.ensemble_stats(ens)
    lam = bundle.ctx.params["lam"]
    mu = bundle.ctx.params["mu"]
    mean_target = math.exp(lam)
    var_target = mu * mu * (1 - math.exp(2 * lam)) / (-2 * lam)
    mean_dev = abs(stats.mean[-1, 0] - mean_target) / stats.se[-1, 0]
    var_se = stats.var[-1, 0] * math.sqrt(2.0 / (stats.n_effective - 1))
    var_dev = abs(stats.var[-1, 0] - var_target) / var_se
    return mean_dev, var_dev, ens.excluded_fraction


def constant_coefficient_deviations(seed: int, s: float) -> Tuple[float, float]:
    """Euler-Maruyama on the bundled constant-coefficient model (x0 = 0.2,
    T = 1, dt = 1e-3, 64 paths).  Returns the largest relative deviation of
    the scheme from x0 + A t + B w(t), and that of the ensemble mapped by
    the shear flow exp(s X) from the same closed form through its mapped
    start and Wiener values."""
    bundle = _bundled("constant_coefficients")
    A = bundle.ctx.params["A"]
    B = bundle.ctx.params["B"]
    ens = mc.euler_maruyama(
        bundle.system, [0.2], T=1.0, dt=1e-3, n_paths=64, seed=seed, snapshots=0
    )
    closed = 0.2 + A * ens.times[:, None] + B * ens.w[:, :, 0]
    scheme_dev = float(
        np.max(np.abs(ens.states[:, :, 0] - closed) / np.maximum(1.0, np.abs(closed)))
    )
    mapped = mc.apply_group_map(ens, bundle.vectorfields["shear"], s)
    x0m = mapped.states[0, :, 0]
    closed_m = x0m[None, :] + A * (ens.times[:, None] - ens.times[0]) + B * (
        mapped.w[:, :, 0] - mapped.w[0, :, 0]
    )
    flow_dev = float(
        np.max(np.abs(mapped.states[:, :, 0] - closed_m) / np.maximum(1.0, np.abs(closed_m)))
    )
    return scheme_dev, flow_dev


def _cross_scheme(seed: int):
    """dx = lam x dt + mu x dw (lam = -1, mu = 0.3, x0 = 1, T = 1, dt = 1e-3,
    10^5 paths): Euler-Maruyama on the Ito form against Heun on the
    converted Stratonovich form, stepped in lockstep on one draw of the
    increments.  Returns the paired comparison of the terminal values
    (`mc._paired`), and the Euler-Maruyama terminal mean with its SE."""
    ctx = Context(n=1, m=1, params={"lam": -1.0, "mu": 0.3})
    sys_i = ItoSystem(ctx, (parse("lam*x", ctx),), ((parse("mu*x", ctx),),))
    runs = [mc.Run(sys_i, [1.0]), mc.Run(ito_to_strat(sys_i), [1.0])]
    a, b = mc._simulate(runs, 0.0, 1.0, 1e-3, 100000, seed, snapshots=2, wiener=False)
    include = ~(a.excluded | b.excluded)
    paired = mc._paired(a.terminal_states()[:, 0], b.terminal_states()[:, 0], include)
    da = a.terminal_states()[include, 0]
    return paired, float(da.mean()), math.sqrt(da.var(ddof=1) / len(da))


def cross_scheme_deviation(seed: int) -> Tuple[float, float, float]:
    """`_cross_scheme`'s terminal-mean difference in SE units, and the
    Euler-Maruyama terminal mean with its SE."""
    (_, dev, _), mean, se = _cross_scheme(seed)
    return float(dev), mean, se


def pipeline_run(model: str, field: str, x0: float, T: float, seed: int,
                 config: ZeroTestConfig) -> mc.PipelineReport:
    """Reduce a bundled scalar model by one of its fields through its
    ``rectify`` change of variables, integrate the reduced equation in
    closed form, and cross-check it against direct simulation
    (`mc.pipeline_crosscheck`, dt = 1e-3, 10^4 paths)."""
    bundle = _bundled(model)
    cov = bundle.covs["rectify"]
    step = reduce_step(bundle.system, bundle.vectorfields[field], cov, config)
    form = integrate_scalar(step.transformed, config)
    return mc.pipeline_crosscheck(bundle.system, cov, form, x0, T, 1e-3, 10000, seed)


def scaling_validation(s: float, T: float, n_paths: int, seed: int) -> mc.ValidationReport:
    """The joint scaling of the bundled linear additive model, applied as
    exp(s X) to an ensemble from x0 = 1 (dt = 1e-3)."""
    linear = _bundled("linear_additive")
    return mc.symmetry_validation(
        linear.system, linear.vectorfields["scaling"], s, [1.0], T=T, dt=1e-3,
        n_paths=n_paths, seed=seed,
    )


def stratonovich_control(n_paths: int, seed: int) -> mc.ValidationReport:
    """Non-symmetry control: phi = x with R = -1 at s = 0.5 against the
    Stratonovich form of dx = lam x dt + mu x^2 dw (lam = -1, mu = 0.3),
    on the Heun scheme from x0 = 1 (T = 1, dt = 1e-3).  A correct
    validation fails it."""
    ctx = Context(n=1, m=1, params={"lam": -1.0, "mu": 0.3, "alpha": 2.0})
    sys4 = ItoSystem(ctx, (parse("lam*x", ctx),), ((parse("mu*x^alpha", ctx),),))
    X4 = VectorField(ctx, (parse("x", ctx),), noise=LinearW.from_matrix([[-1.0]]))
    return mc.symmetry_validation(
        ito_to_strat(sys4), X4, 0.5, [1.0], T=1.0, dt=1e-3,
        n_paths=n_paths, seed=seed,
    )


# ---------------------------------------------------------------------------


REGISTRY: Dict[str, Callable[[int, ZeroTestConfig], CaseResult]] = {
    "exp_decay_diffusion": lambda seed, config: case_exp_decay_diffusion(config),
    "exponential_drift": lambda seed, config: case_exponential_drift(config),
    "linear_additive": lambda seed, config: case_linear_additive(config),
    "power_noise": lambda seed, config: case_power_noise(config),
    "ei_drift": lambda seed, config: case_ei_drift(config),
    "conformal_gate": lambda seed, config: case_conformal_gate(config),
    "anisotropic_gate": lambda seed, config: case_anisotropic_gate(config),
    "commutator_table": lambda seed, config: case_commutator_table(config),
    "nonlinear_rotation": lambda seed, config: case_nonlinear_rotation(config),
    "scaling_reduction": lambda seed, config: case_scaling_reduction(config),
    "rotation_reduction": lambda seed, config: case_rotation_reduction(config),
    "counterexample_fields": lambda seed, config: case_counterexamples(config),
    "constant_coefficients": lambda seed, config: case_constant_coefficients(config, seed),
    "agreement_randomized": lambda seed, config: case_agreement_randomized(config, seed),
    "split_w_property": lambda seed, config: case_split_w_property(config, seed),
    "linear_sde_moments": lambda seed, config: case_linear_sde_moments(seed),
    "cross_scheme": lambda seed, config: case_cross_scheme(seed),
    "integrable_pipelines": lambda seed, config: case_pipelines(seed, config),
    "validation_runs": lambda seed, config: case_validation_runs(seed),
}


def run_case(name: str, seed: int = 0, tol: float = 1e-9) -> CaseResult:
    config = ZeroTestConfig(tol=tol, seed=seed)
    try:
        return REGISTRY[name](seed, config)
    except Exception as err:  # noqa: BLE001 - regression harness boundary
        return CaseResult(name, "fail", f"exception: {err}")
