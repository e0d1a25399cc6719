"""Acceptance gate.

Each numbered criterion runs at its stated tolerance and prints one
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see the
table).  Two reference values are asserted twice: once as quoted in the
original statement of the criterion (kept as strict expected failures,
because the quoted values carry algebra slips that both independent
numerics and this engine's symbolic computation contradict) and once with
the verified value, which passes.  The verification notes live outside the
package tree.
"""

import math
import time

import numpy as np
import pytest

from sdesym.cli import bundled_model
from sdesym.expr import (
    ZeroTestConfig,
    expressions_equal,
    is_identically_zero,
    parse,
)
from sdesym.examples import (
    agreement_failure,
    constant_coefficient_deviations,
    cross_scheme_deviation,
    linear_moments,
    pipeline_run,
    split_map_failure,
)
from sdesym.modelfile import load_model
from sdesym.montecarlo import euler_maruyama
from sdesym.reduction import (
    compatibility_check,
    scaling_adapted_cov,
    transform_ito,
    transform_W,
)
from sdesym.sde import ito_to_strat
from sdesym.symmetry import (
    LinearW,
    VectorField,
    conformal_check,
    residual_standard_ito,
    residual_W_ito,
    residual_W_strat,
    solvability_check,
)

TOL = 1e-9
CONFIG = ZeroTestConfig(tol=TOL, points=64, seed=0)


def bundle(name):
    return load_model(bundled_model(name))


def announce(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------


def test_criterion_01_determining_equation_verdicts():
    """All bundled determining-equation verdicts, zero-tested at 64 points
    with |residual| < 1e-9, in under 10 seconds."""
    start = time.time()
    checks = []

    b1 = bundle("exp_decay_diffusion")
    checks.append(
        residual_standard_ito(b1.vectorfields["shift"], b1.system, CONFIG).verdict
        == "symmetry"
    )

    b2 = bundle("exponential_drift")
    checks.append(
        residual_standard_ito(b2.vectorfields["random"], b2.system, CONFIG).verdict
        == "symmetry"
    )
    from sdesym.symmetry import classify

    checks.append(not classify(b2.vectorfields["timeshift"], b2.system, CONFIG).simple)
    checks.append(
        residual_standard_ito(b2.vectorfields["not_a_symmetry"], b2.system, CONFIG).verdict
        == "not_symmetry"
    )

    b3 = bundle("linear_additive")
    X3 = b3.vectorfields["scaling"]
    checks.append(residual_W_ito(X3, b3.system, CONFIG).verdict == "symmetry")
    checks.append(
        residual_W_strat(X3, ito_to_strat(b3.system), CONFIG).verdict == "symmetry"
    )

    b4 = bundle("power_noise")
    X4 = b4.vectorfields["scaling"]
    checks.append(residual_W_ito(X4, b4.system, CONFIG).verdict == "symmetry")
    checks.append(
        residual_W_strat(X4, ito_to_strat(b4.system), CONFIG).verdict == "not_symmetry"
    )

    b5 = bundle("ei_drift")
    X5 = b5.vectorfields["wscaling"]
    checks.append(residual_W_ito(X5, b5.system, CONFIG).verdict == "symmetry")
    checks.append(
        residual_W_strat(X5, ito_to_strat(b5.system), CONFIG).verdict == "not_symmetry"
    )

    b8 = bundle("isotropic_nonlinear_oscillator")
    X8 = b8.vectorfields["rotation"]
    checks.append(residual_W_ito(X8, b8.system, CONFIG).verdict == "symmetry")
    checks.append(
        residual_W_strat(X8, ito_to_strat(b8.system), CONFIG).verdict == "symmetry"
    )

    b11 = bundle("constant_coefficients")
    X11 = b11.vectorfields["shear"]
    checks.append(residual_W_ito(X11, b11.system, CONFIG).verdict == "symmetry")
    checks.append(
        residual_W_strat(X11, ito_to_strat(b11.system), CONFIG).verdict == "symmetry"
    )

    elapsed = time.time() - start
    announce(
        1,
        all(checks) and elapsed < 10.0,
        f"{sum(checks)}/{len(checks)} verdicts as expected in {elapsed:.1f}s (< 10s)",
    )


def test_criterion_02_power_noise_stratonovich_residual():
    """Stratonovich drift residual equals alpha(alpha-1)mu^2 x^(2 alpha - 1)
    at alpha = 2, lam = mu = 1, sampled at 64 points below 1e-9."""
    b = bundle("power_noise")
    assert dict(b.ctx.params) == {"lam": 1.0, "mu": 1.0, "alpha": 2.0}
    strat = residual_W_strat(b.vectorfields["scaling"], ito_to_strat(b.system), CONFIG)
    target = parse("alpha*(alpha-1)*mu^2*x^(2*alpha-1)", b.ctx)
    verdict = expressions_equal(strat.entries[0].expr, target, b.ctx, CONFIG)
    announce(2, verdict.is_zero, f"residual matches target ({verdict.status})")


def test_criterion_03_random_compatibility_and_transform():
    """Exponential-drift model: the compatibility relation fails with
    lhs = 0, and the adapted variable yields F = e^w, S = 0, not Ito."""
    b = bundle("exponential_drift")
    compat = compatibility_check(b.system, b.vectorfields["random"].phi[0], CONFIG)
    lhs_zero = is_identically_zero(compat.lhs, b.ctx, CONFIG).is_zero
    g = transform_ito(b.system, b.covs["rectify"], CONFIG)
    F_ok = expressions_equal(g.F[0], parse("exp(w)", b.ctx), b.ctx, CONFIG).is_zero
    S_ok = is_identically_zero(g.S[0][0], b.ctx, CONFIG).is_zero
    ok = compat.compatible is False and lhs_zero and F_ok and S_ok and g.ito_like is False
    announce(
        3,
        ok,
        f"incompatible with lhs=0: {lhs_zero}; F=e^w: {F_ok}; S=0: {S_ok}; "
        f"ito_like={g.ito_like} (rhs value asserted separately)",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "quoted rhs value e^w(1 + e^-x/2) does not satisfy the displayed "
        "compatibility relation; the relation itself was verified on an "
        "independently constructed compatible system and yields rhs = e^w here"
    ),
)
def test_criterion_03_rhs_value_as_quoted():
    b = bundle("exponential_drift")
    compat = compatibility_check(b.system, b.vectorfields["random"].phi[0], CONFIG)
    quoted = parse("exp(w)*(1 + (1/2)*exp(-x))", b.ctx)
    assert expressions_equal(compat.rhs, quoted, b.ctx, CONFIG).is_zero


def test_criterion_03_rhs_value_verified():
    b = bundle("exponential_drift")
    compat = compatibility_check(b.system, b.vectorfields["random"].phi[0], CONFIG)
    verdict = expressions_equal(compat.rhs, parse("exp(w)", b.ctx), b.ctx, CONFIG)
    print(f"ACCEPTANCE 03 (verified rhs): rhs == e^w -> {verdict.status}")
    assert verdict.is_zero


def test_criterion_04_scaling_reduction_coefficients():
    """Scaling-adapted coordinates on the linear additive model:
    S = mu/(1 - mu z); the drift is asserted as-quoted separately."""
    b = bundle("linear_additive")
    cov = scaling_adapted_cov(b.ctx)
    g = transform_W(b.system, cov, CONFIG)
    S_ok = expressions_equal(g.S[0][0], parse("mu/(1 - mu*w)", b.ctx), b.ctx, CONFIG)
    announce(4, S_ok.is_zero, f"S = mu/(1 - mu z) ({S_ok.status}); F asserted separately")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "quoted drift [lam + mu^2/(2 (1-mu z)^2)]/(1-mu z) collects the "
        "cross-variation term with a doubled coefficient; re-deriving from "
        "the displayed expansions of dx and dw gives the first power"
    ),
)
def test_criterion_04_drift_as_quoted():
    b = bundle("linear_additive")
    cov = scaling_adapted_cov(b.ctx)
    g = transform_W(b.system, cov, CONFIG)
    quoted = parse("(lam + (1/2)*mu^2/(1 - mu*w)^2)/(1 - mu*w)", b.ctx)
    assert expressions_equal(g.F[0], quoted, b.ctx, CONFIG).is_zero


def test_criterion_04_drift_verified():
    b = bundle("linear_additive")
    cov = scaling_adapted_cov(b.ctx)
    g = transform_W(b.system, cov, CONFIG)
    verified = parse("(lam + (1/2)*mu^2/(1 - mu*w))/(1 - mu*w)", b.ctx)
    verdict = expressions_equal(g.F[0], verified, b.ctx, CONFIG)
    print(f"ACCEPTANCE 04 (verified F): F == [lam + mu^2/(2(1-mu z))]/(1-mu z) -> {verdict.status}")
    assert verdict.is_zero
    assert g.ito_like is False


def test_criterion_05_conformal_gate_and_commutators():
    """R = I and skew R accepted; diag(1,-1) and the hyperbolic generator
    rejected; the 4x4 commutator table reproduced entrywise with structure
    constants recovered below 1e-9."""
    gate = (
        conformal_check(np.eye(2)).accepted
        and conformal_check(np.array([[0.0, 1.0], [-1.0, 0.0]])).accepted
        and not conformal_check(np.diag([1.0, -1.0])).accepted
        and not conformal_check(np.array([[0.0, 1.0], [1.0, 0.0]])).accepted
    )
    b = bundle("isotropic_oscillator_2d")
    names = ["scaling", "opposite_scaling", "hyperbolic", "rotation"]
    gens = [b.vectorfields[n] for n in names]
    result = solvability_check(gens, CONFIG)
    c = result.structure_constants
    expected = np.zeros((4, 4, 4))
    expected[1, 2, 3] = -2.0
    expected[2, 1, 3] = 2.0
    expected[1, 3, 2] = -2.0
    expected[3, 1, 2] = 2.0
    expected[2, 3, 1] = 2.0
    expected[3, 2, 1] = -2.0
    table_ok = c is not None and float(np.max(np.abs(c - expected))) < 1e-9
    announce(
        5,
        gate and table_ok,
        f"gate={gate}, table max deviation "
        f"{float(np.max(np.abs(c - expected))):.2e} (< 1e-9)",
    )


def test_criterion_06_randomized_agreement_analysis():
    """50 randomized scalar systems with sigma_x != 0 and R != 0: the
    drift-family discrepancy is identically sigma sigma_x R; with constant
    sigma or R = 0 the two calculi's verdicts coincide."""
    failure = agreement_failure(CONFIG, seed=7)
    assert failure is None, failure
    announce(6, True, "50 randomized systems: discrepancy = sigma*sigma_x*R; variants agree")


def test_criterion_07_split_maps_preserve_ito_class():
    """200 random split maps (triangular polynomial Phi(y,t) of degree <= 3,
    random conformal R) on random systems all yield Ito-type output."""
    failure = split_map_failure(CONFIG, seed=11)
    assert failure is None, failure
    announce(7, True, "200/200 split maps stayed Ito")


def test_criterion_08_linear_sde_moments():
    """lam = -1, mu = 0.5, x0 = 1, T = 1, dt = 1e-3, N = 1e5: terminal mean
    within 3 SE of e^-1 and variance within 3 SE of mu^2 (1 - e^-2)/2,
    in under 30 seconds."""
    b = bundle("linear_additive")
    assert dict(b.ctx.params) == {"lam": -1.0, "mu": 0.5}
    start = time.time()
    mean_dev, var_dev, _ = linear_moments(seed=2024)
    elapsed = time.time() - start
    announce(
        8,
        mean_dev < 3.0 and var_dev < 3.0 and elapsed < 30.0,
        f"mean {mean_dev:.2f} SE, variance {var_dev:.2f} SE, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_09_constant_coefficient_exactness_and_flow():
    """The explicit scheme reproduces x0 + A t + B w(t) to < 1e-12 relative,
    and the flow of the Wiener-mixing symmetry of that model maps simulated
    solutions to exact solutions pathwise to < 1e-12 relative."""
    scheme_dev, flow_dev = constant_coefficient_deviations(seed=5, s=0.35)
    announce(
        9,
        scheme_dev < 1e-12 and flow_dev < 1e-12,
        f"scheme deviation {scheme_dev:.1e}, flow deviation {flow_dev:.1e} (< 1e-12)",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the quoted finite map (w -> w + s, x -> x + B(ws + s^2/2)) is the "
        "flow of a field whose Wiener part is a translation, which fails the "
        "determining equations and does not map solutions to solutions; the "
        "verified generator phi = B w with linear action R = 1 flows to "
        "x -> x + B(e^s - 1) w, w -> e^s w and is exact (criterion 9 proper)"
    ),
)
def test_criterion_09_flow_as_quoted():
    b = bundle("constant_coefficients")
    A, B = b.ctx.params["A"], b.ctx.params["B"]
    ens = euler_maruyama(b.system, [0.2], T=1.0, dt=1e-3, n_paths=16, seed=5, snapshots=0)
    s = 0.35
    mapped_x = ens.states[:, :, 0] + B * (ens.w[:, :, 0] * s + s * s / 2.0)
    mapped_w = ens.w[:, :, 0] + s
    x0m = mapped_x[0]
    closed = x0m[None, :] + A * (ens.times[:, None] - ens.times[0]) + B * (
        mapped_w - mapped_w[0]
    )
    dev = float(np.max(np.abs(mapped_x - closed) / np.maximum(1.0, np.abs(closed))))
    assert dev < 1e-12


def test_criterion_10_cross_scheme_consistency():
    """f = lam x, sigma = mu x (lam = -1, mu = 0.3): the Ito scheme on the
    Ito form and the midpoint scheme on the converted Stratonovich form
    agree in terminal mean below 4 SE on shared increments."""
    dev, em_mean, em_se = cross_scheme_deviation(seed=31)
    # independent oracle: the closed-form terminal mean x0 e^(lam T)
    closed_dev = abs(em_mean - math.exp(-1.0)) / em_se
    announce(
        10,
        dev < 4.0 and closed_dev < 4.0,
        f"terminal-mean difference {dev:.2f} SE (< 4); "
        f"closed-form mean deviation {closed_dev:.2f} SE",
    )


def test_criterion_11_end_to_end_pipelines():
    """Both scalar pipelines (integrate in the adapted variable, evaluate
    the solution form, map back, cross-check against direct simulation on
    shared increments): terminal means below 4 SE, at most 5% exclusions."""
    decay = pipeline_run("exp_decay_diffusion", "shift", x0=1.0, T=1.0, seed=71, config=CONFIG)
    drift = pipeline_run("exponential_drift", "random", x0=0.0, T=0.3, seed=72, config=CONFIG)
    dev1, exc1 = decay.difference_se_units, decay.excluded_fraction
    dev2, exc2 = drift.difference_se_units, drift.excluded_fraction
    ok = dev1 < 4.0 and exc1 <= 0.05 and dev2 < 4.0 and exc2 <= 0.05
    announce(
        11,
        ok,
        f"diffusion-decay {dev1:.2f} SE / {exc1:.1%} excluded; "
        f"exponential-drift {dev2:.2f} SE / {exc2:.1%} excluded",
    )


def test_criterion_12_counterexamples_and_shear_family():
    """phi = x e^w and phi = x w^2 with R = 1 are rejected with concrete
    witnesses; the Wiener-mixing family phi = B R w of the constant
    coefficient model verifies as a symmetry."""
    b = bundle("counterexample_fields")
    v1 = residual_W_ito(b.vectorfields["exponential_w"], b.system, CONFIG)
    v2 = residual_W_ito(b.vectorfields["quadratic_w"], b.system, CONFIG)
    rejected = (
        v1.verdict == "not_symmetry"
        and v1.witness is not None
        and v2.verdict == "not_symmetry"
        and v2.witness is not None
    )
    cc = bundle("constant_coefficients")
    family_ok = True
    for R in (1.0, 2.0, -0.7):
        X = VectorField(
            cc.ctx,
            (parse(f"B*({R!r})*w", cc.ctx),),
            noise=LinearW.from_matrix([[R]]),
        )
        rep = residual_W_ito(X, cc.system, CONFIG, force=True)
        family_ok &= rep.verdict == "symmetry"
    announce(
        12,
        rejected and family_ok,
        f"counterexamples rejected with witnesses: {rejected}; "
        f"mixing family verified for R in {{1, 2, -0.7}}: {family_ok}",
    )
