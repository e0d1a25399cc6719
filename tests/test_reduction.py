import numpy as np
import pytest
from scipy.integrate import quad

from sdesym.cli import bundled_model
from sdesym.expr import (
    AntiDeriv,
    Apply,
    Const,
    Context,
    Neg,
    ONE,
    Var,
    ZERO,
    add,
    differentiate,
    evaluate,
    expressions_equal,
    is_identically_zero,
    mul,
    parse,
    simplify,
    state,
    to_string,
    wiener,
    TIME,
)
from sdesym.modelfile import load_model
from sdesym.reduction import (
    ChangeOfVariables,
    ReductionError,
    compatibility_check,
    integrate_scalar,
    ito_preservation_check,
    integrating_variable,
    pushforward_split_W,
    pushforward_standard,
    reduce_sequence,
    reduce_step,
    rectification_check,
    rotation_adapted_cov,
    scaling_adapted_cov,
    sym_det,
    sym_inverse,
    transform_W,
    transform_ito,
)
from sdesym.sde import ItoSystem, ito_to_strat, transport_operator
from sdesym.symmetry import LinearW, VectorField, residual_W_ito
from sdesym.examples import random_split_map_case

SCALAR = Context(n=1, m=1)


def bundle(name):
    return load_model(bundled_model(name))


# ---------------------------------------------------------------------------
# symbolic linear algebra


def test_sym_inverse_identity_2x2():
    ctx = Context(n=2, m=2)
    mat = [
        [parse("x1", ctx), parse("x2", ctx)],
        [parse("1", ctx), parse("x1", ctx)],
    ]
    inv = sym_inverse(mat)
    for i in range(2):
        for j in range(2):
            entry = add(
                *(mul(mat[i][k], inv[k][j]) for k in range(2)),
                Neg(ONE) if i == j else ZERO,
            )
            assert is_identically_zero(entry, ctx).is_zero


def test_singular_jacobian_detected():
    ctx = Context(n=2, m=2)
    cov = ChangeOfVariables(
        ctx,
        (parse("x1 + x2", ctx), parse("2*x1 + 2*x2", ctx)),
        direction="old_to_new",
    )
    with pytest.raises(ReductionError, match="singular"):
        cov.lambda_


def test_jacobian_identity_check():
    b = bundle("exp_decay_diffusion")
    verdicts = b.covs["rectify"].jacobian_identity_check()
    assert all(v.is_zero for v in verdicts)
    cov, _ = rotation_adapted_cov(Context(n=2, m=2))
    assert all(v.is_zero for v in cov.jacobian_identity_check())


# ---------------------------------------------------------------------------
# integrating variable


def test_integrating_variable_exponential():
    out = integrating_variable(parse("exp(-x)", SCALAR), SCALAR)
    assert expressions_equal(out, parse("exp(x)", SCALAR), SCALAR).is_zero


def test_integrating_variable_random_exponential():
    out = integrating_variable(parse("exp(x-w)", SCALAR), SCALAR)
    assert expressions_equal(out, parse("-exp(w-x)", SCALAR), SCALAR).is_zero


def test_integrating_variable_power():
    out = integrating_variable(parse("x", SCALAR), SCALAR)
    assert out == Apply("log", Var(state(1)))
    out2 = integrating_variable(parse("x^2", SCALAR), SCALAR)
    assert expressions_equal(out2, parse("-1/x", SCALAR), SCALAR).is_zero


def test_integrating_variable_quadrature_fallback():
    phi = parse("x^2*exp(1/x)", SCALAR)
    out = integrating_variable(phi, SCALAR)
    assert isinstance(out, AntiDeriv)
    # symbolic derivative is 1/phi, numeric value matches quadrature
    assert expressions_equal(
        differentiate(out, state(1)), parse("1/(x^2*exp(1/x))", SCALAR), SCALAR
    ).is_zero
    val = evaluate(out, {state(1): 1.7})
    ref, _ = quad(lambda u: 1.0 / (u * u * np.exp(1.0 / u)), 1.0, 1.7)
    assert val == pytest.approx(ref, abs=1e-10)


def test_integrating_variable_rejects_zero():
    with pytest.raises(ReductionError):
        integrating_variable(ZERO, SCALAR)


# ---------------------------------------------------------------------------
# compatibility relation


def test_compatibility_deterministic_symmetry_trivial():
    b = bundle("exp_decay_diffusion")
    res = compatibility_check(b.system, b.vectorfields["shift"].phi[0])
    assert res.compatible is True
    assert simplify(res.gamma) == ZERO


def test_compatibility_scaling_field_trivial():
    b = bundle("linear_additive")
    res = compatibility_check(b.system, parse("x", b.ctx))
    assert res.compatible is True


def test_compatibility_fails_for_random_symmetry_of_exponential_drift():
    b = bundle("exponential_drift")
    res = compatibility_check(b.system, b.vectorfields["random"].phi[0])
    assert res.compatible is False
    assert is_identically_zero(res.lhs, b.ctx).is_zero
    assert expressions_equal(res.rhs, parse("exp(w)", b.ctx), b.ctx).is_zero


def test_compatibility_predicts_ito_likeness_on_worked_models():
    # compatible <-> the adapted variable produces an Ito equation
    first = bundle("exp_decay_diffusion")
    g = transform_ito(first.system, first.covs["rectify"])
    assert g.ito_like is True
    second = bundle("exponential_drift")
    g2 = transform_ito(second.system, second.covs["rectify"])
    assert g2.ito_like is False


# ---------------------------------------------------------------------------
# state-space transforms


def test_transform_exponential_drift():
    b = bundle("exponential_drift")
    g = transform_ito(b.system, b.covs["rectify"])
    assert expressions_equal(g.F[0], parse("exp(w)", b.ctx), b.ctx).is_zero
    assert simplify(g.S[0][0]) == ZERO
    assert g.ito_like is False


def test_transform_exp_decay_diffusion_is_arithmetic_brownian():
    b = bundle("exp_decay_diffusion")
    g = transform_ito(b.system, b.covs["rectify"])
    assert simplify(g.F[0]) == ONE
    assert simplify(g.S[0][0]) == ONE
    assert g.ito_like is True


def test_transform_identity_map():
    b = bundle("linear_additive")
    cov = ChangeOfVariables(
        b.ctx, (parse("x", b.ctx),), direction="old_to_new",
        inverse=(parse("x", b.ctx),),
    )
    g = transform_ito(b.system, cov)
    assert expressions_equal(g.F[0], b.system.drift[0], b.ctx).is_zero
    assert expressions_equal(g.S[0][0], b.system.sigma[0][0], b.ctx).is_zero
    assert g.ito_like is True


def test_ito_preservation_check_deterministic_map_always_passes():
    b = bundle("linear_additive")
    cov = ChangeOfVariables(b.ctx, (parse("x^3 + t", b.ctx),), direction="old_to_new")
    assert all(v.is_zero for v in ito_preservation_check(b.system, cov))


def test_ito_preservation_check_obstruction_value():
    # for the exponential-drift map the transport operator picks up e^w
    b = bundle("exponential_drift")
    cov = b.covs["rectify"]
    grad = differentiate(cov.forward[0], wiener(1))
    obstruction = transport_operator(grad, b.system)
    assert expressions_equal(obstruction, parse("exp(w)", b.ctx), b.ctx).is_zero
    verdicts = ito_preservation_check(b.system, cov)
    assert any(v.is_nonzero for v in verdicts)


def test_ito_preservation_additive_shift_map():
    # Phi = x + w with constant sigma stays Ito
    b = bundle("linear_additive")
    cov = ChangeOfVariables(b.ctx, (parse("x + w", b.ctx),), direction="old_to_new")
    assert all(v.is_zero for v in ito_preservation_check(b.system, cov))


# ---------------------------------------------------------------------------
# Wiener-acting transforms


def test_scaling_adapted_transform_linear_additive():
    b = bundle("linear_additive")
    cov, coords = scaling_adapted_cov(b.ctx)
    g = transform_W(b.system, cov)
    assert expressions_equal(g.S[0][0], parse("mu/(1 - mu*w)", b.ctx), b.ctx).is_zero
    assert expressions_equal(
        g.F[0], parse("(lam + (1/2)*mu^2/(1 - mu*w))/(1 - mu*w)", b.ctx), b.ctx
    ).is_zero
    assert g.ito_like is False
    assert g.driving == "transformed drivers"


def test_ito_transforms_reject_a_stratonovich_system():
    b = bundle("linear_additive")
    strat = ito_to_strat(b.system)
    with pytest.raises(ValueError, match="compatibility_check"):
        compatibility_check(strat, parse("x", b.ctx))
    with pytest.raises(ValueError, match="transform_W"):
        transform_W(strat, scaling_adapted_cov(b.ctx)[0])
    decay = bundle("exp_decay_diffusion")
    decay_strat = ito_to_strat(decay.system)
    rectify = decay.covs["rectify"]
    with pytest.raises(ValueError, match="transform_ito"):
        transform_ito(decay_strat, rectify)
    with pytest.raises(ValueError, match="ito_preservation_check"):
        ito_preservation_check(decay_strat, rectify)
    with pytest.raises(ValueError, match="reduce_step"):
        reduce_step(decay_strat, decay.vectorfields["shift"], rectify)


def test_split_map_stays_ito_quick():
    rng = np.random.default_rng(123)
    for _ in range(10):
        sys_r, cov = random_split_map_case(rng)
        assert transform_W(sys_r, cov).ito_like is True


def test_identity_w_map():
    b = bundle("linear_additive")
    cov = ChangeOfVariables(
        b.ctx, (parse("x", b.ctx),), direction="new_to_old",
        wiener_map=np.eye(1), inverse=(parse("x", b.ctx),),
        inverse_drivers=(parse("w", b.ctx),),
    )
    g = transform_W(b.system, cov)
    assert expressions_equal(g.F[0], b.system.drift[0], b.ctx).is_zero
    assert expressions_equal(g.S[0][0], b.system.sigma[0][0], b.ctx).is_zero
    assert g.ito_like is True


# ---------------------------------------------------------------------------
# rectification


def test_rectification_log_alone_insufficient():
    b = bundle("linear_strat_oscillator")
    X = b.vectorfields["scaling"]
    result = rectification_check(X, [parse("log(x)", b.ctx), parse("w", b.ctx)])
    assert not result.rectified
    assert result.verdicts == ["one", "other"]


def test_rectification_log_and_ratio():
    b = bundle("linear_strat_oscillator")
    X = b.vectorfields["scaling"]
    result = rectification_check(X, [parse("log(x)", b.ctx), parse("w/x", b.ctx)])
    assert result.rectified and result.translation_index == 0


def test_rectification_polar_pair():
    ctx = Context(n=2, m=2)
    X = VectorField(
        ctx,
        (parse("-x2", ctx), parse("x1", ctx)),
        noise=LinearW.from_matrix([[0.0, -1.0], [1.0, 0.0]]),
    )
    cov, coords = rotation_adapted_cov(ctx)
    result = rectification_check(X, coords)
    assert result.rectified
    assert result.translation_index == 3  # the driver angle
    assert result.verdicts == ["zero", "zero", "zero", "one"]


# ---------------------------------------------------------------------------
# reduction steps


def test_reduce_step_scalar_deterministic():
    b = bundle("exp_decay_diffusion")
    step = reduce_step(b.system, b.vectorfields["shift"], b.covs["rectify"])
    assert step.translation_kind == "state"
    assert step.coefficients_translation_free
    assert step.transformed.ito_like is True
    form = integrate_scalar(step.transformed)
    assert simplify(form.drift) == ONE
    assert simplify(form.noises[0]) == ONE


def test_reduce_step_scalar_random_non_ito():
    b = bundle("exponential_drift")
    step = reduce_step(b.system, b.vectorfields["random"], b.covs["rectify"])
    assert step.transformed.ito_like is False
    # the integrability mechanism: coefficients free of the new state
    assert step.coefficients_translation_free
    form = integrate_scalar(step.transformed)
    assert expressions_equal(form.drift, parse("exp(w)", b.ctx), b.ctx).is_zero


def test_reduce_step_rejects_non_symmetry():
    b = bundle("exp_decay_diffusion")
    with pytest.raises(ReductionError, match="verification"):
        reduce_step(b.system, b.vectorfields["not_a_symmetry"], b.covs["rectify"])


def test_reduce_step_rejects_non_rectifying_cov():
    b = bundle("exponential_drift")
    bad = ChangeOfVariables(b.ctx, (parse("x^2", b.ctx),), direction="old_to_new")
    with pytest.raises(ReductionError, match="rectify"):
        reduce_step(b.system, b.vectorfields["random"], bad)


def test_reduce_step_rotation_2d():
    b = bundle("isotropic_nonlinear_oscillator")
    cov, _ = rotation_adapted_cov(b.ctx)
    step = reduce_step(b.system, b.vectorfields["rotation"], cov)
    assert step.translation_kind == "driver"
    assert step.coefficients_translation_free
    assert step.transformed.ito_like is False
    assert step.reconstruction is None  # driver direction, nothing to drop


def test_reduce_sequence_single_step_equals_reduce_step():
    b = bundle("exp_decay_diffusion")
    chain = reduce_sequence(
        b.system, [b.vectorfields["shift"]], [b.covs["rectify"]]
    )
    assert chain.completed and len(chain.steps) == 1
    assert chain.steps[0].result.transformed.ito_like is True


def test_reduce_sequence_w_pair_aborts_after_first_step():
    # the scaling/rotation pair is Abelian, but the first W-step leaves the
    # Ito class, so the second symmetry cannot be re-verified
    b = bundle("isotropic_oscillator_2d")
    scaling = b.vectorfields["scaling"]
    rotation = b.vectorfields["rotation"]
    cov1, _ = scaling_adapted_cov(b.ctx)
    cov2, _ = rotation_adapted_cov(b.ctx)
    chain = reduce_sequence(b.system, [scaling, rotation], [cov1, cov2])
    assert not chain.completed
    assert len(chain.steps) == 1
    assert chain.steps[0].result is not None
    assert chain.steps[0].result.coefficients_translation_free
    assert "not of Ito type" in chain.reason


def test_reduce_sequence_ordering_validation():
    ctx = Context(n=2, m=1)
    sys_ = ItoSystem(
        ctx, (ZERO, ZERO), ((ONE,), (ONE,))
    )
    trans = VectorField(ctx, (ONE, ZERO))
    scale = VectorField(ctx, (parse("x1", ctx), ZERO))
    cov = ChangeOfVariables(
        ctx, (parse("x1", ctx), parse("x2", ctx)), direction="old_to_new",
        inverse=(parse("x1", ctx), parse("x2", ctx)),
    )
    with pytest.raises(ReductionError, match="ordering"):
        reduce_sequence(sys_, [trans, scale], [cov, cov])


# ---------------------------------------------------------------------------
# pushforwards (symmetries survive admissible maps)


def test_pushforward_standard_through_rectifier():
    b = bundle("exp_decay_diffusion")
    X = pushforward_standard(b.vectorfields["shift"], b.covs["rectify"])
    # in the rectified variable the generator is a pure translation
    assert simplify(X.phi[0]) == ONE


def test_pushforward_split_scaling_map_preserves_symmetry():
    b = bundle("linear_additive")
    X = b.vectorfields["scaling"]
    s = 0.4
    cov = ChangeOfVariables(
        b.ctx,
        (simplify(mul(Const(np.exp(s)), Var(state(1)))),),
        direction="new_to_old",
        wiener_map=np.array([[np.exp(s)]]),
    )
    g = transform_W(b.system, cov)
    assert g.ito_like is True
    transformed = ItoSystem(b.ctx, tuple(map(simplify, g.F)), tuple(tuple(map(simplify, r)) for r in g.S))
    pushed = pushforward_split_W(X, cov)
    rep = residual_W_ito(pushed, transformed)
    assert rep.verdict == "symmetry"


def test_pushforward_split_rotation_map_preserves_symmetry():
    b = bundle("isotropic_nonlinear_oscillator")
    X = b.vectorfields["rotation"]
    angle = 0.7
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    forward = (
        simplify(add(mul(Const(c), Var(state(1))), mul(Const(-s), Var(state(2))))),
        simplify(add(mul(Const(s), Var(state(1))), mul(Const(c), Var(state(2))))),
    )
    cov = ChangeOfVariables(b.ctx, forward, direction="new_to_old", wiener_map=rot)
    g = transform_W(b.system, cov)
    assert g.ito_like is True
    transformed = ItoSystem(
        b.ctx, tuple(map(simplify, g.F)), tuple(tuple(map(simplify, r)) for r in g.S)
    )
    pushed = pushforward_split_W(X, cov)
    rep = residual_W_ito(pushed, transformed)
    assert rep.verdict == "symmetry"


# ---------------------------------------------------------------------------
# direct integration guards


def test_integrate_scalar_rejects_state_dependence():
    b = bundle("linear_additive")
    cov = ChangeOfVariables(
        b.ctx, (parse("x", b.ctx),), direction="old_to_new",
        inverse=(parse("x", b.ctx),),
    )
    g = transform_ito(b.system, cov)
    with pytest.raises(ReductionError, match="state"):
        integrate_scalar(g)


def test_integrate_scalar_constant_coefficients():
    b = bundle("constant_coefficients")
    cov = ChangeOfVariables(
        b.ctx, (parse("x", b.ctx),), direction="old_to_new",
        inverse=(parse("x", b.ctx),),
    )
    form = integrate_scalar(transform_ito(b.system, cov))
    assert expressions_equal(form.drift, parse("A", b.ctx), b.ctx).is_zero
    assert expressions_equal(form.noises[0], parse("B", b.ctx), b.ctx).is_zero


def test_numeric_inverse_damped_newton():
    from sdesym.reduction import numeric_inverse

    b = bundle("exponential_drift")
    cov = ChangeOfVariables(b.ctx, b.covs["rectify"].forward, direction="old_to_new")
    solve = numeric_inverse(cov)
    # forward: y = -exp(w - x); at w = 0.3, x = 1.2 -> y = -exp(-0.9)
    y = -np.exp(0.3 - 1.2)
    x = solve(y, 0.0, [0.3], x_start=0.5)
    assert x == pytest.approx(1.2, abs=1e-10)
    with pytest.raises(ReductionError):
        numeric_inverse(ChangeOfVariables(b.ctx, cov.forward, direction="new_to_old"))


def test_compatibility_biconditional_time_rescaling_instance():
    # a third example-scale instance of compatible <-> stays Ito: the
    # deterministic symmetry phi = e^(lam t) of the linear additive model
    b = bundle("linear_additive")
    phi = parse("exp(lam*t)", b.ctx)
    from sdesym.symmetry import residual_standard_ito, VectorField

    X = VectorField(b.ctx, (phi,))
    assert residual_standard_ito(X, b.system).verdict == "symmetry"
    res = compatibility_check(b.system, phi)
    assert res.compatible is True
    variable = integrating_variable(phi, b.ctx)
    cov = ChangeOfVariables(b.ctx, (variable,), direction="old_to_new")
    g = transform_ito(b.system, cov)
    assert g.ito_like is True
    # transformed drift vanishes: pure time-rescaled noise remains
    assert is_identically_zero(g.F[0], b.ctx).is_zero
