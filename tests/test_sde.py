import numpy as np
import pytest

from sdesym.expr import (
    Const,
    Context,
    ONE,
    Var,
    ZERO,
    add,
    expressions_equal,
    is_identically_zero,
    mul,
    parse,
    simplify,
    state,
    wiener,
)
from sdesym.sde import (
    ItoSystem,
    ModelError,
    StratSystem,
    drift_correction,
    ito_laplacian,
    ito_to_strat,
    transport_operator,
    shift_operator,
    strat_to_ito,
)
from treegen import random_tree

SCALAR = Context(n=1, m=1)


def scalar_system(f_text, sigma_text, params=None):
    ctx = Context(n=1, m=1, params=params or {})
    return ItoSystem(ctx, (parse(f_text, ctx),), ((parse(sigma_text, ctx),),))


def test_construction_rejects_wiener_dependent_coefficients():
    ctx = Context(n=1, m=1)
    with pytest.raises(ModelError):
        ItoSystem(ctx, (parse("w", ctx),), ((ONE,),))
    with pytest.raises(ModelError):
        StratSystem(ctx, (ZERO,), ((parse("exp(w)", ctx),),))


def test_construction_checks_dimensions():
    ctx = Context(n=2, m=1)
    with pytest.raises(ModelError):
        ItoSystem(ctx, (ZERO,), ((ZERO,), (ZERO,)))


def test_class_states_the_calculus():
    ito = scalar_system("lam*x", "mu*x")
    strat = StratSystem(ito.ctx, ito.drift, ito.sigma)
    assert (ito.calculus, strat.calculus) == ("ito", "stratonovich")
    assert ito != strat
    with pytest.raises(ModelError, match="^Stratonovich system: drift has 1 components"):
        StratSystem(Context(n=2, m=1), (ZERO,), ((ZERO,), (ZERO,)))
    with pytest.raises(ValueError, match="ito_to_strat"):
        ito_to_strat(strat)
    with pytest.raises(ValueError, match="strat_to_ito"):
        strat_to_ito(ito)


def test_laplacian_of_constant_is_zero():
    sys_ = scalar_system("lam*x", "mu")
    assert ito_laplacian(Const(3), sys_.sigma, sys_.ctx) == ZERO


def test_laplacian_of_linear_wiener_monomial_is_zero():
    # h linear in w with no state dependence is harmonic for this operator
    ctx = Context(n=2, m=2)
    sys_ = ItoSystem(
        ctx,
        (parse("x1", ctx), parse("x2", ctx)),
        ((ONE, ZERO), (ZERO, ONE)),
    )
    h = parse("2*w1 - 3*w2", ctx)
    assert ito_laplacian(h, sys_.sigma, sys_.ctx) == ZERO


def test_laplacian_cancels_on_exponential_difference():
    # with sigma = 1 the three second-order pieces cancel on e^(x-w):
    # e^(x-w) + e^(x-w) - 2 e^(x-w) = 0
    sys_ = scalar_system("exp(x)", "1")
    assert ito_laplacian(parse("exp(x-w)", SCALAR), sys_.sigma, sys_.ctx) == ZERO


def test_drift_correction_constant_sigma_vanishes():
    sys_ = scalar_system("lam*x", "mu")
    rho = drift_correction(sys_.sigma, sys_.ctx)
    assert rho == (ZERO,)


def test_drift_correction_power_noise():
    sys_ = scalar_system("lam*x", "mu*x^alpha")
    rho = drift_correction(sys_.sigma, sys_.ctx)[0]
    target = parse("(1/2)*alpha*mu^2*x^(2*alpha - 1)", sys_.ctx)
    assert expressions_equal(rho, target, sys_.ctx).is_zero


def test_drift_correction_2d_diagonal_constant():
    ctx = Context(n=2, m=2)
    sigma = ((parse("mu1", ctx), ZERO), (ZERO, parse("mu2", ctx)))
    rho = drift_correction(sigma, ctx)
    assert rho == (ZERO, ZERO)


def test_conversion_constant_sigma_is_identity():
    sys_ = scalar_system("lam*x", "mu")
    strat = ito_to_strat(sys_)
    assert tuple(map(simplify, strat.drift)) == tuple(map(simplify, sys_.drift))
    assert strat.sigma == sys_.sigma


def test_conversion_power_noise_drift():
    sys_ = scalar_system("lam*x", "mu*x^alpha")
    strat = ito_to_strat(sys_)
    target = parse("lam*x - (1/2)*alpha*mu^2*x^(2*alpha - 1)", sys_.ctx)
    assert expressions_equal(strat.drift[0], target, sys_.ctx).is_zero


@pytest.mark.parametrize(
    "f_text, sigma_text",
    [
        ("lam*x", "mu"),
        ("lam*x", "mu*x^alpha"),
        ("exp(x)", "1"),
        ("exp(-x) - (1/2)*exp(-2*x)", "exp(-x)"),
        ("c1*x^2 + x^3*exp(2/x) - 2*x^2*Ei(2/x)", "c1*x^2*exp(1/x)"),
    ],
)
def test_roundtrip_identity(f_text, sigma_text):
    sys_ = scalar_system(f_text, sigma_text)
    back = strat_to_ito(ito_to_strat(sys_))
    assert tuple(map(simplify, back.drift)) == tuple(map(simplify, sys_.drift))
    assert back.sigma == sys_.sigma


def test_roundtrip_identity_2d():
    ctx = Context(n=2, m=2)
    sys_ = ItoSystem(
        ctx,
        (parse("lam*(x1^2 + x2^2)*x1", ctx), parse("lam*(x1^2 + x2^2)*x2", ctx)),
        (
            (parse("mu*(x1^2 + x2^2)", ctx), ZERO),
            (ZERO, parse("mu*(x1^2 + x2^2)", ctx)),
        ),
    )
    back = strat_to_ito(ito_to_strat(sys_))
    assert tuple(map(simplify, back.drift)) == tuple(map(simplify, sys_.drift))


def test_laplacian_linearity_on_random_trees():
    rng = np.random.default_rng(12)
    ctx = Context(n=2, m=2)
    sys_ = ItoSystem(
        ctx,
        (parse("x1*x2", ctx), parse("x2", ctx)),
        ((parse("x1", ctx), ONE), (ZERO, parse("x2^2", ctx))),
    )
    for _ in range(10):
        u = random_tree(rng, ctx, 3)
        v = random_tree(rng, ctx, 3)
        combination = simplify(add(mul(Const(2), u), mul(Const(-3), v)))
        lhs = ito_laplacian(combination, sys_.sigma, sys_.ctx)
        rhs = simplify(
            add(
                mul(Const(2), ito_laplacian(u, sys_.sigma, sys_.ctx)),
                mul(Const(-3), ito_laplacian(v, sys_.sigma, sys_.ctx)),
            )
        )
        assert expressions_equal(lhs, rhs, ctx).is_zero


def test_transport_and_shift_operators():
    sys_ = scalar_system("lam*x", "mu")
    assert shift_operator(Const(5), sys_, 1) == ZERO
    assert transport_operator(parse("x", SCALAR), sys_) == simplify(parse("lam*x", sys_.ctx))
    # the invariant combination w - x/mu is annihilated by the shift operator
    u = parse("w - x/mu", sys_.ctx)
    assert is_identically_zero(shift_operator(u, sys_, 1), sys_.ctx).is_zero
    with pytest.raises(ModelError):
        shift_operator(u, sys_, 2)


def test_transport_operator_follows_the_calculus():
    # dx = lam x dt + mu x dw:  L0(x^2) = 2 lam x^2 + mu^2 x^2 under Ito,
    # and 2 lam x^2 for the Stratonovich system with the same coefficients
    ctx = Context(n=1, m=1)
    f, sigma = (parse("lam*x", ctx),), ((parse("mu*x", ctx),),)
    u = parse("x^2", ctx)
    ito = transport_operator(u, ItoSystem(ctx, f, sigma))
    strat = transport_operator(u, StratSystem(ctx, f, sigma))
    assert expressions_equal(ito, parse("2*lam*x^2 + mu^2*x^2", ctx), ctx).is_zero
    assert strat == simplify(parse("2*lam*x^2", ctx))


def test_sigma_rank_info():
    from sdesym.cli import bundled_model
    from sdesym.modelfile import load_model
    from sdesym.sde import sigma_rank_info

    b = load_model(bundled_model("isotropic_nonlinear_oscillator"))
    info = sigma_rank_info(b.system)
    assert info["rank_min"] == info["rank_max"] == 2 and info["full_rank"]
    # degenerate diffusion is reported, not rejected
    ctx = Context(n=2, m=2)
    flat = ItoSystem(ctx, (ZERO, ZERO), ((ONE, ZERO), (ONE, ZERO)))
    info2 = sigma_rank_info(flat)
    assert info2["rank_max"] == 1 and not info2["full_rank"]
