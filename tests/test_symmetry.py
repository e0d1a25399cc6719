import json
from pathlib import Path

import numpy as np
import pytest

from sdesym.cli import bundled_model, model_dir
from sdesym.expr import (
    Const,
    Context,
    Neg,
    ONE,
    Var,
    ZERO,
    ZeroTestConfig,
    add,
    expressions_equal,
    is_identically_zero,
    mul,
    parse,
    simplify,
    state,
    to_string,
    wiener,
)
from sdesym.modelfile import load_model
from sdesym.sde import ItoSystem, ModelError, ito_to_strat, strat_to_ito
from sdesym.symmetry import (
    GeneralH,
    LinearW,
    SymmetryError,
    VectorField,
    agreement_analysis,
    classify,
    compare_calculi,
    conformal_check,
    dilation_obstruction,
    dilation_obstruction_check,
    lie_bracket,
    residual_standard_ito,
    residual_standard_strat,
    residual_W_ito,
    residual_W_strat,
    residuals,
    sigma_operator,
    solvability_check,
)
from treegen import random_tree

SCALAR = Context(n=1, m=1)


def bundle(name):
    return load_model(bundled_model(name))


@pytest.fixture(scope="module")
def oscillator():
    return bundle("isotropic_oscillator_2d")


# ---------------------------------------------------------------------------
# classification


def test_classify_simple_deterministic():
    b = bundle("exp_decay_diffusion")
    cls = classify(b.vectorfields["shift"], b.system)
    assert cls.simple and not cls.random and not cls.w_acting and cls.admissible


def test_classify_simple_random():
    b = bundle("exponential_drift")
    cls = classify(b.vectorfields["random"], b.system)
    assert cls.simple and cls.random and cls.admissible


def test_classify_time_shift_not_simple():
    # constant tau fails the strict sampled-positivity rule tau'(t) > 0,
    # and a non-simple field is unusable for reduction either way
    b = bundle("exponential_drift")
    cls = classify(b.vectorfields["timeshift"], b.system)
    assert cls.acting_on_time and not cls.simple
    assert not cls.admissible
    assert any("positivity" in r for r in cls.reasons)


def test_classify_time_dilation_admissible():
    b = bundle("exponential_drift")
    X = VectorField(b.ctx, (ZERO,), tau=parse("t", b.ctx))
    cls = classify(X, b.system)
    assert cls.acting_on_time and not cls.simple and cls.admissible


def test_classify_decreasing_tau_inadmissible():
    X = VectorField(SCALAR, (ZERO,), tau=parse("-t", SCALAR))
    sys_ = ItoSystem(SCALAR, (ZERO,), ((ONE,),))
    cls = classify(X, sys_)
    assert not cls.admissible


@pytest.mark.parametrize(
    "tau, reason",
    [
        # tau' = 1 - t is positive at the start of the window, negative after t = 1
        ("t - t^2/2", "positivity"),
        # tau' = 1 + (3/2) sqrt(1 - t) is positive while defined, not real after t = 1
        ("t - (1 - t)^(3/2)", "could not be evaluated"),
    ],
)
def test_classify_tau_checked_at_every_sampled_time(tau, reason):
    X = VectorField(SCALAR, (ZERO,), tau=parse(tau, SCALAR))
    sys_ = ItoSystem(SCALAR, (ZERO,), ((ONE,),))
    cls = classify(X, sys_)
    assert not cls.admissible
    assert any(reason in r for r in cls.reasons), cls.reasons


def test_classify_general_h_linear_extraction():
    # h = 2w is recognized as a constant linear action and gated as such
    X = VectorField(SCALAR, (parse("x", SCALAR),), noise=GeneralH((parse("2*w", SCALAR),)))
    sys_ = ItoSystem(SCALAR, (ZERO,), ((ONE,),))
    assert classify(X, sys_).admissible
    X2 = VectorField(SCALAR, (parse("x", SCALAR),), noise=GeneralH((parse("w^2", SCALAR),)))
    assert not classify(X2, sys_).admissible


# ---------------------------------------------------------------------------
# conformal gate


def test_conformal_identity_accepted():
    v = conformal_check(np.eye(2))
    assert v.accepted and v.dilation == pytest.approx(1.0)
    assert np.allclose(v.skew, 0.0)


def test_conformal_opposite_scaling_rejected():
    assert not conformal_check(np.diag([1.0, -1.0])).accepted


def test_conformal_rotation_accepted():
    v = conformal_check(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert v.accepted and v.dilation == pytest.approx(0.0)


def test_conformal_hyperbolic_rejected():
    assert not conformal_check(np.array([[0.0, 1.0], [1.0, 0.0]])).accepted


def test_conformal_scalar_case_always_accepted():
    assert conformal_check([[3.7]]).accepted


def test_conformal_accepted_set_is_linear_and_transpose_closed():
    rng = np.random.default_rng(3)
    for _ in range(40):
        lam1, lam2 = rng.normal(size=2)
        A1, A2 = rng.normal(size=(2, 3, 3))
        R1 = lam1 * np.eye(3) + (A1 - A1.T) / 2
        R2 = lam2 * np.eye(3) + (A2 - A2.T) / 2
        a, b = rng.normal(size=2)
        assert conformal_check(R1).accepted
        assert conformal_check(R1.T).accepted
        assert conformal_check(a * R1 + b * R2).accepted
        S = rng.normal(size=(3, 3))
        S = S + S.T
        np.fill_diagonal(S, np.trace(S) / 3.0)
        if conformal_check(S).accepted:  # rare degenerate draw
            continue
        assert not conformal_check(R1 + S).accepted


# ---------------------------------------------------------------------------
# standard residuals


def test_standard_residuals_integrable_model():
    b = bundle("exp_decay_diffusion")
    rep = residual_standard_ito(b.vectorfields["shift"], b.system)
    assert rep.verdict == "symmetry"


def test_standard_residuals_zero_field_trivial():
    b = bundle("exp_decay_diffusion")
    rep = residual_standard_ito(VectorField(b.ctx, (ZERO,)), b.system)
    assert rep.verdict == "symmetry"


def test_standard_residuals_random_symmetry():
    b = bundle("exponential_drift")
    rep = residual_standard_ito(b.vectorfields["random"], b.system)
    assert rep.verdict == "symmetry"


def test_standard_rejects_time_component():
    b = bundle("exponential_drift")
    with pytest.raises(SymmetryError, match="simple"):
        residual_standard_ito(b.vectorfields["timeshift"], b.system)


# ---------------------------------------------------------------------------
# Wiener-acting residuals


def test_linear_additive_symmetry_in_both_calculi():
    b = bundle("linear_additive")
    X = b.vectorfields["scaling"]
    assert residual_W_ito(X, b.system).verdict == "symmetry"
    assert residual_W_strat(X, ito_to_strat(b.system)).verdict == "symmetry"


def test_power_noise_ito_only():
    b = bundle("power_noise")
    X = b.vectorfields["scaling"]
    assert residual_W_ito(X, b.system).verdict == "symmetry"
    strat = residual_W_strat(X, ito_to_strat(b.system))
    assert strat.verdict == "not_symmetry"
    target = parse("alpha*(alpha-1)*mu^2*x^(2*alpha-1)", b.ctx)
    assert expressions_equal(strat.entries[0].expr, target, b.ctx).is_zero


def test_rotation_symmetry_nonconstant_sigma(oscillator):
    b = bundle("isotropic_nonlinear_oscillator")
    X = b.vectorfields["rotation"]
    assert residual_W_ito(X, b.system).verdict == "symmetry"
    assert residual_W_strat(X, ito_to_strat(b.system)).verdict == "symmetry"


def test_rejected_gate_raises_without_force(oscillator):
    X = oscillator.vectorfields["hyperbolic"]
    with pytest.raises(SymmetryError, match="force"):
        residual_W_ito(X, oscillator.system)
    rep = residual_W_ito(X, oscillator.system, force=True)
    assert rep.verdict == "symmetry"  # analyzable, just not an acceptable action


def test_noise_family_identical_across_calculi():
    # the second determining family is shared verbatim by both calculi
    b = bundle("power_noise")
    X = b.vectorfields["scaling"]
    ito_rep = residual_W_ito(X, b.system)
    strat_rep = residual_W_strat(X, ito_to_strat(b.system))
    n = b.ctx.n
    assert [e.expr for e in ito_rep.entries[n:]] == [
        e.expr for e in strat_rep.entries[n:]
    ]


def test_general_h_lineage():
    # a GeneralH candidate equal to R w gives the same residuals as LinearW
    b = bundle("linear_additive")
    lin = b.vectorfields["scaling"]
    gen = VectorField(b.ctx, lin.phi, noise=GeneralH((parse("w", b.ctx),)))
    rep_lin = residual_W_ito(lin, b.system)
    rep_gen = residual_W_ito(gen, b.system)
    assert rep_gen.verdict == rep_lin.verdict == "symmetry"
    rep_strat = residual_W_strat(gen, ito_to_strat(b.system))
    assert rep_strat.verdict == "symmetry"


def test_residuals_take_the_family_from_the_field():
    b = bundle("linear_additive")
    lin = b.vectorfields["scaling"]
    gen = VectorField(b.ctx, lin.phi, noise=GeneralH((parse("w", b.ctx),)))
    std = VectorField(b.ctx, lin.phi)
    strat = ito_to_strat(b.system)
    for X, family in ((std, "standard"), (lin, "linear_w"), (gen, "general_h")):
        for sys_ in (b.system, strat):
            report = residuals(X, sys_)
            assert (report.family, report.calculus) == (family, sys_.calculus)


def test_wiener_acting_field_on_time_is_refused():
    b = bundle("exponential_drift")
    X = VectorField(b.ctx, (ZERO,), tau=ONE, noise=LinearW.from_matrix([[1.0]]))
    with pytest.raises(SymmetryError, match="Wiener-acting candidates must be simple"):
        residuals(X, b.system)


@pytest.mark.parametrize(
    "residual",
    [residual_standard_ito, residual_standard_strat, residual_W_ito, residual_W_strat],
    ids=lambda f: f.__name__,
)
def test_named_residuals_refuse_the_other_calculus(residual):
    # each kept name states a calculus; a system of the other one is refused
    b = bundle("linear_strat_oscillator")
    X = b.vectorfields["scaling"]
    if "standard" in residual.__name__:
        X = VectorField(b.ctx, X.phi)
    other = b.system if residual.__name__.endswith("_ito") else strat_to_ito(b.system)
    with pytest.raises(ModelError, match=residual.__name__):
        residual(X, other)


def test_zero_R_degenerates_to_standard():
    b = bundle("exponential_drift")
    phi = b.vectorfields["random"].phi
    Xstd = VectorField(b.ctx, phi)
    Xw0 = VectorField(b.ctx, phi, noise=LinearW.from_matrix([[0.0]]))
    std = residual_standard_ito(Xstd, b.system)
    w0 = residual_W_ito(Xw0, b.system)
    assert [e.expr for e in std.entries] == [e.expr for e in w0.entries]


# ---------------------------------------------------------------------------
# structural operators


def test_sigma_operator_constant_sigma_vanishes():
    b = bundle("linear_additive")
    out = sigma_operator((parse("x^3 + w", b.ctx),), b.system)
    assert out == (ZERO,)


def test_sigma_operator_scalar_closed_form():
    # Sigma(phi) = phi (sigma sigma_x)_x - sigma sigma_x phi_x for n = 1
    ctx = Context(n=1, m=1)
    sys_ = ItoSystem(ctx, (ZERO,), ((parse("x^2", ctx),),))
    phi = parse("x^3", ctx)
    out = sigma_operator((phi,), sys_)[0]
    target = parse("x^3*(2*x^3)*2 - 2*x^3*3*x^2*x^(-1)*x", ctx)
    target = parse("x^3*6*x^2 - 2*x^3*3*x^2", ctx)  # phi*(sig*sig_x)_x - sig*sig_x*phi_x
    assert expressions_equal(out, target, ctx).is_zero


def test_dilation_obstruction_skew_vanishes():
    b = bundle("isotropic_nonlinear_oscillator")
    R = b.vectorfields["rotation"].noise.matrix
    assert all(v.is_zero for v in dilation_obstruction_check(b.system, R))


def test_dilation_obstruction_constant_sigma_vanishes():
    b = bundle("linear_additive")
    assert all(v.is_zero for v in dilation_obstruction_check(b.system, [[2.0]]))


def test_dilation_obstruction_scalar_power_noise():
    b = bundle("power_noise")
    out = dilation_obstruction(b.system, [[1.0]])[0]
    target = parse("2*alpha*mu^2*x^(2*alpha-1)", b.ctx)
    assert expressions_equal(out, target, b.ctx).is_zero


# ---------------------------------------------------------------------------
# two-calculus agreement


def test_agreement_constant_sigma_guaranteed():
    b = bundle("linear_additive")
    rep = agreement_analysis(b.vectorfields["scaling"], b.system)
    assert rep.agreement == "guaranteed" and rep.constant_sigma


def test_agreement_power_noise_broken_with_witness():
    b = bundle("power_noise")
    rep = agreement_analysis(b.vectorfields["scaling"], b.system)
    assert rep.agreement == "broken"
    assert rep.witness is not None
    assert all(v.is_zero for v in rep.discrepancy_matches_half_obstruction)


def test_agreement_skew_guaranteed_nonconstant_sigma():
    b = bundle("isotropic_nonlinear_oscillator")
    rep = agreement_analysis(b.vectorfields["rotation"], b.system)
    assert rep.agreement == "guaranteed" and rep.skew and not rep.constant_sigma


def test_scalar_agreement_guaranteed_iff_constant_sigma_or_zero_R():
    # diffusion with sigma_x != 0 and R != 0 is never 'guaranteed'
    b = bundle("power_noise")
    assert agreement_analysis(b.vectorfields["scaling"], b.system).agreement != "guaranteed"
    X0 = VectorField(b.ctx, b.vectorfields["scaling"].phi, noise=LinearW.from_matrix([[0.0]]))
    assert agreement_analysis(X0, b.system).skew  # R = 0 counts as rotation-only
    lin = bundle("linear_additive")
    assert agreement_analysis(lin.vectorfields["scaling"], lin.system).constant_sigma


def _agreement_fields(rep):
    return (
        rep.to_dict(),
        [to_string(d) for d in rep.discrepancy],
        [to_string(o) for o in rep.obstruction],
        None
        if rep.discrepancy_matches_half_obstruction is None
        else [v.to_dict() for v in rep.discrepancy_matches_half_obstruction],
    )


@pytest.mark.parametrize(
    "model, name",
    [
        ("power_noise", "scaling"),
        ("linear_additive", "scaling"),
        ("isotropic_nonlinear_oscillator", "rotation"),
        ("linear_strat_oscillator", "scaling"),
    ],
)
def test_compare_calculi_on_given_reports_equals_agreement_analysis(model, name):
    # A Stratonovich model is compared on its own report, never on a round
    # trip through the Ito form.
    b = bundle(model)
    X = b.vectorfields[name]
    if b.system.calculus == "ito":
        ito_sys, strat_sys = b.system, ito_to_strat(b.system)
    else:
        ito_sys, strat_sys = strat_to_ito(b.system), b.system
    given = compare_calculi(
        X, residual_W_ito(X, ito_sys), residual_W_strat(X, strat_sys), b.system
    )
    assert _agreement_fields(given) == _agreement_fields(agreement_analysis(X, ito_sys))


def test_compare_calculi_requires_a_linear_action():
    b = bundle("power_noise")
    X = VectorField(b.ctx, b.vectorfields["scaling"].phi, noise=GeneralH((ZERO,)))
    rep = residual_W_ito(X, b.system)
    with pytest.raises(SymmetryError):
        compare_calculi(X, rep, rep, b.system)


# ---------------------------------------------------------------------------
# Lie structure


def field_names():
    return ["scaling", "opposite_scaling", "hyperbolic", "rotation"]


def test_bracket_antisymmetry_and_diagonal(oscillator):
    gens = [oscillator.vectorfields[n] for n in field_names()]
    for X in gens:
        bracket = lie_bracket(X, X)
        assert all(e == ZERO for e in bracket.phi)
        assert np.allclose(bracket.noise.matrix, 0.0)
    ctx = oscillator.ctx
    for X in gens:
        for Y in gens:
            ab = lie_bracket(X, Y)
            ba = lie_bracket(Y, X)
            for i in range(ctx.n):
                assert expressions_equal(ab.phi[i], Neg(ba.phi[i]), ctx).is_zero
            assert np.allclose(ab.noise.matrix, -ba.noise.matrix)


def test_commutator_table_entries(oscillator):
    gens = {n: oscillator.vectorfields[n] for n in field_names()}
    ctx = oscillator.ctx

    def equals(field, coeff, name):
        target = gens[name]
        for i in range(ctx.n):
            combo = add(field.phi[i], Neg(mul(Const(coeff), target.phi[i])))
            assert is_identically_zero(combo, ctx).is_zero
        assert np.allclose(field.noise.matrix, coeff * target.noise.matrix, atol=1e-12)

    equals(lie_bracket(gens["opposite_scaling"], gens["hyperbolic"]), -2, "rotation")
    equals(lie_bracket(gens["opposite_scaling"], gens["rotation"]), -2, "hyperbolic")
    equals(lie_bracket(gens["hyperbolic"], gens["rotation"]), 2, "opposite_scaling")
    for name in field_names():
        bracket = lie_bracket(gens["scaling"], gens[name])
        assert all(e == ZERO for e in bracket.phi)
        assert np.allclose(bracket.noise.matrix, 0.0)


def test_jacobi_identity_on_triples(oscillator):
    gens = [oscillator.vectorfields[n] for n in field_names()]
    ctx = oscillator.ctx
    import itertools

    for X, Y, Z in itertools.combinations(gens, 3):
        total_phi = []
        for i in range(ctx.n):
            total_phi.append(
                add(
                    lie_bracket(X, lie_bracket(Y, Z)).phi[i],
                    lie_bracket(Y, lie_bracket(Z, X)).phi[i],
                    lie_bracket(Z, lie_bracket(X, Y)).phi[i],
                )
            )
        for comp in total_phi:
            assert is_identically_zero(comp, ctx).is_zero
        total_R = (
            lie_bracket(X, lie_bracket(Y, Z)).noise.matrix
            + lie_bracket(Y, lie_bracket(Z, X)).noise.matrix
            + lie_bracket(Z, lie_bracket(X, Y)).noise.matrix
        )
        assert np.allclose(total_R, 0.0, atol=1e-12)


def test_bracket_rejects_mixed_noise_kinds():
    b = bundle("linear_additive")
    Xw = b.vectorfields["scaling"]
    Xstd = VectorField(b.ctx, (parse("x", b.ctx),))
    with pytest.raises(SymmetryError):
        lie_bracket(Xw, Xstd)


def test_solvability_abelian_pair(oscillator):
    pair = [oscillator.vectorfields["scaling"], oscillator.vectorfields["rotation"]]
    result = solvability_check(pair)
    assert result.status == "solvable" and result.abelian
    assert result.derived_dims[1] == 0


def test_solvability_single_generator(oscillator):
    result = solvability_check([oscillator.vectorfields["scaling"]])
    assert result.status == "solvable"


def test_solvability_full_set_structure_constants(oscillator):
    gens = [oscillator.vectorfields[n] for n in field_names()]
    result = solvability_check(gens)
    assert result.status == "not_solvable"  # contains a simple 3d subalgebra
    c = result.structure_constants
    assert np.max(np.abs(c[1, 2] - np.array([0, 0, 0, -2.0]))) < 1e-9
    assert np.max(np.abs(c[1, 3] - np.array([0, 0, -2.0, 0]))) < 1e-9
    assert np.max(np.abs(c[2, 3] - np.array([0, 2.0, 0, 0]))) < 1e-9
    assert np.max(np.abs(c[0])) < 1e-9


def test_solvability_nonabelian_ordering():
    # translations + scaling on the line: [d_x, x d_x] = d_x
    ctx = Context(n=1, m=1)
    trans = VectorField(ctx, (ONE,))
    scale = VectorField(ctx, (parse("x", ctx),))
    result = solvability_check([trans, scale])
    assert result.status == "solvable"
    assert result.derived_dims == [2, 1, 0]
    assert result.ordering == [1, 0]  # reduce by the scaling first


def test_solvability_inconclusive_outside_span():
    ctx = Context(n=1, m=1)
    a = VectorField(ctx, (parse("x", ctx),))
    b = VectorField(ctx, (parse("x^2", ctx),))
    result = solvability_check([a, b])  # bracket is x^2, outside span{x, x^2}? no: = x^2
    # [x d, x^2 d] = x*2x - x^2*1 = x^2, inside the span: solvable
    assert result.status == "solvable"
    c = VectorField(ctx, (parse("exp(x)", ctx),))
    result2 = solvability_check([a, c])  # bracket x e^x - e^x, outside the span
    assert result2.status == "inconclusive"


# ---------------------------------------------------------------------------
# counterexample shapes


def test_counterexample_exponential_w():
    b = bundle("counterexample_fields")
    rep = residual_W_ito(b.vectorfields["exponential_w"], b.system)
    assert rep.verdict == "not_symmetry" and rep.witness is not None


def test_counterexample_quadratic_w_any_R():
    b = bundle("counterexample_fields")
    for R in (0.5, 1.0, -2.0):
        X = VectorField(b.ctx, (parse("x*w^2", b.ctx),), noise=LinearW.from_matrix([[R]]))
        assert residual_W_ito(X, b.system).verdict == "not_symmetry"


# ---------------------------------------------------------------------------
# recorded residuals


RESIDUAL_ORACLE = json.loads((Path(__file__).parent / "residual_oracle.json").read_text())
BUNDLED = sorted(p.stem for p in model_dir().glob("*.model"))


def general_h_fields(seed: int, count: int):
    """``count`` general-h fields with depth-3 random components, cycling over
    the bundled models: (model name, bundle, field)."""
    rng = np.random.default_rng(seed)
    for j in range(count):
        name = BUNDLED[j % len(BUNDLED)]
        b = bundle(name)
        ctx = b.ctx
        phi = tuple(random_tree(rng, ctx, 3) for _ in range(ctx.n))
        h = tuple(random_tree(rng, ctx, 3) for _ in range(ctx.m))
        yield name, b, VectorField(ctx, phi, ZERO, GeneralH(h))


def residual_records(seed: int, count: int):
    """The printed residual and the verdict's counts, for every bundled
    (model, field) pair and for the general-h fields, in both calculi; a
    candidate a calculus refuses records the error instead."""
    cases = [
        (f"{name}/{field}", b, X)
        for name in BUNDLED
        for b in [bundle(name)]
        for field, X in b.vectorfields.items()
    ]
    cases += [
        (f"{name}/general_h[{j}]", b, X)
        for j, (name, b, X) in enumerate(general_h_fields(seed, count))
    ]
    for key, b, X in cases:
        if b.system.calculus == "ito":
            systems = (b.system, ito_to_strat(b.system))
        else:
            systems = (strat_to_ito(b.system), b.system)
        config = ZeroTestConfig(box=b.box)
        record = {
            "case": key,
            "phi": [to_string(e) for e in X.phi],
            "h": [to_string(e) for e in X.noise_exprs()],
        }
        for sys_ in systems:
            try:
                report = residuals(X, sys_, config, force=True)
            except SymmetryError as err:
                record[sys_.calculus] = {"error": str(err)}
                continue
            record[sys_.calculus] = {
                "family": report.family,
                "entries": [
                    {
                        "label": e.label,
                        "residual": to_string(e.expr),
                        "status": e.verdict.status,
                        "mode": e.verdict.mode,
                        "points_evaluated": e.verdict.points_evaluated,
                        "failures": e.verdict.failures,
                    }
                    for e in report.entries
                ],
            }
        yield record


def test_residuals_match_recorded_oracle():
    # residual_oracle.json holds the determining-equation residuals of the
    # per-calculus residual builders that the operator form replaced; the
    # printed fields guard against a change in how treegen regenerates them
    records = residual_records(RESIDUAL_ORACLE["seed"], RESIDUAL_ORACLE["count"])
    for want, got in zip(RESIDUAL_ORACLE["cases"], records, strict=True):
        assert got == want, want["case"]
