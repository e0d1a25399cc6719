import importlib
import importlib.util
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expi
from scipy.stats import qmc

from sdesym.expr import (
    Apply,
    Const,
    Context,
    EvaluationError,
    Kernel,
    Neg,
    ONE,
    Power,
    Product,
    Sum,
    Var,
    ZERO,
    add,
    differentiate,
    eval_array,
    evaluate,
    expint_ei,
    expressions_equal,
    free_params,
    free_vars,
    is_identically_zero,
    mul,
    parse,
    simplify,
    substitute,
    state,
    to_string,
    wiener,
    TIME,
)
from sdesym.expr.evaluate import eval_magnitude
from sdesym.expr.zerotest import _sample_points
from treegen import oracle_cases, random_tree, sample_point, simplify_cases

CTX = Context(n=2, m=2)
SCALAR = Context(n=1, m=1)


def test_structural_equality_and_hash():
    a = parse("x1 + 2*w2", CTX)
    b = parse("x1 + 2*w2", CTX)
    assert a == b
    assert hash(a) == hash(b)
    assert a != parse("x1 + 2*w1", CTX)


# numbers a constant may be built from: ints, exact rationals with large
# and negative parts, floats with their edge values, and a numpy float64
_CONST_NUMBERS = st.one_of(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.builds(
        Fraction,
        st.integers(min_value=-(10**40), max_value=10**40),
        st.integers(min_value=1, max_value=10**40),
    ),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)


def _relatives(v):
    """Numbers that equal v numerically, some of them of another type."""
    out = [v]
    if isinstance(v, float) and math.isfinite(v):
        out += [-v if v == 0 else v, float(v), np.float64(v), Fraction(float(v))]
    if isinstance(v, (int, Fraction)):
        f = Fraction(v)
        out += [f, Fraction(f.numerator * 6, f.denominator * 6), float(f)]
        if f.denominator == 1:
            out.append(int(f))
    return out


_CONST_PAIRS = _CONST_NUMBERS.flatmap(
    lambda a: st.tuples(st.just(a), st.one_of(st.sampled_from(_relatives(a)), _CONST_NUMBERS))
)


@given(_CONST_PAIRS)
@settings(max_examples=400, deadline=None)
def test_const_equality_and_hash_contract(pair):
    # equal constants are the same number of the same type; ints are
    # rationals, a float never equals a rational, and NaN equals nothing
    a, b = pair
    a_value, b_value = (Fraction(v) if isinstance(v, int) else v for v in pair)
    same = type(a_value) is type(b_value) and a_value == b_value
    assert (Const(a) == Const(b)) is same
    if same:
        assert hash(Const(a)) == hash(Const(b))


def test_simplify_never_hashes_a_fraction(monkeypatch):
    from sdesym.expr.simplify import _cache

    calls = []
    original = Fraction.__hash__

    def counting_hash(self):
        calls.append(self)
        return original(self)

    _cache.clear()  # start cold, so every tree is built and simplified here
    differentiate.cache_clear()
    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    for tree in simplify_cases(12345, 200):
        simplify(tree)
    assert calls == []


def test_var_identity():
    assert state(1) == state(1)
    assert state(1) != wiener(1)
    assert TIME.name == "t"
    with pytest.raises(ValueError):
        state(0)


def test_var_ids_are_one_object_per_index():
    assert state(1) is state(1)
    assert wiener(2) is wiener(2)
    assert state(1) is not wiener(1)
    for bad in (state, wiener):
        for _ in range(2):  # a refused index is not remembered
            with pytest.raises(ValueError):
                bad(0)


def test_context_bounds():
    with pytest.raises(ValueError):
        Context(n=0, m=1)
    ctx = Context(n=2, m=1)
    with pytest.raises(ValueError):
        ctx.x(3)


def test_operator_sugar_builds_trees():
    x = SCALAR.x(1)
    e = (x + 1) * x - x ** 2
    v = evaluate(simplify(e), {state(1): 3.0})
    assert v == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# differentiation


def test_chain_rule_exponential():
    e = parse("exp(x-w)", SCALAR)
    assert differentiate(e, state(1)) == simplify(e)
    assert differentiate(e, wiener(1)) == simplify(Neg(e))


def test_ei_derivative_against_finite_differences():
    # d/dx Ei(2/x) = -exp(2/x)/x, checked at 16 points in [0.5, 2]
    e = parse("Ei(2/x)", SCALAR)
    d = differentiate(e, state(1))
    rng = np.random.default_rng(7)
    for _ in range(16):
        x = float(rng.uniform(0.5, 2.0))
        h = 1e-6 * x
        fd = (
            evaluate(e, {state(1): x + h}) - evaluate(e, {state(1): x - h})
        ) / (2 * h)
        exact = evaluate(d, {state(1): x})
        assert abs(exact - fd) < 1e-6 * max(1.0, abs(exact))
        assert exact == pytest.approx(-math.exp(2 / x) / x, rel=1e-12)


def test_derivative_matches_finite_differences_bulk():
    # 1000 random trees of depth <= 6: symbolic derivative vs central FD
    rng = np.random.default_rng(2024)
    checked = 0
    trees = 0
    while trees < 1000:
        e = random_tree(rng, CTX, depth=int(rng.integers(1, 7)))
        trees += 1
        variables = sorted(free_vars(e), key=lambda v: v.name)
        if not variables:
            continue
        v = variables[int(rng.integers(0, len(variables)))]
        d = differentiate(e, v)
        for _ in range(3):
            p = sample_point(rng, CTX)
            h = 1e-5
            try:
                up = dict(p)
                up[v] += h
                dn = dict(p)
                dn[v] -= h
                fd = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
                exact = evaluate(d, p)
            except EvaluationError:
                continue
            scale = max(1.0, abs(exact), abs(fd))
            if scale > 1e6:  # wildly conditioned point; FD meaningless
                continue
            assert abs(exact - fd) <= 1e-4 * scale, f"{to_string(e)} wrt {v.name}"
            checked += 1
    assert checked > 1200  # plenty of decisive comparisons


def test_derivative_linearity_product_rule_structurally():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = random_tree(rng, CTX, 3)
        b = random_tree(rng, CTX, 3)
        v = state(1)
        lhs = differentiate(simplify(add(a, b)), v)
        rhs = simplify(add(differentiate(a, v), differentiate(b, v)))
        assert expressions_equal(lhs, rhs, CTX).is_zero
        lhs = differentiate(simplify(mul(a, b)), v)
        rhs = simplify(
            add(mul(differentiate(a, v), b), mul(a, differentiate(b, v)))
        )
        assert expressions_equal(lhs, rhs, CTX).is_zero


# ---------------------------------------------------------------------------
# simplification


def test_simplify_identities():
    assert simplify(parse("x + 0", SCALAR)) == parse("x", SCALAR)
    assert simplify(parse("exp(x)*exp(-x)", SCALAR)) == ONE
    assert simplify(parse("lam*x*(1/x)", SCALAR)) == parse("lam", SCALAR)
    assert simplify(parse("x^2*x^(-2)", SCALAR)) == ONE
    assert simplify(parse("0*log(x)", SCALAR)) == ZERO


def test_simplify_merges_like_terms_and_orders_deterministically():
    a = simplify(parse("x + w + x", SCALAR))
    b = simplify(parse("w + 2*x", SCALAR))
    assert a == b


def test_simplify_keeps_rationals_exact():
    e = simplify(parse("(1/3)*x + (1/6)*x", SCALAR))
    coeff = e.factors[0]
    assert coeff == Const(Fraction(1, 2))


def test_simplify_value_preserving_bulk():
    rng = np.random.default_rng(99)
    points = 0
    while points < 100:
        e = random_tree(rng, CTX, 4)
        s = simplify(e)
        for _ in range(3):
            p = sample_point(rng, CTX)
            try:
                v0 = evaluate(e, p)
                v1 = evaluate(s, p)
                mag = eval_magnitude(e, p)
            except EvaluationError:
                continue
            assert abs(v0 - v1) <= 1e-12 * (1.0 + mag)
            points += 1


def _large_unsimplified_sum():
    # fresh terms, so nothing of it is in the simplify cache yet
    x1, x2, t = (Var(v) for v in (state(1), state(2), TIME))
    terms = [
        mul(Const(Fraction(k, 13)), Power(add(x1, t), Const(k % 4 + 2)), x2) for k in range(40)
    ]
    return Sum(tuple(terms) + (Neg(Power(add(x1, x2), Const(3))),))


@pytest.mark.parametrize("zero", [Const(0), Const(0.0), Const(-0.0)], ids=["0", "0.0", "-0.0"])
def test_product_with_a_zero_factor_is_zero_without_expanding(zero):
    from sdesym.expr.simplify import _cache

    big = _large_unsimplified_sum()
    assert big not in _cache
    before = len(_cache)
    for product in (Product((big, zero)), Product((zero, big, Var(TIME)))):
        assert simplify(product) is ZERO  # exact, whatever the zero's number type
    assert big not in _cache
    assert len(_cache) <= before + 3  # the two products and ZERO itself


def test_a_factor_that_simplifies_to_zero_skips_the_expansion(monkeypatch):
    simplify_module = importlib.import_module("sdesym.expr.simplify")
    distribute = simplify_module._distribute

    def refuse_zero(flat):
        assert not any(isinstance(f, Const) and not f.value for f in flat), "zero expanded"
        return distribute(flat)

    x1 = Var(state(1))
    product = Product((add(x1, Neg(x1)), add(x1, Var(TIME)), add(x1, Var(wiener(1)))))
    simplify_module._cache.clear()
    monkeypatch.setattr(simplify_module, "_distribute", refuse_zero)
    assert simplify(product) is ZERO


def test_generated_trees_times_zero_are_zero():
    t = Var(TIME)
    for tree in simplify_cases(2718, 400):
        for zero in (Const(0), Const(0.0)):
            assert simplify(Product((tree, zero))) is ZERO
            assert simplify(Product((zero, tree, t))) is ZERO


SIMPLIFY_ORACLE = json.loads((Path(__file__).parent / "simplify_oracle.json").read_text())


def test_simplify_matches_recorded_oracle():
    # simplify_oracle.json holds the printed output of simplify when it still
    # iterated passes to a fixpoint, for a treegen corpus and for parsed trees
    # on which one pass of that version stopped short.  Each corpus input's
    # printed form guards its regeneration; the x1-derivatives come from
    # differentiate, which simplifies, so theirs checks simplify as well
    contexts = tuple(tuple(c) for c in SIMPLIFY_ORACLE["contexts"])
    trees = list(simplify_cases(SIMPLIFY_ORACLE["seed"], SIMPLIFY_ORACLE["count"], contexts))
    trees += [parse(case["tree"], Context(*case["context"])) for case in SIMPLIFY_ORACLE["parsed"]]
    recorded = SIMPLIFY_ORACLE["cases"] + SIMPLIFY_ORACLE["parsed"]
    want = [(case["tree"], case["simplified"]) for case in recorded]
    got = [(to_string(e), to_string(simplify(e))) for e in trees]
    assert len(got) == len(want)
    assert [g for g, w in zip(got, want) if g != w] == []


def test_simplify_output_is_a_one_pass_fixpoint():
    path = Path(__file__).parents[1] / "scripts" / "simplify_fixpoint_probe.py"
    spec = importlib.util.spec_from_file_location("simplify_fixpoint_probe", path)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    passes, changed = probe.probe(seed=12345, trees=2000)
    assert passes > 2000
    assert not changed, [to_string(e) for e, _, _ in changed]


def test_symbolic_caches_stay_bounded():
    # a long-running process that keeps simplifying and differentiating new
    # expressions must not grow either cache past its cap
    from sdesym.expr.calculus import _DIFF_CACHE_CAP
    from sdesym.expr.simplify import _CACHE_CAP, _cache

    largest = 0
    for i in range(_CACHE_CAP + 100):
        assert simplify(Const(Fraction(i, 7))) == Const(Fraction(i, 7))
        largest = max(largest, len(_cache))
    assert largest <= _CACHE_CAP + 1  # cleared on the miss that finds it full
    assert simplify(parse("x1 + x1", CTX)) == simplify(parse("2*x1", CTX))

    for i in range(_DIFF_CACHE_CAP + 100):
        c = Const(Fraction(i, 7))
        assert differentiate(mul(c, Var(state(1))), state(1)) == c
    assert differentiate.cache_info().currsize <= _DIFF_CACHE_CAP


def test_power_folding_is_integer_only():
    assert simplify(parse("2^3", SCALAR)) == Const(Fraction(8))
    kept = simplify(parse("2^(1/2)", SCALAR))
    assert isinstance(kept, Power)  # irrational constants stay symbolic


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_basics():
    assert evaluate(parse("exp(-x)", SCALAR), {state(1): 0.0}) == 1.0
    v = evaluate(
        parse("exp(w)*(1 + (1/2)*exp(-x))", SCALAR),
        {state(1): 0.0, wiener(1): 0.0},
    )
    assert v == pytest.approx(1.5)


def test_evaluate_errors_are_surfaced():
    with pytest.raises(EvaluationError):
        evaluate(parse("log(x)", SCALAR), {state(1): -1.0})
    with pytest.raises(EvaluationError):
        evaluate(parse("Ei(x)", SCALAR), {state(1): 0.0})
    with pytest.raises(EvaluationError):
        evaluate(parse("x + y", SCALAR), {state(1): 1.0})  # unbound param
    with pytest.raises(EvaluationError):
        evaluate(parse("exp(x)", SCALAR), {state(1): 1e4})  # overflow


def test_strict_sums_run_left_to_right():
    # (1e16 + 1) rounds to 1e16 before -1e16 is added; an exactly rounded
    # sum would give 1
    e = parse("x + 1 - x", SCALAR)
    assert evaluate(e, {state(1): 1e16}) == 0.0


def test_overflowing_terms_are_failed_lanes():
    # both terms overflow to inf at the large end of the box: inf - inf used
    # to escape strict evaluation as a bare ValueError
    e = parse("x^600*exp(300*t)*(sin(x)^2 + cos(x)^2) - x^600*exp(300*t)", SCALAR)
    v = is_identically_zero(e, SCALAR)
    assert v.failures > 0
    assert v.points_evaluated > 0
    assert v.points_evaluated + v.failures == 64
    assert v.status == "zero"
    with pytest.raises(EvaluationError):
        evaluate(e, {state(1): 2.0, TIME: 2.0})


ORACLE = json.loads((Path(__file__).parent / "eval_oracle.json").read_text())


def test_evaluator_matches_recorded_oracle():
    # eval_oracle.json holds the results of the tree-walking evaluators that
    # the compiled kernel replaced (exact fsum sums, math-module functions),
    # None marking a failed point; each tree's printed form guards against a
    # change in how treegen regenerates the cases
    cases = oracle_cases(ORACLE["seed"], ORACLE["count"], CTX)
    checked = 0
    for want, (e, points) in zip(ORACLE["cases"], cases, strict=True):
        assert to_string(e) == want["tree"]
        for i, p in enumerate(points):
            for fn, recorded in ((evaluate, want["value"]), (eval_magnitude, want["magnitude"])):
                try:
                    got = fn(e, p)
                except EvaluationError:
                    got = None
                assert (got is None) == (recorded[i] is None), f"{want['tree']} at {p}"
                if got is not None:
                    scale = 1.0 + (want["magnitude"][i] or abs(recorded[i]))
                    assert abs(got - recorded[i]) <= 1e-12 * scale, f"{want['tree']} at {p}"
                    checked += 1
    assert checked > 1500


def test_kernel_batch_equals_single_lanes():
    for e, points in oracle_cases(ORACLE["seed"], ORACLE["count"], CTX):
        kernel = Kernel([e], CTX.all_vars(), magnitudes=[e])
        lanes = np.array([[p[v] for v in CTX.all_vars()] for p in points])
        values, failed = kernel.strict(lanes.T)
        for j, row in enumerate(lanes):
            one, one_failed = kernel.strict(row)
            assert one_failed[0] == failed[j]
            if not failed[j]:
                assert one[:, 0].tobytes() == values[:, j].tobytes(), to_string(e)


def test_kernel_rejects_wrong_column_count():
    kernel = Kernel([parse("x1 + t", CTX)], (state(1), TIME))
    with pytest.raises(ValueError, match="2 input columns"):
        kernel.strict(np.linspace(0.0, 1.0, 5))  # lanes of one column, not five columns
    with pytest.raises(ValueError, match="2 input columns"):
        kernel([1.0])
    (values,), failed = kernel.strict([np.linspace(0.0, 1.0, 5), 1.0])
    assert values.shape == (5,) and not failed.any()


def _node_by_node(e, point):
    """Reference: walk the tree, sums and products left to right, with the
    numpy operations the kernel uses."""
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Var):
        return point[e.var]
    if isinstance(e, Neg):
        return -_node_by_node(e.arg, point)
    if isinstance(e, (Sum, Product)):
        parts = [_node_by_node(a, point) for a in (e.terms if isinstance(e, Sum) else e.factors)]
        total = parts[0]
        for part in parts[1:]:
            total = total + part if isinstance(e, Sum) else total * part
        return total
    if isinstance(e, Power):
        return np.power(_node_by_node(e.base, point), _node_by_node(e.exponent, point))
    ufuncs = {"exp": np.exp, "log": np.log, "sqrt": np.sqrt, "sin": np.sin, "cos": np.cos,
              "arctan": np.arctan, "Ei": expi}
    return ufuncs[e.fn](_node_by_node(e.arg, point))


def test_eval_array_is_bit_identical_to_node_by_node_evaluation():
    # what keeps Monte Carlo ensembles reproducible: shared subtrees and
    # folded constants must not change a single bit
    rng = np.random.default_rng(17)
    for e, points in oracle_cases(ORACLE["seed"], ORACLE["count"], CTX):
        columns = {v: rng.uniform(-2.0, 2.0, size=64) for v in CTX.all_vars()}
        for point in (columns, points[0]):
            with np.errstate(all="ignore"):
                want = np.broadcast_to(_node_by_node(e, point), np.shape(point[TIME]))
            got = np.broadcast_to(eval_array(e, point), np.shape(point[TIME]))
            assert np.array_equal(got, want, equal_nan=True), to_string(e)


def test_eval_array_vectorizes():
    e = parse("x^2 + w", SCALAR)
    xs = np.array([1.0, 2.0, 3.0])
    ws = np.array([0.5, -0.5, 0.0])
    out = eval_array(e, {state(1): xs, wiener(1): ws})
    assert np.allclose(out, xs ** 2 + ws)


# ---------------------------------------------------------------------------
# the exponential integral


def _ei_series_oracle(z: float) -> float:
    # gamma_E + log|z| + sum z^k/(k k!) summed far past double precision
    total = 0.57721566490153286060651209008240243 + math.log(abs(z))
    power = 1.0
    for k in range(1, 200):
        power *= z / k
        total += power / k
    return total


def test_ei_at_one_matches_series_oracle():
    assert evaluate(parse("Ei(x)", SCALAR), {state(1): 1.0}) == pytest.approx(
        _ei_series_oracle(1.0), abs=1e-9
    )
    assert _ei_series_oracle(1.0) == pytest.approx(1.895117816355937, abs=1e-12)


@pytest.mark.parametrize(
    "z, rel",
    [
        (-30.0, 1e-12),
        (-12.0, 1e-12),
        (-10.0 - 1e-9, 1e-12),
        (-10.0 + 1e-9, 1e-12),
        (-9.99, 1e-12),
        (-9.91, 1e-12),
        (-9.5, 1e-12),
        (-6.5, 1e-10),
        (-2.0, 1e-12),
        (-0.3, 1e-12),
        (0.2, 1e-12),
        (1.0, 1e-12),
        (5.0, 1e-12),
        (11.0, 1e-12),
        (40.0, 1e-12),
    ],
)
def test_ei_matches_scipy(z, rel):
    assert expint_ei(z) == pytest.approx(float(expi(z)), rel=rel, abs=1e-300)


def test_eval_array_ei_matches_scipy():
    zs = np.array([-30.0, -9.99, -9.5, -0.3, 0.2, 5.0, 40.0])
    out = eval_array(parse("Ei(x)", SCALAR), {state(1): zs})
    assert np.allclose(out, expi(zs), rtol=1e-12, atol=0.0)
    at_zero = eval_array(parse("Ei(x)", SCALAR), {state(1): np.array([0.0, 1.0])})
    assert not np.isfinite(at_zero[0]) and np.isfinite(at_zero[1])


# ---------------------------------------------------------------------------
# substitution


def test_substitution_examples():
    assert simplify(
        substitute(parse("x^2", SCALAR), state(1), parse("exp(xi)", SCALAR))
    ) == simplify(parse("exp(2*xi)", SCALAR))
    assert simplify(
        substitute(parse("lam*x", SCALAR), state(1), parse("exp(xi)", SCALAR))
    ) == simplify(parse("lam*exp(xi)", SCALAR))
    assert simplify(
        substitute(parse("w/x", SCALAR), state(1), parse("exp(xi)", SCALAR))
    ) == simplify(parse("w*exp(-xi)", SCALAR))


def test_free_vars_and_params():
    e = parse("lam*x1 + mu*w2 + t", CTX)
    assert free_vars(e) == {state(1), wiener(2), TIME}
    assert free_params(e) == {"lam", "mu"}


# ---------------------------------------------------------------------------
# zero testing


def test_zero_test_structural():
    v = is_identically_zero(parse("exp(x)*exp(-x) - 1", SCALAR), SCALAR)
    assert v.is_zero and v.mode == "structural"


def test_zero_test_sampled():
    v = is_identically_zero(parse("sin(x)^2 + cos(x)^2 - 1", SCALAR), SCALAR)
    assert v.is_zero and v.mode == "sampled"


def test_zero_test_nonzero_witness():
    ctx = Context(n=1, m=1, params={"alpha": 2.0, "mu": 1.0})
    v = is_identically_zero(parse("alpha*(alpha-1)*mu^2*x^(2*alpha-1)", ctx), ctx)
    assert v.is_nonzero
    assert v.witness_point is not None
    x = v.witness_point["x1"]
    assert v.witness_value == pytest.approx(2.0 * x ** 3)


def test_zero_test_inconclusive_on_unevaluable():
    # log of a negative constant fails at every sample point
    e = parse("log(0 - 1 - x^2)", SCALAR)
    v = is_identically_zero(e, SCALAR)
    assert v.status == "inconclusive"


def test_zero_test_e_minus_e_property():
    rng = np.random.default_rng(31)
    for _ in range(40):
        e = random_tree(rng, CTX, 4)
        v = is_identically_zero(add(e, Neg(e)), CTX)
        assert v.is_zero


def test_zero_test_samples_unbound_params():
    # an identity in a free parameter holds at sampled parameter values
    v = is_identically_zero(parse("(q + 1)^2 - q^2 - 2*q - 1", SCALAR), SCALAR)
    assert v.is_zero
    w = is_identically_zero(parse("(q + 1)^2 - q^2", SCALAR), SCALAR)
    assert w.is_nonzero


def test_sample_points_built_once():
    # the Sobol set of a (dimension, count, seed) key is built once and shared
    # read-only by every zero test that asks for it
    points = _sample_points(3, 64, 5)
    assert _sample_points(3, 64, 5) is points
    assert not points.flags.writeable
    np.testing.assert_array_equal(points, qmc.Sobol(d=3, scramble=True, seed=5).random(64))
    with pytest.raises(ValueError):
        points[0, 0] = 0.5
