"""Value-preserving simplification.

Generic-point semantics: rewrites like x^a * x^-a -> 1 are applied without
tracking removable singularities.  Constants are folded exactly for
rationals; like terms in flattened sums and like bases in flattened
products are merged; exponential factors are combined through their
arguments.  No canonical form is guaranteed, but the output ordering is
deterministic, so equal inputs simplify to identical trees.

Each rule returns a fixpoint: simplifying its result again changes nothing,
so one pass suffices and a result is cached as its own simplification.  A
rule that breaks this must be fixed where it happens, not papered over with
a second pass; ``scripts/simplify_fixpoint_probe.py`` checks it on
generated trees.

A product with a zero constant factor (``Const(0)``, ``Const(0.0)`` or
``Const(-0.0)``) is exact ``ZERO`` before anything else is done to it: its
other factors are neither simplified nor expanded over their sums.  Every
such product ended as ``ZERO`` anyway; the rule only skips the work, which
the operators and the Ito Laplacian would otherwise spend on the zero
entries they multiply in.  (Under generic-point semantics 0 * u is 0 even
where u is undefined, as x^a * x^-a is 1.)
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from .nodes import (
    AntiDeriv,
    Apply,
    Const,
    Expr,
    MINUS_ONE,
    Neg,
    ONE,
    Param,
    Power,
    Product,
    Sum,
    Var,
    ZERO,
    add,
    mul,
)

_cache: Dict[Expr, Expr] = {}
# A process that keeps analysing new systems would otherwise grow _cache
# without bound; one repetition of the `symbolic` benchmark workload stores
# about 16 500 entries.
_CACHE_CAP = 40_000

_EXPAND_CAP = 1024  # max number of terms a product-over-sum expansion may create

# The coefficient of a term with no constant factor.  Coefficients start
# from the first constant found, never from a multiplication by one.
_UNIT = Fraction(1)


def simplify(e: Expr) -> Expr:
    cached = _cache.get(e)
    if cached is None:
        cached = _simplify(e)
        if len(_cache) >= _CACHE_CAP:
            _cache.clear()  # every entry is a fixpoint: clearing costs time only
        _cache[e] = cached
        _cache[cached] = cached
    return cached


def _simplify(e: Expr) -> Expr:
    if isinstance(e, (Const, Var, Param)):
        return e
    if isinstance(e, Neg):
        return simplify(Product((MINUS_ONE, e.arg)))
    if isinstance(e, Sum):
        return _simplify_sum([simplify(t) for t in e.terms])
    if isinstance(e, Product):
        if _has_zero_factor(e.factors):
            return ZERO
        return _simplify_product([simplify(f) for f in e.factors])
    if isinstance(e, Power):
        return _simplify_power(simplify(e.base), simplify(e.exponent))
    if isinstance(e, Apply):
        return _simplify_apply(e.fn, simplify(e.arg))
    if isinstance(e, AntiDeriv):
        return AntiDeriv(simplify(e.integrand), e.var, e.base)
    raise TypeError(f"unknown node {e!r}")


def _has_zero_factor(factors) -> bool:
    for factor in factors:
        if isinstance(factor, Const) and not factor.value:
            return True
    return False


def _times(coeff, value):
    """coeff * value; a coeff of None (no constant seen yet) takes value as is."""
    return value if coeff is None else coeff * value


def _split_coeff(term: Expr) -> Tuple[object, Expr]:
    """term == coeff * key with coeff a plain number and key constant-free."""
    if isinstance(term, Const):
        return term.value, ONE
    if isinstance(term, Product):
        coeff = None
        rest: List[Expr] = []
        for factor in term.factors:
            if isinstance(factor, Const):
                coeff = _times(coeff, factor.value)
            else:
                rest.append(factor)
        if coeff is None:
            coeff = _UNIT
        if not rest:
            return coeff, ONE
        return coeff, rest[0] if len(rest) == 1 else Product(tuple(rest))
    return _UNIT, term


def _with_coeff(coeff, key: Expr) -> Expr:
    if key is ONE:
        return Const(coeff)
    if coeff is _UNIT or (isinstance(coeff, Fraction) and coeff == 1):
        return key
    if isinstance(key, Product):
        return Product((Const(coeff),) + key.factors)
    return Product((Const(coeff), key))


def _simplify_sum(terms: List[Expr]) -> Expr:
    flat: List[Expr] = []
    for term in terms:
        if isinstance(term, Sum):
            flat.extend(term.terms)
        else:
            flat.append(term)
    buckets: Dict[Expr, object] = {}
    order: List[Expr] = []
    for term in flat:
        coeff, key = _split_coeff(term)
        if key in buckets:
            buckets[key] = buckets[key] + coeff
        else:
            buckets[key] = coeff
            order.append(key)
    out: List[Expr] = []
    for key in sorted(order, key=lambda k: k.sort_key()):
        coeff = buckets[key]
        if not coeff:
            continue
        out.append(_with_coeff(coeff, key))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Sum(tuple(out))


def _as_base_exponent(factor: Expr) -> Tuple[Expr, Expr]:
    if isinstance(factor, Power):
        return factor.base, factor.exponent
    return factor, ONE


def _simplify_product(factors: List[Expr]) -> Expr:
    flat: List[Expr] = []
    for factor in factors:
        if isinstance(factor, Product):
            flat.extend(factor.factors)
        else:
            flat.append(factor)
    if _has_zero_factor(flat):
        return ZERO
    expanded = _distribute(flat)
    if expanded is not None:
        return expanded
    coeff = None  # product of the constant factors, None before the first
    exp_args: List[Expr] = []  # arguments of exp factors, to be summed
    buckets: Dict[Expr, List[Expr]] = {}
    order: List[Expr] = []
    for factor in flat:
        if isinstance(factor, Const):
            coeff = _times(coeff, factor.value)
            continue
        if isinstance(factor, Apply) and factor.fn == "exp":
            exp_args.append(factor.arg)
            continue
        base, exponent = _as_base_exponent(factor)
        if isinstance(base, Apply) and base.fn == "exp":
            exp_args.append(mul(exponent, base.arg))
            continue
        if base in buckets:
            buckets[base].append(exponent)
        else:
            buckets[base] = [exponent]
            order.append(base)
    out: List[Expr] = []
    if exp_args:
        total = simplify(add(*exp_args))
        merged = _simplify_apply("exp", total)
        if isinstance(merged, Const):
            if not merged.value:
                return ZERO
            coeff = _times(coeff, merged.value)
        else:
            out.append(merged)
    for base in order:
        exponent = simplify(add(*buckets[base]))
        piece = _simplify_power(base, exponent)
        if isinstance(piece, Const):
            if not piece.value:
                return ZERO
            coeff = _times(coeff, piece.value)
        else:
            out.append(piece)
    # a merged piece may itself be a product (e.g. after distributing an
    # integer power over a product); flatten once more without re-merging
    flat_out: List[Expr] = []
    for piece in out:
        if isinstance(piece, Product):
            for sub in piece.factors:
                if isinstance(sub, Const):
                    coeff = _times(coeff, sub.value)
                else:
                    flat_out.append(sub)
        else:
            flat_out.append(piece)
    flat_out.sort(key=lambda f: f.sort_key())
    if coeff is None:
        if not flat_out:
            return ONE
    elif not coeff:
        return ZERO
    elif not flat_out:
        return Const(coeff)
    elif isinstance(coeff, float) or coeff != 1:
        flat_out.insert(0, Const(coeff))
    if len(flat_out) == 1:
        return flat_out[0]
    # merging exponents can leave a bare Sum beside other factors, as in
    # ((t + 1/2)^(-1)*3)^(-1) -> (1/3)*((1/2) + t); distribute it here
    expanded = _distribute(flat_out)
    if expanded is not None:
        return expanded
    return Product(tuple(flat_out))


def _distribute(flat: List[Expr]) -> Expr:
    """Expand a product over its Sum factors (size-capped); None if nothing
    to do or the expansion would be too large."""
    size = 1
    has_sum = False
    for factor in flat:
        if isinstance(factor, Sum):
            has_sum = True
            size *= len(factor.terms)
            if size > _EXPAND_CAP:
                return None
    if not has_sum:
        return None
    combos: List[List[Expr]] = [[]]
    for factor in flat:
        choices = factor.terms if isinstance(factor, Sum) else (factor,)
        combos = [combo + [choice] for combo in combos for choice in choices]
    return _simplify_sum([_simplify_product(combo) for combo in combos])


def _simplify_power(base: Expr, exponent: Expr) -> Expr:
    if isinstance(exponent, Const):
        if not exponent.value:
            return ONE
        if exponent.value == 1:
            return base
    if isinstance(base, Const):
        if base.value == 1:
            return ONE
        if isinstance(exponent, Const):
            if isinstance(base.value, Fraction) and isinstance(exponent.value, Fraction):
                if exponent.value.denominator == 1:
                    power = int(exponent.value)
                    if not base.value and power < 0:
                        return Power(base, exponent)  # undefined, leave alone
                    return Const(base.value ** power)
            if isinstance(base.value, float) or isinstance(exponent.value, float):
                try:
                    value = float(base.value) ** float(exponent.value)
                except (OverflowError, ValueError, ZeroDivisionError):
                    return Power(base, exponent)
                if isinstance(value, complex):
                    return Power(base, exponent)
                return Const(value)
        if not base.value and isinstance(exponent, Const) and exponent.value > 0:
            return ZERO
    if isinstance(base, Apply) and base.fn == "exp":
        return _simplify_apply("exp", simplify(mul(exponent, base.arg)))
    if isinstance(base, Power):
        return _simplify_power(base.base, simplify(mul(base.exponent, exponent)))
    if (
        isinstance(base, Product)
        and isinstance(exponent, Const)
        and isinstance(exponent.value, Fraction)
        and exponent.value.denominator == 1
    ):
        return _simplify_product([Power(f, exponent) for f in base.factors])
    if (
        isinstance(base, Sum)
        and isinstance(exponent, Const)
        and isinstance(exponent.value, Fraction)
        and exponent.value.denominator == 1
        and 2 <= exponent.value <= 4
        and len(base.terms) ** int(exponent.value) <= _EXPAND_CAP
    ):
        return _simplify_product([base] * int(exponent.value))
    return Power(base, exponent)


def _split_log_term(term: Expr):
    """term == c * log(u) with c a constant -> (c, u); else None."""
    if isinstance(term, Apply) and term.fn == "log":
        return ONE, term.arg
    if isinstance(term, Product) and len(term.factors) == 2:
        a, b = term.factors
        if isinstance(a, Const) and isinstance(b, Apply) and b.fn == "log":
            return a, b.arg
    return None


def _simplify_apply(fn: str, arg: Expr) -> Expr:
    if fn == "exp":
        if isinstance(arg, Const) and not arg.value:
            return ONE
        if isinstance(arg, Apply) and arg.fn == "log":
            return arg.arg
        # exp(a + c*log(u)) -> u^c * exp(a)
        terms = arg.terms if isinstance(arg, Sum) else (arg,)
        powers, rest = [], []
        for term in terms:
            split = _split_log_term(term)
            if split is None:
                rest.append(term)
            else:
                powers.append(_simplify_power(split[1], split[0]))
        if powers:
            if rest:
                powers.append(Apply("exp", _simplify_sum(rest)))
            return _simplify_product(powers)
        return Apply("exp", arg)
    if fn == "log":
        if isinstance(arg, Const) and arg.value == 1:
            return ZERO
        if isinstance(arg, Apply) and arg.fn == "exp":
            return arg.arg
        return Apply("log", arg)
    if fn == "sqrt":
        if isinstance(arg, Const) and arg.value in (0, 1):
            return Const(arg.value)
        return Apply("sqrt", arg)
    if fn == "sin":
        if isinstance(arg, Const) and not arg.value:
            return ZERO
        return Apply("sin", arg)
    if fn == "cos":
        if isinstance(arg, Const) and not arg.value:
            return ONE
        return Apply("cos", arg)
    if fn == "arctan":
        if isinstance(arg, Const) and not arg.value:
            return ZERO
        return Apply("arctan", arg)
    return Apply(fn, arg)


def is_structural_zero(e: Expr) -> bool:
    s = simplify(e)
    return isinstance(s, Const) and not s.value
