"""Exact partial differentiation and syntactic substitution."""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from .nodes import (
    AntiDeriv,
    Apply,
    Const,
    Expr,
    HALF,
    MINUS_ONE,
    Neg,
    ONE,
    Param,
    Power,
    Product,
    Sum,
    Var,
    VarId,
    ZERO,
    add,
    free_vars,
    mul,
)
from .simplify import simplify


class DifferentiationError(ValueError):
    pass


def _chain_factor(fn: str, arg: Expr) -> Expr:
    """d f(z) / d z for each builtin."""
    if fn == "exp":
        return Apply("exp", arg)
    if fn == "log":
        return Power(arg, MINUS_ONE)
    if fn == "sqrt":
        return mul(HALF, Power(Apply("sqrt", arg), MINUS_ONE))
    if fn == "sin":
        return Apply("cos", arg)
    if fn == "cos":
        return Neg(Apply("sin", arg))
    if fn == "arctan":
        return Power(add(ONE, Power(arg, Const(2))), MINUS_ONE)
    if fn == "Ei":
        return mul(Apply("exp", arg), Power(arg, MINUS_ONE))
    raise DifferentiationError(f"no derivative rule for {fn!r}")


# One repetition of the `symbolic` benchmark workload caches about 10 600
# derivatives; the least recently used go first past the cap.
_DIFF_CACHE_CAP = 25_000


@lru_cache(maxsize=_DIFF_CACHE_CAP)
def differentiate(e: Expr, v: VarId) -> Expr:
    """Exact partial derivative, returned simplified."""
    return simplify(_diff(e, v))


def _is_zero(d: Expr) -> bool:
    return isinstance(d, Const) and not d.value


def _diff(e: Expr, v: VarId) -> Expr:
    if isinstance(e, (Const, Param)):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.var == v else ZERO
    if isinstance(e, Neg):
        return Neg(differentiate(e.arg, v))
    if isinstance(e, Sum):
        return add(*(differentiate(t, v) for t in e.terms))
    if isinstance(e, Product):
        pieces = []
        for i, factor in enumerate(e.factors):
            dfactor = differentiate(factor, v)
            if _is_zero(dfactor):
                continue
            pieces.append(mul(*e.factors[:i], dfactor, *e.factors[i + 1 :]))
        return add(*pieces)
    if isinstance(e, Power):
        base, exponent = e.base, e.exponent
        dbase = differentiate(base, v)
        dexp = differentiate(exponent, v)
        pieces = []
        if not _is_zero(dbase):
            # exponent * base^(exponent-1) * dbase
            pieces.append(mul(exponent, Power(base, add(exponent, MINUS_ONE)), dbase))
        if not _is_zero(dexp):
            pieces.append(mul(dexp, Apply("log", base), e))
        return add(*pieces)
    if isinstance(e, Apply):
        darg = differentiate(e.arg, v)
        if _is_zero(darg):
            return ZERO
        return mul(_chain_factor(e.fn, e.arg), darg)
    if isinstance(e, AntiDeriv):
        if v == e.var:
            return e.integrand
        if v not in free_vars(e.integrand):
            return ZERO
        raise DifferentiationError(
            "cannot differentiate a quadrature-defined function in a variable "
            "its integrand depends on"
        )
    raise TypeError(f"unknown node {e!r}")


def substitute(e: Expr, v: VarId, replacement: Expr) -> Expr:
    """Capture-free substitution of a single variable."""
    return subst_many(e, {v: replacement})


def subst_many(e: Expr, mapping: Mapping[VarId, Expr]) -> Expr:
    """Simultaneous substitution of several variables (single pass)."""
    if isinstance(e, Var):
        return mapping.get(e.var, e)
    if isinstance(e, (Const, Param)):
        return e
    if isinstance(e, Neg):
        return Neg(subst_many(e.arg, mapping))
    if isinstance(e, Apply):
        return Apply(e.fn, subst_many(e.arg, mapping))
    if isinstance(e, Power):
        return Power(subst_many(e.base, mapping), subst_many(e.exponent, mapping))
    if isinstance(e, Sum):
        return Sum(tuple(subst_many(t, mapping) for t in e.terms))
    if isinstance(e, Product):
        return Product(tuple(subst_many(f, mapping) for f in e.factors))
    if isinstance(e, AntiDeriv):
        if e.var in mapping or any(v in mapping for v in free_vars(e.integrand)):
            raise ValueError("cannot substitute inside a quadrature-defined function")
        return e
    raise TypeError(f"unknown node {e!r}")
