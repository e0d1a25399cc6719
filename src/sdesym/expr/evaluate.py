"""Numeric evaluation.

Two entry points:

* ``evaluate`` -- strict scalar evaluation; any domain problem (log of a
  non-positive number, Ei at zero, division by zero, overflow to a
  non-finite value) raises EvaluationError instead of returning NaN.
* ``eval_array`` -- vectorized evaluation over numpy arrays for the Monte
  Carlo integrators; non-finite values propagate and the caller masks them.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Union

import numpy as np
from scipy.integrate import quad
from scipy.special import expi

from .nodes import (
    AntiDeriv,
    Apply,
    Const,
    Expr,
    Neg,
    Param,
    Power,
    Product,
    Sum,
    Var,
    VarId,
)


class EvaluationError(ValueError):
    pass


def expint_ei(z: float) -> float:
    """Principal-value exponential integral Ei(z) for real z != 0
    (``scipy.special.expi``), strict: the singularity at 0, a non-finite
    argument and overflow raise EvaluationError."""
    if z == 0.0:
        raise EvaluationError("Ei is singular at 0")
    if not math.isfinite(z):
        raise EvaluationError("Ei of a non-finite argument")
    value = float(expi(z))
    if not math.isfinite(value):
        raise EvaluationError("Ei overflow")
    return value


_UNARY_NUMPY = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "arctan": np.arctan,
    "Ei": expi,
}

ArrayLike = Union[float, np.ndarray]


def eval_array(
    e: Expr,
    point: Mapping[VarId, ArrayLike],
    params: Optional[Mapping[str, float]] = None,
) -> ArrayLike:
    """Vectorized, non-strict evaluation (NaN/inf propagate)."""
    params = params or {}
    with np.errstate(all="ignore"):
        return _eval_array(e, point, params)


def _eval_array(e, point, params):
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Var):
        try:
            return point[e.var]
        except KeyError:
            raise EvaluationError(f"unbound variable {e.var.name}") from None
    if isinstance(e, Param):
        try:
            return params[e.name]
        except KeyError:
            raise EvaluationError(f"unbound parameter {e.name}") from None
    if isinstance(e, Neg):
        return -_eval_array(e.arg, point, params)
    if isinstance(e, Sum):
        total = _eval_array(e.terms[0], point, params)
        for term in e.terms[1:]:
            total = total + _eval_array(term, point, params)
        return total
    if isinstance(e, Product):
        total = _eval_array(e.factors[0], point, params)
        for factor in e.factors[1:]:
            total = total * _eval_array(factor, point, params)
        return total
    if isinstance(e, Power):
        base = _eval_array(e.base, point, params)
        exponent = _eval_array(e.exponent, point, params)
        return np.power(base, exponent)
    if isinstance(e, Apply):
        return _UNARY_NUMPY[e.fn](_eval_array(e.arg, point, params))
    if isinstance(e, AntiDeriv):
        return _eval_antideriv(e, point, params)
    raise TypeError(f"unknown node {e!r}")


def _eval_antideriv(e: AntiDeriv, point, params):
    upper = point.get(e.var)
    if upper is None:
        raise EvaluationError(f"unbound variable {e.var.name}")

    def integrand(u):
        inner = dict(point)
        inner[e.var] = u
        return _eval_array(e.integrand, inner, params)

    def one(u):
        value, _ = quad(integrand, e.base, u, limit=200)
        return value

    if np.ndim(upper) == 0:
        return one(float(upper))
    return np.array([one(float(u)) for u in np.asarray(upper).ravel()]).reshape(
        np.shape(upper)
    )


def evaluate(
    e: Expr,
    point: Mapping[VarId, float],
    params: Optional[Mapping[str, float]] = None,
) -> float:
    """Strict scalar evaluation: IEEE double result or EvaluationError."""
    params = params or {}
    value = _eval_scalar(e, point, params)
    if not math.isfinite(value):
        raise EvaluationError(f"non-finite result for {e}")
    return value


def _eval_scalar(e, point, params) -> float:
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Var):
        try:
            return float(point[e.var])
        except KeyError:
            raise EvaluationError(f"unbound variable {e.var.name}") from None
    if isinstance(e, Param):
        try:
            return float(params[e.name])
        except KeyError:
            raise EvaluationError(f"unbound parameter {e.name}") from None
    if isinstance(e, Neg):
        return -_eval_scalar(e.arg, point, params)
    if isinstance(e, Sum):
        return math.fsum(_eval_scalar(t, point, params) for t in e.terms)
    if isinstance(e, Product):
        total = 1.0
        for factor in e.factors:
            total *= _eval_scalar(factor, point, params)
        return total
    if isinstance(e, Power):
        base = _eval_scalar(e.base, point, params)
        exponent = _eval_scalar(e.exponent, point, params)
        try:
            value = math.pow(base, exponent)
        except (ValueError, OverflowError) as err:
            raise EvaluationError(f"domain error in {e}: {err}") from None
        if isinstance(value, complex):
            raise EvaluationError(f"complex result in {e}")
        return value
    if isinstance(e, Apply):
        arg = _eval_scalar(e.arg, point, params)
        if e.fn == "exp":
            try:
                return math.exp(arg)
            except OverflowError:
                raise EvaluationError(f"overflow in exp({arg})") from None
        if e.fn == "log":
            if arg <= 0.0:
                raise EvaluationError(f"log of non-positive value {arg}")
            return math.log(arg)
        if e.fn == "sqrt":
            if arg < 0.0:
                raise EvaluationError(f"sqrt of negative value {arg}")
            return math.sqrt(arg)
        if e.fn == "sin":
            return math.sin(arg)
        if e.fn == "cos":
            return math.cos(arg)
        if e.fn == "arctan":
            return math.atan(arg)
        if e.fn == "Ei":
            return expint_ei(arg)
        raise EvaluationError(f"unknown builtin {e.fn}")
    if isinstance(e, AntiDeriv):
        return float(_eval_antideriv(e, dict(point), params))
    raise TypeError(f"unknown node {e!r}")


def eval_magnitude(e: Expr, point, params=None) -> float:
    """Upper bound on the cancellation-free magnitude of ``e`` at ``point``.

    Sums add absolute values of their terms; used to scale zero-test
    tolerances so that a residual is compared against the size of the
    quantities that cancelled to produce it.
    """
    params = params or {}
    return _eval_mag(e, point, params)


def _eval_mag(e, point, params) -> float:
    if isinstance(e, Sum):
        return sum(_eval_mag(t, point, params) for t in e.terms)
    if isinstance(e, Product):
        total = 1.0
        for factor in e.factors:
            total *= _eval_mag(factor, point, params)
        return total
    if isinstance(e, Neg):
        return _eval_mag(e.arg, point, params)
    if isinstance(e, Power):
        base = _eval_mag(e.base, point, params)
        exponent = _eval_scalar(e.exponent, point, params)
        try:
            return abs(math.pow(base, exponent))
        except (ValueError, OverflowError):
            raise EvaluationError("domain error in magnitude bound") from None
    return abs(_eval_scalar(e, point, params))
