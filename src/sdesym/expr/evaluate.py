"""Numeric evaluation through one compiled form.

`Kernel` lowers an expression, or a batch of them, once into a
topologically ordered list of numpy operations over input columns (state,
time and Wiener variables, and unbound parameters).  Structurally equal
subtrees are computed once, and bound parameters and constant subtrees are
folded, but nothing is reassociated: sums and products run left to right,
powers use ``np.power`` and Ei is ``scipy.special.expi``.  Against an
exactly rounded sum, left to right costs about 1e-15 of the
cancellation-free magnitude, far below the 1e-9 zero-test tolerance.

Strictness is a mask.  Every domain violation of real evaluation gives a
non-finite IEEE value (log of a value <= 0, sqrt of a negative value, Ei at
0, a power without a real value, overflow), so `Kernel.strict` fails a lane
exactly when some node is non-finite on it.  A kernel can also return the
cancellation-free magnitude that scales zero-test tolerances: sums add the
magnitudes of their terms, products multiply them, a power raises its
base's magnitude to its exponent, and any other node gives its |value|.

`evaluate`, `eval_array`, `eval_magnitude` and `expint_ei` are one-shot
views of a kernel; repeat callers build one `Kernel` and reuse it.
"""

from __future__ import annotations

import functools
import math
from typing import Mapping, Optional, Sequence, Union

import numpy as np
from scipy.integrate import quad
from scipy.special import expi

from .nodes import (
    TIME,
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
    free_params,
    free_vars,
)


class EvaluationError(ValueError):
    pass


_UNARY = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "arctan": np.arctan,
    "Ei": expi,
}

# operations whose result is non-finite whenever an argument is; the mask
# tests the outputs and the arguments of every other operation (exp, arctan,
# Ei, powers and quadratures can map inf to a finite value)
_PROPAGATING = {np.add, np.multiply, np.negative, np.abs, np.log, np.sqrt, np.sin, np.cos}

ArrayLike = Union[float, np.ndarray]
Column = Union[VarId, str]  # a variable, or the name of an unbound parameter


class Kernel:
    """Compiled form of the values of ``exprs``, followed by the magnitudes
    of ``magnitudes``, over the input ``columns``.

    Bound ``params`` are folded in; a variable outside ``columns`` or a
    parameter neither bound nor a column raises EvaluationError here."""

    def __init__(
        self,
        exprs: Sequence[Expr],
        columns: Sequence[Column],
        params: Optional[Mapping[str, float]] = None,
        magnitudes: Sequence[Expr] = (),
    ):
        self._columns = {c: i for i, c in enumerate(columns)}
        self._params = params or {}
        self._slots: list = []  # per node: a folded constant, or None
        self._constant: set = set()
        self._inputs: list = []  # (slot, column index)
        self._ops: list = []  # (slot, numpy function, argument slots)
        self._values: dict = {}
        self._magnitudes: dict = {}
        with np.errstate(all="ignore"):
            self.outputs = [self._value(e) for e in exprs]
            self.outputs += [self._magnitude(e) for e in magnitudes]
        tested = set(self.outputs).union(*(args for _, fn, args in self._ops if fn not in _PROPAGATING))
        self._tested = sorted(tested - self._constant)
        self._constants_finite = all(math.isfinite(self._slots[s]) for s in self._constant)

    # -- lowering ----------------------------------------------------------
    def _new_slot(self, value=None) -> int:
        self._slots.append(value)
        return len(self._slots) - 1

    def _const(self, value) -> int:
        slot = self._new_slot(value)
        self._constant.add(slot)
        return slot

    def _op(self, fn, *args: int) -> int:
        if self._constant.issuperset(args):
            return self._const(fn(*[self._slots[a] for a in args]))
        slot = self._new_slot()
        self._ops.append((slot, fn, args))
        return slot

    def _chain(self, fn, slots) -> int:
        return functools.reduce(lambda total, slot: self._op(fn, total, slot), slots)

    def _input(self, column: Column) -> int:
        slot = self._new_slot()
        self._inputs.append((slot, self._columns[column]))
        return slot

    def _value(self, e: Expr) -> int:
        slot = self._values.get(e)
        if slot is None:
            slot = self._values[e] = self._lower_value(e)
        return slot

    def _lower_value(self, e: Expr) -> int:
        if isinstance(e, Product):
            return self._chain(np.multiply, [self._value(f) for f in e.factors])
        if isinstance(e, Sum):
            return self._chain(np.add, [self._value(t) for t in e.terms])
        if isinstance(e, Power):
            return self._op(np.power, self._value(e.base), self._value(e.exponent))
        if isinstance(e, Const):
            try:
                return self._const(float(e.value))
            except OverflowError:  # a rational beyond the float range
                return self._const(-np.inf if e.value < 0 else np.inf)
        if isinstance(e, Var):
            if e.var not in self._columns:
                raise EvaluationError(f"unbound variable {e.var.name}")
            return self._input(e.var)
        if isinstance(e, Param):
            if e.name in self._params:
                return self._const(float(self._params[e.name]))
            if e.name not in self._columns:
                raise EvaluationError(f"unbound parameter {e.name}")
            return self._input(e.name)
        if isinstance(e, Neg):
            return self._op(np.negative, self._value(e.arg))
        if isinstance(e, Apply):
            return self._op(_UNARY[e.fn], self._value(e.arg))
        if isinstance(e, AntiDeriv):
            return self._lower_antideriv(e)
        raise TypeError(f"unknown node {e!r}")

    def _lower_antideriv(self, e: AntiDeriv) -> int:
        """Per lane, quadrature of the integrand from ``e.base`` to the value
        of ``e.var``, through a kernel over the columns the integrand reads."""
        others = sorted(free_vars(e.integrand) - {e.var}, key=lambda v: (v.kind.value, v.index))
        unbound = sorted(name for name in free_params(e.integrand) if name not in self._params)
        args = [self._value(Var(v)) for v in [e.var, *others]]
        args += [self._value(Param(name)) for name in unbound]
        integrand = Kernel([e.integrand], [e.var, *others, *unbound], self._params)

        def antiderivative(*lanes):
            lanes = np.broadcast_arrays(*lanes)
            values = [
                quad(lambda u: integrand([u, *row[1:]])[0], e.base, row[0], limit=200)[0]
                for row in zip(*map(np.ravel, lanes))
            ]
            return np.reshape(values, lanes[0].shape)

        slot = self._new_slot()
        self._ops.append((slot, antiderivative, tuple(args)))
        return slot

    def _magnitude(self, e: Expr) -> int:
        slot = self._magnitudes.get(e)
        if slot is None:
            slot = self._magnitudes[e] = self._lower_magnitude(e)
        return slot

    def _lower_magnitude(self, e: Expr) -> int:
        if isinstance(e, Sum):
            return self._chain(np.add, [self._magnitude(t) for t in e.terms])
        if isinstance(e, Product):
            return self._chain(np.multiply, [self._magnitude(f) for f in e.factors])
        if isinstance(e, Neg):
            return self._magnitude(e.arg)
        if isinstance(e, Power):
            power = self._op(np.power, self._magnitude(e.base), self._value(e.exponent))
            return self._op(np.abs, power)
        return self._op(np.abs, self._value(e))

    # -- execution ---------------------------------------------------------
    def _run(self, inputs: Sequence[ArrayLike]) -> list:
        """The values of all nodes, from one input value or array per column."""
        if len(inputs) != len(self._columns):
            raise ValueError(f"expected {len(self._columns)} input columns, got {len(inputs)}")
        slots = list(self._slots)
        for slot, column in self._inputs:
            slots[slot] = inputs[column]
        with np.errstate(all="ignore"):
            for slot, fn, args in self._ops:
                slots[slot] = fn(*[slots[a] for a in args])
        return slots

    def __call__(self, inputs: Sequence[ArrayLike], out: Optional[np.ndarray] = None):
        """Non-strict run: NaN and inf propagate.  Returns the list of output
        values (scalars or arrays, as they come), or writes output j into
        ``out[:, j]`` and returns ``out``."""
        slots = self._run(inputs)
        if out is None:
            return [slots[s] for s in self.outputs]
        for j, s in enumerate(self.outputs):
            out[:, j] = slots[s]
        return out

    def strict(self, inputs: Sequence[ArrayLike]):
        """Strict run over lanes: returns ``(values, failed)``, the outputs as
        a float array of shape (outputs, N) and the (N,) mask of lanes on
        which some node is not finite.  N is the broadcast length of the
        inputs, 1 for scalars."""
        if all(np.isscalar(c) for c in inputs):  # one lane: skip the broadcasts
            slots = self._run([float(c) for c in inputs])
            failed = not self._constants_finite or not all(math.isfinite(slots[s]) for s in self._tested)
            return np.array([float(slots[s]) for s in self.outputs]).reshape(-1, 1), np.array([failed])
        columns = [np.asarray(c, dtype=float) for c in inputs]
        lanes = (max([1, *(c.size for c in columns)]),)
        columns = [c if c.shape == lanes else np.full(lanes, c) for c in columns]
        slots = self._run(columns)
        failed = np.full(lanes, not self._constants_finite)
        for s in self._tested:
            failed |= ~np.isfinite(slots[s])
        values = np.empty((len(self.outputs),) + lanes)
        for j, s in enumerate(self.outputs):
            values[j] = slots[s]
        return values, failed


def evaluate(
    e: Expr,
    point: Mapping[VarId, float],
    params: Optional[Mapping[str, float]] = None,
) -> float:
    """Strict scalar evaluation: IEEE double result or EvaluationError."""
    values, failed = Kernel([e], list(point), params).strict(list(point.values()))
    if failed[0]:
        raise EvaluationError(f"non-finite or out-of-domain value in {e}")
    return float(values[0, 0])


def eval_array(
    e: Expr,
    point: Mapping[VarId, ArrayLike],
    params: Optional[Mapping[str, float]] = None,
) -> ArrayLike:
    """Vectorized, non-strict evaluation (NaN/inf propagate)."""
    return Kernel([e], list(point), params)(list(point.values()))[0]


def eval_magnitude(e: Expr, point, params=None) -> float:
    """Cancellation-free magnitude of ``e`` at ``point``, strictly."""
    values, failed = Kernel((), list(point), params, magnitudes=[e]).strict(list(point.values()))
    if failed[0]:
        raise EvaluationError(f"non-finite or out-of-domain magnitude of {e}")
    return float(values[0, 0])


_EI = Apply("Ei", Var(TIME))


def expint_ei(z: float) -> float:
    """Principal-value exponential integral Ei(z) for real z != 0
    (``scipy.special.expi``), strict: the singularity at 0, a non-finite
    argument and overflow raise EvaluationError."""
    return evaluate(_EI, {TIME: z})
