"""Immutable expression trees over the variable universe {x1..xn, t, w1..wm}.

Nodes are value objects: structurally equal trees compare and hash equal,
which is what makes memoized differentiation and like-term collection work.
Rational constants are kept exact (fractions.Fraction); floats only appear
when a literal was written as a float or a numeric evaluation happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Mapping, Tuple, Union

Number = Union[int, float, Fraction]

BUILTINS = ("exp", "log", "sqrt", "sin", "cos", "arctan", "Ei")


class VarKind(Enum):
    STATE = "x"
    TIME = "t"
    WIENER = "w"


_KIND_RANK = {VarKind.STATE: 0, VarKind.TIME: 1, VarKind.WIENER: 2}


@dataclass(frozen=True)
class VarId:
    """Identity of a variable: state x_i, time t, or Wiener component w_k."""

    kind: VarKind
    index: int = 0  # 1-based for STATE/WIENER, 0 for TIME

    def __post_init__(self):
        if self.kind is VarKind.TIME and self.index != 0:
            raise ValueError("time variable carries no index")
        if self.kind is not VarKind.TIME and self.index < 1:
            raise ValueError(f"{self.kind.value} index must be >= 1")

    @property
    def name(self) -> str:
        if self.kind is VarKind.TIME:
            return "t"
        return f"{self.kind.value}{self.index}"

    def __repr__(self):
        return f"VarId({self.name})"


def state(i: int) -> VarId:
    return VarId(VarKind.STATE, i)


def wiener(k: int) -> VarId:
    return VarId(VarKind.WIENER, k)


TIME = VarId(VarKind.TIME)


@dataclass(frozen=True)
class Context:
    """Problem dimensions and parameter bindings.

    ``params`` maps parameter names to numbers; a name that appears in an
    expression but not here is treated as a free symbolic parameter.
    """

    n: int
    m: int
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need n >= 1 state and m >= 1 Wiener dimensions")

    def x(self, i: int) -> "Var":
        if not 1 <= i <= self.n:
            raise ValueError(f"state index {i} outside 1..{self.n}")
        return Var(state(i))

    def states(self) -> Tuple[VarId, ...]:
        return tuple(state(i) for i in range(1, self.n + 1))

    def wieners(self) -> Tuple[VarId, ...]:
        return tuple(wiener(k) for k in range(1, self.m + 1))

    def all_vars(self) -> Tuple[VarId, ...]:
        return self.states() + (TIME,) + self.wieners()


def _coerce(value) -> "Expr":
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a number here")
    if isinstance(value, (int, Fraction)):
        return Const(Fraction(value))
    if isinstance(value, float):
        return Const(value)
    raise TypeError(f"cannot build an expression from {value!r}")


class Expr:
    """Base class. Instances are immutable; arithmetic operators build trees."""

    __slots__ = ("_hash", "_key")

    def _init_meta(self, h: int):
        object.__setattr__(self, "_hash", h)
        object.__setattr__(self, "_key", None)

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError("expressions are immutable")

    # -- arithmetic sugar ------------------------------------------------
    def __add__(self, other):
        return Sum((self, _coerce(other)))

    def __radd__(self, other):
        return Sum((_coerce(other), self))

    def __sub__(self, other):
        return Sum((self, Neg(_coerce(other))))

    def __rsub__(self, other):
        return Sum((_coerce(other), Neg(self)))

    def __mul__(self, other):
        return Product((self, _coerce(other)))

    def __rmul__(self, other):
        return Product((_coerce(other), self))

    def __truediv__(self, other):
        return Product((self, Power(_coerce(other), Const(Fraction(-1)))))

    def __rtruediv__(self, other):
        return Product((_coerce(other), Power(self, Const(Fraction(-1)))))

    def __pow__(self, other):
        return Power(self, _coerce(other))

    def __neg__(self):
        return Neg(self)

    def __str__(self):
        from .printing import to_string

        return to_string(self)

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"

    def sort_key(self):
        key = self._key
        if key is None:
            key = self._compute_key()
            object.__setattr__(self, "_key", key)
        return key

    def _compute_key(self):  # pragma: no cover - overridden
        raise NotImplementedError


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Number):
        if isinstance(value, bool):
            raise TypeError("bool constant")
        if isinstance(value, int):
            value = Fraction(value)
        if not isinstance(value, (Fraction, float)):
            raise TypeError(f"constant must be rational or float, got {value!r}")
        object.__setattr__(self, "value", value)
        self._init_meta(hash(("Const", value)))

    def __eq__(self, other):
        return (
            isinstance(other, Const)
            and type(self.value) is type(other.value)
            and self.value == other.value
        )

    __hash__ = Expr.__hash__

    def _compute_key(self):
        return (0, 1 if isinstance(self.value, float) else 0, float(self.value), str(self.value))


class Var(Expr):
    __slots__ = ("var",)

    def __init__(self, var: VarId):
        object.__setattr__(self, "var", var)
        self._init_meta(hash(("Var", var)))

    def __eq__(self, other):
        return isinstance(other, Var) and self.var == other.var

    __hash__ = Expr.__hash__

    def _compute_key(self):
        return (1, _KIND_RANK[self.var.kind], self.var.index)


class Param(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name.isidentifier():
            raise ValueError(f"bad parameter name {name!r}")
        object.__setattr__(self, "name", name)
        self._init_meta(hash(("Param", name)))

    def __eq__(self, other):
        return isinstance(other, Param) and self.name == other.name

    __hash__ = Expr.__hash__

    def _compute_key(self):
        return (2, self.name)


class Apply(Expr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: str, arg: Expr):
        if fn not in BUILTINS:
            raise ValueError(f"unknown builtin {fn!r}")
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "arg", arg)
        self._init_meta(hash(("Apply", fn, arg)))

    def __eq__(self, other):
        return isinstance(other, Apply) and self.fn == other.fn and self.arg == other.arg

    __hash__ = Expr.__hash__

    def _compute_key(self):
        return (3, self.fn, self.arg.sort_key())


class Power(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: Expr):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)
        self._init_meta(hash(("Power", base, exponent)))

    def __eq__(self, other):
        return (
            isinstance(other, Power)
            and self.base == other.base
            and self.exponent == other.exponent
        )

    __hash__ = Expr.__hash__

    def _compute_key(self):
        return (4, self.base.sort_key(), self.exponent.sort_key())


class Neg(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        object.__setattr__(self, "arg", arg)
        self._init_meta(hash(("Neg", arg)))

    def __eq__(self, other):
        return isinstance(other, Neg) and self.arg == other.arg

    __hash__ = Expr.__hash__

    def _compute_key(self):
        return (5, self.arg.sort_key())


class Product(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple(factors)
        if len(factors) < 2:
            raise ValueError("a product needs at least two factors")
        object.__setattr__(self, "factors", factors)
        self._init_meta(hash(("Product",) + factors))

    def __eq__(self, other):
        return isinstance(other, Product) and self.factors == other.factors

    __hash__ = Expr.__hash__

    def _compute_key(self):
        return (6, len(self.factors)) + tuple(f.sort_key() for f in self.factors)


class Sum(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        terms = tuple(terms)
        if len(terms) < 2:
            raise ValueError("a sum needs at least two terms")
        object.__setattr__(self, "terms", terms)
        self._init_meta(hash(("Sum",) + terms))

    def __eq__(self, other):
        return isinstance(other, Sum) and self.terms == other.terms

    __hash__ = Expr.__hash__

    def _compute_key(self):
        return (7, len(self.terms)) + tuple(t.sort_key() for t in self.terms)


class AntiDeriv(Expr):
    """Quadrature-defined antiderivative: integral of ``integrand`` in ``var``
    from ``base`` to the current value of ``var``.

    Used as a numeric fallback when no closed form is available. It carries
    the symbolic derivative rule d/d var = integrand; derivatives in other
    variables are only defined when the integrand does not involve them.
    """

    __slots__ = ("integrand", "var", "base")

    def __init__(self, integrand: Expr, var: VarId, base: float = 1.0):
        object.__setattr__(self, "integrand", integrand)
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "base", float(base))
        self._init_meta(hash(("AntiDeriv", integrand, var, base)))

    def __eq__(self, other):
        return (
            isinstance(other, AntiDeriv)
            and self.integrand == other.integrand
            and self.var == other.var
            and self.base == other.base
        )

    __hash__ = Expr.__hash__

    def _compute_key(self):
        return (8, self.integrand.sort_key(), _KIND_RANK[self.var.kind], self.var.index, self.base)


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))
MINUS_ONE = Const(Fraction(-1))
HALF = Const(Fraction(1, 2))


def add(*terms) -> Expr:
    """n-ary sum with flattening; 0 terms -> 0, 1 term -> itself."""
    flat = []
    for term in terms:
        term = _coerce(term)
        if isinstance(term, Sum):
            flat.extend(term.terms)
        else:
            flat.append(term)
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def mul(*factors) -> Expr:
    """n-ary product with flattening; 0 factors -> 1, 1 factor -> itself."""
    flat = []
    for factor in factors:
        factor = _coerce(factor)
        if isinstance(factor, Product):
            flat.extend(factor.factors)
        else:
            flat.append(factor)
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


def div(a, b) -> Expr:
    return mul(_coerce(a), Power(_coerce(b), MINUS_ONE))


def negate(e: Expr) -> Expr:
    """Structure-aware negation: folds constants and leading coefficients.

    This is the inverse of the printer's " - " sugar, so parse(print(e)) can
    reproduce trees whose sign lives in a leading constant factor.
    """
    e = _coerce(e)
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Neg):
        return e.arg
    if isinstance(e, Product) and isinstance(e.factors[0], Const):
        return Product((Const(-e.factors[0].value),) + e.factors[1:])
    return Neg(e)


def is_negative_leading(e: Expr) -> bool:
    if isinstance(e, Neg):
        return True
    if isinstance(e, Const):
        return e.value < 0
    if isinstance(e, Product) and isinstance(e.factors[0], Const):
        return e.factors[0].value < 0
    return False


def free_vars(e: Expr) -> frozenset:
    """Set of VarIds appearing in the tree."""
    if isinstance(e, Var):
        return frozenset((e.var,))
    if isinstance(e, (Const, Param)):
        return frozenset()
    if isinstance(e, Apply):
        return free_vars(e.arg)
    if isinstance(e, Neg):
        return free_vars(e.arg)
    if isinstance(e, Power):
        return free_vars(e.base) | free_vars(e.exponent)
    if isinstance(e, Sum):
        return frozenset().union(*(free_vars(t) for t in e.terms))
    if isinstance(e, Product):
        return frozenset().union(*(free_vars(f) for f in e.factors))
    if isinstance(e, AntiDeriv):
        return free_vars(e.integrand) | frozenset((e.var,))
    raise TypeError(f"unknown node {e!r}")


def free_params(e: Expr) -> frozenset:
    if isinstance(e, Param):
        return frozenset((e.name,))
    if isinstance(e, (Const, Var)):
        return frozenset()
    if isinstance(e, (Apply, Neg)):
        return free_params(e.arg)
    if isinstance(e, Power):
        return free_params(e.base) | free_params(e.exponent)
    if isinstance(e, Sum):
        return frozenset().union(*(free_params(t) for t in e.terms))
    if isinstance(e, Product):
        return frozenset().union(*(free_params(f) for f in e.factors))
    if isinstance(e, AntiDeriv):
        return free_params(e.integrand)
    raise TypeError(f"unknown node {e!r}")

