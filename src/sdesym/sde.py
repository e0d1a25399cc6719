"""SDE model types, the Ito Laplacian, the transport and shift operators
of both calculi, and Ito <-> Stratonovich conversion.

Conventions: the diffusion matrix sigma has row i = state component and
column k = Wiener component; indices are raised and lowered with the
Euclidean metric, so (sigma sigma^T)^{jl} = sum_k sigma^j_k sigma^l_k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence, Tuple

from .expr import (
    Const,
    Context,
    Expr,
    HALF,
    Neg,
    TIME,
    VarKind,
    add,
    differentiate,
    free_vars,
    mul,
    simplify,
    state,
    wiener,
)

Vector = Tuple[Expr, ...]
Matrix = Tuple[Tuple[Expr, ...], ...]


class ModelError(ValueError):
    pass


def _check_coefficients(ctx: Context, f: Sequence[Expr], sigma, what: str):
    f = tuple(f)
    sigma = tuple(tuple(row) for row in sigma)
    if len(f) != ctx.n:
        raise ModelError(f"{what}: drift has {len(f)} components, expected n = {ctx.n}")
    if len(sigma) != ctx.n or any(len(row) != ctx.m for row in sigma):
        raise ModelError(f"{what}: diffusion matrix must be {ctx.n} x {ctx.m}")
    for label, e in [(f"drift[{i+1}]", c) for i, c in enumerate(f)] + [
        (f"sigma[{i+1}][{k+1}]", sigma[i][k])
        for i in range(ctx.n)
        for k in range(ctx.m)
    ]:
        for v in free_vars(e):
            if v.kind is VarKind.WIENER:
                raise ModelError(
                    f"{what}: {label} depends on {v.name}; coefficients may "
                    "depend only on states and t"
                )
            if v.kind is VarKind.STATE and v.index > ctx.n:
                raise ModelError(f"{what}: {label} uses undeclared state {v.name}")
    return f, sigma


@dataclass(frozen=True)
class System:
    """dx^i = drift^i(x,t) dt + sigma^i_k(x,t) dw^k.  The subclass,
    ``ItoSystem`` or ``StratSystem``, is the calculus the equation is read
    in and the only place that states it: readers take ``drift`` and
    ``calculus`` from the system."""

    ctx: Context
    drift: Vector
    sigma: Matrix

    calculus: ClassVar[str]

    def __post_init__(self):
        what = f"{self.calculus.capitalize()} system"
        drift, sigma = _check_coefficients(self.ctx, self.drift, self.sigma, what)
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "sigma", sigma)

    def require(self, calculus: str, user: str) -> None:
        """Raise ModelError (a ValueError) unless this system is read in
        ``calculus``."""
        if self.calculus != calculus:
            raise ModelError(
                f"{user} takes a system in the {calculus} calculus, not the {self.calculus} one"
            )


class ItoSystem(System):
    """dx^i = f^i(x,t) dt + sigma^i_k(x,t) dw^k, with f = ``drift``"""

    calculus = "ito"


class StratSystem(System):
    """dx^i = b^i(x,t) dt + sigma^i_k(x,t) o dw^k, with b = ``drift``"""

    calculus = "stratonovich"


# the class each value of a model file's ``type`` key selects
SYSTEM_TYPES = {cls.calculus: cls for cls in (ItoSystem, StratSystem)}


def ito_laplacian(u: Expr, sigma: Matrix, ctx: Context) -> Expr:
    """Second-order operator from the Ito rule:

    Delta u = sum_k u_{w^k w^k}
            + sum_{j,l} (sigma sigma^T)^{jl} u_{x^j x^l}
            + 2 sum_{j,k} sigma^j_k u_{x^j w^k}
    """
    pieces = []
    for k in range(1, ctx.m + 1):
        pieces.append(differentiate(differentiate(u, wiener(k)), wiener(k)))
    dstate = {j: differentiate(u, state(j)) for j in range(1, ctx.n + 1)}
    for j in range(1, ctx.n + 1):
        for l in range(1, ctx.n + 1):
            a_jl = add(
                *(mul(sigma[j - 1][k], sigma[l - 1][k]) for k in range(ctx.m))
            )
            pieces.append(mul(a_jl, differentiate(dstate[j], state(l))))
    for j in range(1, ctx.n + 1):
        for k in range(1, ctx.m + 1):
            pieces.append(
                mul(Const(2), sigma[j - 1][k - 1], differentiate(dstate[j], wiener(k)))
            )
    return simplify(add(*pieces))


def drift_correction(sigma: Matrix, ctx: Context) -> Vector:
    """rho^i = (1/2) sum_{j,k} (d sigma^i_j / d x^k) sigma^k_j"""
    sigma = tuple(tuple(row) for row in sigma)
    rho = []
    for i in range(1, ctx.n + 1):
        pieces = []
        for j in range(1, ctx.m + 1):
            for k in range(1, ctx.n + 1):
                pieces.append(
                    mul(
                        differentiate(sigma[i - 1][j - 1], state(k)),
                        sigma[k - 1][j - 1],
                    )
                )
        rho.append(simplify(mul(HALF, add(*pieces))))
    return tuple(rho)


def ito_to_strat(sys: ItoSystem) -> StratSystem:
    """Same diffusion; drift shifted down by the correction: b = f - rho."""
    sys.require("ito", "ito_to_strat")
    rho = drift_correction(sys.sigma, sys.ctx)
    b = tuple(simplify(add(fi, Neg(ri))) for fi, ri in zip(sys.drift, rho))
    return StratSystem(sys.ctx, b, sys.sigma)


def strat_to_ito(sys: StratSystem) -> ItoSystem:
    """Inverse conversion: f = b + rho."""
    sys.require("stratonovich", "strat_to_ito")
    rho = drift_correction(sys.sigma, sys.ctx)
    f = tuple(simplify(add(bi, ri)) for bi, ri in zip(sys.drift, rho))
    return ItoSystem(sys.ctx, f, sys.sigma)


def other_form(sys: System) -> System:
    """The same equation written in the other calculus."""
    return ito_to_strat(sys) if sys.calculus == "ito" else strat_to_ito(sys)


def sigma_rank_info(sys, box=None, points: int = 8, seed: int = 0) -> dict:
    """Informational only: numeric rank of the diffusion matrix at sample
    points.  No rank condition is imposed anywhere; a rank-deficient sigma
    simply means some state directions are driven deterministically."""
    import numpy as np

    from .expr import EvaluationError, Kernel, SamplingBox

    box = box or SamplingBox()
    rng = np.random.default_rng(seed)
    ctx = sys.ctx
    columns = (TIME,) + ctx.states()  # the order of the draws
    draws = np.array([[rng.uniform(*box.for_var(v)) for v in columns] for _ in range(points)])
    entries = [e for row in sys.sigma for e in row]
    try:
        values, failed = Kernel(entries, columns, ctx.params).strict(draws.T)
    except EvaluationError:  # sigma reads a Wiener variable or an unbound parameter
        failed = np.ones(points, dtype=bool)
    ranks = [
        int(np.linalg.matrix_rank(values[:, p].reshape(ctx.n, ctx.m), tol=1e-10))
        for p in np.flatnonzero(~failed)
    ]
    if not ranks:
        return {"rank_min": None, "rank_max": None, "points": 0}
    return {
        "rank_min": min(ranks),
        "rank_max": max(ranks),
        "full_rank": min(ranks) == min(ctx.n, ctx.m),
        "points": len(ranks),
    }


def transport_operator(u: Expr, sys: System) -> Expr:
    """L0 = d/dt + f^j d/dx^j + (1/2) Delta for an Ito system, and
    L0 = d/dt + b^j d/dx^j for a Stratonovich one (chain rule, no
    second-order term)."""
    pieces = [differentiate(u, TIME)]
    for j in range(1, sys.ctx.n + 1):
        pieces.append(mul(sys.drift[j - 1], differentiate(u, state(j))))
    if sys.calculus == "ito":
        pieces.append(mul(HALF, ito_laplacian(u, sys.sigma, sys.ctx)))
    return simplify(add(*pieces))


def shift_operator(u: Expr, sys, k: int) -> Expr:
    """L_k = d/dw^k + sigma^j_k d/dx^j, the same in both calculi."""
    if not 1 <= k <= sys.ctx.m:
        raise ModelError(f"wiener index {k} outside 1..{sys.ctx.m}")
    pieces = [differentiate(u, wiener(k))]
    for j in range(1, sys.ctx.n + 1):
        pieces.append(mul(sys.sigma[j - 1][k - 1], differentiate(u, state(j))))
    return simplify(add(*pieces))
