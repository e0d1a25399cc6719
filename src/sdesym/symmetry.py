"""Candidate symmetry generators and their verification.

A candidate is a vector field

    X = phi^i d/dx^i + tau d/dt + h^k d/dw^k

where the noise part h is absent (standard fields), a general h^k(x,t,w)
(kept for analysis), or a constant linear action h = R w on the Wiener
sector.  Verification zero-tests the residuals of the determining
equations, one system in operator form for both calculi:

    L0 phi^i - X(f^i)        = sigma^i_k L0 h^k
    L_k phi^i - X(sigma^i_k) = sigma^i_m L_k h^m

L0 is the transport operator of the system's calculus (the Ito one carries
(1/2) Delta, the Stratonovich one reads the drift b and has no second-order
term) and L_k the shift operator (see ``sde``).  Standard fields are the
case h = 0; h = R w makes the right-hand sides 0 and sigma^i_m R^m_k.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .expr import (
    Const,
    Context,
    Expr,
    HALF,
    Neg,
    TIME,
    Var,
    VarKind,
    ZERO,
    ZeroTestConfig,
    ZeroVerdict,
    add,
    differentiate,
    free_vars,
    is_identically_zero,
    is_structural_zero,
    mul,
    simplify,
    state,
    to_string,
    wiener,
)
from .expr.evaluate import EvaluationError, Kernel
from .sde import ItoSystem, ito_to_strat, shift_operator, transport_operator

Vector = Tuple[Expr, ...]


class SymmetryError(ValueError):
    pass


@dataclass(frozen=True)
class GeneralH:
    """Unrestricted Wiener-sector coefficients h^k(x,t,w)."""

    h: Vector

    def __post_init__(self):
        object.__setattr__(self, "h", tuple(self.h))


@dataclass(frozen=True)
class LinearW:
    """Constant linear Wiener-sector action h^k = R^k_m w^m."""

    entries: Tuple[Tuple[Fraction, ...], ...]

    @staticmethod
    def from_matrix(R) -> "LinearW":
        rows = tuple(tuple(Fraction(v) for v in row) for row in np.atleast_2d(R).tolist())
        return LinearW(rows)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.entries], dtype=float)

    @property
    def m(self) -> int:
        return len(self.entries)

    def h_exprs(self) -> Vector:
        out = []
        for k, row in enumerate(self.entries):
            out.append(
                simplify(add(*(mul(Const(v), Var(wiener(j + 1))) for j, v in enumerate(row))))
            )
        return tuple(out)


Noise = Union[None, GeneralH, LinearW]


@dataclass(frozen=True)
class VectorField:
    ctx: Context
    phi: Vector
    tau: Expr = ZERO
    noise: Noise = None

    def __post_init__(self):
        object.__setattr__(self, "phi", tuple(self.phi))
        if len(self.phi) != self.ctx.n:
            raise SymmetryError(f"phi must have n = {self.ctx.n} components")
        if isinstance(self.noise, GeneralH) and len(self.noise.h) != self.ctx.m:
            raise SymmetryError(f"h must have m = {self.ctx.m} components")
        if isinstance(self.noise, LinearW) and self.noise.m != self.ctx.m:
            raise SymmetryError(f"R must be {self.ctx.m} x {self.ctx.m}")

    def noise_exprs(self) -> Vector:
        if self.noise is None:
            return tuple(ZERO for _ in range(self.ctx.m))
        if isinstance(self.noise, GeneralH):
            return self.noise.h
        return self.noise.h_exprs()

    def apply(self, u: Expr) -> Expr:
        """X(u) as a first-order differential operator."""
        pieces = [mul(p, differentiate(u, state(i + 1))) for i, p in enumerate(self.phi)]
        if not is_structural_zero(self.tau):
            pieces.append(mul(self.tau, differentiate(u, TIME)))
        for k, h in enumerate(self.noise_exprs()):
            if not is_structural_zero(h):
                pieces.append(mul(h, differentiate(u, wiener(k + 1))))
        return simplify(add(*pieces))


# ---------------------------------------------------------------------------
# classification


@dataclass
class Classification:
    acting_on_time: bool
    random: bool
    w_acting: bool
    simple: bool
    admissible: bool
    reasons: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "acting_on_time": self.acting_on_time,
            "random": self.random,
            "w_acting": self.w_acting,
            "simple": self.simple,
            "admissible": self.admissible,
            "reasons": list(self.reasons),
        }


@dataclass
class ConformalVerdict:
    accepted: bool
    dilation: float = 0.0
    skew: Optional[np.ndarray] = None
    reason: str = ""


def conformal_check(R, tol: float = 1e-12) -> ConformalVerdict:
    """A constant matrix generates a linear conformal action iff its
    symmetric part is a multiple of the identity: R + R^T = 2 lam I.
    The skew part generates rotations, lam the dilation."""
    R = np.atleast_2d(np.asarray(R, dtype=float))
    if R.shape[0] != R.shape[1]:
        return ConformalVerdict(False, reason="matrix is not square")
    m = R.shape[0]
    lam = float(np.trace(R)) / m
    sym = (R + R.T) / 2.0
    deviation = float(np.max(np.abs(sym - lam * np.eye(m))))
    if deviation > tol:
        return ConformalVerdict(
            False,
            reason=(
                "symmetric part is not a multiple of the identity "
                f"(max deviation {deviation:.3e}); the map does not preserve "
                "the independence of the Wiener components"
            ),
        )
    return ConformalVerdict(True, dilation=lam, skew=(R - R.T) / 2.0, reason="conformal generator")


def _tau_time_only_and_increasing(tau: Expr, ctx: Context, config: ZeroTestConfig) -> Tuple[bool, str]:
    deps = free_vars(simplify(tau))
    if any(v.kind is not VarKind.TIME for v in deps):
        return False, "tau depends on variables other than t"
    dtau = differentiate(simplify(tau), TIME)
    lo, hi = config.box.time
    ts = np.linspace(lo, hi, 17)
    unevaluable = (False, "tau'(t) could not be evaluated on the sampling window")
    try:
        (values,), failed = Kernel([dtau], (TIME,), ctx.params).strict([ts])
    except EvaluationError:  # an unbound parameter
        return unevaluable
    for t, value, bad in zip(ts, values, failed):
        if bad:
            return unevaluable
        if value <= 0:
            return False, f"tau'(t) = {value:.3e} <= 0 at t = {t:.3f} (sampled positivity)"
    return True, "tau = tau(t) with tau'(t) > 0 at all sampled times"


def _extract_linear_w(h: Vector, ctx: Context, config: ZeroTestConfig):
    """If h^k = R^k_m w^m with constant R, return the matrix, else None."""
    m = ctx.m
    R = np.zeros((m, m))
    for k in range(m):
        for j in range(m):
            coeff = simplify(differentiate(h[k], wiener(j + 1)))
            if not isinstance(coeff, Const):
                return None
            R[k, j] = float(coeff.value)
        residual = add(
            h[k], Neg(add(*(mul(Const(R[k, j]), Var(wiener(j + 1))) for j in range(m))))
        )
        if not is_identically_zero(residual, ctx, config).is_zero:
            return None
    return R


def classify(X: VectorField, sys, config: Optional[ZeroTestConfig] = None) -> Classification:
    config = config or ZeroTestConfig()
    ctx = X.ctx
    tau_zero = is_identically_zero(X.tau, ctx, config).is_zero
    simple = tau_zero
    acting_on_time = not tau_zero

    random = any(
        v.kind is VarKind.WIENER
        for component in X.phi
        for v in free_vars(simplify(component))
    )
    noise_exprs = X.noise_exprs()
    w_acting = any(not is_structural_zero(h) for h in noise_exprs)

    reasons: List[str] = []
    admissible = True
    if not simple:
        ok, why = _tau_time_only_and_increasing(X.tau, ctx, config)
        reasons.append(why)
        if not ok:
            admissible = False
    if w_acting:
        if isinstance(X.noise, LinearW):
            verdict = conformal_check(X.noise.matrix)
        else:
            R = _extract_linear_w(noise_exprs, ctx, config)
            if R is None:
                verdict = ConformalVerdict(
                    False,
                    reason="noise action is not a constant linear map of the Wiener variables",
                )
            else:
                verdict = conformal_check(R)
        reasons.append(verdict.reason)
        if not verdict.accepted:
            admissible = False
    return Classification(
        acting_on_time=acting_on_time,
        random=random,
        w_acting=w_acting,
        simple=simple,
        admissible=admissible,
        reasons=reasons,
    )


# ---------------------------------------------------------------------------
# determining-equation residuals


@dataclass
class ResidualEntry:
    label: str
    expr: Expr
    verdict: ZeroVerdict

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "residual": to_string(self.expr),
            "verdict": self.verdict.to_dict(),
        }


@dataclass
class SymmetryReport:
    calculus: str  # 'ito' | 'stratonovich'
    family: str  # 'standard' | 'linear_w' | 'general_h'
    entries: List[ResidualEntry]
    tol: float

    @property
    def verdict(self) -> str:
        if any(e.verdict.is_nonzero for e in self.entries):
            return "not_symmetry"
        if any(e.verdict.status == "inconclusive" for e in self.entries):
            return "inconclusive"
        return "symmetry"

    @property
    def witness(self) -> Optional[dict]:
        for e in self.entries:
            if e.verdict.is_nonzero:
                return {
                    "label": e.label,
                    "point": e.verdict.witness_point,
                    "value": e.verdict.witness_value,
                }
        return None

    def to_dict(self) -> dict:
        return {
            "calculus": self.calculus,
            "family": self.family,
            "verdict": self.verdict,
            "witness": self.witness,
            "tol": self.tol,
            "residuals": [e.to_dict() for e in self.entries],
        }


def _determining_equations(
    X: VectorField, sys, family: str, config: Optional[ZeroTestConfig]
) -> SymmetryReport:
    """Residuals of the determining equations in the calculus of ``sys``:

        L0 phi^i - X(f^i)          - sigma^i_k L0 h^k  = 0    drift[i]
        L_k phi^i - X(sigma^i_k)   - sigma^i_m L_k h^m = 0    noise[i,k]

    with f the drift of ``sys`` (b for a Stratonovich system)."""
    config = config or ZeroTestConfig()
    ctx = sys.ctx
    h = X.noise_exprs()
    transported_h = [transport_operator(hk, sys) for hk in h]
    shifted_h = [[shift_operator(hm, sys, k) for hm in h] for k in range(1, ctx.m + 1)]
    labeled = []
    for i in range(ctx.n):
        expr = add(
            transport_operator(X.phi[i], sys),
            Neg(X.apply(sys.drift[i])),
            *(Neg(mul(sys.sigma[i][k], transported_h[k])) for k in range(ctx.m)),
        )
        labeled.append((f"drift[{i+1}]", expr))
    for i in range(ctx.n):
        for k in range(ctx.m):
            expr = add(
                shift_operator(X.phi[i], sys, k + 1),
                Neg(X.apply(sys.sigma[i][k])),
                *(Neg(mul(sys.sigma[i][m], shifted_h[k][m])) for m in range(ctx.m)),
            )
            labeled.append((f"noise[{i+1},{k+1}]", expr))
    entries = [
        ResidualEntry(label, simplify(expr), is_identically_zero(expr, ctx, config))
        for label, expr in labeled
    ]
    return SymmetryReport(sys.calculus, family, entries, config.tol)


def residuals(
    X: VectorField, sys, config: Optional[ZeroTestConfig] = None, force: bool = False
) -> SymmetryReport:
    """The determining equations of ``X`` in the calculus of ``sys``, in the
    family the field states: ``standard`` (no noise part, h = 0),
    ``linear_w`` (h = R w) or ``general_h`` (kept for analysis).  Only simple
    fields (tau = 0) are verified, and a conformally rejected R raises unless
    ``force``."""
    if X.noise is None:
        family = "standard"
    else:
        family = "linear_w" if isinstance(X.noise, LinearW) else "general_h"
    if not is_structural_zero(X.tau):
        if family == "standard":
            raise SymmetryError(
                "only simple candidates (tau = 0) are verified here: reduction and "
                "integration use simple symmetries only, and fields acting on time "
                "are outside this determining system"
            )
        raise SymmetryError("Wiener-acting candidates must be simple (tau = 0)")
    if isinstance(X.noise, LinearW) and not force:
        verdict = conformal_check(X.noise.matrix)
        if not verdict.accepted:
            raise SymmetryError(
                f"rejected Wiener action: {verdict.reason}; pass force=True to "
                "analyze it anyway"
            )
    return _determining_equations(X, sys, family, config)


# The four names below state a calculus and a family that ``residuals`` reads
# from the system and the field.  Nothing in the package calls them; they are
# kept because bench/tracer.py wraps them by name.


def _named(name: str, calculus: str, standard: bool, X: VectorField, sys, config, force=False):
    """``residuals`` behind a check of the calculus and family ``name`` states."""
    sys.require(calculus, name)
    if standard:
        if X.noise is not None and any(not is_structural_zero(h) for h in X.noise_exprs()):
            raise SymmetryError("standard symmetries do not act on the Wiener variables")
        X = replace(X, noise=None)
    elif X.noise is None:
        raise SymmetryError("candidate has no Wiener-sector component")
    return residuals(X, sys, config, force)


def residual_standard_ito(X, sys, config=None) -> SymmetryReport:
    return _named("residual_standard_ito", "ito", True, X, sys, config)


def residual_standard_strat(X, sys, config=None) -> SymmetryReport:
    return _named("residual_standard_strat", "stratonovich", True, X, sys, config)


def residual_W_ito(X, sys, config=None, force=False) -> SymmetryReport:
    return _named("residual_W_ito", "ito", False, X, sys, config, force)


def residual_W_strat(X, sys, config=None, force=False) -> SymmetryReport:
    return _named("residual_W_strat", "stratonovich", False, X, sys, config, force)


# ---------------------------------------------------------------------------
# structural operators entering the Ito/Stratonovich comparison


def sigma_operator(phi: Vector, sys) -> Vector:
    """Sigma(phi)^i = phi^j d_j A^i - A^j d_j phi^i with
    A^i = (d_k sigma^i_m) sigma^k_m (twice the drift correction)."""
    ctx = sys.ctx
    sigma = sys.sigma
    A = []
    for i in range(ctx.n):
        A.append(
            add(
                *(
                    mul(differentiate(sigma[i][m], state(k + 1)), sigma[k][m])
                    for k in range(ctx.n)
                    for m in range(ctx.m)
                )
            )
        )
    out = []
    for i in range(ctx.n):
        pieces = []
        for j in range(ctx.n):
            pieces.append(mul(phi[j], differentiate(A[i], state(j + 1))))
            pieces.append(Neg(mul(A[j], differentiate(phi[i], state(j + 1)))))
        out.append(simplify(add(*pieces)))
    return tuple(out)


def dilation_obstruction(sys, R) -> Vector:
    """The R-dependent term separating the two calculi's drift families:

        cal_R^i = sigma^l_k (d_l sigma^i_p) (R_{pk} + R_{kp})

    It vanishes identically for spatially constant sigma and for skew R.
    """
    ctx = sys.ctx
    sigma = sys.sigma
    R = np.atleast_2d(np.asarray(R, dtype=float))
    out = []
    for i in range(ctx.n):
        pieces = []
        for l in range(ctx.n):
            for k in range(ctx.m):
                for p in range(ctx.m):
                    coeff = R[p, k] + R[k, p]
                    if coeff == 0.0:
                        continue
                    pieces.append(
                        mul(
                            sigma[l][k],
                            differentiate(sigma[i][p], state(l + 1)),
                            Const(Fraction(coeff)),
                        )
                    )
        out.append(simplify(add(*pieces)))
    return tuple(out)


def dilation_obstruction_check(
    sys, R, config: Optional[ZeroTestConfig] = None
) -> List[ZeroVerdict]:
    config = config or ZeroTestConfig()
    return [is_identically_zero(e, sys.ctx, config) for e in dilation_obstruction(sys, R)]


def sigma_spatially_constant(sys, config: Optional[ZeroTestConfig] = None) -> bool:
    config = config or ZeroTestConfig()
    for i in range(sys.ctx.n):
        for k in range(sys.ctx.m):
            for j in range(1, sys.ctx.n + 1):
                if not is_identically_zero(
                    differentiate(sys.sigma[i][k], state(j)), sys.ctx, config
                ).is_zero:
                    return False
    return True


@dataclass
class AgreementReport:
    """Comparison of a linear Wiener-acting candidate across the two calculi."""

    ito: SymmetryReport
    stratonovich: SymmetryReport
    discrepancy: Vector  # drift-family difference, per component
    obstruction: Vector
    skew: bool
    constant_sigma: bool
    agreement: str  # 'guaranteed' | 'accidental' | 'broken'
    discrepancy_matches_half_obstruction: Optional[List[ZeroVerdict]]
    witness: Optional[dict]

    def to_dict(self) -> dict:
        return {
            "agreement": self.agreement,
            "skew": self.skew,
            "constant_sigma": self.constant_sigma,
            "ito": self.ito.to_dict(),
            "stratonovich": self.stratonovich.to_dict(),
            "discrepancy": [to_string(d) for d in self.discrepancy],
            "obstruction": [to_string(o) for o in self.obstruction],
            "witness": self.witness,
        }


def agreement_analysis(
    X: VectorField, sys: ItoSystem, config: Optional[ZeroTestConfig] = None
) -> AgreementReport:
    """Whether an Ito-verdict transfers to the associated Stratonovich system:
    both reports, computed here, handed to ``compare_calculi``."""
    config = config or ZeroTestConfig()
    if not isinstance(X.noise, LinearW):
        raise SymmetryError("agreement analysis applies to linear Wiener actions")
    ito_report = residuals(X, sys, config, force=True)
    strat_report = residuals(X, ito_to_strat(sys), config, force=True)
    return compare_calculi(X, ito_report, strat_report, sys, config)


def compare_calculi(
    X: VectorField,
    ito_report: SymmetryReport,
    strat_report: SymmetryReport,
    sys,
    config: Optional[ZeroTestConfig] = None,
) -> AgreementReport:
    """Compare a linear Wiener-acting candidate's reports in the two calculi
    of one equation; ``sys`` is either form (only its sigma is read).

    Skew Wiener action or spatially constant diffusion guarantee agreement;
    with a dilation part over non-constant diffusion the drift families
    differ, on shared-family solutions, by half the obstruction term."""
    config = config or ZeroTestConfig()
    if not isinstance(X.noise, LinearW):
        raise SymmetryError("agreement analysis applies to linear Wiener actions")
    ctx = sys.ctx
    R = X.noise.matrix
    n = ctx.n
    discrepancy = tuple(
        simplify(add(ito_report.entries[i].expr, Neg(strat_report.entries[i].expr)))
        for i in range(n)
    )
    obstruction = dilation_obstruction(sys, R)
    skew = bool(np.max(np.abs(R + R.T)) <= 1e-12)
    const_sigma = sigma_spatially_constant(sys, config)

    noise_family_ok = all(e.verdict.is_zero for e in ito_report.entries[n:])
    identity_checks = None
    if noise_family_ok:
        identity_checks = [
            is_identically_zero(
                add(discrepancy[i], Neg(mul(HALF, obstruction[i]))), ctx, config
            )
            for i in range(n)
        ]

    if skew or const_sigma:
        agreement = "guaranteed"
        witness = None
    elif ito_report.verdict == strat_report.verdict:
        agreement = "accidental"
        witness = None
    else:
        agreement = "broken"
        witness = strat_report.witness or ito_report.witness
    return AgreementReport(
        ito=ito_report,
        stratonovich=strat_report,
        discrepancy=discrepancy,
        obstruction=obstruction,
        skew=skew,
        constant_sigma=const_sigma,
        agreement=agreement,
        discrepancy_matches_half_obstruction=identity_checks,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# Lie structure


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """Commutator [X, Y] of simple fields.

    The state part is X(phi_Y^i) - Y(phi_X^i) with each field applied as a
    full derivation (including its Wiener-sector part).  For linear Wiener
    actions the bracket's action is h = (R_Y R_X - R_X R_Y) w, i.e. the
    matrices compose opposite to the vector fields.
    """
    if X.ctx != Y.ctx:
        raise SymmetryError("fields live over different contexts")
    if not (is_structural_zero(X.tau) and is_structural_zero(Y.tau)):
        raise SymmetryError("lie_bracket is defined for simple fields")
    both_none = X.noise is None and Y.noise is None
    both_linear = isinstance(X.noise, LinearW) and isinstance(Y.noise, LinearW)
    if not (both_none or both_linear):
        raise SymmetryError("noise parts must both be absent or both be linear")
    phi = tuple(
        simplify(add(X.apply(Y.phi[i]), Neg(Y.apply(X.phi[i]))))
        for i in range(X.ctx.n)
    )
    noise = None
    if both_linear:
        RX = X.noise.matrix
        RY = Y.noise.matrix
        noise = LinearW.from_matrix(RY @ RX - RX @ RY)
    return VectorField(X.ctx, phi, ZERO, noise)


@dataclass
class SolvabilityResult:
    status: str  # 'solvable' | 'not_solvable' | 'inconclusive'
    derived_dims: List[int]
    ordering: List[int]  # generator indices, shallowest derived depth first
    structure_constants: Optional[np.ndarray]  # c[i, j, k]: [X_i,X_j] = c_k X_k
    abelian: bool
    detail: str = ""


def _field_features(X: VectorField, columns, points: np.ndarray) -> np.ndarray:
    """Components of X at each row of ``points``, then its Wiener matrix."""
    ctx = X.ctx
    values, failed = Kernel(X.phi, columns, ctx.params).strict(points.T)
    if failed.any():
        raise EvaluationError(f"a component of the field is not finite at {points[failed][0]}")
    matrix = X.noise.matrix if isinstance(X.noise, LinearW) else np.zeros((ctx.m, ctx.m))
    return np.concatenate([values.T.ravel(), matrix.ravel()])


def solvability_check(
    generators: Sequence[VectorField],
    config: Optional[ZeroTestConfig] = None,
    tol: float = 1e-8,
) -> SolvabilityResult:
    """Closure + derived-series analysis of a list of simple generators.

    Brackets are expanded over the generators by least squares on sampled
    component values and the expansion is certified by zero tests; the
    derived series is then pure linear algebra on the structure constants.
    """
    config = config or ZeroTestConfig()
    generators = list(generators)
    r = len(generators)
    if r == 0:
        raise SymmetryError("need at least one generator")
    ctx = generators[0].ctx
    if any(g.ctx != ctx for g in generators):
        raise SymmetryError("generators live over different contexts")

    rng = np.random.default_rng(config.seed + 1)
    columns = ctx.states() + ctx.wieners() + (TIME,)  # the order of the draws
    points = np.array(
        [[rng.uniform(*config.box.for_var(v)) for v in columns] for _ in range(max(3 * r, 12))]
    )

    G = np.stack([_field_features(g, columns, points) for g in generators])  # (r, D)
    c = np.zeros((r, r, r))
    for i in range(r):
        for j in range(i + 1, r):
            bracket = lie_bracket(generators[i], generators[j])
            target = _field_features(bracket, columns, points)
            coeffs, *_ = np.linalg.lstsq(G.T, target, rcond=None)
            coeffs[np.abs(coeffs) < 1e-10] = 0.0
            # certify the expansion symbolically
            for comp in range(ctx.n):
                combo = add(
                    bracket.phi[comp],
                    Neg(add(*(mul(Const(Fraction(coeffs[k])), generators[k].phi[comp]) for k in range(r)))),
                )
                if not is_identically_zero(combo, ctx, config).is_zero:
                    return SolvabilityResult(
                        "inconclusive",
                        [],
                        list(range(r)),
                        None,
                        False,
                        detail=f"[X{i+1},X{j+1}] does not lie in the span of the generators",
                    )
            RB = bracket.noise.matrix if isinstance(bracket.noise, LinearW) else np.zeros((ctx.m, ctx.m))
            RC = sum(
                coeffs[k]
                * (
                    generators[k].noise.matrix
                    if isinstance(generators[k].noise, LinearW)
                    else np.zeros((ctx.m, ctx.m))
                )
                for k in range(r)
            )
            if np.max(np.abs(RB - RC)) > tol:
                return SolvabilityResult(
                    "inconclusive",
                    [],
                    list(range(r)),
                    None,
                    False,
                    detail=f"[X{i+1},X{j+1}] noise part outside the span",
                )
            c[i, j, :] = coeffs
            c[j, i, :] = -coeffs

    abelian = bool(np.max(np.abs(c)) == 0.0)

    def span_brackets(basis: np.ndarray) -> np.ndarray:
        rows = []
        for a in range(basis.shape[0]):
            for b in range(basis.shape[0]):
                u, v = basis[a], basis[b]
                rows.append(np.einsum("i,j,ijk->k", u, v, c))
        if not rows:
            return np.zeros((0, r))
        return np.stack(rows)

    def orth_basis(rows: np.ndarray) -> np.ndarray:
        if rows.size == 0:
            return np.zeros((0, r))
        _, s, vt = np.linalg.svd(rows)
        rank = int(np.sum(s > tol * max(1.0, s[0] if len(s) else 1.0)))
        return vt[:rank]

    dims = [r]
    basis = np.eye(r)
    series = [basis]
    for _ in range(r + 1):
        nxt = orth_basis(span_brackets(basis))
        dims.append(nxt.shape[0])
        series.append(nxt)
        if nxt.shape[0] == 0:
            break
        if nxt.shape[0] == basis.shape[0]:
            return SolvabilityResult(
                "not_solvable", dims, list(range(r)), c, abelian,
                detail="derived series stabilizes at positive dimension",
            )
        basis = nxt

    # depth of each generator: deepest derived subspace containing it
    depths = []
    for k in range(r):
        e = np.zeros(r)
        e[k] = 1.0
        depth = 1
        for q, basis_q in enumerate(series[1:], start=2):
            if basis_q.shape[0] == 0:
                break
            residual = e - basis_q.T @ (basis_q @ e)
            if np.linalg.norm(residual) <= tol:
                depth = q
        depths.append(depth)
    ordering = sorted(range(r), key=lambda k: (depths[k], k))
    return SolvabilityResult("solvable", dims, ordering, c, abelian)
