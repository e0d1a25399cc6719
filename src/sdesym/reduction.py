"""Symmetry-adapted changes of variables.

Covers: the scalar integrating variable of a simple symmetry, the
compatibility relation
for random symmetries, pushing an Ito system through a state-space change
of variables, the formal transformation under Wiener-acting maps, adapted
coordinates for scaling and rotation actions, single reduction steps,
sequential reduction, and stochastic-quadrature solution forms.

Transformed equations that leave the Ito class are first-class values
(GeneralSDE), not errors: their coefficients may depend on the driving
processes, and the driving processes themselves may fail to be Wiener.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .expr import (
    AntiDeriv,
    Apply,
    Const,
    Context,
    Expr,
    HALF,
    MINUS_ONE,
    Neg,
    ONE,
    Power,
    TIME,
    Var,
    VarKind,
    ZERO,
    ZeroTestConfig,
    ZeroVerdict,
    add,
    differentiate,
    div,
    free_vars,
    is_identically_zero,
    mul,
    simplify,
    state,
    subst_many,
    to_string,
    wiener,
)
from .sde import ItoSystem, ito_laplacian, transport_operator, shift_operator
from .symmetry import (
    GeneralH,
    LinearW,
    SymmetryReport,
    VectorField,
    residuals,
    solvability_check,
)

Vector = Tuple[Expr, ...]
Matrix = Tuple[Tuple[Expr, ...], ...]


class ReductionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# symbolic linear algebra helpers


def sym_det(mat: Sequence[Sequence[Expr]]) -> Expr:
    n = len(mat)
    if n == 1:
        return simplify(mat[0][0])
    if n == 2:
        return simplify(
            add(mul(mat[0][0], mat[1][1]), Neg(mul(mat[0][1], mat[1][0])))
        )
    total = []
    for j in range(n):
        minor = [
            [mat[r][c] for c in range(n) if c != j] for r in range(1, n)
        ]
        piece = mul(mat[0][j], sym_det(minor))
        total.append(piece if j % 2 == 0 else Neg(piece))
    return simplify(add(*total))


def sym_inverse(mat: Sequence[Sequence[Expr]]) -> Matrix:
    """Adjugate over determinant; closed form for small n."""
    n = len(mat)
    det = sym_det(mat)
    if isinstance(det, Const) and det.value == 0:
        raise ReductionError("singular Jacobian (determinant simplifies to 0)")
    inv_det = Power(det, MINUS_ONE)
    if n == 1:
        return ((simplify(inv_det),),)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [
                [mat[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            cof = sym_det(minor)
            if (i + j) % 2 == 1:
                cof = Neg(cof)
            row.append(simplify(mul(cof, inv_det)))
        out.append(tuple(row))
    return tuple(out)


# ---------------------------------------------------------------------------
# change of variables


@dataclass
class ChangeOfVariables:
    """A state-space map, optionally with a Wiener-sector map.

    direction 'old_to_new': forward[i] expresses the i-th new state in the
    old variables (used for standard changes of variables).
    direction 'new_to_old': forward[i] expresses the i-th old state in the
    new variables; wiener_forward[k] expresses the k-th old Wiener variable
    in the new variables (identity when only wiener_map R is given, meaning
    w_old = R z_new).  ``inverse`` / ``inverse_drivers`` give the opposite
    direction for the states / driver coordinates when known.
    """

    ctx: Context
    forward: Vector
    direction: str = "old_to_new"
    wiener_map: Optional[np.ndarray] = None
    inverse: Optional[Vector] = None
    wiener_forward: Optional[Vector] = None
    inverse_drivers: Optional[Vector] = None

    def __post_init__(self):
        self.forward = tuple(self.forward)
        if len(self.forward) != self.ctx.n:
            raise ReductionError(f"forward map must have n = {self.ctx.n} components")
        if self.direction not in ("old_to_new", "new_to_old"):
            raise ReductionError("direction must be 'old_to_new' or 'new_to_old'")
        if self.inverse is not None:
            self.inverse = tuple(self.inverse)
        if self.wiener_map is not None:
            self.wiener_map = np.atleast_2d(np.asarray(self.wiener_map, dtype=float))
            if self.wiener_map.shape != (self.ctx.m, self.ctx.m):
                raise ReductionError(f"wiener map must be {self.ctx.m} x {self.ctx.m}")
        if self.wiener_forward is not None:
            self.wiener_forward = tuple(self.wiener_forward)
        elif self.wiener_map is not None and self.direction == "new_to_old":
            self.wiener_forward = LinearW.from_matrix(self.wiener_map).h_exprs()

    @property
    def jacobian(self) -> Matrix:
        return tuple(
            tuple(differentiate(component, state(j + 1)) for j in range(self.ctx.n))
            for component in self.forward
        )

    @property
    def lambda_(self) -> Matrix:
        return sym_inverse(self.jacobian)

    def jacobian_identity_check(self, config: Optional[ZeroTestConfig] = None) -> List[ZeroVerdict]:
        """Zero tests of M Lambda - I, entrywise."""
        config = config or ZeroTestConfig()
        M = self.jacobian
        L = self.lambda_
        ctx = self.ctx
        out = []
        for i in range(ctx.n):
            for j in range(ctx.n):
                entry = add(
                    *(mul(M[i][k], L[k][j]) for k in range(ctx.n)),
                    Neg(ONE) if i == j else ZERO,
                )
                out.append(is_identically_zero(entry, ctx, config))
        return out


# ---------------------------------------------------------------------------
# scalar integrating variable


def _linear_in(e: Expr, v) -> Optional[Tuple[Expr, Expr]]:
    """e = a*var + rest with a constant in var and rest var-free; else None."""
    a = simplify(differentiate(e, v))
    if v in free_vars(a):
        return None
    rest = simplify(add(e, Neg(mul(a, Var(v)))))
    if v in free_vars(rest):
        return None
    return a, rest


def integrating_variable(phi: Expr, ctx: Context, state_index: int = 1) -> Expr:
    """Integrating variable of a simple scalar symmetry: the antiderivative
    of 1/phi in the state variable.

    Closed forms cover phi = C(w,t) * y^a * exp(b*y) with constant a, b
    (any factors free of y fold into C).  Anything else falls back to a
    quadrature-defined function with symbolic derivative 1/phi.
    """
    y = state(state_index)
    phi = simplify(phi)
    if isinstance(phi, Const) and phi.value == 0:
        raise ReductionError("phi is identically zero")

    factors = phi.factors if hasattr(phi, "factors") else (phi,)
    coeff_parts: List[Expr] = []
    power_a = Fraction(0)
    exp_b: Optional[Expr] = None
    ok = True
    for f in factors:
        if y not in free_vars(f):
            coeff_parts.append(f)
            continue
        if isinstance(f, Var) and f.var == y:
            power_a += 1
            continue
        if (
            isinstance(f, Power)
            and isinstance(f.base, Var)
            and f.base.var == y
            and isinstance(f.exponent, Const)
            and isinstance(f.exponent.value, Fraction)
        ):
            power_a += f.exponent.value
            continue
        if isinstance(f, Apply) and f.fn == "exp":
            split = _linear_in(f.arg, y)
            if split is not None and exp_b is None:
                b, rest = split
                exp_b = b
                if not (isinstance(rest, Const) and rest.value == 0):
                    coeff_parts.append(Apply("exp", rest))
                continue
        ok = False
        break

    if ok:
        inv_coeff = simplify(div(ONE, mul(*coeff_parts))) if coeff_parts else ONE
        if exp_b is None:
            if power_a == 1:
                return simplify(mul(inv_coeff, Apply("log", Var(y))))
            new_power = 1 - power_a
            return simplify(
                mul(inv_coeff, Const(Fraction(1) / new_power), Power(Var(y), Const(new_power)))
            )
        if power_a == 0:
            # integral of C^-1 e^{-b y} dy = -C^-1 e^{-b y} / b
            return simplify(
                mul(
                    Neg(inv_coeff),
                    Power(exp_b, MINUS_ONE),
                    Apply("exp", Neg(mul(exp_b, Var(y)))),
                )
            )
    return AntiDeriv(simplify(div(ONE, phi)), y, base=1.0)


# ---------------------------------------------------------------------------
# compatibility relation for simple random symmetries (scalar)


@dataclass
class CompatibilityResult:
    compatible: Optional[bool]  # None when inconclusive
    gamma: Expr
    lhs: Expr
    rhs: Expr
    verdict: ZeroVerdict

    def to_dict(self) -> dict:
        return {
            "compatible": self.compatible,
            "gamma": to_string(self.gamma),
            "lhs": to_string(self.lhs),
            "rhs": to_string(self.rhs),
            "verdict": self.verdict.to_dict(),
        }


def compatibility_check(
    sys: ItoSystem, phi: Expr, config: Optional[ZeroTestConfig] = None
) -> CompatibilityResult:
    """For a scalar system dy = F dt + S dw with simple random symmetry
    phi(y,t,w), set gamma = d_w(1/phi); the random integrating variable maps
    the equation to another Ito equation iff

        S gamma_t + S_t gamma = F gamma_w + (1/2)(S gamma_ww + S^2 gamma_yw).
    """
    config = config or ZeroTestConfig()
    sys.require("ito", "compatibility_check")
    ctx = sys.ctx
    if ctx.n != 1 or ctx.m != 1:
        raise ReductionError("the compatibility relation is a scalar-system check")
    if is_identically_zero(phi, ctx, config).is_zero:
        raise ReductionError("phi vanishes identically on the sampling box")
    y, w = state(1), wiener(1)
    F, S = sys.drift[0], sys.sigma[0][0]
    gamma = simplify(differentiate(div(ONE, phi), w))
    lhs = simplify(
        add(mul(S, differentiate(gamma, TIME)), mul(differentiate(S, TIME), gamma))
    )
    rhs = simplify(
        add(
            mul(F, differentiate(gamma, w)),
            mul(
                HALF,
                add(
                    mul(S, differentiate(differentiate(gamma, w), w)),
                    mul(Power(S, Const(2)), differentiate(differentiate(gamma, y), w)),
                ),
            ),
        )
    )
    verdict = is_identically_zero(add(lhs, Neg(rhs)), ctx, config)
    compatible = True if verdict.is_zero else (False if verdict.is_nonzero else None)
    return CompatibilityResult(compatible, gamma, lhs, rhs, verdict)


# ---------------------------------------------------------------------------
# transformed systems


@dataclass
class GeneralSDE:
    """d y^i = F^i dt + S^i_k d z^k where F, S may depend on the drivers z
    and the drivers may fail to be Wiener processes."""

    ctx: Context
    F: Vector
    S: Matrix
    driving: str = "wiener"  # 'wiener' | free-text description of the drivers
    expressed_in: str = "new"  # 'new' | 'old' (when no inverse was available)
    ito_like: Optional[bool] = None
    ito_like_detail: List[ZeroVerdict] = field(default_factory=list)

    def __post_init__(self):
        self.F = tuple(self.F)
        self.S = tuple(tuple(row) for row in self.S)

    def coefficient_dependence(self, var, config: ZeroTestConfig) -> List[ZeroVerdict]:
        """Zero tests of d/d var of F^i, S^i_1, ..., S^i_m, row by row."""
        return [
            is_identically_zero(differentiate(e, var), self.ctx, config)
            for F_i, S_i in zip(self.F, self.S)
            for e in (F_i, *S_i)
        ]

    def as_ito_system(self) -> ItoSystem:
        if not self.ito_like:
            raise ReductionError("transformed system is not of Ito type")
        return ItoSystem(self.ctx, self.F, self.S)

    def to_dict(self) -> dict:
        return {
            "F": [to_string(e) for e in self.F],
            "S": [[to_string(e) for e in row] for row in self.S],
            "driving": self.driving,
            "expressed_in": self.expressed_in,
            "ito_like": self.ito_like,
        }


def transform_ito(
    sys: ItoSystem, cov: ChangeOfVariables, config: Optional[ZeroTestConfig] = None
) -> GeneralSDE:
    """Push an Ito system through a state-space map y = Phi(x,t;w):

        F^i = L0 Phi^i = d_t Phi^i + f^j d_j Phi^i + (1/2) Delta Phi^i
        S^i_k = L_k Phi^i = d_{w^k} Phi^i + sigma^j_k d_j Phi^i

    Results are re-expressed in the new variables when an inverse map is
    supplied, else returned in the old variables with expressed_in='old'.
    The Ito-likeness verdict always comes from the inverse-free operator
    conditions L0(d_w Phi) = L_k(d_w Phi) = 0.
    """
    config = config or ZeroTestConfig()
    if cov.direction != "old_to_new":
        raise ReductionError("transform_ito expects an old_to_new map")
    if cov.wiener_map is not None:
        raise ReductionError("transform_ito handles maps that fix the Wiener variables")
    sys.require("ito", "transform_ito")
    ctx = sys.ctx
    F = [transport_operator(phi_i, sys) for phi_i in cov.forward]
    S = [
        tuple(shift_operator(phi_i, sys, k) for k in range(1, ctx.m + 1))
        for phi_i in cov.forward
    ]
    preservation = ito_preservation_check(sys, cov, config)
    ito_like = all(v.is_zero for v in preservation)
    if any(v.status == "inconclusive" for v in preservation):
        ito_like = None
    expressed_in = "old"
    if cov.inverse is not None:
        mapping = {state(i + 1): cov.inverse[i] for i in range(ctx.n)}
        F = [simplify(subst_many(e, mapping)) for e in F]
        S = [tuple(simplify(subst_many(e, mapping)) for e in row) for row in S]
        expressed_in = "new"
    return GeneralSDE(
        ctx,
        tuple(F),
        tuple(tuple(row) for row in S),
        driving="wiener",
        expressed_in=expressed_in,
        ito_like=ito_like,
        ito_like_detail=preservation,
    )


def ito_preservation_check(
    sys: ItoSystem, cov: ChangeOfVariables, config: Optional[ZeroTestConfig] = None
) -> List[ZeroVerdict]:
    """The transformed system stays Ito iff every Wiener gradient of the map
    is annihilated by the transport and shift operators:

        L0(d_{w^m} Phi^i) = 0,   L_k(d_{w^m} Phi^i) = 0.
    """
    config = config or ZeroTestConfig()
    sys.require("ito", "ito_preservation_check")
    ctx = sys.ctx
    out = []
    for i in range(ctx.n):
        for m in range(1, ctx.m + 1):
            grad = differentiate(cov.forward[i], wiener(m))
            out.append(is_identically_zero(transport_operator(grad, sys), ctx, config))
            for k in range(1, ctx.m + 1):
                out.append(is_identically_zero(shift_operator(grad, sys, k), ctx, config))
    return out


def transform_W(
    sys: ItoSystem, cov: ChangeOfVariables, config: Optional[ZeroTestConfig] = None
) -> GeneralSDE:
    """Transform under a map acting on the Wiener sector, given new-to-old
    maps x = Phi(y,t;z) and w = H(y,t;z).

    The new drivers are treated as formally Wiener (dz^m dz^p = delta dt)
    and the postulated equation dy = F dt + S dz is solved for S and F by
    matching the dz and dt coefficients of the Ito expansions of Phi and H
    inserted into the original equation.  For the constant conformal case
    H = R z this reduces to

        S^i_m = Lambda^i_j (sigma~^j_k R^k_m - d_{z^m} Phi^j),
        F^i   = Lambda^i_j (f~^j - d_t Phi^j - (1/2) Delta Phi^j),

    with Delta taken in the new variables using the solved S.
    """
    config = config or ZeroTestConfig()
    if cov.direction != "new_to_old":
        raise ReductionError("transform_W expects a new_to_old map")
    if cov.wiener_forward is None:
        raise ReductionError("transform_W needs the Wiener-sector map")
    sys.require("ito", "transform_W")
    ctx = sys.ctx
    Phi = cov.forward
    H = cov.wiener_forward
    mapping = {state(i + 1): Phi[i] for i in range(ctx.n)}
    f_t = [simplify(subst_many(e, mapping)) for e in sys.drift]
    s_t = [[simplify(subst_many(e, mapping)) for e in row] for row in sys.sigma]

    # A^i_j = d_j Phi^i - sigma~^i_k d_j H^k
    A = []
    for i in range(ctx.n):
        row = []
        for j in range(1, ctx.n + 1):
            row.append(
                simplify(
                    add(
                        differentiate(Phi[i], state(j)),
                        *(
                            Neg(mul(s_t[i][k], differentiate(H[k], state(j))))
                            for k in range(ctx.m)
                        ),
                    )
                )
            )
        A.append(tuple(row))
    Ainv = sym_inverse(A)

    S: List[List[Expr]] = []
    for i in range(ctx.n):
        S.append([ZERO] * ctx.m)
    for mcol in range(1, ctx.m + 1):
        rhs = []
        for j in range(ctx.n):
            rhs.append(
                add(
                    *(
                        mul(s_t[j][k], differentiate(H[k], wiener(mcol)))
                        for k in range(ctx.m)
                    ),
                    Neg(differentiate(Phi[j], wiener(mcol))),
                )
            )
        for i in range(ctx.n):
            S[i][mcol - 1] = simplify(
                add(*(mul(Ainv[i][j], rhs[j]) for j in range(ctx.n)))
            )
    S_t: Matrix = tuple(tuple(row) for row in S)

    F = []
    for i in range(ctx.n):
        pieces = []
        for j in range(ctx.n):
            inner = add(
                f_t[j],
                Neg(differentiate(Phi[j], TIME)),
                Neg(mul(HALF, ito_laplacian(Phi[j], S_t, ctx))),
                *(
                    mul(
                        s_t[j][k],
                        add(
                            differentiate(H[k], TIME),
                            mul(HALF, ito_laplacian(H[k], S_t, ctx)),
                        ),
                    )
                    for k in range(ctx.m)
                ),
            )
            pieces.append(mul(Ainv[i][j], inner))
        F.append(simplify(add(*pieces)))

    gsde = GeneralSDE(
        ctx,
        tuple(F),
        S_t,
        driving="wiener" if cov.wiener_map is not None else "transformed drivers",
        expressed_in="new",
    )
    dependence = [
        v for k in range(1, ctx.m + 1) for v in gsde.coefficient_dependence(wiener(k), config)
    ]
    gsde.ito_like_detail = dependence
    if any(v.is_nonzero for v in dependence):
        gsde.ito_like = False
    elif all(v.is_zero for v in dependence):
        gsde.ito_like = gsde.driving == "wiener"
    else:
        gsde.ito_like = None
    return gsde


def numeric_inverse(cov: ChangeOfVariables, config: Optional[ZeroTestConfig] = None):
    """Evaluation-only inverse of an old_to_new state map: damped Newton on
    Phi(x; t, w) = y per point.  Used when no symbolic inverse is supplied;
    never used for symbolic re-expression, so transformed coefficients stay
    in the old variables in that case.

    Returns solve(y, t, w_values, x_start) -> x (scalar maps only)."""
    if cov.direction != "old_to_new":
        raise ReductionError("numeric inversion expects an old_to_new map")
    if cov.ctx.n != 1:
        raise ReductionError("numeric inversion is implemented for scalar maps")
    from .expr.evaluate import Kernel

    forward = cov.forward[0]
    dforward = differentiate(forward, state(1))
    columns = (state(1), TIME) + cov.ctx.wieners()
    value = Kernel([forward], columns, cov.ctx.params)
    value_and_slope = Kernel([forward, dforward], columns, cov.ctx.params)

    def solve(y: float, t: float, w_values, x_start: float) -> float:
        x = float(x_start)
        for _ in range(80):
            (residual, slope), failed = value_and_slope.strict([x, t, *w_values])
            if failed[0]:
                raise ReductionError(f"inversion left the domain at x = {x!r}")
            residual, slope = float(residual[0]) - y, float(slope[0])
            if slope == 0.0:
                raise ReductionError("inversion hit a critical point")
            step = residual / slope
            # damping: halve until the residual decreases
            for _ in range(30):
                candidate = x - step
                (new_value,), failed = value.strict([candidate, t, *w_values])
                if failed[0]:
                    step *= 0.5
                    continue
                new_residual = float(new_value[0]) - y
                if abs(new_residual) <= abs(residual):
                    break
                step *= 0.5
            x = x - step
            if abs(step) < 1e-13 * max(1.0, abs(x)):
                return x
        raise ReductionError("inversion did not converge")

    return solve


# ---------------------------------------------------------------------------
# rectification and adapted coordinates


@dataclass
class RectificationResult:
    values: List[Expr]  # X applied to each supplied coordinate
    verdicts: List[str]  # 'zero' | 'one' | 'other' per coordinate
    translation_index: Optional[int]
    rectified: bool

    def to_dict(self) -> dict:
        return {
            "values": [to_string(v) for v in self.values],
            "verdicts": self.verdicts,
            "translation_index": self.translation_index,
            "rectified": self.rectified,
        }


def rectification_check(
    X: VectorField,
    new_vars: Sequence[Expr],
    config: Optional[ZeroTestConfig] = None,
) -> RectificationResult:
    """The coordinates rectify X iff X maps exactly one of them to 1 and
    annihilates all the others; the distinguished one is the translation
    direction."""
    config = config or ZeroTestConfig()
    ctx = X.ctx
    values, verdicts = [], []
    translation = None
    rectified = True
    for idx, coord in enumerate(new_vars):
        value = X.apply(coord)
        values.append(value)
        if is_identically_zero(value, ctx, config).is_zero:
            verdicts.append("zero")
        elif is_identically_zero(add(value, Neg(ONE)), ctx, config).is_zero:
            verdicts.append("one")
            if translation is None:
                translation = idx
            else:
                rectified = False
        else:
            verdicts.append("other")
            rectified = False
    if translation is None:
        rectified = False
    return RectificationResult(values, verdicts, translation, rectified)


def scaling_adapted_cov(ctx: Context) -> Tuple[ChangeOfVariables, List[Expr]]:
    """Adapted coordinates for the simultaneous scaling of all states and
    Wiener variables (phi = x, h = w):  the first new state is log x1, the
    other states and all drivers are ratios against x1.

    Returns the new_to_old ChangeOfVariables and the old_to_new coordinate
    list (states then drivers) for rectification checks."""
    e1 = Apply("exp", Var(state(1)))
    forward = [e1]
    for i in range(2, ctx.n + 1):
        forward.append(simplify(mul(e1, Var(state(i)))))
    wiener_forward = tuple(
        simplify(mul(e1, Var(wiener(k)))) for k in range(1, ctx.m + 1)
    )
    inverse = [Apply("log", Var(state(1)))]
    for i in range(2, ctx.n + 1):
        inverse.append(simplify(div(Var(state(i)), Var(state(1)))))
    inverse_drivers = tuple(
        simplify(div(Var(wiener(k)), Var(state(1)))) for k in range(1, ctx.m + 1)
    )
    cov = ChangeOfVariables(
        ctx,
        tuple(forward),
        direction="new_to_old",
        inverse=tuple(inverse),
        wiener_forward=wiener_forward,
        inverse_drivers=inverse_drivers,
    )
    return cov, list(cov.inverse) + list(inverse_drivers)


def rotation_adapted_cov(ctx: Context) -> Tuple[ChangeOfVariables, List[Expr]]:
    """Adapted coordinates for the simultaneous rotation field
    phi = (-x2, x1), h = (-w2, w1) in two dimensions: polar coordinates in
    both the state and the Wiener plane, with the state angle replaced by
    its offset against the driver angle.

    New states: (r, psi = theta - xi); new drivers: (z, xi)."""
    if ctx.n != 2 or ctx.m != 2:
        raise ReductionError("rotation-adapted coordinates need n = m = 2")
    r, psi = Var(state(1)), Var(state(2))
    z, xi = Var(wiener(1)), Var(wiener(2))
    forward = (
        simplify(mul(r, Apply("cos", add(psi, xi)))),
        simplify(mul(r, Apply("sin", add(psi, xi)))),
    )
    wiener_forward = (
        simplify(mul(z, Apply("cos", xi))),
        simplify(mul(z, Apply("sin", xi))),
    )
    x1, x2 = Var(state(1)), Var(state(2))
    w1, w2 = Var(wiener(1)), Var(wiener(2))
    theta = Apply("arctan", div(x2, x1))
    xi_old = Apply("arctan", div(w2, w1))
    inverse = (
        Apply("sqrt", add(Power(x1, Const(2)), Power(x2, Const(2)))),
        simplify(add(theta, Neg(xi_old))),
    )
    inverse_drivers = (
        Apply("sqrt", add(Power(w1, Const(2)), Power(w2, Const(2)))),
        xi_old,
    )
    cov = ChangeOfVariables(
        ctx,
        forward,
        direction="new_to_old",
        inverse=inverse,
        wiener_forward=wiener_forward,
        inverse_drivers=inverse_drivers,
    )
    return cov, list(inverse) + list(inverse_drivers)


# ---------------------------------------------------------------------------
# reduction


@dataclass
class ReduceStepResult:
    transformed: GeneralSDE
    symmetry_report: SymmetryReport
    rectification: RectificationResult
    translation_kind: str  # 'state' | 'driver'
    translation_index: int  # index within states or drivers (0-based)
    invariance_checks: List[ZeroVerdict]  # dF/dxi, dS/dxi zero tests
    reconstruction: Optional[Tuple[Expr, Vector]]  # (F^i*, S^i*_.) if state
    reduced_block: List[int]  # remaining state indices (0-based)

    @property
    def coefficients_translation_free(self) -> bool:
        return all(v.is_zero for v in self.invariance_checks)

    def to_dict(self) -> dict:
        return {
            "transformed": self.transformed.to_dict(),
            "symmetry": self.symmetry_report.to_dict(),
            "rectification": self.rectification.to_dict(),
            "translation_kind": self.translation_kind,
            "translation_index": self.translation_index,
            "coefficients_translation_free": self.coefficients_translation_free,
            "reconstruction": None
            if self.reconstruction is None
            else {
                "drift": to_string(self.reconstruction[0]),
                "noise": [to_string(e) for e in self.reconstruction[1]],
            },
            "reduced_block": self.reduced_block,
        }


def reduce_step(
    sys: ItoSystem,
    X: VectorField,
    cov: ChangeOfVariables,
    config: Optional[ZeroTestConfig] = None,
) -> ReduceStepResult:
    """One symmetry-reduction step: verify the symmetry, check that the
    supplied coordinates rectify it, transform, and certify that the new
    coefficients do not involve the translation coordinate."""
    config = config or ZeroTestConfig()
    sys.require("ito", "reduce_step")
    ctx = sys.ctx
    if isinstance(X.noise, GeneralH):
        raise ReductionError("reduction uses standard or linear Wiener-acting symmetries")
    report = residuals(X, sys, config)
    if report.verdict != "symmetry":
        raise ReductionError(
            f"candidate failed symmetry verification: {report.witness or report.verdict}"
        )

    if cov.direction == "old_to_new":
        coords = list(cov.forward) + [Var(wiener(k)) for k in range(1, ctx.m + 1)]
    else:
        if cov.inverse is None or cov.inverse_drivers is None:
            raise ReductionError(
                "new_to_old reduction needs the inverse coordinate expressions"
            )
        coords = list(cov.inverse) + list(cov.inverse_drivers)
    rect = rectification_check(X, coords, config)
    if not rect.rectified:
        raise ReductionError(
            f"coordinates do not rectify the symmetry: {rect.verdicts}"
        )

    if cov.direction == "old_to_new":
        transformed = transform_ito(sys, cov, config)
    else:
        transformed = transform_W(sys, cov, config)

    if rect.translation_index < ctx.n:
        kind, index = "state", rect.translation_index
        var = state(index + 1)
    else:
        kind, index = "driver", rect.translation_index - ctx.n
        var = wiener(index + 1)

    usable = transformed.expressed_in == "new"
    checks = transformed.coefficient_dependence(var, config) if usable else []

    reconstruction = None
    reduced = list(range(ctx.n))
    if kind == "state" and usable:
        reconstruction = (transformed.F[index], transformed.S[index])
        reduced = [i for i in reduced if i != index]
    return ReduceStepResult(
        transformed=transformed,
        symmetry_report=report,
        rectification=rect,
        translation_kind=kind,
        translation_index=index,
        invariance_checks=checks,
        reconstruction=reconstruction,
        reduced_block=reduced,
    )


def pushforward_standard(
    X: VectorField, cov: ChangeOfVariables
) -> VectorField:
    """Push a standard simple field through an old_to_new state map with a
    known inverse: the new components are X(Phi^i) written in new variables."""
    if X.noise is not None:
        raise ReductionError("only standard fields are pushed through state maps")
    if cov.direction != "old_to_new" or cov.inverse is None:
        raise ReductionError("pushforward needs an old_to_new map with inverse")
    mapping = {state(i + 1): cov.inverse[i] for i in range(X.ctx.n)}
    phi = tuple(
        simplify(subst_many(X.apply(cov.forward[i]), mapping)) for i in range(X.ctx.n)
    )
    return VectorField(X.ctx, phi, ZERO, None)


def pushforward_split_W(X: VectorField, cov: ChangeOfVariables) -> VectorField:
    """Push a linear Wiener-acting field through a split map x = Phi(y,t),
    w = R_c z: the state part maps by Lambda, the Wiener action conjugates."""
    if not isinstance(X.noise, LinearW):
        raise ReductionError("expected a linear Wiener-acting field")
    if cov.direction != "new_to_old" or cov.wiener_map is None:
        raise ReductionError("expected a new_to_old split map with a Wiener matrix")
    for component in cov.forward:
        if any(v.kind is VarKind.WIENER for v in free_vars(component)):
            raise ReductionError("split maps keep the state map Wiener-free")
    ctx = X.ctx
    Rc = cov.wiener_map
    lam = cov.lambda_
    mapping = {state(i + 1): cov.forward[i] for i in range(ctx.n)}
    mapping.update((wiener(k + 1), cov.wiener_forward[k]) for k in range(ctx.m))
    phi = []
    for i in range(ctx.n):
        phi.append(
            simplify(
                subst_many(
                    add(*(mul(lam[i][j], X.phi[j]) for j in range(ctx.n))), mapping
                )
            )
        )
    R_new = np.linalg.inv(Rc) @ X.noise.matrix @ Rc
    return VectorField(ctx, tuple(phi), ZERO, LinearW.from_matrix(R_new))


@dataclass
class ChainStep:
    generator_index: int
    result: Optional[ReduceStepResult]
    note: str = ""


@dataclass
class ChainResult:
    steps: List[ChainStep]
    completed: bool
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "completed": self.completed,
            "reason": self.reason,
            "steps": [
                {
                    "generator": s.generator_index,
                    "note": s.note,
                    "result": None if s.result is None else s.result.to_dict(),
                }
                for s in self.steps
            ],
        }


def reduce_sequence(
    sys: ItoSystem,
    generators: Sequence[VectorField],
    covs: Sequence[ChangeOfVariables],
    config: Optional[ZeroTestConfig] = None,
    check_ordering: bool = True,
) -> ChainResult:
    """Sequential reduction.  The generator order must respect the derived
    series (shallowest first); the Ito-likeness of each intermediate
    equation and the re-verifiability of the next symmetry are checked at
    every step, and the chain stops early, with diagnostics, as soon as one
    of them fails."""
    config = config or ZeroTestConfig()
    generators = list(generators)
    covs = list(covs)
    if len(generators) != len(covs):
        raise ReductionError("need one change of variables per generator")
    if check_ordering and len(generators) > 1:
        solv = solvability_check(generators, config)
        if solv.status == "not_solvable":
            raise ReductionError("generators do not span a solvable algebra")
        if solv.status == "solvable":
            depths = {idx: pos for pos, idx in enumerate(solv.ordering)}
            positions = [depths[i] for i in range(len(generators))]
            if positions != sorted(positions):
                raise ReductionError(
                    f"ordering violates the derived series; expected order {solv.ordering}"
                )

    steps: List[ChainStep] = []
    current = sys
    for idx, (X, cov) in enumerate(zip(generators, covs)):
        try:
            result = reduce_step(current, X, cov, config)
        except ReductionError as err:
            steps.append(ChainStep(idx, None, note=str(err)))
            return ChainResult(steps, False, reason=str(err))
        steps.append(ChainStep(idx, result))
        if idx + 1 == len(generators):
            return ChainResult(steps, True)
        # prepare the next round: need an Ito system and a re-expressed generator
        if not result.transformed.ito_like:
            reason = (
                "intermediate equation is not of Ito type; the remaining "
                "symmetries cannot be re-verified on it"
            )
            return ChainResult(steps, False, reason=reason)
        try:
            current = result.transformed.as_ito_system()
        except Exception as err:  # noqa: BLE001 - diagnostic path
            return ChainResult(steps, False, reason=str(err))
        nxt = generators[idx + 1]
        if nxt.noise is None and cov.direction == "old_to_new":
            try:
                generators[idx + 1] = pushforward_standard(nxt, cov)
            except ReductionError as err:
                return ChainResult(steps, False, reason=str(err))
        else:
            return ChainResult(
                steps,
                False,
                reason=(
                    "cannot re-express the next generator through this change "
                    "of variables"
                ),
            )
    return ChainResult(steps, True)


# ---------------------------------------------------------------------------
# direct integration of state-free scalar equations


@dataclass
class SolutionForm:
    """x(t) = x0 + int F(s, w(s)) ds + sum_k int S_k(s, w(s)) dw^k(s),
    with state-free integrands; evaluable along any discretized path."""

    ctx: Context
    drift: Expr
    noises: Vector

    def to_dict(self) -> dict:
        return {
            "drift": to_string(self.drift),
            "noises": [to_string(e) for e in self.noises],
        }


def integrate_scalar(
    gsde: GeneralSDE, config: Optional[ZeroTestConfig] = None
) -> SolutionForm:
    # coefficients reported in the old variables are fine here: once the
    # state-independence below is certified they only involve (t, w) and
    # therefore coincide with the new-variable coefficients
    config = config or ZeroTestConfig()
    if gsde.ctx.n != 1:
        raise ReductionError("direct integration applies to scalar equations")
    labels = ["drift"] + [f"noise[{k+1}]" for k in range(gsde.ctx.m)]
    verdicts = gsde.coefficient_dependence(state(1), config)
    bad = [label for label, v in zip(labels, verdicts) if not v.is_zero]
    if bad:
        raise ReductionError(f"coefficients still depend on the state: {bad}")
    return SolutionForm(gsde.ctx, gsde.F[0], gsde.S[0])
