"""Probabilistic-plus-structural zero testing.

A residual expression is declared Zero either structurally (it simplifies
to the literal 0) or by sampling: the expression is evaluated at scrambled
Sobol points inside a box that avoids the singular loci of the bundled
models, and every value must stay below a tolerance scaled by the local
cancellation-free magnitude.  A single decisive sample point yields NonZero
with a witness; too many evaluation failures yield Inconclusive.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np
from scipy.stats import qmc

from .evaluate import Kernel
from .nodes import Const, Context, Expr, Neg, VarId, VarKind, add, free_params, free_vars
from .simplify import simplify

DEFAULT_TOL = 1e-9
DEFAULT_POINTS = 64

Interval = Tuple[float, float]


@dataclass(frozen=True)
class SamplingBox:
    """Per-variable sampling intervals for zero tests.

    Defaults keep state variables away from 0 (power-law and 1/x
    coefficients), Wiener variables in a symmetric band, and time positive.
    """

    state: Interval = (0.4, 2.0)
    wiener: Interval = (-1.5, 1.5)
    time: Interval = (0.1, 2.0)
    param: Interval = (0.4, 2.0)
    state_overrides: Mapping[int, Interval] = field(default_factory=dict)
    wiener_overrides: Mapping[int, Interval] = field(default_factory=dict)
    param_overrides: Mapping[str, Interval] = field(default_factory=dict)

    def for_var(self, v: VarId) -> Interval:
        if v.kind is VarKind.STATE:
            return self.state_overrides.get(v.index, self.state)
        if v.kind is VarKind.WIENER:
            return self.wiener_overrides.get(v.index, self.wiener)
        return self.time

    def for_param(self, name: str) -> Interval:
        return self.param_overrides.get(name, self.param)


@dataclass(frozen=True)
class ZeroTestConfig:
    box: SamplingBox = SamplingBox()
    tol: float = DEFAULT_TOL
    points: int = DEFAULT_POINTS
    seed: int = 0


@dataclass
class ZeroVerdict:
    status: str  # 'zero' | 'nonzero' | 'inconclusive'
    mode: str  # 'structural' | 'sampled'
    witness_point: Optional[Dict[str, float]] = None
    witness_value: Optional[float] = None
    max_abs: float = 0.0
    points_evaluated: int = 0
    failures: int = 0
    tol: float = DEFAULT_TOL

    @property
    def is_zero(self) -> bool:
        return self.status == "zero"

    @property
    def is_nonzero(self) -> bool:
        return self.status == "nonzero"

    def to_dict(self) -> dict:
        out = {
            "status": self.status,
            "mode": self.mode,
            "max_abs": self.max_abs,
            "points_evaluated": self.points_evaluated,
            "failures": self.failures,
            "tol": self.tol,
        }
        if self.witness_point is not None:
            out["witness_point"] = self.witness_point
            out["witness_value"] = self.witness_value
        return out


def all_zero(verdicts: Iterable[ZeroVerdict]) -> Optional[bool]:
    """One reading of a set of zero tests: False if any is nonzero (a
    witness decides), else None if any is inconclusive, else True."""
    verdicts = list(verdicts)
    if any(v.is_nonzero for v in verdicts):
        return False
    if any(v.status == "inconclusive" for v in verdicts):
        return None
    return True


def is_identically_zero(
    e: Expr,
    ctx: Context,
    config: Optional[ZeroTestConfig] = None,
) -> ZeroVerdict:
    config = config or ZeroTestConfig()
    s = simplify(e)
    if isinstance(s, Const):
        if not s.value:
            return ZeroVerdict("zero", "structural", tol=config.tol)
        value = float(s.value)
        # a literal constant is still judged against the tolerance: float
        # plumbing (e.g. fitted coefficients) can leave 1e-16-sized residues
        if abs(value) > config.tol * (1.0 + abs(value)):
            return ZeroVerdict(
                "nonzero",
                "structural",
                witness_point={},
                witness_value=value,
                max_abs=abs(value),
                tol=config.tol,
            )
        return ZeroVerdict(
            "zero", "sampled", max_abs=abs(value), points_evaluated=1, tol=config.tol
        )

    variables = sorted(free_vars(s), key=lambda v: (v.kind.value, v.index))
    unbound = sorted(name for name in free_params(s) if name not in ctx.params)
    intervals = [config.box.for_var(v) for v in variables]
    intervals += [config.box.for_param(name) for name in unbound]
    points = _sample_points(len(intervals), config.points, config.seed)
    columns = [lo + (hi - lo) * points[:, i] for i, (lo, hi) in enumerate(intervals)]
    kernel = Kernel([s], variables + unbound, ctx.params, magnitudes=[s])
    (values, magnitudes), failed = kernel.strict(columns)

    # lanes in sampling order; the first decisive one stops the test
    failures = 0
    evaluated = 0
    max_abs = 0.0
    lanes = zip(values.tolist(), magnitudes.tolist(), failed.tolist())
    for lane, (value, magnitude, bad) in enumerate(lanes):
        if bad:
            failures += 1
            continue
        evaluated += 1
        max_abs = max(max_abs, abs(value))
        if abs(value) > config.tol * (1.0 + magnitude):
            names = [v.name for v in variables] + unbound
            return ZeroVerdict(
                "nonzero",
                "sampled",
                witness_point={name: float(col[lane]) for name, col in zip(names, columns)},
                witness_value=value,
                max_abs=max_abs,
                points_evaluated=evaluated,
                failures=failures,
                tol=config.tol,
            )
    if failures > config.points // 2:
        return ZeroVerdict(
            "inconclusive",
            "sampled",
            points_evaluated=evaluated,
            failures=failures,
            max_abs=max_abs,
            tol=config.tol,
        )
    return ZeroVerdict(
        "zero",
        "sampled",
        points_evaluated=evaluated,
        failures=failures,
        max_abs=max_abs,
        tol=config.tol,
    )


@functools.lru_cache(maxsize=256)
def _sample_points(dim: int, count: int, seed: int) -> np.ndarray:
    """Scrambled Sobol points in [0, 1)^dim; the arguments repeat across
    zero tests, so each set is built once and shared read-only."""
    if dim == 0:
        points = np.zeros((1, 0))
    else:
        points = qmc.Sobol(d=dim, scramble=True, seed=seed).random(count)
    points.setflags(write=False)
    return points


def expressions_equal(
    a: Expr,
    b: Expr,
    ctx: Context,
    config: Optional[ZeroTestConfig] = None,
) -> ZeroVerdict:
    """Zero test of a - b: sampled equality of two expressions."""
    return is_identically_zero(add(a, Neg(b)), ctx, config)
