"""Deterministic random expression trees for bulk property tests.

Trees stay inside the grammar (no quadrature nodes) and are built so that
evaluation on the default sampling box usually succeeds: log/sqrt/Ei take
1 + (.)^2-shaped arguments.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from sdesym.expr import (
    Apply,
    Const,
    Context,
    Neg,
    ONE,
    Power,
    Var,
    add,
    differentiate,
    mul,
    state,
    TIME,
    wiener,
)


def leaf(rng: np.random.Generator, ctx: Context):
    roll = rng.integers(0, 6)
    if roll == 0:
        return Const(Fraction(int(rng.integers(-3, 4))))
    if roll == 1:
        return Const(Fraction(int(rng.integers(1, 5)), int(rng.integers(2, 5))))
    if roll == 2:
        return Var(state(int(rng.integers(1, ctx.n + 1))))
    if roll == 3:
        return Var(TIME)
    if roll == 4:
        return Var(wiener(int(rng.integers(1, ctx.m + 1))))
    return [Const(Fraction(1, 2)), Var(state(1))][int(rng.integers(0, 2))] if ctx.n else ONE


def neg_or_fold(e):
    # the grammar cannot express Neg around a literal: unary minus folds
    if isinstance(e, Const):
        return Const(-e.value)
    return Neg(e)


def random_tree(rng: np.random.Generator, ctx: Context, depth: int):
    if depth <= 0 or rng.uniform() < 0.25:
        return leaf(rng, ctx)
    roll = int(rng.integers(0, 7))
    if roll == 0:
        k = int(rng.integers(2, 4))
        return add(*(random_tree(rng, ctx, depth - 1) for _ in range(k)))
    if roll == 1:
        k = int(rng.integers(2, 4))
        return mul(*(random_tree(rng, ctx, depth - 1) for _ in range(k)))
    if roll == 2:
        expo = int(rng.choice([-2, -1, 2, 3]))
        return Power(random_tree(rng, ctx, depth - 1), Const(Fraction(expo)))
    if roll == 3:
        return neg_or_fold(random_tree(rng, ctx, depth - 1))
    if roll == 4:
        return Apply("exp", mul(Const(Fraction(1, 4)), random_tree(rng, ctx, depth - 1)))
    if roll == 5:
        fn = str(rng.choice(["sin", "cos", "arctan"]))
        return Apply(fn, random_tree(rng, ctx, depth - 1))
    fn = str(rng.choice(["log", "sqrt", "Ei"]))
    inner = add(ONE, Power(leaf(rng, ctx), Const(2)))
    return Apply(fn, inner)


def sample_point(rng: np.random.Generator, ctx: Context):
    point = {}
    for i in range(1, ctx.n + 1):
        point[state(i)] = float(rng.uniform(0.4, 2.0))
    point[TIME] = float(rng.uniform(0.1, 2.0))
    for k in range(1, ctx.m + 1):
        point[wiener(k)] = float(rng.uniform(-1.5, 1.5))
    return point


def hostile_point(rng: np.random.Generator, ctx: Context):
    """A point off the sampling box: each coordinate is 0, negative or large,
    so that poles and overflow occur."""
    return {v: float(rng.choice([0.0, -1.0, -30.0, 40.0, 900.0])) for v in ctx.all_vars()}


def oracle_cases(seed: int, count: int, ctx: Context):
    """``count`` trees of depth <= 4, each with three sampling-box points and
    one hostile point (points keyed by VarId)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        e = random_tree(rng, ctx, 4)
        points = [sample_point(rng, ctx) for _ in range(3)] + [hostile_point(rng, ctx)]
        yield e, points


SIMPLIFY_CONTEXTS = ((1, 1), (2, 1), (2, 2), (3, 2))


def simplify_cases(seed: int, count: int, contexts=SIMPLIFY_CONTEXTS):
    """``count`` trees: base trees of depth 3-6, cycling through
    ``contexts``, each followed by its x1-derivative and by its product and
    sum with a second tree of the same context."""
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        ctx = Context(*contexts[(made // 4) % len(contexts)])
        depth = int(rng.integers(3, 7))
        e = random_tree(rng, ctx, depth)
        f = random_tree(rng, ctx, depth)
        yield from (e, differentiate(e, state(1)), mul(e, f), add(e, f))[: count - made]
        made += 4
