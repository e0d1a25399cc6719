#!/usr/bin/env python3
"""Check that one simplification pass reaches its own fixpoint.

``simplify`` runs a single ``_simplify`` pass per cache miss, so every
rewrite rule must return a tree that one more pass leaves unchanged.  This
probe simplifies a seeded corpus of generated trees (``tests/treegen.py``:
base trees of depth 3-6 over four contexts, with their x1-derivatives,
products and sums) and runs one more pass after every pass, subtrees and
intermediate results included.  It prints each pass that changed a tree
and exits 1 if any did.

    python scripts/simplify_fixpoint_probe.py [--seed 12345] [--trees 19600]
"""

import argparse
import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from sdesym.expr import differentiate, to_string  # noqa: E402
from treegen import simplify_cases  # noqa: E402


def probe(seed: int, trees: int):
    """Return (passes, changed): the number of simplification passes run on
    the corpus and the (input, one pass, second pass) triples that differ."""
    module = importlib.import_module("sdesym.expr.simplify")
    raw = module._simplify
    passes = 0
    changed = []

    def confirmed(e):
        nonlocal passes
        out = raw(e)
        again = raw(out)
        passes += 1
        if again != out:
            changed.append((e, out, again))
        return out

    # start cold: a cached result (or a cached derivative, which is
    # simplified) would skip the passes that built it
    module._cache.clear()
    differentiate.cache_clear()
    module._simplify = confirmed
    try:
        for tree in simplify_cases(seed, trees):
            module.simplify(tree)
    finally:
        module._simplify = raw
        module._cache.clear()
        differentiate.cache_clear()
    return passes, changed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--trees", type=int, default=19600)
    args = parser.parse_args(argv)
    passes, changed = probe(args.seed, args.trees)
    for e, out, again in changed:
        print(f"{to_string(e)}\n  one pass:  {to_string(out)}\n  two passes: {to_string(again)}")
    print(f"{len(changed)} of {passes} passes over {args.trees} trees (seed {args.seed}) were not fixpoints")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
