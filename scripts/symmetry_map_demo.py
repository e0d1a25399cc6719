#!/usr/bin/env python3
"""Finite symmetry maps acting on simulated ensembles.

For the bundled linear model with additive noise, the joint scaling of
states and Wiener paths maps simulated solutions onto solutions driven by
the scaled increments, pathwise to rounding.  A non-symmetry control (the
anisotropic scaling run against the Stratonovich dynamics) fails loudly.
Both runs are the measurements behind the ``validation_runs`` case of
``sdesym examples``.

    python scripts/symmetry_map_demo.py [--paths 20000] [--seed 0]
"""

import argparse

from sdesym.examples import scaling_validation, stratonovich_control


def run(paths: int, seed: int) -> None:
    rep = scaling_validation(0.3, 1.0, paths, seed)
    print(f"joint scaling on the additive-noise model: {rep.verdict}"
          f"  (max mean dev {rep.mean_sigmas.max():.2f} SE, KS {rep.ks.max():.4f})")

    control = stratonovich_control(paths, seed + 1)
    print(f"same field against the Stratonovich dynamics:  {control.verdict}"
          f"  ({control.detail})")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--paths", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    run(args.paths, args.seed)
