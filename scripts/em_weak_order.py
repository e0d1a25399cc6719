#!/usr/bin/env python3
"""Weak-order study for the explicit Ito scheme on the linear test problem.

The same fine Brownian increments are aggregated across step sizes, so the
Monte Carlo noise cancels in the Richardson differences and the observed
order is sharp even at moderate path counts.

    python scripts/em_weak_order.py [--paths 20000] [--seed 77]
"""

import argparse
import math

import numpy as np

from sdesym.montecarlo import Increments


def run(paths: int, seed: int) -> None:
    lam, mu, fine_dt, fine_steps = -1.0, 0.1, 1e-3, 1000
    increments = Increments(seed, paths, 1, fine_dt)
    fine = np.empty((fine_steps, paths))
    for s in range(fine_steps):
        fine[s] = increments.step(s)[:, 0]

    def em_mean(factor: int) -> float:
        dt = fine_dt * factor
        steps = fine_steps // factor
        incs = fine.reshape(steps, factor, paths).sum(axis=1)
        x = np.ones(paths)
        for s in range(steps):
            x = x + lam * x * dt + mu * incs[s]
        return float(x.mean())

    exact = math.exp(lam)
    means = {f: em_mean(f) for f in (4, 2, 1)}
    print(f"closed-form mean at T=1: {exact:.6f}")
    for f in (4, 2, 1):
        print(f"dt = {fine_dt * f:.0e}:  mean = {means[f]:.6f}  error = {means[f] - exact:+.2e}")
    order = math.log2(abs(means[4] - means[2]) / abs(means[2] - means[1]))
    print(f"observed weak order (Richardson, shared increments): {order:.3f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--paths", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=77)
    args = parser.parse_args()
    run(args.paths, args.seed)
