#!/usr/bin/env python3
"""Paired end-to-end timing of this checkout against a parent checkout.

    python scripts/paired_worker_ratio.py --parent DIR --workload W --seed N \
        --pairs K [--record BENCH_n.json]

Runs ``bench/worker.py --workload W --seed N`` K times in a fresh
interpreter in each checkout, one parent run and one change run per pair,
alternating which of the two goes first.  For each pair it prints the
change/parent ratio of ``wall_s`` and of ``peak_rss_mb``; then the pairs the
change won on ``wall_s`` (ties count for neither side), each side's median
and quartiles, the median ratios, and whether every run gave the same output
digest.  The last line of standard output is the result as JSON; with
--record it is also stored in that file under the key ``W@N``, beside the
machine, the versions and both commits.  Nothing under ``bench/`` is edited.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

CHANGE = Path(__file__).resolve().parents[1]


def worker(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "bench/worker.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit(checkout: Path) -> str:
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--record", type=Path, help="JSON file to store the result in")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    parent = args.parent.resolve()

    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(worker(parent if side == "parent" else CHANGE, args.workload, args.seed))
        p, c = runs["parent"][-1], runs["change"][-1]
        print(f"pair {k + 1:2d} ({order[0]} first): wall_s {c['wall_s']:.3f} / {p['wall_s']:.3f}"
              f" = {c['wall_s'] / p['wall_s']:.3f}   peak_rss_mb {c['peak_rss_mb']:.1f}"
              f" / {p['peak_rss_mb']:.1f} = {c['peak_rss_mb'] / p['peak_rss_mb']:.4f}")

    result = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs}
    for metric in ("wall_s", "peak_rss_mb"):
        ratios = [c[metric] / p[metric] for p, c in zip(runs["parent"], runs["change"])]
        result[metric] = {
            "parent": spread([r[metric] for r in runs["parent"]]),
            "change": spread([r[metric] for r in runs["change"]]),
            "ratios": ratios,
            "ratio_median": statistics.median(ratios),
            "change_wins": sum(r < 1.0 for r in ratios),
            "parent_wins": sum(r > 1.0 for r in ratios),
        }
    digests = {r["digest"] for side in runs.values() for r in side}
    result["digest"] = digests.pop() if len(digests) == 1 else None
    result["digests_match"] = result["digest"] is not None

    wall = result["wall_s"]
    print(f"{args.workload} seed {args.seed}: change won {wall['change_wins']} of {args.pairs} pairs on"
          f" wall_s; medians {wall['change']['median']:.3f} s (change) vs {wall['parent']['median']:.3f} s"
          f" (parent, quartiles {wall['parent']['q1']:.3f}-{wall['parent']['q3']:.3f});"
          f" ratio median {wall['ratio_median']:.3f}; peak_rss_mb ratio median"
          f" {result['peak_rss_mb']['ratio_median']:.4f}; digests"
          f" {'match' if result['digests_match'] else 'DIFFER'}")
    print(json.dumps(result))

    if args.record:
        record = json.loads(args.record.read_text()) if args.record.exists() else {}
        versions = runs["change"][0].get("versions", {})
        record.update({
            "machine": {"nproc": os.cpu_count(), "platform": sys.platform},
            "versions": versions,
            "commits": {"parent": commit(parent), "change": commit(CHANGE)},
        })
        record.setdefault("runs", {})[f"{args.workload}@{args.seed}"] = result
        args.record.write_text(json.dumps(record, indent=2) + "\n")
    return 0 if result["digests_match"] else 1


if __name__ == "__main__":
    sys.exit(main())
