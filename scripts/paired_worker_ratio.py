#!/usr/bin/env python3
"""Paired end-to-end measurement of this checkout against a parent checkout.

    python scripts/paired_worker_ratio.py --parent DIR --workload W --seed N \
        --pairs K [--seconds S] [--record BENCH_n.json]

Runs K pairs, one parent run and one change run per pair, alternating which
of the two goes first.  A run is one ``bench/worker.py --workload W --seed
N`` repetition in a fresh interpreter, or with --seconds one ``bench/run.py
--workload W --seed N --seconds S --trace 0`` run, whose metrics are its
medians over repetitions.

Every end-to-end metric of the change's BENCHMARK.json is reported for each
pair.  From one worker repetition they are computed by the change's own
``bench/run.py``, loaded by path: its ``end_to_end`` over that one
repetition, with ``correct_frac`` from its ``check_consistency``.  For each
metric it then prints each side's median and quartiles, the median
change/parent ratio, and two verdicts:

* gain: the change won at least nine tenths of the pairs (ties count for
  neither side) and its median is better than the parent's by more than
  the distance between the parent's quartiles;
* bound: the change's median is no worse than the parent's by more than the
  metric's bound (relative to the parent's median), or "unresolved" when
  the parent's quartile distance exceeds the bound and not every change run
  beats every parent run.

Worker runs also compare the output digest, the item verdicts and
``path_steps`` of every run.  The last line of standard output is the
result as JSON; with --record it is also stored in that file under the key
``W@N`` (``W@N/Ss`` for --seconds runs) with both commits, beside the
machine and the versions.  Nothing under ``bench/`` is edited.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

CHANGE = Path(__file__).resolve().parents[1]


def load_bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", CHANGE / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = load_bench_run()


def from_worker(rep: dict) -> dict:
    """The end-to-end metrics of one worker repetition, as bench/run.py computes them."""
    failed = BENCH.check_consistency([rep])
    return BENCH.end_to_end([rep], 1.0 - failed / len(rep["items"]))


def last_json(checkout: Path, cmd: list) -> dict:
    proc = subprocess.run([sys.executable, *cmd], cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(checkout: Path, args, metrics: list) -> dict:
    """One run: its metrics, and for a worker run what must match across runs."""
    if args.seconds:
        out = last_json(checkout, ["bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds), "--trace", "0"])
        return {"metrics": {m["name"]: out["metrics"][m["name"]]["value"] for m in metrics},
                "same": {"correct": out["correct"]}}
    rep = last_json(checkout, ["bench/worker.py", "--workload", args.workload, "--seed", str(args.seed)])
    values = from_worker(rep)
    return {"metrics": {m["name"]: values[m["name"]] for m in metrics},
            "same": {"digest": rep["digest"], "verdicts": [i["verdict"] for i in rep["items"]],
                     "path_steps": rep["path_steps"]},
            "versions": rep["versions"]}


def commit(checkout: Path) -> str:
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def compare(parent: list, change: list, better: str, bound: float) -> dict:
    """The paired comparison of one metric; ``sign`` turns "better" into "lower"."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = len(parent)
    p, c = spread(parent), spread(change)
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    losses = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    gap = sign * (p["median"] - c["median"])  # > 0: the change is better
    iqr = p["q3"] - p["q1"]
    scale = abs(p["median"]) or 1.0
    worse = -gap / scale
    if iqr / scale > bound and not all(sign * (b - a) < 0 for a in parent for b in change):
        within = "unresolved"
    else:
        within = "within bound" if worse <= bound else "worse than bound"
    return {
        "parent": p,
        "change": c,
        "values": {"parent": parent, "change": change},
        "ratios": [b / a if a else None for a, b in zip(parent, change)],
        "ratio_median": c["median"] / p["median"] if p["median"] else None,
        "change_wins": wins,
        "parent_wins": losses,
        "median_gap": gap,
        "parent_iqr": iqr,
        "gain": wins >= 0.9 * pairs and gap > iqr,
        "bound": bound,
        "worse_by": worse,
        "bound_verdict": within,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, help="time each side by one bench/run.py run of this length")
    ap.add_argument("--record", type=Path, help="JSON file to store the result in")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    parent = args.parent.resolve()
    metrics = json.loads((CHANGE / "BENCHMARK.json").read_text())["end_to_end"]

    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(measure(parent if side == "parent" else CHANGE, args, metrics))
        p, c = runs["parent"][-1]["metrics"], runs["change"][-1]["metrics"]
        cells = [f"{name} {c[name]:.4g}/{p[name]:.4g}" for name in p]
        print(f"pair {k + 1:2d} ({order[0]} first): " + "  ".join(cells))

    result = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs, "seconds": args.seconds,
              "commits": {"parent": commit(parent), "change": commit(CHANGE)}}
    for m in metrics:
        name = m["name"]
        result[name] = compare([r["metrics"][name] for r in runs["parent"]],
                               [r["metrics"][name] for r in runs["change"]], m["better"], m["bound"])
    same = [r["same"] for side in runs.values() for r in side]
    result["outputs_match"] = all(s == same[0] for s in same)
    result["outputs"] = same[0]

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs"
          f"{f' of {args.seconds:g} s bench runs' if args.seconds else ' of worker runs'}:")
    for m in metrics:
        r = result[m["name"]]
        print(f"  {m['name']:15s} change {r['change']['median']:.4g} vs parent {r['parent']['median']:.4g}"
              f" (quartiles {r['parent']['q1']:.4g}-{r['parent']['q3']:.4g}) {m['unit']};"
              f" won {r['change_wins']}/{args.pairs}, lost {r['parent_wins']};"
              f" ratio median {r['ratio_median']:.3f}; gain {'met' if r['gain'] else 'not met'};"
              f" {r['bound_verdict']} ({r['worse_by']:+.3f} against {m['bound']})")
    print(f"  outputs {'match' if result['outputs_match'] else 'DIFFER'}: {json.dumps(result['outputs'])}")
    print(json.dumps(result))

    if args.record:
        record = json.loads(args.record.read_text()) if args.record.exists() else {}
        record.update({
            "machine": {"nproc": os.cpu_count(), "platform": sys.platform},
            "versions": next((r["versions"] for r in runs["change"] if "versions" in r),
                             record.get("versions", {})),
        })
        key = f"{args.workload}@{args.seed}" + (f"/{args.seconds:g}s" if args.seconds else "")
        record.setdefault("runs", {})[key] = result
        args.record.write_text(json.dumps(record, indent=2) + "\n")
    return 0 if result["outputs_match"] else 1


if __name__ == "__main__":
    sys.exit(main())
