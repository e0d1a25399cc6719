"""Benchmark of sdesym: one workload, several fresh-interpreter repetitions.

    python3 bench/run.py --workload symbolic|ensemble|validate --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One client runs the workload's fixed inputs serially in a closed
loop, each repetition in a fresh interpreter (``bench/worker.py``), for
about ``--seconds`` and at least three repetitions.  Every metric is the
median over repetitions.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced repetitions and prints the per-layer metrics,
the tracing overhead, and checks that traced repetitions reproduce the
untraced verdicts and output digest bit for bit.

The last line of standard output is the JSON result; the line before it
records the machine, the versions, the seed and the per-repetition samples.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"
MIN_REPS = 3
MAX_REPS = 40
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def run(cmd: list, deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError("out of time before the repetitions were done")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"did not finish in time: {' '.join(cmd)}") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return proc.stdout.strip().splitlines()[-1]


def run_worker(workload: str, seed: int, deadline: float, trace: bool = False) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    return json.loads(run(cmd, deadline))


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
    }


def median(reps: list, value_of) -> float:
    """Median over repetitions."""
    return statistics.median(value_of(r) for r in reps)


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def check_consistency(reps: list) -> int:
    """Failed items over all repetitions.  A repetition whose verdicts or
    output digest differ from the first one fails as a whole."""
    ref = reps[0]
    ref_key = ([i["verdict"] for i in ref["items"]], ref["digest"])
    failed = 0
    for rep in reps:
        key = ([i["verdict"] for i in rep["items"]], rep["digest"])
        if key != ref_key:
            print(f"error: a {'traced' if 'layers' in rep else 'untraced'} repetition "
                  "differs from the first in verdicts or output digest", file=sys.stderr)
            failed += len(rep["items"])
        else:
            failed += sum(not i["ok"] for i in rep["items"])
    return failed


def end_to_end(plain: list, correct_frac: float) -> dict:
    return {
        "setup_s": median(plain, lambda r: r["setup_s"]),
        "wall_s": median(plain, lambda r: r["wall_s"]),
        "verdict_p50_ms": median(plain, lambda r: statistics.median(i["ms"] for i in r["items"])),
        "verdict_p90_ms": median(plain, lambda r: p90([i["ms"] for i in r["items"]])),
        "peak_rss_mb": median(plain, lambda r: r["peak_rss_mb"]),
        "correct_frac": correct_frac,
    }


def per_layer(plain: list, traced: list) -> dict:
    out = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        out[name] = -1 if -1 in values else statistics.median(values)  # -1: unmeasured
    wall = median(plain, lambda r: r["wall_s"])
    out["setup.import_s"] = median(plain, lambda r: r["import_s"])
    out["setup.load_model_s"] = median(plain, lambda r: r["load_model_s"])
    out["trace.overhead_frac"] = median(traced, lambda r: r["wall_s"]) / wall - 1.0
    out["trace.unmeasured_layers"] = len(traced[0]["unmeasured"])
    out["path_steps_per_s"] = plain[0]["path_steps"] / wall
    return out


def self_time_within_wall(traced: list) -> bool:
    ok = True
    for r in traced:
        total = sum(v for k, v in r["layers"].items() if k.endswith(".self_s") and v > 0)
        if total > r["wall_s"] * (1.0 + 1e-9):
            print(f"error: self times sum to {total:.4f} s, over the traced wall "
                  f"time {r['wall_s']:.4f} s", file=sys.stderr)
            ok = False
    return ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "sdesym" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    compileall.compile_dir(ROOT / "src", quiet=1)
    try:
        window = time.monotonic()
        plain, traced = [], []
        while True:
            plain.append(run_worker(args.workload, args.seed, deadline))
            if args.trace:
                traced.append(run_worker(args.workload, args.seed, deadline, trace=True))
            # stop before a repetition that would end past the window
            spent = time.monotonic() - window
            next_ends = spent * (len(plain) + 1) / len(plain)
            if (len(plain) >= MIN_REPS and next_ends > args.seconds) or len(plain) >= MAX_REPS:
                break
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    reps = plain + traced
    attempted = sum(len(r["items"]) for r in reps)
    failed = check_consistency(reps)
    correct = failed == 0
    if args.trace:
        correct &= self_time_within_wall(traced)
        values = per_layer(plain, traced)
    else:
        values = end_to_end(plain, 1.0 - failed / attempted)

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"error: the benchmark computes no metric {m['name']!r}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_info(),
        "versions": plain[0]["versions"],
        "repetitions": len(plain),
        "traced_repetitions": len(traced),
        "items_per_repetition": len(plain[0]["items"]),
        "wall_s": [r["wall_s"] for r in plain],
        "traced_wall_s": [r["wall_s"] for r in traced],
        "setup_s": [r["setup_s"] for r in plain],
        "failures": [i for r in reps for i in r["items"] if not i["ok"]][:10],
        "unmeasured": traced[0]["unmeasured"] if traced else {},
        "elapsed_s": time.monotonic() - started,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
