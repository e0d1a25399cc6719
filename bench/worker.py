"""One repetition of one workload in a fresh interpreter.

    python3 bench/worker.py --workload symbolic --seed 1 [--trace]

Times set-up (``import sdesym.cli`` plus loading the workload's bundled
models), then runs the workload and prints one JSON line: set-up times, wall
time, per-item verdicts and times, the output digest and peak RSS; with
--trace also the per-layer numbers.  Only the standard library is imported
before the set-up clock starts.

The wall time includes importing ``workloads``, which imports every sdesym
module the workload uses, so no import of the program falls outside a timed
window: an import moved out of ``sdesym.cli`` is paid by the workloads that
need it.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Bundled models loaded during set-up, per workload.
SETUP_MODELS = {
    "symbolic": [
        "anisotropic_oscillator_2d",
        "constant_coefficients",
        "counterexample_fields",
        "ei_drift",
        "exp_decay_diffusion",
        "exponential_drift",
        "isotropic_nonlinear_oscillator",
        "isotropic_oscillator_2d",
        "linear_additive",
        "linear_strat_oscillator",
        "power_noise",
    ],
    "ensemble": ["linear_additive"],
    "validate": [
        "linear_additive",
        "constant_coefficients",
        "exp_decay_diffusion",
        "exponential_drift",
    ],
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import sdesym.cli  # the set-up being measured

    import_s = time.perf_counter() - START
    if not Path(sdesym.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported sdesym from {sdesym.__file__}, not {SRC}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    import sdesym.modelfile

    bundles = {
        name: sdesym.modelfile.load_model(sdesym.cli.bundled_model(name))
        for name in SETUP_MODELS[args.workload]
    }
    load_s = time.perf_counter() - t0
    result = {"import_s": import_s, "load_model_s": load_s, "setup_s": import_s + load_s}

    t0 = time.perf_counter()
    import workloads

    result["workloads_import_s"] = time.perf_counter() - t0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as workdir:
        result.update(workloads.WORKLOADS[args.workload](args.seed, bundles, Path(workdir)))
    result["wall_s"] += result["workloads_import_s"]

    import numpy
    import scipy

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.report()
        result["unmeasured"] = tracer.unmeasured()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
