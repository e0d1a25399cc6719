#!/usr/bin/env python3
"""Print one SHA-256 digest per CLI report, for byte-identity checks.

Runs each command below in a fresh interpreter on the checkout that holds
this script (``python -m sdesym.cli`` with that checkout's ``src`` on the
path) and prints one line per command: the digest of stdout, the exit code,
the digest of stderr, and the command.  The bundled model directory is
written as ``<models>`` before hashing, so no line depends on where the
checkout lives.  Run it on two checkouts and diff the outputs:

    python scripts/cli_digest.py > before.txt   # in one checkout
    python scripts/cli_digest.py > after.txt    # in the other
    diff before.txt after.txt

The commands: ``check --force --json`` on every bundled model at
``--seed 0`` and ``--seed 7``, ``examples --json``, two ``reduce --json``
runs with the built-in adapted maps, one with the model file's ``rectify``
map, two ``integrate --json`` runs, and ``simulate`` on
``linear_additive`` (CSV on stdout and ``--json``),
``isotropic_nonlinear_oscillator`` from ``--x0 10`` (2-D, some paths
excluded) at 500 and 20001 paths, ``power_noise`` (some paths
excluded) and ``linear_strat_oscillator`` (Heun) at 2000 and 20000
paths.  Seven commands end in a diagnostic (exit 1): ``simulate --dt 0.3``
and ``integrate --horizon 0.25 --dt 0.1``, whose dt does not divide the
horizon into whole steps; ``integrate`` with two ``--field`` and two
``--cov`` flags; ``reduce`` with more ``--cov`` than ``--field``
flags; ``simulate --csv-out`` into a directory that does not exist; and
``integrate`` from ``--x0 nan`` and ``--x0 inf``.  The last command,
``integrate --json`` on ``exponential_drift`` to ``--horizon 1.0``, is a
cross-check that fails (too many paths excluded) and maps its terminals
back through the numeric inverse; its stderr must stay empty.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODELS = ROOT / "src" / "sdesym" / "models"


def commands():
    for model in sorted(p.stem for p in MODELS.glob("*.model")):
        for seed in ("0", "7"):
            yield ["check", "--model", model, "--force", "--json", "--seed", seed]
    yield ["examples", "--json"]
    yield ["reduce", "--json", "--model", "isotropic_nonlinear_oscillator",
           "--field", "rotation", "--cov", "builtin:rotation"]
    yield ["reduce", "--json", "--model", "linear_additive",
           "--field", "scaling", "--cov", "builtin:scaling"]
    yield ["integrate", "--json", "--model", "exp_decay_diffusion", "--field", "shift"]
    yield ["integrate", "--json", "--model", "exponential_drift", "--field", "random",
           "--x0", "0.0", "--paths", "1500", "--horizon", "0.3"]
    yield ["simulate", "--model", "linear_additive", "--paths", "2000", "--dt", "0.01"]
    yield ["simulate", "--model", "linear_additive", "--paths", "2000", "--dt", "0.01", "--json"]
    yield ["simulate", "--model", "isotropic_nonlinear_oscillator", "--x0", "10",
           "--paths", "500", "--dt", "0.01", "--json"]
    yield ["simulate", "--model", "power_noise", "--paths", "2000", "--dt", "0.01", "--json"]
    yield ["simulate", "--model", "linear_strat_oscillator", "--paths", "2000", "--dt", "0.01", "--json"]
    yield ["simulate", "--model", "isotropic_nonlinear_oscillator", "--x0", "10",
           "--paths", "20001", "--dt", "0.01", "--json"]
    yield ["simulate", "--model", "linear_strat_oscillator", "--paths", "20000", "--dt", "0.01", "--json"]
    yield ["simulate", "--model", "linear_additive", "--paths", "10", "--dt", "0.3"]
    yield ["integrate", "--model", "exp_decay_diffusion", "--field", "shift",
           "--horizon", "0.25", "--dt", "0.1"]
    yield ["reduce", "--json", "--model", "exp_decay_diffusion", "--field", "shift",
           "--cov", "rectify"]
    yield ["integrate", "--model", "exp_decay_diffusion", "--field", "shift",
           "--field", "not_a_symmetry", "--cov", "rectify", "--cov", "nosuch",
           "--paths", "0"]
    yield ["reduce", "--model", "linear_additive", "--field", "scaling",
           "--cov", "builtin:scaling", "--cov", "builtin:scaling"]
    yield ["simulate", "--model", "linear_additive", "--paths", "10", "--dt", "0.1",
           "--csv-out", "/nonexistent/dir/x.csv"]
    for x0 in ("nan", "inf"):
        yield ["integrate", "--model", "exp_decay_diffusion", "--field", "shift",
               "--cov", "rectify", "--paths", "100", "--x0", x0]
    yield ["integrate", "--json", "--model", "exponential_drift", "--field", "random",
           "--x0", "0.0", "--paths", "1500", "--horizon", "1.0"]


def digest(data: bytes) -> str:
    return hashlib.sha256(data.replace(str(MODELS).encode(), b"<models>")).hexdigest()


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in commands():
        done = subprocess.run(
            [sys.executable, "-m", "sdesym.cli", *argv],
            cwd=ROOT, env=env, capture_output=True,
        )
        print(f"{digest(done.stdout)} exit={done.returncode} "
              f"stderr={digest(done.stderr)[:16]} {' '.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
