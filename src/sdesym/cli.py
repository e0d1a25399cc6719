"""Command-line front end.

Subcommands: check (classify + verify candidate fields), convert (switch
calculus), integrate (scalar symmetry-adapted integration with Monte Carlo
cross-check), reduce (sequential reduction), simulate (path ensembles with
CSV/JSON output), examples (regression run over the bundled models).

Exit codes: 0 success, 1 usage/parse error (argparse rejections, bad option
values, unreadable models, and fields or changes of variables a command
cannot use, each reported as one ``error:`` line), 2 verdict failure in
``examples``, 3 inconclusive result under --strict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from importlib import resources
from pathlib import Path
from typing import List, Optional

from . import montecarlo as mc
from .expr import ExprSyntaxError, ZeroTestConfig, to_string
from .modelfile import ModelBundle, ModelFileError, load_model, render_system
from .reduction import (
    ChangeOfVariables,
    ReductionError,
    compatibility_check,
    integrate_scalar,
    integrating_variable,
    reduce_sequence,
    reduce_step,
    rotation_adapted_cov,
    scaling_adapted_cov,
)
from .sde import ItoSystem, other_form
from .symmetry import LinearW, SymmetryError, classify, compare_calculi, residuals

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERDICT = 2
EXIT_INCONCLUSIVE = 3


def model_dir() -> Path:
    return Path(resources.files("sdesym") / "models")


def bundled_model(name: str) -> Path:
    path = model_dir() / f"{name}.model"
    if not path.exists():
        raise ModelFileError(f"no bundled model named {name!r}")
    return path


def _resolve_model(arg: str) -> ModelBundle:
    path = Path(arg)
    if not path.exists() and not arg.endswith(".model"):
        path = model_dir() / f"{arg}.model"
    return load_model(path)


def _config_for(bundle: ModelBundle, args) -> ZeroTestConfig:
    return ZeroTestConfig(box=bundle.box, tol=args.tol, seed=args.seed)


def _report_meta(bundle: ModelBundle, args, config: ZeroTestConfig) -> dict:
    return {
        "model": str(bundle.path),
        "model_sha256": bundle.sha256,
        "seed": args.seed,
        "tolerance": config.tol,
        "zero_test_points": config.points,
    }


def _emit(payload: dict, args) -> None:
    if getattr(args, "json", False):
        print(json.dumps(_finite(payload), indent=2, default=str, allow_nan=False))
    else:
        _print_human(payload)


def _finite(value):
    """``value`` with NaN and infinities as None: they are not JSON (a mean
    difference has no SE over fewer than two kept paths, and is infinitely
    many SE when the SE is zero)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def _print_human(payload: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _print_human(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for item in value:
                _print_human(item, indent + 1)
                print()
        else:
            print(f"{pad}{key}: {value}")


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    bundle = _resolve_model(args.model)
    config = _config_for(bundle, args)
    names = args.field or bundle.field_names()
    from .sde import sigma_rank_info

    report = {"meta": _report_meta(bundle, args, config), "fields": []}
    report["meta"]["diffusion_rank"] = sigma_rank_info(
        bundle.system, box=bundle.box, seed=args.seed
    )
    forms = {form.calculus: form for form in (bundle.system, other_form(bundle.system))}
    ito_sys, strat_sys = forms["ito"], forms["stratonovich"]
    worst = EXIT_OK
    for name in names:
        if name not in bundle.vectorfields:
            print(f"error: no vector field named {name!r} in the model", file=sys.stderr)
            return EXIT_USAGE
        X = bundle.vectorfields[name]
        entry = {"name": name}
        entry["classification"] = classify(X, bundle.system, config).to_dict()
        try:
            ito_rep = residuals(X, ito_sys, config, force=args.force)
            strat_rep = residuals(X, strat_sys, config, force=args.force)
            entry["ito"] = ito_rep.to_dict()
            entry["stratonovich"] = strat_rep.to_dict()
            if isinstance(X.noise, LinearW):
                agreement = compare_calculi(X, ito_rep, strat_rep, bundle.system, config)
                entry["agreement"] = agreement.to_dict()
        except SymmetryError as err:
            entry["error"] = str(err)
        report["fields"].append(entry)
        for calc in ("ito", "stratonovich"):
            if entry.get(calc, {}).get("verdict") == "inconclusive":
                worst = max(worst, EXIT_INCONCLUSIVE)
    _emit(report, args)
    if args.strict and worst == EXIT_INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# ---------------------------------------------------------------------------
# convert


def cmd_convert(args) -> int:
    bundle = _resolve_model(args.model)
    converted = other_form(bundle.system)
    if args.json:
        print(
            json.dumps(
                {
                    "model": str(bundle.path),
                    "model_sha256": bundle.sha256,
                    "type": converted.calculus,
                    "drift": [to_string(e) for e in converted.drift],
                    "sigma": [[to_string(e) for e in row] for row in converted.sigma],
                },
                indent=2,
            )
        )
    else:
        print(render_system(converted), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# integrate


def cmd_integrate(args) -> int:
    if args.paths == 1 or args.paths < 0:
        # the cross-check compares two sample means: it needs two paths
        print("error: --paths must be 0 (no cross-check) or at least 2", file=sys.stderr)
        return EXIT_USAGE
    bundle = _resolve_model(args.model)
    config = _config_for(bundle, args)
    if bundle.system.calculus != "ito":
        print("error: integrate expects an Ito model", file=sys.stderr)
        return EXIT_USAGE
    sys_ito: ItoSystem = bundle.system
    if sys_ito.ctx.n != 1:
        print("error: direct integration applies to scalar models", file=sys.stderr)
        return EXIT_USAGE
    if not args.field:
        print("error: --field is required", file=sys.stderr)
        return EXIT_USAGE
    if len(args.field) > 1 or len(args.cov or []) > 1:
        print("error: integrate takes one --field and at most one --cov", file=sys.stderr)
        return EXIT_USAGE
    name = args.field[0]
    if name not in bundle.vectorfields:
        print(f"error: no vector field named {name!r}", file=sys.stderr)
        return EXIT_USAGE
    X = bundle.vectorfields[name]

    cov: Optional[ChangeOfVariables] = None
    if args.cov:
        cov = _resolve_cov(bundle, args.cov[0])
    else:
        variable = integrating_variable(X.phi[0], sys_ito.ctx)
        cov = ChangeOfVariables(sys_ito.ctx, (variable,))

    step = reduce_step(sys_ito, X, cov, config)
    form = integrate_scalar(step.transformed, config)

    report = {
        "meta": _report_meta(bundle, args, config),
        "field": name,
        "new_variable": to_string(cov.new_coordinates()[0]),
        "step": step.to_dict(),
        "solution_form": form.to_dict(),
    }
    if X.noise is None:
        report["compatibility"] = compatibility_check(sys_ito, X.phi[0], config).to_dict()

    if args.paths > 0:
        check = mc.pipeline_crosscheck(
            sys_ito, cov, form, args.x0, args.horizon, args.dt, args.paths, args.seed
        )
        report["monte_carlo"] = {
            "paths": int(args.paths),
            "dt": args.dt,
            "horizon": args.horizon,
            **asdict(check),
            "pass": check.verdict == "pass",
        }
    _emit(report, args)
    return EXIT_OK


def _resolve_cov(bundle: ModelBundle, spec: str) -> ChangeOfVariables:
    if spec == "builtin:scaling":
        return scaling_adapted_cov(bundle.ctx)
    if spec == "builtin:rotation":
        return rotation_adapted_cov(bundle.ctx)
    if spec not in bundle.covs:
        raise ModelFileError(f"no change of variables named {spec!r}")
    return bundle.covs[spec]


# ---------------------------------------------------------------------------
# reduce


def cmd_reduce(args) -> int:
    bundle = _resolve_model(args.model)
    config = _config_for(bundle, args)
    if bundle.system.calculus != "ito":
        print("error: reduce expects an Ito model", file=sys.stderr)
        return EXIT_USAGE
    if not args.field:
        print("error: at least one --field is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        fields = [bundle.vectorfields[name] for name in args.field]
    except KeyError as err:
        print(f"error: no vector field named {err}", file=sys.stderr)
        return EXIT_USAGE
    if len(args.cov or []) > len(fields):
        print("error: reduce takes no more --cov flags than --field flags", file=sys.stderr)
        return EXIT_USAGE
    covs = [_resolve_cov(bundle, name) for name in args.cov or []]
    while len(covs) < len(fields):
        covs.append(scaling_adapted_cov(bundle.ctx))
    if len(fields) == 1:
        result = reduce_step(bundle.system, fields[0], covs[0], config)
        payload = {"meta": _report_meta(bundle, args, config), "step": result.to_dict()}
    else:
        chain = reduce_sequence(bundle.system, fields, covs, config)
        payload = {"meta": _report_meta(bundle, args, config), "chain": chain.to_dict()}
    _emit(payload, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    if args.paths < 1:
        print("error: --paths must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    bundle = _resolve_model(args.model)
    x0 = args.x0_list or [args.x0] * bundle.ctx.n
    if len(x0) != bundle.ctx.n:
        print(f"error: need {bundle.ctx.n} initial values", file=sys.stderr)
        return EXIT_USAGE
    if not all(map(math.isfinite, x0)):
        print(f"error: the start x0 = {', '.join(map(str, x0))} is not finite", file=sys.stderr)
        return EXIT_USAGE
    if args.csv_out:  # a path that cannot be written is refused before the run
        existed = os.path.lexists(args.csv_out)
        try:
            open(args.csv_out, "a").close()  # appending changes no file
        except OSError as err:
            print(f"error: cannot write {args.csv_out}: {err.strerror}", file=sys.stderr)
            return EXIT_USAGE
        if not existed:
            os.remove(args.csv_out)
    integrate = mc.euler_maruyama if bundle.system.calculus == "ito" else mc.heun_stratonovich
    # the report reads only x, so the Wiener history is not recorded
    ens = integrate(bundle.system, x0, T=args.horizon, dt=args.dt, n_paths=args.paths, seed=args.seed,
                    wiener=False)
    stats = mc.ensemble_stats(ens)
    csv_text = stats.to_csv()
    if args.csv_out:
        try:
            Path(args.csv_out).write_text(csv_text)
        except OSError as err:
            print(f"error: cannot write {args.csv_out}: {err.strerror}", file=sys.stderr)
            return EXIT_USAGE
    payload = {
        "meta": {
            "model": str(bundle.path),
            "model_sha256": bundle.sha256,
            "scheme": ens.scheme,
            "seed": args.seed,
            "dt": args.dt,
            "horizon": args.horizon,
            "paths": args.paths,
            "x0": x0,
        },
        "excluded_fraction": ens.excluded_fraction,
        "terminal_mean": stats.mean[-1].tolist(),
        "terminal_var": stats.var[-1].tolist(),
        "terminal_se": stats.se[-1].tolist(),
    }
    _emit(payload, args)
    if not args.json and not args.csv_out:
        print(csv_text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# examples (regression over the bundled models)


def _run_examples(only: Optional[str], seed: int, tol: float):
    from .examples import REGISTRY, run_case

    names = [only] if only else list(REGISTRY)
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        raise ModelFileError(f"unknown example name(s): {unknown}; known: {list(REGISTRY)}")
    results = []
    for name in names:
        results.append(run_case(name, seed=seed, tol=tol))
    return results


def cmd_examples(args) -> int:
    results = _run_examples(args.only, args.seed, args.tol)
    payload = {
        "seed": args.seed,
        "tolerance": args.tol,
        "results": [r.to_dict() for r in results],
    }
    if args.json:
        _emit(payload, args)
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            print(f"{r.name:<{width}}  {r.status.upper():<12} {r.detail}")
    if any(r.status == "fail" for r in results):
        return EXIT_VERDICT
    if args.strict and any(r.status == "inconclusive" for r in results):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# ---------------------------------------------------------------------------


def _positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def _numbers(text: str) -> List[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdesym",
        description=(
            "Verify deterministic, random and Wiener-acting symmetries of "
            "Ito systems, convert between the Ito and Stratonovich calculi, "
            "integrate and reduce by symmetry-adapted variables, and "
            "validate everything with Monte Carlo simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags several subcommands share; each subcommand takes those its handler reads
    shared = {
        "--model": dict(required=True, help="model file path or bundled model name"),
        "--seed": dict(type=int, default=0),
        "--tol": dict(type=_positive, default=1e-9, help="zero-test tolerance"),
        "--json": dict(action="store_true", help="emit a JSON report"),
        "--strict": dict(action="store_true", help="inconclusive results exit 3"),
    }

    def command(name, func, help, flags):
        p = sub.add_parser(name, help=help)
        for flag in flags.split():
            p.add_argument(flag, **shared[flag])
        p.set_defaults(func=func)
        return p

    p = command("check", cmd_check, "classify and verify candidate symmetry fields",
                "--model --seed --tol --json --strict")
    p.add_argument("--field", action="append", help="field name (repeatable; default: all)")
    p.add_argument("--force", action="store_true", help="analyze conformally rejected Wiener actions")

    command("convert", cmd_convert, "convert between Ito and Stratonovich forms", "--model --json")

    p = command("integrate", cmd_integrate, "scalar symmetry integration with cross-check",
                "--model --seed --tol --json")
    p.add_argument("--field", action="append", required=False)
    p.add_argument("--cov", action="append", help="change-of-variables name or builtin:scaling")
    p.add_argument("--x0", type=float, default=1.0)
    p.add_argument("--dt", type=_positive, default=1e-3)
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--horizon", type=_positive, default=1.0)

    p = command("reduce", cmd_reduce, "reduce by one or more symmetries", "--model --seed --tol --json")
    p.add_argument("--field", action="append", required=False)
    p.add_argument("--cov", action="append", help="cov names, or builtin:scaling / builtin:rotation")

    p = command("simulate", cmd_simulate, "simulate the model and dump statistics", "--model --seed --json")
    p.add_argument("--x0", type=float, default=1.0, help="initial value for every component")
    p.add_argument("--x0-list", dest="x0_list", type=_numbers, help="comma-separated initial state")
    p.add_argument("--dt", type=_positive, default=1e-3)
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--horizon", type=_positive, default=1.0)
    p.add_argument("--csv-out", dest="csv_out", help="write the t/mean/var/se table here")

    p = command("examples", cmd_examples, "run the bundled regression suite", "--seed --tol --json --strict")
    p.add_argument("--only", help="run a single named case")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as done:  # argparse exits 0 after --help, 2 on a bad command line
        return EXIT_OK if done.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except (ModelFileError, ExprSyntaxError, ReductionError, SymmetryError, mc.FlowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
