import argparse
import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdesym
from sdesym import cli
from sdesym.cli import EXIT_INCONCLUSIVE, EXIT_OK, EXIT_USAGE, EXIT_VERDICT, _emit, main, model_dir
from sdesym.examples import REGISTRY, CaseResult, run_case
from sdesym.expr import ONE, parse
from sdesym.modelfile import ModelFileError, load_model
from sdesym.reduction import SolutionForm


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_bundled_model(capsys):
    code, out, _ = run(capsys, "check", "--model", "linear_additive", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["meta"]["model_sha256"]
    field = payload["fields"][0]
    assert field["ito"]["verdict"] == "symmetry"
    assert field["stratonovich"]["verdict"] == "symmetry"
    assert field["agreement"]["agreement"] == "guaranteed"


def test_check_selected_field_and_force(capsys):
    code, out, _ = run(
        capsys, "check", "--model", "isotropic_oscillator_2d",
        "--field", "hyperbolic", "--force", "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    entry = payload["fields"][0]
    assert entry["classification"]["admissible"] is False
    assert entry["ito"]["verdict"] == "symmetry"


def test_check_builds_each_calculus_report_once(capsys, monkeypatch):
    # 4 Wiener-acting fields, one Ito and one Stratonovich report each; the
    # agreement comparison reuses them instead of building its own pair.
    from sdesym import symmetry

    builds = []
    build = symmetry._determining_equations
    monkeypatch.setattr(
        symmetry, "_determining_equations", lambda *a, **k: builds.append(1) or build(*a, **k)
    )
    code, out, _ = run(capsys, "check", "--model", "isotropic_oscillator_2d", "--force", "--json")
    assert code == EXIT_OK
    assert len(json.loads(out)["fields"]) == 4
    assert len(builds) == 8


def test_check_rejected_without_force_reports_error(capsys):
    code, out, _ = run(
        capsys, "check", "--model", "isotropic_oscillator_2d",
        "--field", "hyperbolic", "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert "error" in payload["fields"][0]


def test_check_unknown_field_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "--model", "linear_additive", "--field", "nope")
    assert code == EXIT_USAGE
    assert "nope" in err


def test_check_missing_model_usage_error(capsys):
    code, _, err = run(capsys, "check", "--model", "/does/not/exist.model")
    assert code == EXIT_USAGE


def test_check_bad_dimension_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("[system]\nn = 0\nm = 1\nf1 = x\nsigma_1_1 = 1\n")
    code, _, err = run(capsys, "check", "--model", str(bad))
    assert code == EXIT_USAGE
    assert "error:" in err
    assert "Traceback" not in err


def test_convert_emits_model_text(capsys):
    code, out, _ = run(capsys, "convert", "--model", "power_noise")
    assert code == EXIT_OK
    assert "type = stratonovich" in out
    assert "sigma_1_1" in out


def test_convert_constant_sigma_fixed_point(capsys):
    code, out, _ = run(capsys, "convert", "--model", "linear_additive", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["type"] == "stratonovich"
    assert payload["sigma"] == [["mu"]]


def test_integrate_pipeline(capsys):
    code, out, _ = run(
        capsys, "integrate", "--model", "exp_decay_diffusion",
        "--field", "shift", "--cov", "rectify",
        "--paths", "2000", "--horizon", "0.4", "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["solution_form"]["drift"] == "1"
    assert payload["monte_carlo"]["pass"] is True


def test_integrate_fails_a_noiseless_pipeline_whose_means_differ(tmp_path, capsys):
    # both sides have zero variance: means that differ are an infinite gap
    # (null in JSON), not 0 SE
    model = tmp_path / "decay.model"
    model.write_text(
        "[system]\nn = 1\nm = 1\ntype = ito\nf1 = -x\nsigma_1_1 = 0\n\n"
        "[vectorfield.scaling]\nphi1 = x\n"
    )
    code, out, _ = run(capsys, "integrate", "--model", str(model), "--field", "scaling",
                       "--paths", "50", "--json")
    assert code == EXIT_OK
    check = json.loads(out)["monte_carlo"]
    assert check["terminal_mean_pipeline"] != check["terminal_mean_direct"]
    assert check["difference_se_units"] is None
    assert check["pass"] is False


def test_integrate_numeric_inverse_warns_nothing(capsys):
    # Newton steps that overflow leave the domain: the path is dropped, and
    # no numpy warning reaches stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "integrate", "--json", "--model", "exponential_drift",
                             "--field", "random", "--x0", "0.0", "--paths", "1500",
                             "--horizon", "1.0")
    assert code == EXIT_OK
    assert [str(w.message) for w in caught] == [] and err == ""
    assert json.loads(out)["monte_carlo"]["pass"] is False


def test_integrate_requires_field(capsys):
    code, _, err = run(capsys, "integrate", "--model", "exp_decay_diffusion")
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "field",
    [
        "phi1 = 0",  # no integrating variable: reduction refuses phi = 0
        "phi1 = 1\ntau = 1",  # acts on time: symmetry verification refuses it
    ],
    ids=["zero_phi", "acts_on_time"],
)
def test_integrate_unusable_field_is_a_diagnostic(tmp_path, capsys, field):
    model = tmp_path / "unusable.model"
    model.write_text(
        "[system]\nn = 1\nm = 1\ntype = ito\nf1 = 0\nsigma_1_1 = 1\n\n"
        f"[vectorfield.unusable]\n{field}\n"
    )
    code, out, err = run(
        capsys, "integrate", "--model", str(model), "--field", "unusable", "--paths", "0",
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_integrate_through_a_wiener_map(capsys):
    argv = ["integrate", "--model", "linear_additive", "--field", "scaling",
            "--cov", "builtin:scaling", "--json", "--paths"]
    # the new variable is y = log x; x = e^y is the map's forward component
    code, out, _ = run(capsys, *argv, "0")
    assert code == EXIT_OK
    assert json.loads(out)["new_variable"] == "log(x1)"
    # the cross-check maps x0 forward and the terminals back as a map that fixes w
    code, out, err = run(capsys, *argv, "200")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and "fixes the Wiener variables" in err
    assert len(err.splitlines()) == 1


def test_integrate_refuses_a_form_that_holds_a_state_variable(monkeypatch, capsys):
    # a form that kept x1 (sampled zero tests certify state-freeness, not the
    # tree) is one diagnostic, not an evaluation error from the quadrature
    def stale_form(gsde, config=None):
        ctx = gsde.ctx
        return SolutionForm(ctx, ONE, (parse("exp(x1)/(exp(x1) - w1*exp(x1))", ctx),))

    monkeypatch.setattr(cli, "integrate_scalar", stale_form)
    code, out, err = run(capsys, "integrate", "--model", "exp_decay_diffusion", "--field", "shift",
                         "--cov", "rectify", "--paths", "200", "--json")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and "x1" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("x0", ["nan", "inf", "800"])
def test_integrate_refuses_a_start_the_map_sends_off_to_infinity(capsys, x0):
    # exp(x1) at x0 is refused before any thread draws an increment
    before = threading.active_count()
    code, out, err = run(capsys, "integrate", "--model", "exp_decay_diffusion", "--field", "shift",
                         "--cov", "rectify", "--paths", "100", "--x0", x0)
    assert code == EXIT_USAGE
    assert err.startswith("error:") and f"x0 = {x0}" in err
    assert "Traceback" not in err
    assert threading.active_count() == before


def test_reduce_single_step(capsys):
    code, out, _ = run(
        capsys, "reduce", "--model", "isotropic_nonlinear_oscillator",
        "--field", "rotation", "--cov", "builtin:rotation", "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["step"]["translation_kind"] == "driver"
    assert payload["step"]["coefficients_translation_free"] is True
    assert payload["step"]["transformed"]["ito_like"] is False


def test_reduce_chain_reports_abort(capsys):
    code, out, _ = run(
        capsys, "reduce", "--model", "isotropic_oscillator_2d",
        "--field", "scaling", "--field", "rotation",
        "--cov", "builtin:scaling", "--cov", "builtin:rotation", "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["chain"]["completed"] is False
    assert "Ito" in payload["chain"]["reason"]
    assert len(payload["chain"]["steps"]) == 1


CHAIN_MODEL = """[system]
n = 2
m = 2
type = ito
f1 = 1
f2 = x1
sigma_1_1 = 1
sigma_2_2 = 1

[vectorfield.first]
phi1 = 0
phi2 = 1

[vectorfield.second]
phi1 = 1
phi2 = t

[changeofvars.identity]
phi1 = x1
phi2 = x2
inverse1 = x1
inverse2 = x2

[changeofvars.shear]
phi1 = x1
phi2 = x2 - t*x1
inverse1 = x1
inverse2 = x2 + t*x1
"""


def test_reduce_chain_completes(tmp_path, capsys):
    """dx1 = dt + dw1, dx2 = x1 dt + dw2 reduced by d/dx2, then by
    d/dx1 + t d/dx2 pushed through the first step's map and rectified by
    y2 = x2 - t x1: the intermediate equation is rebuilt as an Ito system."""
    model = tmp_path / "chain.model"
    model.write_text(CHAIN_MODEL)
    code, out, _ = run(
        capsys, "reduce", "--model", str(model), "--field", "first", "--field", "second",
        "--cov", "identity", "--cov", "shear", "--json",
    )
    assert code == EXIT_OK
    chain = json.loads(out)["chain"]
    assert chain["completed"] is True and chain["reason"] == ""
    first, second = (step["result"] for step in chain["steps"])
    assert (first["translation_kind"], first["translation_index"]) == ("state", 1)
    assert (second["translation_kind"], second["translation_index"]) == ("state", 0)
    assert second["symmetry"]["verdict"] == "symmetry"
    assert second["coefficients_translation_free"] is True
    assert second["transformed"]["F"] == ["1", "-1*t"]
    assert second["transformed"]["S"] == [["1", "0"], ["-1*t", "1"]]


def test_simulate_csv_output(tmp_path, capsys):
    target = tmp_path / "stats.csv"
    code, out, _ = run(
        capsys, "simulate", "--model", "linear_additive",
        "--paths", "500", "--horizon", "0.2", "--csv-out", str(target), "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["excluded_fraction"] == 0.0
    header = target.read_text().splitlines()[0]
    assert header == "t,mean_1,var_1,se_1"


def _no_simulation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the simulation ran")

    monkeypatch.setattr(cli.mc, "euler_maruyama", refuse)
    monkeypatch.setattr(cli.mc, "heun_stratonovich", refuse)


def test_simulate_csv_out_to_a_missing_directory_is_a_diagnostic(tmp_path, capsys, monkeypatch):
    # refused before the run, which would otherwise be thrown away
    _no_simulation(monkeypatch)
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "simulate", "--model", "linear_additive", "--paths", "100000",
                         "--csv-out", str(target))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_simulate_csv_out_probe_leaves_no_file_when_the_run_fails(tmp_path, capsys):
    target = tmp_path / "x.csv"
    code, _, err = run(capsys, "simulate", "--model", "linear_additive", "--paths", "10",
                       "--dt", "0.3", "--csv-out", str(target))
    assert code == EXIT_USAGE
    assert err.startswith("error: dt = 0.3")
    assert not target.exists()
    kept = tmp_path / "kept.csv"
    kept.write_text("old table\n")
    run(capsys, "simulate", "--model", "linear_additive", "--paths", "10",
        "--dt", "0.3", "--csv-out", str(kept))
    assert kept.read_text() == "old table\n"


@pytest.mark.parametrize("model, flag, value, shown", [
    ("linear_additive", "--x0", "nan", "x0 = nan"),
    ("linear_additive", "--x0", "-inf", "x0 = -inf"),
    ("isotropic_nonlinear_oscillator", "--x0", "inf", "x0 = inf, inf"),
    ("isotropic_nonlinear_oscillator", "--x0-list", "0.5,nan", "x0 = 0.5, nan"),
])
def test_simulate_refuses_a_start_that_is_not_finite(capsys, monkeypatch, model, flag, value, shown):
    _no_simulation(monkeypatch)
    code, out, err = run(capsys, "simulate", "--model", model, "--paths", "100", f"{flag}={value}")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and shown in err and "not finite" in err
    assert len(err.splitlines()) == 1


def test_simulate_is_deterministic(capsys):
    _, out1, _ = run(
        capsys, "simulate", "--model", "linear_additive", "--paths", "200",
        "--horizon", "0.1", "--json",
    )
    _, out2, _ = run(
        capsys, "simulate", "--model", "linear_additive", "--paths", "200",
        "--horizon", "0.1", "--json",
    )
    assert json.loads(out1) == json.loads(out2)


def test_simulate_all_paths_excluded_is_a_diagnostic(tmp_path, capsys):
    # dx = x^3 dt + dw from x0 = 10 blows up on every path
    model = tmp_path / "cubic.model"
    model.write_text("[system]\nn = 1\nm = 1\ntype = ito\nf1 = x^3\nsigma_1_1 = 1\n")
    code, out, err = run(
        capsys, "simulate", "--model", str(model), "--x0", "10", "--paths", "50",
        "--horizon", "1", "--dt", "0.01", "--json",
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "error:" in err and "excluded" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    # 1 / 0.3 is not whole: the run would end at t = 0.9 labelled horizon 1
    ["simulate", "--model", "linear_additive", "--paths", "10", "--dt", "0.3"],
    # dt beyond the horizon: no step, the initial state reported as terminal
    ["simulate", "--model", "linear_additive", "--paths", "10", "--dt", "2"],
    # the run would stop at 0.2 labelled 0.25
    ["integrate", "--model", "exp_decay_diffusion", "--field", "shift",
     "--horizon", "0.25", "--dt", "0.1", "--paths", "10"],
])
def test_dt_must_divide_the_horizon(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and "whole number of steps" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    # integrate reads one field and at most one change of variables
    ["integrate", "--model", "exp_decay_diffusion", "--field", "shift", "--field", "not_a_symmetry",
     "--cov", "rectify", "--cov", "nosuch", "--paths", "0"],
    # reduce pairs each change of variables with a field
    ["reduce", "--model", "linear_additive", "--field", "scaling",
     "--cov", "builtin:scaling", "--cov", "builtin:scaling"],
], ids=["integrate", "reduce"])
def test_surplus_field_and_cov_flags_are_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and "--cov" in err
    assert len(err.splitlines()) == 1


def test_simulate_memory_is_the_state_history(capsys):
    # the report needs the (K, N, n) state history and no more: no Wiener
    # history of the same size beside it
    tracemalloc.start()
    try:
        code = main(["simulate", "--model", "linear_additive", "--paths", "20000",
                     "--dt", "0.01", "--json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == EXIT_OK
    assert peak < 1.5 * 101 * 20000 * 8


def test_emit_writes_non_finite_floats_as_null(capsys):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    payload = {"se": float("nan"), "bounds": [float("-inf"), 1.5, (float("inf"),)], "n": 3}
    _emit(payload, argparse.Namespace(json=True))
    parsed = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert parsed == {"se": None, "bounds": [None, 1.5, [None]], "n": 3}


def test_examples_single_case(capsys):
    code, out, _ = run(capsys, "examples", "--only", "power_noise")
    assert code == EXIT_OK
    assert "PASS" in out


def test_examples_unknown_name(capsys):
    code, _, err = run(capsys, "examples", "--only", "no_such_case")
    assert code == EXIT_USAGE
    assert "unknown example" in err


def test_examples_failing_case_exits_verdict(capsys, monkeypatch):
    monkeypatch.setitem(REGISTRY, "power_noise", lambda seed, config: CaseResult("power_noise", "fail", "forced"))
    code, out, err = run(capsys, "examples", "--only", "power_noise")
    assert (code, err) == (EXIT_VERDICT, "")
    assert "FAIL" in out


# the examples that are neither Monte Carlo runs nor measured by the
# acceptance criteria 06 (agreement_randomized) and 07 (split_w_property)
SYMBOLIC_EXAMPLES = [
    name for name in REGISTRY
    if name not in {"cross_scheme", "linear_sde_moments", "validation_runs", "integrable_pipelines",
                    "agreement_randomized", "split_w_property"}
]


@pytest.mark.parametrize("name", SYMBOLIC_EXAMPLES)
def test_symbolic_example_passes(name):
    result = run_case(name)
    assert result.status == "pass", result.detail



def test_check_stratonovich_model(capsys):
    code, out, _ = run(capsys, "check", "--model", "linear_strat_oscillator", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    entry = payload["fields"][0]
    # constant sigma: the joint scaling is a symmetry of both forms
    assert entry["ito"]["verdict"] == "symmetry"
    assert entry["stratonovich"]["verdict"] == "symmetry"
    assert payload["meta"]["diffusion_rank"]["full_rank"] is True


def test_integrate_auto_variable_without_inverse(capsys):
    # no --cov: the integrating variable is built from phi and the map-back
    # for the cross-check runs through the damped-Newton numeric inverse
    code, out, _ = run(
        capsys, "integrate", "--model", "exponential_drift",
        "--field", "random", "--x0", "0.0",
        "--paths", "1500", "--horizon", "0.3", "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["step"]["transformed"]["ito_like"] is False
    assert payload["monte_carlo"]["pass"] is True


# ---------------------------------------------------------------------------
# hostile input


@pytest.mark.parametrize(
    "command, paths",
    [("simulate", "0"), ("simulate", "-3"), ("integrate", "1")],
)
def test_bad_path_count_is_usage_error(capsys, command, paths):
    argv = [command, "--model", "exp_decay_diffusion", "--paths", paths, "--json"]
    if command == "integrate":
        argv += ["--field", "shift", "--cov", "rectify"]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "error:" in err and "--paths" in err


@pytest.mark.parametrize(
    "argv",
    [
        "simulate --x0-list a",
        "simulate --x0-list 1,,2",
        "simulate --dt 0",
        "integrate --field shift --dt 0",
        "simulate --dt -0.1",
        "simulate --dt nan",
        "integrate --field shift --dt inf",
        "simulate --horizon -1",
        "integrate --field shift --horizon 0",
        "check --tol 0",
        "check --tol nan",
        "check --tol x",
    ],
)
def test_bad_option_value_is_usage_error(capsys, argv):
    command, *rest = argv.split()
    code, out, err = run(capsys, command, "--model", "exp_decay_diffusion", *rest, "--json")
    assert code == EXIT_USAGE
    assert out == ""
    assert "error:" in err and rest[-2] in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        "", "nope", "check", "check --model linear_additive --bogus",
        # each subcommand takes only the shared flags its handler reads
        "convert --model linear_additive --seed 1",
        "convert --model linear_additive --tol 1e-6",
        "convert --model linear_additive --strict",
        "simulate --model linear_additive --tol 1e-6",
        "simulate --model linear_additive --strict",
        "integrate --model exp_decay_diffusion --field shift --strict",
        "reduce --model linear_additive --field scaling --strict",
    ],
)
def test_rejected_command_line_exits_usage(capsys, argv):
    code, _, err = run(capsys, *argv.split())
    assert code == EXIT_USAGE
    assert "error:" in err and "Traceback" not in err


# Every refusal the CLI makes, with its exact diagnostic: each one leaves
# through main as one ``error:`` line with exit 1.  {tmp} stands for a fresh
# directory; the last rows are the unknown model, --cov and --only names.
USAGE_ERRORS = [
    ("check --model linear_additive --field nope", "no vector field named 'nope' in the model"),
    ("integrate --model exp_decay_diffusion --field shift --paths 1",
     "--paths must be 0 (no cross-check) or at least 2"),
    ("integrate --model linear_strat_oscillator --field scaling", "integrate expects an Ito model"),
    ("integrate --model isotropic_oscillator_2d --field rotation",
     "direct integration applies to scalar models"),
    ("integrate --model exp_decay_diffusion", "--field is required"),
    ("integrate --model exp_decay_diffusion --field shift --field shift",
     "integrate takes one --field and at most one --cov"),
    ("integrate --model exp_decay_diffusion --field nope", "no vector field named 'nope'"),
    ("reduce --model linear_strat_oscillator --field scaling", "reduce expects an Ito model"),
    ("reduce --model linear_additive", "at least one --field is required"),
    ("reduce --model linear_additive --field nope", "no vector field named 'nope'"),
    ("reduce --model linear_additive --field scaling --cov builtin:scaling --cov builtin:scaling",
     "reduce takes no more --cov flags than --field flags"),
    ("simulate --model linear_additive --paths 0", "--paths must be at least 1"),
    ("simulate --model linear_additive --x0-list 1,2", "need 1 initial values"),
    ("simulate --model linear_additive --x0 nan", "the start x0 = nan is not finite"),
    ("simulate --model linear_additive --paths 10 --dt 0.1 --csv-out {tmp}/missing/x.csv",
     "cannot write {tmp}/missing/x.csv: No such file or directory"),
    # the probe appends nothing and succeeds; writing the table fails after the run
    pytest.param("simulate --model linear_additive --paths 10 --dt 0.1 --csv-out /dev/full",
                 "cannot write /dev/full: No space left on device",
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")),
    ("check --model no_such_model",
     "cannot read model file {models}/no_such_model.model: [Errno 2] No such file or directory: "
     "'{models}/no_such_model.model'"),
    ("reduce --model linear_additive --field scaling --cov nosuch", "no change of variables named 'nosuch'"),
    ("examples --only no_such_case", f"unknown example name(s): ['no_such_case']; known: {list(REGISTRY)}"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
def test_usage_error_is_one_line_and_exit_1(tmp_path, capsys, argv, message):
    def fill(text):
        return text.replace("{tmp}", str(tmp_path)).replace("{models}", str(model_dir()))

    code, out, err = run(capsys, *fill(argv).split())
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {fill(message)}\n")


SCALAR_HEADER = "[system]\nn = 1\nm = 1\ntype = ito\n"


@pytest.mark.parametrize("model, argv, message", [
    # a drift that reads a parameter the model does not bind
    ("f1 = lam*x\nsigma_1_1 = 1\n", "simulate --paths 10 --dt 0.1", "unbound parameter lam"),
    # the solvability check of two fields, one reading an unbound parameter
    ("f1 = 0\nsigma_1_1 = 1\n\n[vectorfield.a]\nphi1 = 1\n\n[vectorfield.b]\nphi1 = lam\n",
     "reduce --field a --field b", "unbound parameter lam"),
    # a verified random symmetry whose integrating variable has no closed form
    ("f1 = 0\nsigma_1_1 = 1\n\n[vectorfield.rand]\nphi1 = 1 + (x - w)^2\n",
     "integrate --field rand --paths 0",
     "cannot differentiate a quadrature-defined function in a variable its integrand depends on"),
], ids=["simulate_unbound", "reduce_unbound", "integrate_no_closed_form"])
def test_package_errors_leave_through_main(tmp_path, capsys, model, argv, message):
    path = tmp_path / "m.model"
    path.write_text(SCALAR_HEADER + model)
    command, *rest = argv.split()
    code, out, err = run(capsys, command, "--model", str(path), *rest)
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


def test_every_package_error_is_a_value_error():
    # main reports every ValueError as one diagnostic, so no error class of
    # the package may derive from anything else
    errors = []
    for info in pkgutil.walk_packages(sdesym.__path__, "sdesym."):
        module = importlib.import_module(info.name)
        errors += [cls for name, cls in inspect.getmembers(module, inspect.isclass)
                   if name.endswith("Error") and cls.__module__ == info.name]
    assert len(errors) >= 8
    assert [cls.__name__ for cls in errors if not issubclass(cls, ValueError)] == []


def test_strict_check_of_an_inconclusive_field_exits_3(tmp_path, capsys):
    # the drift's derivative is not real anywhere, so its residual cannot be sampled
    path = tmp_path / "m.model"
    path.write_text(SCALAR_HEADER + "f1 = sqrt(0 - 1 - x^2)\nsigma_1_1 = 1\n\n[vectorfield.v]\nphi1 = 1\n")
    code, out, _ = run(capsys, "check", "--model", str(path), "--json")
    assert code == EXIT_OK
    assert json.loads(out)["fields"][0]["ito"]["verdict"] == "inconclusive"
    code, _, err = run(capsys, "check", "--model", str(path), "--strict")
    assert (code, err) == (EXIT_INCONCLUSIVE, "")


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "check", "--help")
    assert code == EXIT_OK
    assert "--force" in out


# Fragments spliced into bundled model files: structure, bad numbers, bad
# matrices and intervals, out-of-domain expressions and stray syntax.
FRAGMENTS = [
    "", "x", "w", "t", "0", "-1", "2.5", "1e400", "nan", "a", "lam", ",", "=", "\n",
    "(", ")", "[", "]", "^", "*", "/", "#", "[system]", "[sampling]", "[params]",
    "[vectorfield.v]", "[changeofvars.c]", "\nx1 = a, 2\n", "\nx1 = 2, 1\n",
    '\nR = [["a"]]\n', "\nR = [[1, 2]]\n", "\nR = [1]\n", "\nn = 0\n", "\nm = 2\n",
    "\ntype = strat\n", "\nphi1 = x\n", "\nh1 = w\n", "\ndirection = sideways\n",
    "Ei(0)", "log(-1)", "exp(1000)", "sqrt(-x)", "1/0", "x^(1/2)", "0^0",
]
BUNDLED_TEXTS = [p.read_text() for p in sorted(model_dir().glob("*.model"))]


@st.composite
def mutated_model_texts(draw):
    text = draw(st.sampled_from(BUNDLED_TEXTS))
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 16)))
        text = text[:start] + draw(st.sampled_from(FRAGMENTS)) + text[end:]
    return text


@given(mutated_model_texts())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_mutated_model_files_give_diagnostics(text):
    try:
        load_model("mutated", text=text)
        loads = True
    except ModelFileError:
        loads = False
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.model"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", "--model", str(path)])
    assert "Traceback" not in err.getvalue()
    if not loads:
        assert code == EXIT_USAGE
    if code == EXIT_USAGE:
        assert err.getvalue().startswith("error:")
    else:
        assert code == EXIT_OK
