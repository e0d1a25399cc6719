import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdesym.cli import EXIT_OK, EXIT_USAGE, EXIT_VERDICT, _emit, main, model_dir
from sdesym.modelfile import ModelFileError, load_model


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
