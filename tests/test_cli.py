import json

import pytest

from sdesym.cli import EXIT_OK, EXIT_USAGE, EXIT_VERDICT, main


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
