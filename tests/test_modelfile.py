import numpy as np
import pytest

from sdesym.cli import bundled_model, model_dir
from sdesym.expr import Const, ZERO, parse
from sdesym.modelfile import ModelFileError, load_model, render_system
from sdesym.reduction import transform_W
from sdesym.sde import ItoSystem, StratSystem, ito_to_strat
from sdesym.symmetry import GeneralH, LinearW

MINIMAL = """
[system]
n = 1
m = 1
type = ito
f1 = lam*x
sigma_1_1 = mu

[params]
lam = -1
mu = 0.5
"""


def test_minimal_model_loads():
    b = load_model("inline", text=MINIMAL)
    assert isinstance(b.system, ItoSystem)
    assert b.ctx.params == {"lam": -1.0, "mu": 0.5}
    assert len(b.sha256) == 64


def test_all_bundled_models_load():
    for path in sorted(model_dir().glob("*.model")):
        b = load_model(path)
        assert b.ctx.n >= 1 and b.ctx.m >= 1
        assert b.system.calculus in ("ito", "stratonovich")


def test_vectorfield_sections():
    text = MINIMAL + """
[vectorfield.lin]
phi1 = x
R = [[2]]

[vectorfield.gen]
phi1 = x
h1 = w^2
"""
    b = load_model("inline", text=text)
    assert isinstance(b.vectorfields["lin"].noise, LinearW)
    assert b.vectorfields["lin"].noise.matrix[0, 0] == 2.0
    assert isinstance(b.vectorfields["gen"].noise, GeneralH)


def test_vectorfield_R_and_h_conflict():
    text = MINIMAL + """
[vectorfield.bad]
phi1 = x
h1 = w
R = [[1]]
"""
    with pytest.raises(ModelFileError, match="not both"):
        load_model("inline", text=text)


def test_missing_sigma_defaults_to_zero():
    text = """
[system]
n = 1
m = 2
type = ito
f1 = 0
sigma_1_1 = 1
"""
    b = load_model("inline", text=text)
    assert b.system.sigma[0][1] == ZERO


def test_sampling_overrides():
    text = MINIMAL + """
[sampling]
x1 = 0.9, 1.1
w1 = -0.2, 0.2
t = 0.5, 0.6
theta = 2.0, 3.0
"""
    b = load_model("inline", text=text)
    from sdesym.expr import state, wiener

    assert b.box.for_var(state(1)) == (0.9, 1.1)
    assert b.box.for_var(wiener(1)) == (-0.2, 0.2)
    assert b.box.time == (0.5, 0.6)
    assert b.box.for_param("theta") == (2.0, 3.0)
    assert b.box.for_param("other") == (0.4, 2.0)


@pytest.mark.parametrize(
    "key, value", [("n", "x"), ("n", "0"), ("n", "-1"), ("m", "1.5"), ("m", "0")]
)
def test_bad_dimension_rejected(key, value):
    text = MINIMAL.replace(f"\n{key} = 1\n", f"\n{key} = {value}\n")
    assert text != MINIMAL
    with pytest.raises(ModelFileError, match=f"\\[system\\] {key}"):
        load_model("inline", text=text)


def test_bad_interval_rejected():
    text = MINIMAL + "\n[sampling]\nx1 = 2.0, 1.0\n"
    with pytest.raises(ModelFileError, match="interval"):
        load_model("inline", text=text)


@pytest.mark.parametrize(
    "extra, match",
    [
        ("\n[sampling]\nx1 = a, 2\n", "bounds must be numbers"),
        ('\n[vectorfield.v]\nphi1 = x\nR = [["a"]]\n', "matrix entries must be numbers"),
    ],
)
def test_non_numeric_bounds_and_matrix_rejected(extra, match):
    with pytest.raises(ModelFileError, match=match):
        load_model("inline", text=MINIMAL + extra)


def test_changeofvars_section():
    text = MINIMAL + """
[changeofvars.c]
direction = old_to_new
phi1 = exp(x)
inverse1 = log(x)
"""
    b = load_model("inline", text=text)
    cov = b.covs["c"]
    assert cov.wiener is None
    assert cov.inverse is not None
    # the direction is what R implies: a stated one that disagrees is refused
    for section in ("direction = new_to_old\nphi1 = exp(x)\n",
                    "direction = old_to_new\nphi1 = -x\nR = [[-1]]\n"):
        with pytest.raises(ModelFileError, match=r"^\[changeofvars\.c\]: direction") as err:
            load_model("inline", text=MINIMAL + "\n[changeofvars.c]\n" + section)
        assert len(str(err.value).splitlines()) == 1
    # a map with R and no direction key is the Wiener map it describes
    reflection = MINIMAL + "\n[changeofvars.c]\nphi1 = -x\nR = [[-1]]\n"
    implied = load_model("inline", text=reflection)
    stated = load_model("inline", text=reflection.replace("phi1", "direction = new_to_old\nphi1"))
    assert isinstance(implied.covs["c"].wiener, LinearW)
    assert (transform_W(implied.system, implied.covs["c"]).to_dict()
            == transform_W(stated.system, stated.covs["c"]).to_dict())


def test_unknown_section_rejected():
    with pytest.raises(ModelFileError, match="unknown section"):
        load_model("inline", text=MINIMAL + "\n[mystery]\nkey = 1\n")


def test_wiener_dependent_coefficient_rejected():
    text = """
[system]
n = 1
m = 1
type = ito
f1 = w
sigma_1_1 = 1
"""
    with pytest.raises(Exception, match="depend"):
        load_model("inline", text=text)


def test_expression_error_carries_position():
    text = """
[system]
n = 1
m = 1
type = ito
f1 = exp(x
sigma_1_1 = 1
"""
    with pytest.raises(Exception, match="position"):
        load_model("inline", text=text)


def test_render_system_roundtrips_through_loader():
    b = load_model(bundled_model("power_noise"))
    strat = ito_to_strat(b.system)
    text = render_system(strat)
    b2 = load_model("converted", text=text)
    assert isinstance(b2.system, StratSystem)
    from sdesym.expr import expressions_equal

    assert expressions_equal(b2.system.drift[0], strat.drift[0], b.ctx).is_zero
