"""The three benchmark workloads, their seeded inputs and their known answers.

Every input the program sees is generated here from the workload seed:
generated systems are emitted as model-file text and handed to
``load_model(label, text=...)``; bundled models are named, never edited.
Every item carries an answer fixed by how the item was built or by the
hand-written table below, never by an earlier run of the program.

Functions from ``sdesym`` are looked up on their modules at call time, so
that the tracer's wrappers see the calls made from this file.  Importing
this module imports every ``sdesym`` module the workloads use; the worker
counts that import in the workload's wall time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from sdesym import cli, expr, modelfile, reduction, sde, symmetry
from sdesym import montecarlo as mc
from sdesym.expr import TIME, state, wiener

# Sizes per repetition.  The reference sizes of the analysis that chose these
# workloads were 200 + 200 generated systems, 100 000 paths for the ensemble
# and 1000 mapped snapshots for the shear flow; they are scaled so that one
# repetition takes a few seconds and a run holds several repetitions.
AGREEMENT_ITEMS = 60
SPLIT_ITEMS = 60
ENSEMBLE_PATHS = 20_000
VALIDATION_PATHS = 10_000
ZERO_SHIFT_PATHS = 2_000
SHEAR_PATHS = 64
SHEAR_DT = 1e-2
PIPELINE_PATHS = 5_000

DT = 1e-3
# Limit, in standard errors, of the ensemble's terminal moments against
# their closed form.
MOMENT_SE = 5.0

# Expected `check --force` outcome of every bundled (model, field) pair:
# (Ito verdict, Stratonovich verdict, agreement or None).  "rejected" marks a
# candidate the determining system refuses (a field acting on time).  Each
# row follows from the model file's own comment and the determining
# equations: spatially constant diffusion makes both calculi agree; a
# translation phi = B with R = 1 leaves the noise residual -B; the power
# noise and Ei drift scalings hold only in the Ito form.
BUNDLED_ANSWERS: Dict[Tuple[str, str], Tuple[str, str, object]] = {
    ("anisotropic_oscillator_2d", "joint_scaling"): ("symmetry", "symmetry", "guaranteed"),
    ("anisotropic_oscillator_2d", "opposite_scaling"): ("symmetry", "symmetry", "guaranteed"),
    ("constant_coefficients", "shear"): ("symmetry", "symmetry", "guaranteed"),
    ("constant_coefficients", "split_translation"): ("not_symmetry", "not_symmetry", "guaranteed"),
    ("counterexample_fields", "exponential_w"): ("not_symmetry", "not_symmetry", "guaranteed"),
    ("counterexample_fields", "quadratic_w"): ("not_symmetry", "not_symmetry", "guaranteed"),
    ("ei_drift", "wscaling"): ("symmetry", "not_symmetry", "broken"),
    ("exp_decay_diffusion", "shift"): ("symmetry", "symmetry", None),
    ("exp_decay_diffusion", "not_a_symmetry"): ("not_symmetry", "not_symmetry", None),
    ("exponential_drift", "random"): ("symmetry", "symmetry", None),
    ("exponential_drift", "timeshift"): ("rejected", "rejected", None),
    ("exponential_drift", "not_a_symmetry"): ("not_symmetry", "not_symmetry", None),
    ("isotropic_nonlinear_oscillator", "rotation"): ("symmetry", "symmetry", "guaranteed"),
    ("isotropic_oscillator_2d", "scaling"): ("symmetry", "symmetry", "guaranteed"),
    ("isotropic_oscillator_2d", "opposite_scaling"): ("symmetry", "symmetry", "guaranteed"),
    ("isotropic_oscillator_2d", "hyperbolic"): ("symmetry", "symmetry", "guaranteed"),
    ("isotropic_oscillator_2d", "rotation"): ("symmetry", "symmetry", "guaranteed"),
    ("linear_additive", "scaling"): ("symmetry", "symmetry", "guaranteed"),
    ("linear_strat_oscillator", "scaling"): ("symmetry", "symmetry", "guaranteed"),
    ("power_noise", "scaling"): ("symmetry", "not_symmetry", "broken"),
}


class ItemFailed(Exception):
    """An item whose output differs from its known answer."""


class Run:
    """Collects items, their time to verdict and the numbers to digest;
    the wall clock runs from creation to ``result``."""

    def __init__(self):
        self.items: List[dict] = []
        self.path_steps = 0
        self._digest = hashlib.sha256()
        self._start = time.perf_counter()

    def item(self, name: str, body: Callable[[], str]) -> None:
        start = time.perf_counter()
        try:
            verdict = body()
            ok = True
        except Exception as err:  # noqa: BLE001 - an item's failure is a result
            verdict = f"{type(err).__name__}: {err}"
            ok = False
            if not isinstance(err, ItemFailed):
                traceback.print_exc()
        ms = (time.perf_counter() - start) * 1e3
        self.items.append({"name": name, "ok": ok, "ms": ms, "verdict": verdict})

    def digest(self, *arrays) -> None:
        for a in arrays:
            self._digest.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())

    def result(self) -> dict:
        return {
            "wall_s": time.perf_counter() - self._start,
            "items": self.items,
            "path_steps": self.path_steps,
            "digest": self._digest.hexdigest(),
        }


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise ItemFailed(what)


def _num(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# symbolic


def agreement_family(seed: int, count: int) -> List[Tuple[str, str]]:
    """Scalar systems whose diffusion solves the shared noise-family equation
    for the candidate (phi, R): phi = x with sigma = mu x^(1-R), or phi = x^2
    with sigma = mu x^2 exp(1/x)^R; the drift a x + b x^2 is arbitrary.

    Returns (model text, R sigma sigma_x as text).  R is a multiple of 1/64 so
    that the decimal text and the binary matrix entry are the same number.
    R near 1 (constant diffusion) and near -1/2 (where the Stratonovich drift
    residual can cancel) are skipped, so every item's verdicts are fixed."""
    rng = np.random.default_rng([seed, 1])
    out = []
    while len(out) < count:
        i = len(out)
        mu = float(rng.uniform(0.5, 1.5))
        R = float(rng.choice([-1, 1]) * rng.integers(26, 103)) / 64.0
        a = float(rng.uniform(-1.0, 1.0))
        b = float(rng.choice([-1, 1]) * rng.uniform(0.1, 1.0))
        if abs(1.0 - R) < 0.05 or abs(R + 0.5) < 0.05:
            continue
        if i % 2 == 0:
            phi = "x"
            sigma = f"{_num(mu)}*x^({_num(1.0 - R)})"
            obstruction = f"{_num(R * (1.0 - R))}*{_num(mu)}^2*x^({_num(1.0 - 2.0 * R)})"
        else:
            phi = "x^2"
            sigma = f"{_num(mu)}*x^2*exp(1/x)^({_num(R)})"
            obstruction = f"{_num(R)}*{_num(mu)}^2*x^2*(2*x - ({_num(R)}))*exp(2*({_num(R)})/x)"
        text = (
            "[system]\nn = 1\nm = 1\ntype = ito\n"
            f"f1 = {_num(a)}*x + ({_num(b)})*x^2\n"
            f"sigma_1_1 = {sigma}\n\n"
            f"[vectorfield.candidate]\nphi1 = {phi}\nR = [[{_num(R)}]]\n"
        )
        out.append((text, obstruction))
    return out


def split_family(seed: int, count: int) -> List[str]:
    """Polynomial Ito systems with a split map: a triangular polynomial state
    map of degree <= 3 with unit diagonal (globally invertible, Wiener-free)
    and a conformal Wiener action R = lam I + skew.  Such maps keep every
    system in the Ito class.

    The seed draws every coefficient.  The shape of item j (dimension, powers,
    which diffusion entries carry a state term) cycles with j instead, so
    that every seed asks for about the same symbolic work."""
    rng = np.random.default_rng([seed, 2])
    turn = 0

    def poly(variables: List[int], degree: int) -> str:
        nonlocal turn
        terms = [_num(rng.uniform(-0.5, 0.5))]
        for v in variables:
            turn += 1
            terms.append(f"({_num(rng.uniform(-0.5, 0.5))})*x{v}^{1 + turn % degree}")
        return " + ".join(terms)

    out = []
    for j in range(count):
        n = 1 + j % 2
        lines = ["[system]", f"n = {n}", f"m = {n}", "type = ito"]
        for i in range(1, n + 1):
            lines.append(f"f{i} = {poly(list(range(1, n + 1)), 2)}")
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                diag = _num(rng.uniform(0.8, 1.5)) if i == k else "0"
                extra = poly([1], 1) if (j // 2 + i + k) % 2 == 0 else "0"
                lines.append(f"sigma_{i}_{k} = {diag} + {extra}")
        lines += ["", "[changeofvars.split]", "direction = new_to_old"]
        for i in range(1, n + 1):
            pieces = [f"x{i}"]
            if i > 1:
                pieces.append(poly(list(range(1, i)), 3))
            pieces.append(f"({_num(rng.uniform(-0.3, 0.3))})*t")
            lines.append(f"phi{i} = " + " + ".join(pieces))
        lam = float(rng.uniform(0.3, 1.2))
        A = rng.uniform(-1.0, 1.0, size=(n, n))
        R = lam * np.eye(n) + (A - A.T) / 2.0
        lines.append(f"R = {json.dumps(R.tolist())}")
        out.append("\n".join(lines) + "\n")
    return out


def _check_pair(model: str, field: str, zero_seed: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(
            ["check", "--model", model, "--field", field, "--force", "--json",
             "--seed", str(zero_seed)]
        )
    expect(code == cli.EXIT_OK, f"exit code {code}")
    entry = json.loads(out.getvalue())["fields"][0]
    ito, strat, agreement = BUNDLED_ANSWERS[(model, field)]
    if ito == "rejected":
        expect("error" in entry and "ito" not in entry, "expected a rejection")
        return "rejected"
    got = (entry["ito"]["verdict"], entry["stratonovich"]["verdict"],
           entry.get("agreement", {}).get("agreement"))
    expect(got == (ito, strat, agreement), f"got {got}")
    return "/".join(str(g) for g in got)


def _agreement_item(label: str, text: str, obstruction: str, config) -> str:
    bundle = modelfile.load_model(label, text=text)
    X = bundle.vectorfields["candidate"]
    rep = symmetry.agreement_analysis(X, bundle.system, config)
    n = bundle.ctx.n
    expect(all(e.verdict.is_zero for e in rep.ito.entries[n:]), "noise family not verified")
    checks = rep.discrepancy_matches_half_obstruction
    expect(checks is not None and all(v.is_zero for v in checks),
           "discrepancy is not half the obstruction")
    target = expr.parse(obstruction, bundle.ctx)
    expect(expr.expressions_equal(rep.discrepancy[0], target, bundle.ctx, config).is_zero,
           "discrepancy is not R sigma sigma_x")
    got = (rep.ito.verdict, rep.stratonovich.verdict, rep.agreement)
    expect(got == ("not_symmetry", "not_symmetry", "accidental"), f"got {got}")
    return "/".join(got)


def _split_item(label: str, text: str, config) -> str:
    bundle = modelfile.load_model(label, text=text)
    g = reduction.transform_W(bundle.system, bundle.covs["split"], config)
    expect(g.ito_like is True, f"ito_like={g.ito_like}")
    return "ito"


def symbolic(seed: int, bundles, workdir: Path) -> dict:
    config = expr.ZeroTestConfig(seed=seed)
    agreement = agreement_family(seed, AGREEMENT_ITEMS)
    split = split_family(seed, SPLIT_ITEMS)
    run = Run()
    for model, field in BUNDLED_ANSWERS:
        run.item(f"check:{model}:{field}", lambda: _check_pair(model, field, seed))
    for i, (text, obstruction) in enumerate(agreement):
        run.item(f"agreement:{i}",
                 lambda: _agreement_item(f"agreement_{i}", text, obstruction, config))
    for i, text in enumerate(split):
        run.item(f"split:{i}", lambda: _split_item(f"split_{i}", text, config))
    return run.result()


# ---------------------------------------------------------------------------
# ensemble


GEOMETRIC_TEXT = """[system]
n = 1
m = 1
type = ito
f1 = lam*x
sigma_1_1 = mu*x

[params]
lam = -1
mu = 0.3
"""


def _simulate_item(run: Run, bundle, seed: int, workdir: Path) -> str:
    csv_path = workdir / f"stats_{seed}.csv"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(
            ["simulate", "--model", "linear_additive", "--paths", str(ENSEMBLE_PATHS),
             "--dt", repr(DT), "--horizon", "1.0", "--seed", str(seed),
             "--csv-out", str(csv_path), "--json"]
        )
    expect(code == cli.EXIT_OK, f"exit code {code}")
    payload = json.loads(out.getvalue())
    table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    csv_path.unlink()
    steps = int(round(1.0 / DT))
    run.path_steps += ENSEMBLE_PATHS * steps
    run.digest(table, payload["terminal_mean"], payload["terminal_var"])
    expect(table.shape == (101, 4), f"csv shape {table.shape}")
    # Closed-form moments of Euler-Maruyama on dx = lam x dt + mu dw from
    # x0 = 1: x_N = q^N + mu sum_k q^(N-1-k) dw_k with q = 1 + lam dt, a
    # Gaussian with mean q^N and variance mu^2 dt (1 - q^2N) / (1 - q^2).
    # They differ from those of the SDE at t = 1 by under 0.1 SE.
    lam = bundle.ctx.params["lam"]
    mu = bundle.ctx.params["mu"]
    q = 1.0 + lam * DT
    mean_target = q**steps
    var_target = mu * mu * DT * (1.0 - q ** (2 * steps)) / (1.0 - q * q)
    mean, var, se = payload["terminal_mean"][0], payload["terminal_var"][0], payload["terminal_se"][0]
    n_eff = ENSEMBLE_PATHS * (1.0 - payload["excluded_fraction"])
    mean_dev = abs(mean - mean_target) / se
    var_dev = abs(var - var_target) / (var * math.sqrt(2.0 / (n_eff - 1.0)))
    expect(payload["excluded_fraction"] == 0.0, "paths excluded")
    expect(abs(table[-1, 1] - mean) <= 1e-9 * (1.0 + abs(mean)), "csv disagrees with report")
    # Every seed is one independent draw of both deviations, so the limit
    # must keep false alarms rare over hundreds of seeds: 3 SE fails a
    # correct program on about 0.5 % of them, MOMENT_SE on about 1e-6.
    expect(mean_dev < MOMENT_SE and var_dev < MOMENT_SE,
           f"mean {mean_dev:.2f} SE, var {var_dev:.2f} SE from the closed form")
    return "moments"


def _cross_scheme_item(run: Run, seed: int) -> str:
    bundle = modelfile.load_model("geometric", text=GEOMETRIC_TEXT)
    steps = int(round(1.0 / DT))
    a = mc.euler_maruyama(bundle.system, [1.0], T=1.0, dt=DT, n_paths=ENSEMBLE_PATHS,
                          seed=seed, snapshots=2)
    b = mc.heun_stratonovich(sde.ito_to_strat(bundle.system), [1.0], T=1.0, dt=DT,
                             n_paths=ENSEMBLE_PATHS, seed=seed, snapshots=2)
    run.path_steps += 2 * ENSEMBLE_PATHS * steps
    include = ~(a.excluded | b.excluded)
    da = a.terminal_states()[include, 0]
    db = b.terminal_states()[include, 0]
    run.digest(a.states, b.states, a.excluded, b.excluded)
    se = math.sqrt(da.var(ddof=1) / len(da) + db.var(ddof=1) / len(db))
    dev = abs(float(da.mean() - db.mean())) / se
    expect(dev < 4.0, f"schemes differ by {dev:.2f} SE")
    return "agree"


def ensemble(seed: int, bundles, workdir: Path) -> dict:
    run = Run()
    run.item("simulate", lambda: _simulate_item(run, bundles["linear_additive"], seed, workdir))
    run.item("cross_scheme", lambda: _cross_scheme_item(run, seed))
    return run.result()


# ---------------------------------------------------------------------------
# validate


POWER_NOISE_TEXT = """[system]
n = 1
m = 1
type = ito
f1 = lam*x
sigma_1_1 = mu*x^alpha

[params]
lam = -1
mu = 0.3
alpha = 2

[vectorfield.scaling]
phi1 = x
R = [[-1]]
"""


def _validation_item(run: Run, sys_, X, s, T, paths, seed, scheme, want) -> str:
    rep = mc.symmetry_validation(sys_, X, s, [1.0], T=T, dt=DT, n_paths=paths, seed=seed,
                                 scheme=scheme)
    run.path_steps += 2 * paths * int(round(T / DT))
    run.digest(rep.mean_sigmas, rep.ks, [rep.excluded_fraction])
    expect(rep.verdict == want, f"verdict {rep.verdict}: {rep.detail}")
    return rep.verdict


def _shear_item(run: Run, bundle, seed: int) -> str:
    X = bundle.vectorfields["shear"]
    A = bundle.ctx.params["A"]
    B = bundle.ctx.params["B"]
    ens = mc.euler_maruyama(bundle.system, [0.2], T=1.0, dt=SHEAR_DT, n_paths=SHEAR_PATHS,
                            seed=seed, snapshots=0)
    run.path_steps += SHEAR_PATHS * ens.steps
    # x(t) = x0 + A t + B w(t) solves dx = A dt + B dw exactly, also under EM
    closed = 0.2 + A * ens.times[:, None] + B * ens.w[:, :, 0]
    exact = float(np.max(np.abs(ens.states[:, :, 0] - closed) / np.maximum(1.0, np.abs(closed))))
    mapped = mc.apply_group_map(ens, X, 0.4)
    x0m = mapped.states[0, :, 0]
    closed_m = x0m[None, :] + A * (ens.times[:, None] - ens.times[0]) + B * (
        mapped.w[:, :, 0] - mapped.w[0, :, 0]
    )
    flow = float(np.max(np.abs(mapped.states[:, :, 0] - closed_m) / np.maximum(1.0, np.abs(closed_m))))
    run.digest(ens.states, mapped.states, mapped.w)
    expect(exact < 1e-12 and flow < 1e-12, f"scheme error {exact:.1e}, flow error {flow:.1e}")
    return "exact"


def _pipeline_item(run: Run, bundle, field: str, x0: float, T: float, seed: int, config) -> str:
    """Integrate through the symmetry-adapted variable, map the terminals back
    and compare with direct simulation on the same increments."""
    sys_ = bundle.system
    cov = bundle.covs["rectify"]
    step = reduction.reduce_step(sys_, bundle.vectorfields[field], cov, config)
    form = reduction.integrate_scalar(step.transformed, config)
    params = dict(sys_.ctx.params)
    start = {state(1): x0, TIME: 0.0, wiener(1): 0.0}
    y0 = expr.evaluate(cov.forward[0], start, params)
    terminals = mc.solution_form_terminals(form, 0.0, T, DT, PIPELINE_PATHS, seed, x0=y0)
    direct = mc.euler_maruyama(sys_, [x0], T=T, dt=DT, n_paths=PIPELINE_PATHS, seed=seed,
                               snapshots=2)
    run.path_steps += 2 * PIPELINE_PATHS * int(round(T / DT))
    env = {state(1): terminals, TIME: T, wiener(1): direct.w[-1][:, 0]}
    with np.errstate(all="ignore"):
        back = np.asarray(expr.eval_array(cov.inverse[0], env, params), dtype=float)
    ok = np.isfinite(back) & ~direct.excluded
    excluded = 1.0 - float(np.mean(ok))
    a = back[ok]
    b = direct.terminal_states()[ok, 0]
    run.digest(terminals, direct.states)
    se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    dev = abs(float(a.mean() - b.mean())) / se
    expect(dev < 4.0 and excluded <= 0.05, f"{dev:.2f} SE apart, {excluded:.1%} excluded")
    return "agree"


def validate(seed: int, bundles, workdir: Path) -> dict:
    config = expr.ZeroTestConfig(seed=seed)
    linear = bundles["linear_additive"]
    scaling = linear.vectorfields["scaling"]
    run = Run()

    def power_control():
        power = modelfile.load_model("power_noise_control", text=POWER_NOISE_TEXT)
        strat = sde.ito_to_strat(power.system)
        return _validation_item(run, strat, power.vectorfields["scaling"], 0.5, 1.0,
                                VALIDATION_PATHS, seed + 1, "heun", "fail")

    run.item("validation:scaling", lambda: _validation_item(
        run, linear.system, scaling, 0.3, 1.0, VALIDATION_PATHS, seed, "euler_maruyama", "pass"))
    run.item("validation:power_noise_control", power_control)
    run.item("validation:s0", lambda: _validation_item(
        run, linear.system, scaling, 0.0, 0.2, ZERO_SHIFT_PATHS, seed + 2, "euler_maruyama",
        "pass"))
    run.item("flow:shear", lambda: _shear_item(run, bundles["constant_coefficients"], seed))
    run.item("pipeline:exp_decay_diffusion", lambda: _pipeline_item(
        run, bundles["exp_decay_diffusion"], "shift", 1.0, 1.0, seed, config))
    run.item("pipeline:exponential_drift", lambda: _pipeline_item(
        run, bundles["exponential_drift"], "random", 0.0, 0.3, seed + 1, config))
    return run.result()


WORKLOADS = {"symbolic": symbolic, "ensemble": ensemble, "validate": validate}
