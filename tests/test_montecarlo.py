import math
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm

from sdesym import montecarlo as mc
from sdesym.cli import bundled_model, model_dir
from sdesym.expr import Context, ONE, ZERO, free_vars, parse, state, wiener
from sdesym.modelfile import load_model
from sdesym.montecarlo import (
    BrownianGrid,
    FlowError,
    Increments,
    Run,
    _affine_generator,
    _lockstep,
    _simulate,
    apply_group_map,
    ensemble_stats,
    euler_maruyama,
    evaluate_solution_form,
    flow_map,
    heun_stratonovich,
    ks_statistic,
    ks_threshold,
    pipeline_crosscheck,
    solution_form_terminals,
    step_normals,
    symmetry_validation,
)
from sdesym.reduction import ChangeOfVariables, ReductionError, SolutionForm, integrate_scalar, reduce_step
from sdesym.sde import ItoSystem, ito_to_strat
from sdesym.symmetry import GeneralH, LinearW, SymmetryError, VectorField


def bundle(name):
    return load_model(bundled_model(name))


# ---------------------------------------------------------------------------
# counter-based randomness


def test_reproducibility_bit_identical():
    b = bundle("linear_additive")
    a = euler_maruyama(b.system, [1.0], T=0.2, dt=1e-3, n_paths=128, seed=9)
    c = euler_maruyama(b.system, [1.0], T=0.2, dt=1e-3, n_paths=128, seed=9)
    assert np.array_equal(a.states, c.states)
    assert np.array_equal(a.w, c.w)
    d = euler_maruyama(b.system, [1.0], T=0.2, dt=1e-3, n_paths=128, seed=10)
    assert not np.array_equal(a.states, d.states)


def test_paths_independent_of_ensemble_size():
    # adding paths must not change the existing ones (counter-based streams)
    b = bundle("linear_additive")
    small = euler_maruyama(b.system, [1.0], T=0.1, dt=1e-3, n_paths=32, seed=4)
    large = euler_maruyama(b.system, [1.0], T=0.1, dt=1e-3, n_paths=64, seed=4)
    assert np.array_equal(small.states, large.states[:, :32, :])


def test_step_normals_marginals():
    # inverse-CDF normals from the counter hash pass a KS test against N(0, dt)
    draws = np.concatenate(
        [step_normals(3, 4000, s, 1, 1e-3).ravel() for s in range(5)]
    )
    standardized = draws / math.sqrt(1e-3)
    grid = np.sort(standardized)
    cdf = norm.cdf(grid)
    empirical = np.arange(1, len(grid) + 1) / len(grid)
    d = float(np.max(np.abs(cdf - empirical)))
    assert d < ks_threshold(len(grid), 10 ** 9, alpha=1e-3)
    assert abs(standardized.mean()) < 4.0 / math.sqrt(len(grid))


def test_brownian_grid_matches_ensemble_stream():
    b = bundle("linear_additive")
    ens = euler_maruyama(b.system, [1.0], T=0.05, dt=1e-3, n_paths=3, seed=21, snapshots=0)
    grid = BrownianGrid.generate(21, 1, 0.0, 0.05, 1e-3, 1)
    assert np.array_equal(grid.w[:, 0], ens.w[:, 1, 0])


_MASK = 2**64 - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _reference_mix13(z: int) -> int:
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _reference_increment(seed: int, p: int, s: int, k: int, m: int, dt: float) -> float:
    """The README recipe in Python integers, one increment at a time."""
    key = _reference_mix13((seed & _MASK) ^ _GOLDEN)
    path_key = _reference_mix13((key + _GOLDEN * (p + 1)) & _MASK)
    v = _reference_mix13((path_key + _GOLDEN * (s * m + k + 1)) & _MASK)
    return ndtri(((v >> 11) + 0.5) * 2.0**-53) * math.sqrt(dt)


def test_increments_match_reference_recipe():
    # pins the in-place uint64 arithmetic to absolute values, bit for bit
    dt, n_paths, last = 1e-3, 1000, 317
    paths = [0, 1, 999]
    for seed in (0, -1, 2**63 + 5):
        for m in (1, 2):
            increments = Increments(seed, n_paths, m, dt)
            ctx = Context(n=1, m=m)
            still = ItoSystem(ctx, (ZERO,), ((ZERO,) * m,))
            ens = euler_maruyama(still, [0.0], T=(last + 1) * dt, dt=dt, n_paths=n_paths,
                                 seed=seed, snapshots=0)
            w = np.zeros((len(paths), m))
            for s in range(last + 1):
                expected = np.array(
                    [[_reference_increment(seed, p, s, k, m, dt) for k in range(m)] for p in paths]
                )
                w = w + expected
                if s in (0, last):
                    assert np.array_equal(increments.step(s)[paths], expected)
                    assert np.array_equal(step_normals(seed, n_paths, s, m, dt)[paths], expected)
                    assert np.array_equal(ens.w[s + 1, paths], w)


def test_lockstep_runs_equal_separate_runs():
    geometric = Context(n=1, m=1, params={"lam": -1.0, "mu": 0.3})
    geo = ItoSystem(geometric, (parse("lam*x", geometric),), ((parse("mu*x", geometric),),))
    oscillator = bundle("isotropic_oscillator_2d").system
    angle = 0.7
    rotation = np.array([[math.cos(angle), math.sin(angle)], [-math.sin(angle), math.cos(angle)]])
    scalar = Context(n=1, m=1)
    explosive = ItoSystem(scalar, (parse("x^3", scalar),), ((parse("x", scalar),),))
    sets = [
        ([Run(geo, [1.0]), Run(ito_to_strat(geo), [1.0])], 0.2, 1e-3),
        # the transformed run goes first: writing into the shared block would
        # change the increments of the run after it
        ([Run(oscillator, [0.5, -0.3], rotation),
          Run(oscillator, [0.5, -0.3]),
          Run(ito_to_strat(oscillator), [0.5, -0.3], rotation)], 0.2, 1e-3),
        ([Run(explosive, [1.0], np.array([[-1.0]])),
          Run(explosive, [1.0]),
          Run(ito_to_strat(explosive), [1.0])], 0.5, 1e-2),
    ]
    excluded = 0
    for runs, T, dt in sets:
        together = _simulate(runs, 0.0, T, dt, 300, 17, snapshots=5)
        for run, ens in zip(runs, together):
            integrate = euler_maruyama if run.system.calculus == "ito" else heun_stratonovich
            alone = integrate(run.system, run.x0, T=T, dt=dt, n_paths=300, seed=17,
                              snapshots=5, dw_transform=run.dw_transform)
            assert np.array_equal(ens.states, alone.states)
            assert np.array_equal(ens.w, alone.w)
            assert np.array_equal(ens.excluded, alone.excluded)
            # not recording w changes nothing else
            lean = integrate(run.system, run.x0, T=T, dt=dt, n_paths=300, seed=17,
                             snapshots=5, dw_transform=run.dw_transform, wiener=False)
            assert lean.w is None
            assert np.array_equal(lean.states, alone.states)
            assert np.array_equal(lean.excluded, alone.excluded)
            excluded += int(ens.excluded.sum())
    assert excluded > 0


# ---------------------------------------------------------------------------
# the increment pipeline: an executor worker draws blocks ahead of the step loop


def _pipeline_sets():
    geometric = Context(n=1, m=1, params={"lam": -1.0, "mu": 0.3})
    geo = ItoSystem(geometric, (parse("lam*x", geometric),), ((parse("mu*x", geometric),),))
    oscillator = bundle("isotropic_oscillator_2d").system
    angle = 0.4
    rotation = np.array([[math.cos(angle), math.sin(angle)], [-math.sin(angle), math.cos(angle)]])
    scalar = Context(n=1, m=1)
    explosive = ItoSystem(scalar, (parse("x^3", scalar),), ((parse("x", scalar),),))
    # (runs, paths, T, dt): odd path counts, m = 2 with a dw_transform, and
    # divergent paths
    return [
        ([Run(geo, [1.0]), Run(ito_to_strat(geo), [1.0])], 301, 0.25, 1e-3),
        ([Run(oscillator, [0.5, -0.3], rotation), Run(ito_to_strat(oscillator), [0.5, -0.3])],
         97, 0.2, 1e-3),
        ([Run(explosive, [1.0])], 200, 0.5, 1e-2),
    ]


def test_lockstep_ensembles_do_not_depend_on_the_block_size(monkeypatch):
    # (block, chunk) in values: the defaults; a chunk boundary inside a block
    # with a shorter last chunk; one-step chunks in a many-step block; one
    # chunk larger than its 3- to 5-step block; one step per block, so every
    # set steps through many blocks in the two reused buffers.  None of the
    # step counts is a multiple of the default block
    excluded = 0
    for runs, paths, T, dt in _pipeline_sets():
        results = []
        for block, chunk in ((None, None), (2000, 800), (5000, 1), (1000, 10**6), (1, 1)):
            if block is not None:
                monkeypatch.setattr(mc, "_BLOCK_VALUES", block, raising=False)
                monkeypatch.setattr(mc, "_CHUNK_VALUES", chunk, raising=False)
            results.append(_simulate(runs, 0.0, T, dt, paths, 23, snapshots=7))
        for ensembles in results[1:]:
            for ens, first in zip(ensembles, results[0]):
                assert np.array_equal(ens.states, first.states)
                assert np.array_equal(ens.w, first.w)
                assert np.array_equal(ens.excluded, first.excluded)
        excluded += sum(int(ens.excluded.sum()) for ens in results[0])
    assert excluded > 0


class _Recorder:
    """A stepper that keeps a copy of every block of increments it is given
    and checks that the block does not change while it holds it."""

    def __init__(self):
        self.seen = []

    def step(self, s, t, dW):
        copy = dW.copy()
        time.sleep(1e-4)  # leave the worker time to run ahead
        assert np.array_equal(dW, copy), f"the increments of step {s} changed while being read"
        self.seen.append((s, copy))


@pytest.mark.parametrize("paths, m", [(101, 1), (50, 2)])
def test_lockstep_hands_each_step_its_own_increments(monkeypatch, paths, m):
    monkeypatch.setattr(mc, "_BLOCK_VALUES", 3 * paths * m + 1, raising=False)
    recorder = _Recorder()
    _lockstep([recorder], 5, paths, m, 0.0, 1e-2, 40)
    increments = Increments(5, paths, m, 1e-2)
    assert [s for s, _ in recorder.seen] == list(range(40))
    for s, dW in recorder.seen:
        assert np.array_equal(dW, increments.step(s))


class _Failing:
    def step(self, s, t, dW):
        if s == 7:
            raise RuntimeError("stepper failed")


def test_a_stepper_error_reaches_the_caller_and_no_thread_remains(monkeypatch):
    monkeypatch.setattr(mc, "_BLOCK_VALUES", 40, raising=False)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="stepper failed"):
        _lockstep([_Recorder(), _Failing()], 1, 20, 1, 0.0, 1e-2, 50)
    assert threading.active_count() == before


def test_a_producer_error_reaches_the_caller_and_no_thread_remains(monkeypatch):
    monkeypatch.setattr(mc, "_BLOCK_VALUES", 40, raising=False)
    calls = []
    lock = threading.Lock()

    def failing_ndtri(u, out=None):
        with lock:
            calls.append(1)
            if len(calls) == 3:
                raise FloatingPointError("draw failed")
        return ndtri(u, out=out)

    monkeypatch.setattr(mc, "ndtri", failing_ndtri)
    recorder = _Recorder()
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="draw failed"):
        _lockstep([recorder], 1, 20, 1, 0.0, 1e-2, 50)
    assert threading.active_count() == before
    assert len(recorder.seen) < 50


def _thread_ndtri(on_stepping_thread, on_worker):
    """An ndtri that calls ``on_stepping_thread(u)`` or ``on_worker(u)``
    first, by the thread it runs on, and records every call's thread and
    size."""
    stepping = threading.get_ident()
    calls = []
    lock = threading.Lock()

    def traced(u, out=None):
        here = threading.get_ident() == stepping
        with lock:
            calls.append((here, u.size))
        (on_stepping_thread if here else on_worker)(u)
        return ndtri(u, out=out)

    return traced, calls


def test_an_error_in_the_stepping_threads_draw_reaches_the_caller_and_no_thread_remains(monkeypatch):
    # 10-step blocks in 2-step chunks; the worker is slowed so that the
    # stepping thread claims chunks, and its second draw fails
    monkeypatch.setattr(mc, "_BLOCK_VALUES", 200, raising=False)
    monkeypatch.setattr(mc, "_CHUNK_VALUES", 40, raising=False)
    drawn = []

    def fail_second(u):
        drawn.append(u.size)
        if len(drawn) == 2:
            raise FloatingPointError("draw failed on the stepping thread")

    failing, _ = _thread_ndtri(fail_second, lambda u: time.sleep(5e-3))
    monkeypatch.setattr(mc, "ndtri", failing)
    recorder = _Recorder()
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="stepping thread"):
        _lockstep([recorder], 1, 20, 1, 0.0, 1e-2, 50)
    assert threading.active_count() == before
    assert len(drawn) == 2
    assert len(recorder.seen) < 50


def test_the_stepping_thread_fills_the_back_of_a_block_when_the_worker_is_slow(monkeypatch):
    # 12-step blocks in 3-step chunks; every draw on the worker sleeps
    paths, m, steps = 20, 2, 60
    monkeypatch.setattr(mc, "_BLOCK_VALUES", 12 * paths * m, raising=False)
    monkeypatch.setattr(mc, "_CHUNK_VALUES", 3 * paths * m, raising=False)
    slowed, calls = _thread_ndtri(lambda u: None, lambda u: time.sleep(5e-3))
    monkeypatch.setattr(mc, "ndtri", slowed)
    recorder = _Recorder()
    _lockstep([recorder], 9, paths, m, 0.0, 1e-2, steps)
    assert any(here for here, _ in calls) and not all(here for here, _ in calls)
    # every chunk is drawn once, by one thread
    assert sum(size for _, size in calls) == steps * paths * m
    assert all(size == 3 * paths * m for _, size in calls)
    increments = Increments(9, paths, m, 1e-2)
    assert [s for s, _ in recorder.seen] == list(range(steps))
    for s, dW in recorder.seen:
        assert np.array_equal(dW, increments.step(s))


def test_chunk_claims_under_frequent_thread_switches_fill_each_chunk_once(monkeypatch):
    # one-step chunks with the interpreter switching threads every
    # microsecond: a chunk claimed twice or by no thread changes the count of
    # values drawn or a step's increments
    paths, m, steps = 30, 1, 400
    monkeypatch.setattr(mc, "_BLOCK_VALUES", 8 * paths * m, raising=False)
    monkeypatch.setattr(mc, "_CHUNK_VALUES", 1, raising=False)
    counting, calls = _thread_ndtri(lambda u: None, lambda u: None)
    monkeypatch.setattr(mc, "ndtri", counting)
    recorder = _Recorder()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _lockstep([recorder], 4, paths, m, 0.0, 1e-3, steps)
    finally:
        sys.setswitchinterval(interval)
    assert sum(size for _, size in calls) == steps * paths * m
    increments = Increments(4, paths, m, 1e-3)
    assert [s for s, _ in recorder.seen] == list(range(steps))
    for s, dW in recorder.seen:
        assert np.array_equal(dW, increments.step(s))


# ---------------------------------------------------------------------------
# integrators


def test_em_exact_for_constant_coefficients():
    b = bundle("constant_coefficients")
    ens = euler_maruyama(b.system, [0.2], T=1.0, dt=1e-3, n_paths=40, seed=3, snapshots=0)
    A, B = b.ctx.params["A"], b.ctx.params["B"]
    closed = 0.2 + A * ens.times[:, None] + B * ens.w[:, :, 0]
    dev = np.max(np.abs(ens.states[:, :, 0] - closed) / np.maximum(1.0, np.abs(closed)))
    assert dev < 1e-12


def test_em_reduces_to_euler_without_noise():
    ctx = Context(n=1, m=1, params={"lam": -1.0})
    sys_ = ItoSystem(ctx, (parse("lam*x", ctx),), ((ZERO,),))
    ens = euler_maruyama(sys_, [1.0], T=1.0, dt=1e-3, n_paths=2, seed=0, snapshots=2)
    target = (1.0 - 1e-3) ** 1000
    assert ens.states[-1, 0, 0] == pytest.approx(target, rel=1e-12)
    assert abs(target - math.exp(-1.0)) < 1e-3  # O(dt) global error


def test_horizon_must_be_a_whole_number_of_steps():
    system = bundle("linear_additive").system
    # 1.0 / 0.3 rounds to 3 steps, which would end the run at t = 0.9
    with pytest.raises(FlowError, match="whole number of steps"):
        euler_maruyama(system, [1.0], T=1.0, dt=0.3, n_paths=4)
    # 0.3 / 0.1 is 2.9999999999999996 in floating point: three whole steps
    assert euler_maruyama(system, [1.0], T=0.3, dt=0.1, n_paths=4).steps == 3


def test_heun_matches_em_for_constant_sigma():
    b = bundle("linear_additive")
    strat = ito_to_strat(b.system)
    a = euler_maruyama(b.system, [1.0], T=0.5, dt=1e-3, n_paths=64, seed=5, snapshots=2)
    h = heun_stratonovich(strat, [1.0], T=0.5, dt=1e-3, n_paths=64, seed=5, snapshots=2)
    # same increments, schemes differ at O(dt) pathwise
    assert np.max(np.abs(a.terminal_states() - h.terminal_states())) < 5e-3


def test_heun_reduces_to_ode_integrator():
    ctx = Context(n=1, m=1, params={"lam": -1.0})
    from sdesym.sde import StratSystem

    sys_ = StratSystem(ctx, (parse("lam*x", ctx),), ((ZERO,),))
    ens = heun_stratonovich(sys_, [1.0], T=1.0, dt=1e-2, n_paths=1, seed=0, snapshots=2)
    assert ens.states[-1, 0, 0] == pytest.approx(math.exp(-1.0), abs=1e-4)


def test_divergent_paths_are_flagged():
    ctx = Context(n=1, m=1)
    sys_ = ItoSystem(ctx, (parse("x^3", ctx),), ((parse("x", ctx),),))  # explosive
    ens = euler_maruyama(sys_, [1.0], T=0.5, dt=1e-2, n_paths=64, seed=1, snapshots=2)
    assert 0.0 < ens.excluded_fraction < 1.0
    stats = ensemble_stats(ens)  # statistics over the surviving paths
    assert np.all(np.isfinite(stats.mean))
    assert _same_stats(stats, _reference_stats(ens.states, ~ens.excluded))


# ---------------------------------------------------------------------------
# snapshot statistics


def _reference_stats(states, include):
    """The statistics as a reduction over a copy of the whole kept history."""
    n_eff = int(np.sum(include))
    data = states[:, include, :]
    mean = data.mean(axis=1)
    var = data.var(axis=1, ddof=1) if n_eff > 1 else np.zeros_like(mean)
    return mean, var, np.sqrt(var / n_eff)


def _same_stats(stats, reference):
    return all(np.array_equal(a, b) for a, b in zip((stats.mean, stats.var, stats.se), reference))


@pytest.mark.parametrize("model, x0", [("linear_additive", [1.0]), ("isotropic_oscillator_2d", [1.0, -0.5])])
@pytest.mark.parametrize("last_only", [False, True])
@pytest.mark.parametrize("kept", ["all", "some", "one"])
def test_ensemble_stats_match_the_whole_history_reduction(model, x0, last_only, kept):
    ens = euler_maruyama(bundle(model).system, x0, T=0.5, dt=1e-2, n_paths=3000, seed=5, snapshots=10)
    if last_only:  # one snapshot (K = 1)
        ens = replace(ens, states=ens.states[-1:], snap_steps=ens.snap_steps[-1:])
    excluded = {
        "all": np.zeros(ens.n_paths, dtype=bool),
        "some": np.random.default_rng(3).random(ens.n_paths) < 0.3,
        "one": np.arange(ens.n_paths) != 1234,
    }[kept]
    ens = replace(ens, excluded=excluded)
    stats = ensemble_stats(ens)
    assert stats.n_effective == ens.n_paths - int(np.sum(excluded))
    assert _same_stats(stats, _reference_stats(ens.states, ~excluded))


def test_ensemble_stats_scratch_is_a_small_fraction_of_the_history():
    ens = euler_maruyama(bundle("linear_additive").system, [1.0], T=1.0, dt=1e-2, n_paths=20000, seed=1)
    assert ens.states.shape == (101, 20000, 1)
    tracemalloc.start()
    try:
        ensemble_stats(ens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ens.states.nbytes / 4


def test_weak_order_one_on_linear_problem():
    # Richardson ratio on shared refined increments: halving dt halves the
    # weak error, observed order >= 0.9 over dt in {4e-3, 2e-3, 1e-3}
    ctx = Context(n=1, m=1, params={"lam": -1.0, "mu": 0.1})
    sys_ = ItoSystem(ctx, (parse("lam*x", ctx),), ((parse("mu", ctx),),))
    n_paths, fine_steps = 20000, 1000
    increments = Increments(77, n_paths, 1, 1e-3)
    fine = np.empty((fine_steps, n_paths))  # increments at dt = 1e-3
    for s in range(fine_steps):
        fine[s] = increments.step(s)[:, 0]

    def em_mean(factor: int) -> float:
        dt = 1e-3 * factor
        steps = fine_steps // factor
        incs = fine.reshape(steps, factor, n_paths).sum(axis=1)
        x = np.ones(n_paths)
        for s in range(steps):
            x = x + (-1.0 * x) * dt + 0.1 * incs[s]
        return float(x.mean())

    m4, m2, m1 = em_mean(4), em_mean(2), em_mean(1)
    order = math.log2(abs(m4 - m2) / abs(m2 - m1))
    assert order >= 0.9, f"observed weak order {order:.2f}"


@pytest.mark.parametrize(
    "name, x0, T, params",
    [
        ("exp_decay_diffusion", 1.0, 0.4, None),
        ("power_noise", 1.0, 0.5, {"lam": -1.0, "mu": 0.3, "alpha": 2.0}),
        ("ei_drift", 1.0, 0.05, None),
        ("isotropic_nonlinear_oscillator", 0.6, 0.4, None),
    ],
)
def test_cross_scheme_consistency_bundled_nonconstant_sigma(name, x0, T, params):
    b = bundle(name)
    sys_ = b.system
    if params is not None:
        ctx = Context(n=b.ctx.n, m=b.ctx.m, params=params)
        sys_ = ItoSystem(ctx, sys_.drift, sys_.sigma)
    strat = ito_to_strat(sys_)
    x0v = [x0] * sys_.ctx.n
    n_paths = 2000 if name != "ei_drift" else 400
    a = euler_maruyama(sys_, x0v, T=T, dt=1e-3, n_paths=n_paths, seed=13, snapshots=2)
    h = heun_stratonovich(strat, x0v, T=T, dt=1e-3, n_paths=n_paths, seed=13, snapshots=2)
    include = ~(a.excluded | h.excluded)
    assert np.mean(~include) <= 0.05
    da = a.terminal_states()[include]
    db = h.terminal_states()[include]
    for i in range(sys_.ctx.n):
        se = math.sqrt(
            da[:, i].var(ddof=1) / len(da) + db[:, i].var(ddof=1) / len(db)
        )
        assert abs(float(da[:, i].mean() - db[:, i].mean())) < 4.0 * se + 1e-12


# ---------------------------------------------------------------------------
# group maps


def test_group_map_identity_at_zero():
    b = bundle("linear_additive")
    ens = euler_maruyama(b.system, [1.0], T=0.2, dt=1e-3, n_paths=16, seed=2)
    mapped = apply_group_map(ens, b.vectorfields["scaling"], 0.0)
    assert np.allclose(mapped.states, ens.states)
    assert np.allclose(mapped.w, ens.w)


def test_group_map_needs_the_wiener_history():
    b = bundle("linear_additive")
    ens = euler_maruyama(b.system, [1.0], T=0.1, dt=1e-2, n_paths=4, wiener=False)
    with pytest.raises(FlowError, match="did not record w"):
        apply_group_map(ens, b.vectorfields["scaling"], 0.3)


def test_scaling_map_is_exact_exponential():
    b = bundle("linear_additive")
    ens = euler_maruyama(b.system, [1.0], T=0.2, dt=1e-3, n_paths=16, seed=2)
    mapped = apply_group_map(ens, b.vectorfields["scaling"], 0.3)
    assert np.allclose(mapped.states, math.exp(0.3) * ens.states)
    assert np.allclose(mapped.w, math.exp(0.3) * ens.w)


def test_scaled_paths_satisfy_scaled_recursion():
    # e^s x_{k+1} = e^s x_k + lam (e^s x_k) dt + mu (e^s dW_k): the mapped
    # ensemble coincides pathwise with a run driven by scaled increments
    b = bundle("linear_additive")
    s = 0.3
    base = euler_maruyama(b.system, [1.0], T=0.2, dt=1e-3, n_paths=32, seed=6, snapshots=0)
    mapped = apply_group_map(base, b.vectorfields["scaling"], s)
    direct = euler_maruyama(
        b.system, [math.exp(s)], T=0.2, dt=1e-3, n_paths=32, seed=6, snapshots=0,
        dw_transform=np.array([[math.exp(s)]]),
    )
    assert np.allclose(mapped.states, direct.states, rtol=1e-12, atol=1e-12)


def test_rotation_map_numeric_flow_agrees_with_affine():
    ctx = Context(n=2, m=2)
    X = VectorField(
        ctx,
        (parse("-x2", ctx), parse("x1", ctx)),
        noise=LinearW.from_matrix([[0.0, -1.0], [1.0, 0.0]]),
    )
    states = np.random.default_rng(0).normal(size=(10, 2))
    w = np.random.default_rng(1).normal(size=(10, 2))
    exact = flow_map(X, 0.5)
    a_states, a_w = exact(states, w)
    angle = 0.5
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    assert np.allclose(a_states, states @ rot.T)
    assert np.allclose(a_w, w @ rot.T)


def test_nonaffine_flow_numeric_integration():
    ctx = Context(n=1, m=1)
    X = VectorField(ctx, (parse("x^2", ctx),), noise=None)
    mapping = flow_map(X, 0.2)
    states = np.array([[1.0]])
    out, _ = mapping(states, np.zeros((1, 1)))
    assert out[0, 0] == pytest.approx(1.0 / (1.0 - 0.2), rel=1e-8)


@pytest.mark.parametrize(
    "field, L, c",
    [
        ("shear", [[0.0, 1.3], [0.0, 1.0]], [0.0, 0.0]),  # phi = B*w
        ("split_translation", [[0.0, 0.0], [0.0, 1.0]], [1.3, 0.0]),  # phi = B
    ],
)
def test_parameter_affine_fields_take_the_exact_flow(field, L, c):
    # B = 1.3 is a model parameter: the generator binds it instead of
    # falling back to RK4
    generator = _affine_generator(bundle("constant_coefficients").vectorfields[field])
    assert generator is not None
    assert np.array_equal(generator[0], L)
    assert np.array_equal(generator[1], c)


def test_shear_flow_maps_solutions_to_solutions():
    b = bundle("constant_coefficients")
    ens = euler_maruyama(b.system, [0.2], T=1.0, dt=1e-3, n_paths=20, seed=8, snapshots=0)
    mapped = apply_group_map(ens, b.vectorfields["shear"], 0.45)
    A, B = b.ctx.params["A"], b.ctx.params["B"]
    x0 = mapped.states[0, :, 0]
    closed = x0[None, :] + A * ens.times[:, None] + B * (mapped.w[:, :, 0] - mapped.w[0, :, 0])
    dev = np.max(np.abs(mapped.states[:, :, 0] - closed) / np.maximum(1.0, np.abs(closed)))
    assert dev < 1e-12


# ---------------------------------------------------------------------------
# distributional validation


def test_validation_pass_for_scaling_symmetry():
    b = bundle("linear_additive")
    rep = symmetry_validation(
        b.system, b.vectorfields["scaling"], 0.3, [1.0],
        T=0.5, dt=1e-3, n_paths=4000, seed=11,
    )
    assert rep.verdict == "pass"


def test_validation_fail_for_non_symmetry():
    ctx = Context(n=1, m=1, params={"lam": -1.0, "mu": 0.3, "alpha": 2.0})
    sys4 = ItoSystem(ctx, (parse("lam*x", ctx),), ((parse("mu*x^alpha", ctx),),))
    X = VectorField(ctx, (parse("x", ctx),), noise=LinearW.from_matrix([[-1.0]]))
    rep = symmetry_validation(
        ito_to_strat(sys4), X, 0.5, [1.0], T=1.0, dt=1e-3,
        n_paths=4000, seed=12, scheme="heun",
    )
    assert rep.verdict == "fail"


def test_validation_rejects_unknown_scheme():
    b = bundle("linear_additive")
    with pytest.raises(ValueError, match="unknown scheme"):
        symmetry_validation(b.system, b.vectorfields["scaling"], 0.3, [1.0], T=0.01,
                            n_paths=8, scheme="euler")


def test_schemes_reject_the_other_calculus():
    b = bundle("linear_additive")
    X = b.vectorfields["scaling"]
    strat = ito_to_strat(b.system)
    with pytest.raises(ValueError, match="euler_maruyama"):
        euler_maruyama(strat, [1.0], T=0.01, n_paths=8)
    with pytest.raises(ValueError, match="heun_stratonovich"):
        heun_stratonovich(b.system, [1.0], T=0.01, n_paths=8)
    with pytest.raises(ValueError, match="'heun'"):
        symmetry_validation(b.system, X, 0.3, [1.0], T=0.01, n_paths=8, scheme="heun")
    with pytest.raises(ValueError, match="'euler_maruyama'"):
        symmetry_validation(strat, X, 0.3, [1.0], T=0.01, n_paths=8, scheme="euler_maruyama")


def test_validation_trivial_at_zero_parameter():
    b = bundle("linear_additive")
    rep = symmetry_validation(
        b.system, b.vectorfields["scaling"], 0.0, [1.0],
        T=0.1, dt=1e-3, n_paths=500, seed=1,
    )
    assert rep.verdict == "pass"
    assert np.max(rep.mean_sigmas) == pytest.approx(0.0, abs=1e-12)


def test_validation_inconclusive_with_fewer_than_two_kept_paths():
    ctx = Context(1, 1)
    explosive = ItoSystem(ctx, (parse("x^3", ctx),), ((parse("x", ctx),),))
    X = VectorField(ctx, (parse("x", ctx),), noise=LinearW.from_matrix([[0]]))
    every_path_diverges = symmetry_validation(explosive, X, 0.1, [50.0], T=0.5, dt=1e-2, n_paths=50, seed=1)
    assert (every_path_diverges.verdict, every_path_diverges.excluded_fraction) == ("inconclusive", 1.0)
    b = bundle("linear_additive")
    one_path = symmetry_validation(b.system, b.vectorfields["scaling"], 0.1, [1.0], T=0.5, dt=1e-2, n_paths=1)
    assert (one_path.verdict, one_path.excluded_fraction) == ("inconclusive", 0.0)


def test_validation_of_a_general_h_field_is_inconclusive():
    # phi = x with h = w1 is the LinearW [[1]] field, which passes; written as
    # a GeneralH it has no map of the increments to drive the mapped run, so
    # a run would compare paths that are not paired
    b = bundle("linear_additive")
    ctx = b.ctx
    X = VectorField(ctx, (parse("x", ctx),), noise=GeneralH((parse("w1", ctx),)))
    rep = symmetry_validation(b.system, X, 0.3, [1.0], T=0.5, dt=1e-2, n_paths=400, seed=3)
    assert rep.verdict == "inconclusive"
    assert "driver" in rep.detail
    linear = VectorField(ctx, (parse("x", ctx),), noise=LinearW.from_matrix([[1]]))
    assert symmetry_validation(b.system, linear, 0.3, [1.0], T=0.5, dt=1e-2, n_paths=400, seed=3).verdict == "pass"


# drift, sigma, the identity map's solution form (F, S), dt, paths, verdict;
# dt = 1/4 keeps the noiseless paths dyadic, so their variances are exactly 0
PAIRED_RULE_CASES = {
    "one path kept": ("0", "0", "0", "0", 0.25, 1, "inconclusive"),
    "over 5% excluded": ("(x-1)^3", "1", "0", "1", 0.01, 200, "inconclusive"),
    "zero SE, equal means": ("0", "0", "0", "0", 0.25, 16, "pass"),
    "zero SE, unequal means": ("x", "0", "2", "0", 0.25, 16, "fail"),
}


@pytest.mark.parametrize("case", PAIRED_RULE_CASES)
def test_validation_and_pipeline_share_the_paired_rule(case):
    f, sigma, F, S, dt, n_paths, want = PAIRED_RULE_CASES[case]
    ctx = Context(1, 1)
    x = parse("x", ctx)
    sys_ = ItoSystem(ctx, (parse(f, ctx),), ((parse(sigma, ctx),),))
    shift = VectorField(ctx, (ONE,))
    validation = symmetry_validation(sys_, shift, 0.5, [1.0], T=1.0, dt=dt, n_paths=n_paths, seed=5)
    form = SolutionForm(ctx, parse(F, ctx), (parse(S, ctx),))
    identity = ChangeOfVariables(ctx, (x,), inverse=(x,))
    pipeline = pipeline_crosscheck(sys_, identity, form, 1.0, 1.0, dt, n_paths, seed=5)
    assert (validation.verdict, pipeline.verdict) == (want, want)


# ---------------------------------------------------------------------------
# KS machinery


def test_ks_same_distribution_below_threshold():
    rng = np.random.default_rng(0)
    a, b_ = rng.normal(size=5000), rng.normal(size=5000)
    assert ks_statistic(a, b_) < ks_threshold(5000, 5000)


def test_ks_shifted_distribution_above_threshold():
    rng = np.random.default_rng(0)
    a, b_ = rng.normal(size=5000), rng.normal(size=5000) + 0.2
    assert ks_statistic(a, b_) > ks_threshold(5000, 5000)


# ---------------------------------------------------------------------------
# solution forms


def test_solution_form_constant_integrand_exact():
    ctx = Context(n=1, m=1, params={"A": 0.7, "B": 1.3})
    form = SolutionForm(ctx, parse("A", ctx), (parse("B", ctx),))
    grid = BrownianGrid.generate(5, 0, 0.0, 1.0, 1e-3, 1)
    traj = evaluate_solution_form(form, grid, x0=0.2)
    closed = 0.2 + 0.7 * grid.times + 1.3 * grid.w[:, 0]
    assert np.max(np.abs(traj - closed)) < 1e-12


def test_solution_form_terminals_match_single_path_evaluation():
    ctx = Context(n=1, m=1)
    form = SolutionForm(ctx, parse("exp(w)", ctx), (ZERO,))
    terms = solution_form_terminals(form, 0.0, 0.3, 1e-3, 4, seed=33, x0=-1.0)
    for p in range(4):
        grid = BrownianGrid.generate(33, p, 0.0, 0.3, 1e-3, 1)
        traj = evaluate_solution_form(form, grid, x0=-1.0)
        assert terms[p] == pytest.approx(traj[-1], rel=1e-12)


def test_pipeline_cross_validation_exp_decay():
    # integrate in the adapted variable, map back, compare against direct
    # simulation of the original equation on the same Brownian increments
    b = bundle("exp_decay_diffusion")
    step = reduce_step(b.system, b.vectorfields["shift"], b.covs["rectify"])
    form = integrate_scalar(step.transformed)
    y0 = 1.0
    x0_new = math.exp(y0)
    terms = solution_form_terminals(form, 0.0, 0.5, 1e-3, 2000, seed=44, x0=x0_new)
    direct = euler_maruyama(b.system, [y0], T=0.5, dt=1e-3, n_paths=2000, seed=44, snapshots=2)
    with np.errstate(all="ignore"):
        mapped_back = np.log(terms)
    ok = np.isfinite(mapped_back) & ~direct.excluded
    assert np.mean(~ok) <= 0.05
    a = mapped_back[ok]
    c = direct.terminal_states()[ok, 0]
    se = math.sqrt(a.var(ddof=1) / len(a) + c.var(ddof=1) / len(c))
    assert abs(float(a.mean() - c.mean())) < 4 * se + 1e-12


def test_pipeline_crosscheck_numeric_inverse_matches_symbolic():
    # the damped-Newton map-back must reproduce the symbolic inverse
    b = bundle("exp_decay_diffusion")
    cov = b.covs["rectify"]
    step = reduce_step(b.system, b.vectorfields["shift"], cov)
    form = integrate_scalar(step.transformed)
    no_inverse = ChangeOfVariables(b.ctx, cov.forward)
    assert no_inverse.inverse is None
    symbolic = pipeline_crosscheck(b.system, cov, form, 1.0, 0.4, 1e-3, 500, seed=3)
    numeric = pipeline_crosscheck(b.system, no_inverse, form, 1.0, 0.4, 1e-3, 500, seed=3)
    assert numeric.excluded_fraction == symbolic.excluded_fraction
    assert numeric.terminal_mean_pipeline == pytest.approx(symbolic.terminal_mean_pipeline, rel=1e-12)
    assert numeric.terminal_mean_direct == pytest.approx(symbolic.terminal_mean_direct, rel=1e-12)


def test_a_solution_form_holding_a_state_variable_is_refused():
    ctx = Context(n=1, m=1, params={"mu": 0.3})
    form = SolutionForm(ctx, ZERO, (parse("mu*exp(x1)/(exp(x1) - w1*mu*exp(x1))", ctx),))
    before = threading.active_count()
    with pytest.raises(ReductionError, match="x1"):
        solution_form_terminals(form, 0.0, 0.1, 1e-2, 50, seed=1, x0=0.0)
    assert threading.active_count() == before


def test_bundled_maps_that_fix_w_give_state_free_forms():
    integrated = set()
    for path in sorted(model_dir().glob("*.model")):
        b = load_model(path)
        if b.system.calculus != "ito" or b.ctx.n != 1:
            continue
        for cov_name, cov in b.covs.items():
            if cov.wiener is not None:
                continue
            for field_name, field in b.vectorfields.items():
                try:
                    form = integrate_scalar(reduce_step(b.system, field, cov).transformed)
                except (ReductionError, SymmetryError):  # not a simple symmetry, or not integrable
                    continue
                for e in (form.drift, *form.noises):
                    assert not free_vars(e) & set(b.ctx.states()), (path.stem, cov_name, field_name)
                integrated.add((path.stem, cov_name, field_name))
    assert integrated == {
        ("exp_decay_diffusion", "rectify", "shift"),
        ("exponential_drift", "rectify", "random"),
    }
