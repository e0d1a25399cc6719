"""Per-layer tracing by identity wrapping, installed from outside the program.

Each layer is a module of ``sdesym`` (the Monte Carlo module is split by
job).  Installing the tracer replaces every binding of each target function
in every loaded ``sdesym.*`` module with a wrapper: ``simplify``, for one, is
bound by ``from .simplify import simplify`` in several modules, and the
package attribute ``sdesym.expr.simplify`` is that function, not the
submodule.  Nothing under ``src/`` is edited.

Spans: a call into a layer opens a span unless the innermost open span is
already of that layer; such a re-entrant call is counted but not timed.  A
layer's busy time sums its outermost spans only.  Its self time sums, over
its spans, the span's duration minus the time covered by spans of other
layers nested directly inside it, so self times never add up to more than
the traced wall time.

A target that no longer exists marks its layer unmeasured (its metrics read
-1) instead of failing, so that later changes to the program's internals
need no change here.
"""

from __future__ import annotations

import sys
import types
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

UNMEASURED = -1

# layer -> [(module, function or Class.method)]
LAYERS: Dict[str, List[Tuple[str, str]]] = {
    "expr.parser": [("sdesym.expr.parser", "parse")],
    "expr.simplify": [
        ("sdesym.expr.simplify", "simplify"),
        ("sdesym.expr.simplify", "is_structural_zero"),
    ],
    "expr.calculus": [
        ("sdesym.expr.calculus", "differentiate"),
        ("sdesym.expr.calculus", "substitute"),
        ("sdesym.expr.calculus", "subst_many"),
    ],
    "expr.zerotest": [
        ("sdesym.expr.zerotest", "is_identically_zero"),
        ("sdesym.expr.zerotest", "expressions_equal"),
    ],
    "expr.evaluate": [
        ("sdesym.expr.evaluate", "evaluate"),
        ("sdesym.expr.evaluate", "eval_magnitude"),
        ("sdesym.expr.evaluate", "eval_array"),
        ("sdesym.expr.evaluate", "expint_ei"),
    ],
    "modelfile": [
        ("sdesym.modelfile", "load_model"),
        ("sdesym.modelfile", "render_system"),
    ],
    "sde": [
        ("sdesym.sde", name)
        for name in (
            "ito_to_strat", "strat_to_ito", "drift_correction", "ito_laplacian",
            "sigma_rank_info", "transport_operator", "shift_operator",
        )
    ],
    "symmetry": [
        ("sdesym.symmetry", name)
        for name in (
            "classify", "conformal_check", "residual_standard_ito",
            "residual_standard_strat", "residual_W_ito", "residual_W_strat",
            "agreement_analysis", "sigma_operator", "dilation_obstruction",
            "dilation_obstruction_check", "sigma_spatially_constant",
            "lie_bracket", "solvability_check",
        )
    ],
    "reduction": [
        ("sdesym.reduction", name)
        for name in (
            "sym_det", "sym_inverse", "integrating_variable", "compatibility_check",
            "transform_ito", "ito_preservation_check", "transform_W", "numeric_inverse",
            "rectification_check", "scaling_adapted_cov", "rotation_adapted_cov",
            "reduce_step", "pushforward_standard", "pushforward_split_W",
            "reduce_sequence", "integrate_scalar",
        )
    ],
    "montecarlo.increments": [
        ("sdesym.montecarlo", "_path_keys"),
        ("sdesym.montecarlo", "_uniforms"),
        ("sdesym.montecarlo", "ndtri"),
        ("sdesym.montecarlo", "step_normals"),
    ],
    "montecarlo.integrate": [
        ("sdesym.montecarlo", "euler_maruyama"),
        ("sdesym.montecarlo", "heun_stratonovich"),
    ],
    "montecarlo.flow": [
        ("sdesym.montecarlo", "flow_map"),
        ("sdesym.montecarlo", "apply_group_map"),
    ],
    "montecarlo.quadrature": [
        ("sdesym.montecarlo", "evaluate_solution_form"),
        ("sdesym.montecarlo", "solution_form_terminals"),
    ],
    "montecarlo.stats": [
        ("sdesym.montecarlo", "ensemble_stats"),
        ("sdesym.montecarlo", "ks_statistic"),
        ("sdesym.montecarlo", "ks_threshold"),
        ("sdesym.montecarlo", "symmetry_validation"),
        ("sdesym.montecarlo", "StatsReport.to_csv"),
    ],
    "cli": [("sdesym.cli", "main")],
}

# flow_map returns the map itself; calls to it belong to the flow layer too
WRAP_RESULT = {("sdesym.montecarlo", "flow_map")}


# counter -> the layers whose targets and hooks it is read from
COUNTER_LAYERS = {
    "expr.simplify.cache_entries": ("expr.simplify",),
    "expr.calculus.cache_hit_ratio": ("expr.calculus",),
    "expr.zerotest.structural": ("expr.zerotest",),
    "expr.zerotest.sampled": ("expr.zerotest",),
    "expr.zerotest.points_evaluated": ("expr.zerotest",),
    "expr.zerotest.point_failures": ("expr.zerotest",),
    "expr.zerotest.inconclusive": ("expr.zerotest",),
    "expr.evaluate.scalar_calls": ("expr.evaluate",),
    "expr.evaluate.array_calls": ("expr.evaluate",),
    "expr.evaluate.array_lanes_mean": ("expr.evaluate",),
    "montecarlo.increments.draws": ("montecarlo.increments",),
    "montecarlo.integrate.path_steps": ("montecarlo.integrate",),
    "montecarlo.excluded_paths": ("montecarlo.integrate",),
    "montecarlo.flow.array_calls": ("montecarlo.flow", "expr.evaluate"),
}


class Tracer:
    def __init__(self):
        self.layer_of: Dict[Tuple[str, str], str] = {}
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.depth: Dict[str, int] = defaultdict(int)
        self.stack: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.missing: Dict[str, List[str]] = defaultdict(list)
        self.broken: set = set()  # counter hooks that no longer fit the program
        self.originals: Dict[Tuple[str, str], object] = {}
        self.hooks = self._hooks()

    def wrap(self, layer: str, fn: Callable, key: Tuple[str, str]) -> Callable:
        self.layer_of[key] = layer
        calls, stack, depth = self.calls, self.stack, self.depth
        busy, self_time = self.busy, self.self_time
        hook = self.hooks.get(key)
        wrap_result = key in WRAP_RESULT
        tracer = self

        def traced(*args, **kwargs):
            calls[key] += 1
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                outermost = depth[layer] == 0
                depth[layer] += 1
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    depth[layer] -= 1
                    self_time[layer] += elapsed - frame[1]
                    if outermost:
                        busy[layer] += elapsed
                    if stack:
                        stack[-1][1] += elapsed
            if hook is not None:
                try:
                    hook(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    tracer.broken.add(key)
            if wrap_result and callable(result):
                result = tracer.wrap(layer, result, (key[0], key[1] + "()"))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every binding of every target in the loaded sdesym modules."""
        loaded = [
            m for name, m in list(sys.modules.items())
            if isinstance(m, types.ModuleType) and (name == "sdesym" or name.startswith("sdesym."))
        ]
        for layer, targets in LAYERS.items():
            for module_name, qualname in targets:
                key = (module_name, qualname)
                owner = sys.modules.get(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if not callable(original):
                    self.missing[layer].append(f"{module_name}:{qualname}")
                    continue
                self.originals[key] = original
                wrapper = self.wrap(layer, original, key)
                if path:
                    setattr(owner, attr, wrapper)
                    continue
                for module in loaded:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)

    def _hooks(self) -> Dict[Tuple[str, str], Callable]:
        c = self.counters
        depth = self.depth

        def zero_verdict(args, kwargs, v):
            c["expr.zerotest.structural"] += v.mode == "structural"
            c["expr.zerotest.sampled"] += v.mode == "sampled"
            c["expr.zerotest.points_evaluated"] += v.points_evaluated
            c["expr.zerotest.point_failures"] += v.failures
            c["expr.zerotest.inconclusive"] += v.status == "inconclusive"

        def array_call(args, kwargs, result):
            point = args[1] if len(args) > 1 else kwargs["point"]
            c["array_lanes"] += max((getattr(v, "size", 1) for v in point.values()), default=1)
            if depth["montecarlo.flow"]:
                c["montecarlo.flow.array_calls"] += 1

        def draws(args, kwargs, u):
            c["montecarlo.increments.draws"] += u.size

        def ensemble(args, kwargs, ens):
            c["montecarlo.integrate.path_steps"] += ens.n_paths * ens.steps
            c["montecarlo.excluded_paths"] += int(ens.excluded.sum())

        mc = "sdesym.montecarlo"
        return {
            ("sdesym.expr.zerotest", "is_identically_zero"): zero_verdict,
            ("sdesym.expr.evaluate", "eval_array"): array_call,
            (mc, "_uniforms"): draws,
            (mc, "euler_maruyama"): ensemble,
            (mc, "heun_stratonovich"): ensemble,
        }

    def report(self) -> Dict[str, float]:
        """Per-layer numbers of this process; -1 marks unmeasured."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            lost = bool(self.missing[layer])
            calls = sum(n for key, n in self.calls.items() if self.layer_of[key] == layer)
            out[f"{layer}.calls"] = UNMEASURED if lost else calls
            out[f"{layer}.busy_s"] = UNMEASURED if lost else self.busy[layer]
            out[f"{layer}.self_s"] = UNMEASURED if lost else self.self_time[layer]

        ev = "sdesym.expr.evaluate"
        c = dict(self.counters)
        c["expr.evaluate.scalar_calls"] = self.calls[(ev, "evaluate")] + self.calls[(ev, "eval_magnitude")]
        array_calls = self.calls[(ev, "eval_array")]
        c["expr.evaluate.array_calls"] = array_calls
        c["expr.evaluate.array_lanes_mean"] = c.pop("array_lanes", 0.0) / max(array_calls, 1)
        cache = getattr(sys.modules.get("sdesym.expr.simplify"), "_cache", None)
        c["expr.simplify.cache_entries"] = len(cache) if isinstance(cache, dict) else UNMEASURED
        info = getattr(self.originals.get(("sdesym.expr.calculus", "differentiate")), "cache_info", None)
        if info is None:
            c["expr.calculus.cache_hit_ratio"] = UNMEASURED
        else:
            hits, misses = info().hits, info().misses
            c["expr.calculus.cache_hit_ratio"] = hits / max(hits + misses, 1)
        broken = {self.layer_of[key] for key in self.broken}
        for name, layers in COUNTER_LAYERS.items():
            lost = any(self.missing[layer] or layer in broken for layer in layers)
            out[name] = UNMEASURED if lost else c.get(name, 0.0)
        return out

    def unmeasured(self) -> Dict[str, List[str]]:
        return {layer: names for layer, names in self.missing.items() if names}
