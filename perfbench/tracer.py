"""Per-layer tracing from outside the program.

The tracer replaces each traced public function, at every module binding
the program calls it through, by a wrapper that records one span per call.
Spans are aggregated in memory as they close: calls and self time per
function, where self time is the span's duration minus the time covered by
its traced child spans.  One function bound in several modules gets one
wrapper, so a call is counted once whichever binding it went through.

Bindings that matter (a patch of the defining module alone misses them):
``analyzer`` imports ``is_schur``, ``is_simple_von_neumann``,
``char_poly_closed`` and ``amplification_matrix_at_q`` by name; ``cli``
imports ``classify_point``, ``classify_point_2d``, ``run_growth`` and
``empirical_verdict`` by name; ``run_growth`` looks ``step`` up as a global
of ``simulator``; the analyzer's own functions call each other through the
globals of ``analyzer``.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter, defaultdict

# Module whose globals are patched -> names looked up there at call time.
BINDINGS = {
    "fdtd_stability.analyzer": (
        "is_schur", "is_simple_von_neumann", "char_poly_closed",
        "amplification_matrix_at_q", "classify_at_q", "classify_point",
        "classify_point_2d", "gn_bounded", "worst_case_verdict",
        "stability_boundary_k"),
    "fdtd_stability.cli": (
        "classify_at_q", "classify_point", "classify_point_2d", "run_growth",
        "empirical_verdict", "run_verify"),
    "fdtd_stability.simulator": ("step", "run_growth", "empirical_verdict"),
}

# Span names (layer.function) in report order; each gets .calls and
# .self_share, its self time over the traced pass's wall time.
SPANS = (
    "polyloc.is_simple_von_neumann",
    "polyloc.is_schur",
    "schemes.char_poly_closed",
    "schemes.amplification_matrix_at_q",
    "analyzer.classify_at_q",
    "analyzer.gn_bounded",
    "analyzer.worst_case_verdict",
    "analyzer.stability_boundary_k",
    "analyzer.classify_point",
    "analyzer.classify_point_2d",
    "simulator.run_growth",
    "simulator.step",
    "simulator.empirical_verdict",
    "cli.run_verify",
)
LAYERS = ("polyloc", "schemes", "analyzer", "simulator", "cli")
BRANCHES = ("schur", "von-neumann", "sub-polynomial", "g-form", "eigenvectors")


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _count_levels(counts, args, kwargs, result):
    counts["polyloc.levels"] += len(result.levels)


def _count_branch(counts, args, kwargs, result):
    counts["analyzer.classify_at_q.branch." + result.argument.value] += 1


def _count_step(counts, args, kwargs, result):
    # Computed bytes: every state array read once and written once per
    # step; temporaries and cache behaviour are not counted.
    before = args[1].arrays.values()
    counts["simulator.cell_updates"] += math.prod(args[1].grid_shape)
    counts["simulator.bytes_computed"] += (
        sum(a.nbytes for a in before)
        + sum(a.nbytes for a in result.arrays.values()))


def _count_growth(counts, args, kwargs, result):
    counts["simulator.steps_requested"] += kwargs.get("steps", args[5] if len(args) > 5 else 0)


def _count_verify(counts, args, kwargs, result):
    plan = args[0] if args else kwargs["plan"]
    counts["cli.plan_points"] += len(plan)
    counts["cli.plan_steps"] += sum(pt.steps for pt in plan)


HOOKS = {
    "polyloc.is_simple_von_neumann": _count_levels,
    "polyloc.is_schur": _count_levels,
    "analyzer.classify_at_q": _count_branch,
    "simulator.step": _count_step,
    "simulator.run_growth": _count_growth,
    "cli.run_verify": _count_verify,
}


class Tracer:
    """Context manager: patches the bindings on entry, restores them on
    exit, and keeps the aggregated spans and counts."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack = [0.0]  # traced child time of each open span
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn):
        name = _span_name(fn)
        hook = HOOKS.get(name)
        calls, self_s, counts, stack = self.calls, self.self_s, self.counts, self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                inner = stack.pop()
                stack[-1] += dt
                calls[name] += 1
                self_s[name] += dt - inner
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        wrappers = {}
        for mod_name, names in BINDINGS.items():
            mod = importlib.import_module(mod_name)
            for attr in names:
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue  # binding gone: its layer reports zero calls
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrappers[id(fn)])
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit).  Self times are given
        as shares of wall_s, the traced pass's wall time; other ratios come
        with their bases among the other entries."""
        c, n = self.counts, self.calls
        out: dict[str, tuple[float, str]] = {}
        for span in SPANS:
            out[span + ".calls"] = (n[span], "count")
            out[span + ".self_share"] = (self.self_s[span] / wall_s, "share")
        out["polyloc.levels"] = (c["polyloc.levels"], "count")
        for b in BRANCHES:
            key = "analyzer.classify_at_q.branch." + b
            out[key] = (c[key], "count")
        out["analyzer.probes_per_worst_case"] = (
            _ratio(n["analyzer.classify_at_q"], n["analyzer.worst_case_verdict"]), "ratio")
        out["analyzer.verdicts_per_search"] = (
            _ratio(n["analyzer.worst_case_verdict"], n["analyzer.stability_boundary_k"]),
            "ratio")
        out["simulator.cell_updates"] = (c["simulator.cell_updates"], "count")
        out["simulator.cell_updates_per_s"] = (
            _ratio(c["simulator.cell_updates"], self.self_s["simulator.step"]), "1/s")
        out["simulator.bytes_per_step_computed"] = (
            _ratio(c["simulator.bytes_computed"], n["simulator.step"]), "B")
        points = c["cli.plan_points"]
        runs = n["simulator.run_growth"] if points else 0
        out["cli.plan_points"] = (points, "count")
        out["cli.retry_runs"] = (runs - points, "count")
        out["cli.escalated_steps"] = (
            c["simulator.steps_requested"] - c["cli.plan_steps"] if points else 0, "count")
        out["cli.useful_run_share"] = (_ratio(points, runs), "share")
        for layer in LAYERS:
            out[layer + ".self_share"] = (self.layer_self_s(layer) / wall_s, "share")
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
