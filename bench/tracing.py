"""Per-layer spans for the traced run, attached to lapsim from outside.

``Tracer.install`` replaces each listed public function with a timing
wrapper in every ``lapsim`` module namespace that binds it (``simplex``
imports ``laplacian`` and ``spanning_tree_count`` by name, the package root
re-exports ``analyze``, ...), and ``uninstall`` puts the originals back.
A function's self time is its span time minus the time of the wrapped calls
it made.  Generator functions are timed while they are consumed: each resume
is one span, so ``fpp_points`` is charged for producing points and its
consumer for using them.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter_ns

LAYERS = {
    "graph": ("read_edge_list", "spanning_tree_count", "whisker", "bridge", "attach_tree", "leaf_move"),
    "linalg": ("determinant", "solve_exact", "inverse_scaled", "smith_normal_form"),
    "simplex": (
        "build",
        "facets",
        "contains_origin_interior",
        "is_reflexive",
        "ell_reflexive_index",
        "cofactor_reflexivity_test",
    ),
    "ehrhart": ("hstar", "fpp_points", "count_dilate_points"),
    "analysis": ("is_idp", "analyze"),
    "cli": ("main",),
}
HSTAR_STRATEGIES = (
    "generic_snf",
    "cycle_closed_form",
    "complete_compositions",
    "tree_closed_form",
    "dilate_interpolation",
)
STATS = (("calls", "count"), ("self_ms", "ms"), ("share", "ratio"))
# (name, unit) of the counters, besides the per-function stats
COUNTERS = (
    ("ehrhart.fpp_points.points", "count"),
    ("ehrhart.fpp_points.us_per_point", "us"),
    ("linalg.smith_normal_form.nonunit", "count"),
    ("simplex.facets.calls_per_graph", "count"),
    ("linalg.inverse_scaled.calls_per_graph", "count"),
    ("trace.overhead_pct", "%"),
)


def span_names():
    for module, functions in LAYERS.items():
        for fn in functions:
            if (module, fn) == ("ehrhart", "hstar"):
                yield from (f"ehrhart.hstar.{s}" for s in HSTAR_STRATEGIES)
            else:
                yield f"{module}.{fn}"


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{span}.{stat}": unit for span in span_names() for stat, unit in STATS}
    units.update(COUNTERS)
    return units


def _hstar_span(kwargs, result):
    if result is not None:
        return f"ehrhart.hstar.{result.strategy}"
    # Interrupted: closed forms return within microseconds, so an auto-selected
    # call that ran into the deadline was on the generic path.
    return f"ehrhart.hstar.{kwargs.get('strategy') or 'generic_snf'}"


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_ns = {}
        self.counts = {}
        self.absent = []  # listed functions the package no longer has
        self._children = []  # per open span: time covered by its child spans
        self._patched = []

    def reset_stack(self):
        """Drop spans left open by a case interrupted between bookkeeping steps."""
        self._children.clear()

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def _close(self, name, t0, new_call):
        elapsed = perf_counter_ns() - t0
        child = self._children.pop()
        if self._children:
            self._children[-1] += elapsed
        self.self_ns[name] = self.self_ns.get(name, 0) + elapsed - child
        if new_call:
            self.calls[name] = self.calls.get(name, 0) + 1

    def _wrap(self, name, fn):
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def traced(*args, **kwargs):
                it = fn(*args, **kwargs)
                first = True
                while True:
                    tracer._children.append(0)
                    t0 = perf_counter_ns()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(name, t0, first)
                        first = False
                    tracer.count(f"{name}.points")
                    yield item

        else:

            def traced(*args, **kwargs):
                result = None
                tracer._children.append(0)
                t0 = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    span = _hstar_span(kwargs, result) if name == "ehrhart.hstar" else name
                    tracer._close(span, t0, True)
                    if name == "linalg.smith_normal_form" and result is not None:
                        tracer.count(f"{name}.nonunit", sum(1 for d in result.diagonal if d != 1))

        traced.__wrapped__ = fn
        return traced

    def install(self):
        self.absent = []
        modules = [m for name, m in list(sys.modules.items()) if name == "lapsim" or name.startswith("lapsim.")]
        for module, functions in LAYERS.items():
            home = sys.modules[f"lapsim.{module}"]
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if original is None:
                    self.absent.append(f"{module}.{fn_name}")
                    continue
                traced = self._wrap(f"{module}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, traced)
                            self._patched.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def metrics(self, wall_s, graphs, untraced_wall_s):
        """Per-layer metrics for a traced pass of ``graphs`` cases."""
        out = {}
        for span in span_names():
            self_ms = self.self_ns.get(span, 0) / 1e6
            out[f"{span}.calls"] = self.calls.get(span, 0)
            out[f"{span}.self_ms"] = self_ms
            out[f"{span}.share"] = self_ms / (wall_s * 1e3)
        points = self.counts.get("ehrhart.fpp_points.points", 0)
        out["ehrhart.fpp_points.points"] = points
        out["ehrhart.fpp_points.us_per_point"] = (
            out["ehrhart.fpp_points.self_ms"] * 1e3 / points if points else 0.0
        )
        out["linalg.smith_normal_form.nonunit"] = self.counts.get("linalg.smith_normal_form.nonunit", 0)
        out["simplex.facets.calls_per_graph"] = out["simplex.facets.calls"] / graphs
        out["linalg.inverse_scaled.calls_per_graph"] = out["linalg.inverse_scaled.calls"] / graphs
        out["trace.overhead_pct"] = 100.0 * (wall_s / untraced_wall_s - 1.0)
        return out
