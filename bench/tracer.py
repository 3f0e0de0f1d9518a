"""Span tracer that wraps primcoal's public names from outside the package.

The package itself carries no instrumentation.  For a traced pass the
benchmark replaces each target name, wherever a primcoal module binds it
(for example ``primcoal.cli.graph_route`` as well as
``primcoal.multiplicative.graph_route``), with a wrapper that records one
span per call: label, start, end and the index of the enclosing span.
Spans stay in memory until the run ends; self time is a span's duration
minus the time its child spans cover.  A target that the package no longer
defines is reported as absent rather than raising.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

MODULES = ("graphs", "walks", "multiplicative", "additive", "limits", "states", "oracles", "cli")


def _first_len(result, args, kwargs):
    return len(args[0].values if args else kwargs["f"].values)


@dataclass(frozen=True)
class Target:
    """One traced name.

    ``attr`` is a module attribute.  With ``methods`` empty it is a function
    and every primcoal binding of it is wrapped; otherwise it is a class and
    the listed methods are wrapped on the class.  ``counts`` pairs a count
    name with ``fn(result, args, kwargs) -> int`` evaluated after each call.
    """

    label: str
    module: str
    attr: str
    methods: tuple[str, ...] = ()
    counts: tuple = ()


TARGETS = (
    Target("graphs.random_complete_graph", "graphs", "random_complete_graph",
           counts=(("graphs.edges", lambda r, a, k: r.m),)),
    Target("graphs.prim_order", "graphs", "prim_order"),
    Target("graphs.component_filtration", "graphs", "component_filtration"),
    Target("graphs.ComponentFiltration.components_at", "graphs", "ComponentFiltration",
           ("components_at",)),
    Target("graphs.level_components", "graphs", "level_components"),
    Target("multiplicative.reorder_field_from_graph", "multiplicative", "reorder_field_from_graph"),
    Target("multiplicative.z_walk", "multiplicative", "z_walk"),
    Target("multiplicative.surplus_field", "multiplicative", "surplus_field"),
    Target("multiplicative.UniformField.sample", "multiplicative", "UniformField", ("sample",)),
    Target("multiplicative.graph_route", "multiplicative", "graph_route"),
    Target("multiplicative.sample_edge_weights", "multiplicative", "sample_edge_weights",
           counts=(("multiplicative.edges_sampled", lambda r, a, k: len(r[0])),)),
    Target("multiplicative.connected_components", "multiplicative", "connected_components",
           counts=(("multiplicative.components", lambda r, a, k: int(r[0])),)),
    Target("multiplicative.augmented_state", "multiplicative", "augmented_state"),
    Target("multiplicative.sparse_z_trace", "multiplicative", "sparse_z_trace",
           counts=(("multiplicative.trace_steps", lambda r, a, k: len(r) - 2),)),
    Target("walks.excursions_above_min", "walks", "excursions_above_min",
           counts=(("walks.scan_points", _first_len),)),
    Target("walks.psi", "walks", "psi"),
    Target("walks.walk_component_sizes", "walks", "walk_component_sizes"),
    Target("additive.sample_conditioned_walk", "additive", "sample_conditioned_walk"),
    Target("additive.ThinnedWalkFamily", "additive", "ThinnedWalkFamily", ("__init__", "path")),
    Target("additive.gamma_plus", "additive", "gamma_plus"),
    Target("additive.pitman_forest", "additive", "pitman_forest",
           counts=(("additive.forest_merges", lambda r, a, k: len(r.merges)),)),
    Target("additive.ForestProcess.tree_sizes_at", "additive", "ForestProcess", ("tree_sizes_at",)),
    Target("limits.simulate_parabolic", "limits", "simulate_parabolic",
           counts=(("limits.grid_points", lambda r, a, k: len(r.values)),)),
    Target("limits.simulate_excursion", "limits", "simulate_excursion",
           counts=(("limits.grid_points", lambda r, a, k: len(r.values)),)),
    Target("limits.limit_gamma", "limits", "limit_gamma"),
    Target("limits.marcus_lushnikov", "limits", "marcus_lushnikov",
           counts=(("limits.ml_events", lambda r, a, k: len(r.events)),)),
    Target("limits.MLTrajectory.masses_at", "limits", "MLTrajectory", ("masses_at",)),
    Target("limits.ml_multiplicative_sizes", "limits", "ml_multiplicative_sizes"),
    Target("limits.ml_additive_sizes", "limits", "ml_additive_sizes"),
    Target("states.MassVector", "states", "MassVector", ("__init__",)),
    Target("states.AugmentedState", "states", "AugmentedState", ("__init__",)),
    Target("oracles.empirical_counts", "oracles", "empirical_counts"),
    Target("oracles.tv_two_sample", "oracles", "tv_two_sample"),
    Target("oracles.ks_two_sample", "oracles", "ks_two_sample"),
    Target("cli.main", "cli", "main"),
    Target("cli.cmd_simulate_additive", "cli", "cmd_simulate_additive"),
    Target("cli.cmd_simulate_multiplicative", "cli", "cmd_simulate_multiplicative"),
    Target("cli.cmd_limit_compare", "cli", "cmd_limit_compare"),
    Target("cli.cmd_ml_oracle", "cli", "cmd_ml_oracle"),
    Target("cli.cmd_trace", "cli", "cmd_trace"),
    Target("cli._write_rows", "cli", "_write_rows",
           counts=(("cli.rows_written", lambda r, a, k: len(a[2])),
                   ("cli.bytes_written", lambda r, a, k: os.path.getsize(a[0])))),
)

COUNTS = tuple(dict.fromkeys(name for t in TARGETS for name, _ in t.counts))


def _bindings() -> list[dict]:
    """Namespaces through which primcoal code looks names up.

    Every loaded primcoal module, plus the CLI's handler table, which main()
    indexes instead of calling the cmd_* functions by name.
    """
    spaces = [
        vars(mod)
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "primcoal" or name.startswith("primcoal."))
    ]
    handlers = getattr(sys.modules.get("primcoal.cli"), "_HANDLERS", None)
    if isinstance(handlers, dict):
        spaces.append(handlers)
    return spaces


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.self_s: dict = defaultdict(float)
        self.calls: Counter = Counter()
        self.absent: list[str] = []
        self._closed = 0
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, label, fn, counts):
        spans, stack, tally = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, parent)
            for key, count in counts:
                tally[key] += count(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; names the package lacks are noted as absent."""
        spaces = _bindings()
        absent = []
        for t in TARGETS:
            mod = sys.modules.get(f"primcoal.{t.module}")
            obj = getattr(mod, t.attr, None)
            if obj is None:
                absent.append(t.label)
                continue
            if not t.methods:
                wrapper = self._wrap(t.label, obj, t.counts)
                for space in spaces:
                    for key, value in list(space.items()):
                        if value is obj:
                            self._undo.append((space.__setitem__, key, value))
                            space[key] = wrapper
                continue
            for meth in t.methods:
                orig = obj.__dict__.get(meth)
                if orig is None:
                    absent.append(f"{t.label}.{meth}")
                    continue
                if isinstance(orig, (classmethod, staticmethod)):
                    wrapped = type(orig)(self._wrap(t.label, orig.__func__, t.counts))
                else:
                    wrapped = self._wrap(t.label, orig, t.counts)
                self._undo.append((functools.partial(setattr, obj), meth, orig))
                setattr(obj, meth, wrapped)
        self.absent = sorted(set(absent))

    def uninstall(self) -> None:
        while self._undo:
            put, key, value = self._undo.pop()
            put(key, value)

    def close_pass(self, factor: float) -> None:
        """Add up self time and calls of the spans recorded since the last close.

        Self time is a span's duration minus the time its child spans cover,
        scaled by the pass's host-speed factor into reference seconds.
        """
        lo = self._closed
        spans = self.spans[lo:]
        child = [0.0] * len(spans)
        for label, start, end, parent in spans:
            if parent >= 0:
                child[parent - lo] += end - start
        for i, (label, start, end, _) in enumerate(spans):
            self.self_s[label] += ((end - start) - child[i]) * factor
            self.calls[label] += 1
        self._closed = len(self.spans)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{m}.self_s" for m in MODULES]
    for t in TARGETS:
        names += [f"{t.label}.self_s", f"{t.label}.calls"]
    return names + list(COUNTS) + ["trace_overhead"]


def layer_metrics(tracer: Tracer, passes: int, overhead: float) -> dict:
    """Per-pass means of self time, calls and counts; absent names read 0."""
    self_s, calls = tracer.self_s, tracer.calls
    out = {}
    for m in MODULES:
        total = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == m)
        out[f"{m}.self_s"] = (total / passes, "s")
    for t in TARGETS:
        out[f"{t.label}.self_s"] = (self_s.get(t.label, 0.0) / passes, "s")
        out[f"{t.label}.calls"] = (calls.get(t.label, 0) / passes, "count")
    for c in COUNTS:
        out[c] = (tracer.counts.get(c, 0) / passes, "bytes" if c.endswith("bytes_written") else "count")
    out["trace_overhead"] = (overhead, "ratio")
    return out
