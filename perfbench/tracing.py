"""Spans around calls into the program's modules, recorded from outside it.

Tracing wraps each public function at every place a caller looks its
name up: every attribute of a ``delaysched`` module bound to the
function object (``delaysched.region.dominating_combination``,
``delaysched.cycles.build_maximal``, ...), and for two ``WindowGraph``
methods the class attribute.  Nothing inside ``src/`` changes; with
tracing off the wrappers are not installed at all.

A span is ``(name, start, end, parent, job)`` on ``Tracer.clock``; spans
stay in memory and are written out once the run ends.  A layer's self
time is its spans' durations minus the durations of their direct
children.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict


def _len_cycles(result, _args):
    return {"cycles.retained": len(result.cycles)}


def _scheduling_graph(result, _args):
    return {"schedgraph.vertices": len(result.vertices), "schedgraph.edges": result.edge_count}


def _extract(result, _args):
    return {"cycles.paths": 1, "cycles.candidates": len(result)}


def _pareto(result, args):
    return {"region.pareto_in": len(args[0]), "region.pareto_kept": len(result)}


def _simplex(_result, args):
    return {"exactlp.solves": 1, "exactlp.max_cols": len(args[0])}


# (span name, owner, attribute, counts from (return value, positional args)).
# The owner is a module of the package or ``window.WindowGraph``; the span's
# layer is the module that defines the function.
FUNCTIONS = (
    ("cli.main", "cli", "main", None),
    ("network.network_from_json", "network", "network_from_json", None),
    ("network.network_fingerprint", "network", "network_fingerprint", None),
    ("window.build_window", "window", "build_window",
     lambda r, a: {"window.masks": len(r.masks)}),
    ("window.independent_sets", "window.WindowGraph", "independent_sets", None),
    ("window.maximal_independent_sets", "window.WindowGraph", "maximal_independent_sets",
     lambda r, a: {"window.maximal_sets": len(r)}),
    ("schedgraph.build", "schedgraph", "build", _scheduling_graph),
    ("schedgraph.build_maximal", "schedgraph", "build_maximal",
     lambda r, a: {"schedgraph.estar": len(r.edges)}),
    ("cycles.algorithm_a", "cycles", "algorithm_a", _len_cycles),
    ("cycles.algorithm_b", "cycles", "algorithm_b", _len_cycles),
    ("cycles.path_to_cycles", "cycles", "path_to_cycles", _extract),
    ("cycles.johnson_cycles", "cycles", "johnson_cycles",
     lambda r, a: {"cycles.johnson_cycles": len(r.cycles)}),
    ("cycles.pareto_filter", "cycles", "pareto_filter", _pareto),
    ("region.region_from_cycles", "region", "region_from_cycles",
     lambda r, a: {"region.generators": len(r.generators)}),
    ("region.window_symmetric_rate", "region", "window_symmetric_rate", None),
    ("region.is_achievable", "region", "is_achievable", None),
    ("exactlp.dominating_combination", "exactlp", "dominating_combination", None),
    ("exactlp.max_symmetric_scale", "exactlp", "max_symmetric_scale", None),
    ("exactlp.simplex_min", "exactlp", "simplex_min", _simplex),
    ("schedule.schedule_from_closed_path", "schedule", "schedule_from_closed_path",
     lambda r, a: {"schedule.witnesses": 1}),
    ("schedule.verify", "schedule", "verify", None),
    ("schedule.rate_vector", "schedule", "rate_vector", None),
)

# Per-layer time metrics: metric name -> spans whose self time it sums.
TIME_METRICS = {
    "cli.self_ms": ("cli.main",),
    "network.parse_ms": ("network.network_from_json",),
    "network.fingerprint_ms": ("network.network_fingerprint",),
    "window.build_window_ms": ("window.build_window",),
    "window.independent_sets_ms": ("window.independent_sets",),
    "window.maximal_sets_ms": ("window.maximal_independent_sets",),
    "schedgraph.build_self_ms": ("schedgraph.build",),
    "schedgraph.build_maximal_self_ms": ("schedgraph.build_maximal",),
    "cycles.search_self_ms": ("cycles.algorithm_a", "cycles.algorithm_b"),
    "cycles.extract_ms": ("cycles.path_to_cycles",),
    "cycles.johnson_ms": ("cycles.johnson_cycles",),
    "region.self_ms": ("region.region_from_cycles", "region.window_symmetric_rate",
                       "region.is_achievable"),
    "region.pareto_ms": ("cycles.pareto_filter",),
    "exactlp.solve_ms": ("exactlp.dominating_combination", "exactlp.max_symmetric_scale",
                         "exactlp.simplex_min"),
    "schedule.verify_ms": ("schedule.schedule_from_closed_path", "schedule.verify",
                           "schedule.rate_vector"),
}


class Tracer:
    """Installs span-recording wrappers into the loaded ``delaysched`` modules."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.job: str | None = None
        self.clock = time.perf_counter
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        # Drain a generator so that its span covers the enumeration.
        drain = inspect.isgeneratorfunction(fn)

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = iter(list(result))
            finally:
                end = self.clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.job)
            if count is not None:
                _add(counts[self.job], count(result, args))
            return result

        return wrapper

    def install(self) -> None:
        owners = {}
        for _name, owner, _attr, _count in FUNCTIONS:
            modname, _, clsname = owner.partition(".")
            mod = importlib.import_module(f"delaysched.{modname}")
            owners[owner] = getattr(mod, clsname) if clsname else mod
        mods = [m for n, m in list(sys.modules.items())
                if n == "delaysched" or n.startswith("delaysched.")]
        for name, owner, attr, count in FUNCTIONS:
            fn = vars(owners[owner])[attr]
            wrapper = self._wrap(name, fn, count)
            sites = [owners[owner]] if "." in owner else mods
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is fn:
                        setattr(site, key, wrapper)
                        self._undo.append((site, key, fn))

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._undo):
            setattr(owner, key, fn)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_times_ms(self, first: int = 0, scale=None) -> dict[str, float]:
        """Self time per span name over ``spans[first:]``, in ms, each span
        multiplied by its job's entry in ``scale`` if given."""
        child = defaultdict(float)
        for sp in self.spans[first:]:
            if sp[3] is not None:
                child[sp[3]] += sp[2] - sp[1]
        out: dict[str, float] = defaultdict(float)
        for sid in range(first, len(self.spans)):
            name, start, end, _parent, job = self.spans[sid]
            out[name] += (end - start - child[sid]) * 1000.0 * (scale[job] if scale else 1.0)
        return out

    def totals(self) -> dict[str, int]:
        """Counts summed over jobs (``exactlp.max_cols``: the maximum)."""
        out: dict[str, int] = defaultdict(int)
        for counts in self.counts.values():
            _add(out, counts)
        return out

    def write(self, path) -> None:
        """One JSON line per span: id, name, start/end (s), parent id, job."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, round(start, 7), round(end, 7), parent, job]))
                fh.write("\n")


def _add(into: dict[str, int], counts: dict[str, int]) -> None:
    for key, value in counts.items():
        into[key] = max(into[key], value) if key == "exactlp.max_cols" else into[key] + value


def layer_metrics(self_ms: dict[str, float], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass from span self times and counts."""
    out = {metric: sum(self_ms.get(s, 0.0) for s in spans)
           for metric, spans in TIME_METRICS.items()}
    for key in ("window.maximal_sets", "window.masks", "schedgraph.vertices",
                "schedgraph.edges", "schedgraph.estar", "cycles.paths",
                "cycles.candidates", "cycles.retained", "cycles.johnson_cycles",
                "region.pareto_kept", "region.generators", "exactlp.solves",
                "exactlp.max_cols", "schedule.witnesses"):
        out[key] = counts.get(key, 0)
    out["cycles.retained_ratio"] = _ratio(counts.get("cycles.retained", 0),
                                          counts.get("cycles.candidates", 0))
    out["region.pareto_ratio"] = _ratio(counts.get("region.pareto_kept", 0),
                                        counts.get("region.pareto_in", 0))
    return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
