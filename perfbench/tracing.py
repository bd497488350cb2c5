"""Outside-in tracing of one pipeline run.

The tracer wraps the public functions that ``twotier.report.run_pipeline``
reaches, from outside the program: every module-level binding of a wrapped
function is replaced, including the names ``report.py`` imports directly
(``load_log``, ``build_frames``, ``closeness_all`` ...), so calls made from
inside a module (``dynamic_influence`` -> ``wks_decompose``) are spans too.
Spans stay in memory as ``(name, start, end, parent)`` and are written out
once the run is over.  A span's self time is its duration minus that of its
direct children.

Each wrapped function is charged to one per-layer metric.  A few of them
also feed exact work counts, taken from their arguments or results.
"""

from __future__ import annotations

import functools
import resource
import sys
import time

# (module, attribute, metric): every call of the attribute is one span whose
# self time is charged to the metric.
SPANS = (
    ("ingest", "load_log", "ingest.load_log_s"),
    ("ingest", "expand_teams", "ingest.expand_s"),
    ("ingest", "team_participations", "ingest.expand_s"),
    ("ingest", "build_frames", "ingest.build_frames_s"),
    ("ingest", "typed_network", "ingest.typed_network_s"),
    ("graph", "aggregate", "graph.aggregate_s"),
    ("graph", "closeness_all", "graph.closeness_s"),
    ("graph", "FrameGraph.restrict", "graph.restrict_s"),
    ("graph", "write_edge_csv", "graph.write_edges_s"),
    ("kshell", "dynamic_influence", "kshell.influence_s"),
    ("kshell", "wks_decompose", "kshell.influence_s"),
    ("kshell", "coverage_curve", "kshell.coverage_s"),
    ("kshell", "select_backbone", "kshell.select_backbone_s"),
    ("kshell", "write_influence_csv", "kshell.write_s"),
    ("kshell", "write_coverage_csv", "kshell.write_s"),
    ("community", "detect_all", "community.detect_s"),
    ("community", "write_partition_csv", "community.write_s"),
    ("evolution", "timeline_from_partitions", "evolution.classify_s"),
    ("evolution", "classify", "evolution.classify_s"),
    ("evolution", "event_shares", "evolution.classify_s"),
    ("evolution", "write_event_csv", "evolution.write_s"),
    ("abstraction", "abstract", "abstraction.abstract_s"),
    ("abstraction", "frame_metrics", "abstraction.metrics_s"),
    ("abstraction", "write_abstract_csv", "abstraction.write_s"),
    ("abstraction", "write_metrics_csv", "abstraction.write_s"),
)

TIME_METRICS = tuple(dict.fromkeys(metric for _m, _a, metric in SPANS))


def _count_links(counts, args, result):
    counts["ingest.links"] += len(result)


def _count_aggregate(counts, args, result):
    counts["graph.agg_nodes"] += len(result)
    counts["graph.agg_edges"] += result.edge_count


def _count_wks(counts, args, result):
    counts["kshell.wks_calls"] += 1


def _count_detect(counts, args, result):
    counts["community.graphs"] += len(result.partitions)
    counts["community.communities"] += sum(
        p.community_count for p in result.partitions
    )


def _count_events(counts, args, result):
    counts["evolution.events"] += len(result.events)


def _count_abstract(counts, args, result):
    counts["abstraction.edges"] += result.edge_count


# attribute -> hook adding exact work counts from (args, result)
COUNT_HOOKS = {
    "expand_teams": _count_links,
    "aggregate": _count_aggregate,
    "wks_decompose": _count_wks,
    "detect_all": _count_detect,
    "classify": _count_events,
    "abstract": _count_abstract,
}

COUNT_METRICS = (
    "ingest.links",
    "graph.agg_nodes",
    "graph.agg_edges",
    "kshell.wks_calls",
    "community.graphs",
    "community.communities",
    "evolution.events",
    "abstraction.edges",
)


class Tracer:
    """Install span wrappers, collect spans and counts, restore on exit."""

    def __init__(self) -> None:
        self.spans: list = []   # [name, start, end, parent index or -1]
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.ingest_rss_mb: float | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "twotier" or name.startswith("twotier."))
        ]
        for module_name, attribute, _metric in SPANS:
            owner = sys.modules[f"twotier.{module_name}"]
            *outer, leaf = attribute.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(original, f"{module_name}.{attribute}", leaf)
            if outer:  # a method: the class attribute is the only binding
                self._patch(owner, leaf, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, span_name: str, leaf: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = COUNT_HOOKS.get(leaf)
        sample_rss = leaf == "build_frames"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [span_name, start, end, stack[-1] if stack else -1]
            if hook is not None:
                hook(self.counts, args, result)
            if sample_rss and self.ingest_rss_mb is None:
                self.ingest_rss_mb = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                )
            return result

        return traced


def self_times(spans) -> dict[str, dict]:
    """Per span name: call count and summed self time (seconds)."""
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child[i]
    return out


def layer_metrics(by_name: dict[str, dict]) -> dict[str, float]:
    """Fold per-function self times into the per-layer time metrics."""
    metric_of = {f"{m}.{a}": metric for m, a, metric in SPANS}
    totals = dict.fromkeys(TIME_METRICS, 0.0)
    for name, row in by_name.items():
        totals[metric_of[name]] += row["self_s"]
    return totals
