"""Community-level abstraction of a frame and its core-periphery metrics.

Each community found in the backbone sub-network becomes a BC node, each
community of the general sub-network a GC node.  Links between members of
two different communities collapse into one weighted edge between the
community nodes; links inside a community are hidden at this level.  Edges
are classed by their endpoints: BC-BC -> BBE, GC-GC -> GGE, mixed -> BGE.
"""

from __future__ import annotations

import csv
from typing import Iterable, Mapping, Sequence

from .graph import FrameGraph, mean

BACKBONE_CLASS = "BC"
GENERAL_CLASS = "GC"

#: Abstract node key: (node class, community id).
NodeKey = tuple[str, int]


def edge_class(class_a: str, class_b: str) -> str:
    """BBE for backbone pairs, GGE for general pairs, BGE across."""
    if class_a == class_b:
        return "BBE" if class_a == BACKBONE_CLASS else "GGE"
    return "BGE"


def class_edges(graph: FrameGraph) -> tuple[dict[str, int], dict[str, int]]:
    """Edge count and collapsed edge weight of each edge class, from one
    pass over the graph's edges."""
    counts = {"BBE": 0, "GGE": 0, "BGE": 0}
    weights = dict(counts)
    for a, b, w in graph.edges():
        cls = edge_class(a[0], b[0])
        counts[cls] += 1
        weights[cls] += w
    return counts, weights


def abstract(
    frame: FrameGraph, bsn_map: Mapping[str, int], gsn_map: Mapping[str, int]
) -> FrameGraph:
    """Collapse one frame to the community level.

    The result is a :class:`FrameGraph` over :data:`NodeKey` nodes, every
    community a node.  Every ``"BC"`` key sorts before every ``"GC"`` key.

    Args:
        frame: the full frame graph (backbone + general members).
        bsn_map: community assignment of the frame's backbone members.
        gsn_map: community assignment of the frame's general members.

    Raises:
        ValueError: if a member is assigned on both sides, or a frame node
            is assigned on neither.

    The community graph is built over local ids directly: the BC keys
    first, then the GC keys, each by ascending community id, which is the
    keys' sorted order.  Each member edge adds its weight to the row of its
    ends' communities, once from each end, unless both lie in one.
    """
    both = bsn_map.keys() & gsn_map.keys()
    if both:
        sample = sorted(both)[:3]
        raise ValueError(f"members assigned to both sub-networks: {sample}")

    nodes: list[NodeKey] = []
    local_of: dict[str, int] = {}
    for cls, assignment in ((BACKBONE_CLASS, bsn_map), (GENERAL_CLASS, gsn_map)):
        ids = sorted(set(assignment.values()))
        local = {c: len(nodes) + k for k, c in enumerate(ids)}
        nodes.extend((cls, c) for c in ids)
        local_of.update((m, local[c]) for m, c in assignment.items())

    keys = [local_of.get(m) for m in frame.nodes]
    if None in keys:
        missing = [m for m, k in zip(frame.nodes, keys) if k is None][:3]
        raise ValueError(f"frame members missing from both partitions: {missing}")

    # intra-community links are hidden at this level
    weights: list[dict[int, int]] = [{} for _ in nodes]
    for i, row in enumerate(frame.rows):
        a = keys[i]
        target = weights[a]
        for j, w in row.items():
            b = keys[j]
            if a != b:
                target[b] = target.get(b, 0) + w
    rows = [dict(sorted(row.items())) for row in weights]
    return FrameGraph(frame.frame_index, nodes, rows)


def density(graph: FrameGraph) -> float:
    """Edge density 2L / (N (N-1)) of the whole graph; 0 with at most one node."""
    return _density(len(graph), graph.edge_count)


def _density(n: int, links: int) -> float:
    return 2.0 * links / (n * (n - 1)) if n > 1 else 0.0


def betweenness(graph: FrameGraph) -> dict[NodeKey, float]:
    """Shortest-path betweenness of every community node.

    For each unordered node pair (m, n), a node z != m, n accrues the
    fraction of shortest m-n paths passing through it.  Paths are hop-based
    (edge weights do not shorten them).

    Brandes' algorithm (J. Math. Sociol. 2001) on the graph's local ids.
    A source without neighbours reaches no one and adds exactly 0, so it
    is skipped.  The backward pass finds each node's predecessors among its
    neighbours, one hop nearer the source, instead of keeping lists of
    them; each ``delta[v]`` still takes its additions in the same order.
    """
    nbrs = [list(row) for row in graph.rows]
    n = len(nbrs)
    score = [0.0] * n
    for source in range(n):
        if not nbrs[source]:
            continue
        # single-source shortest-path counts (breadth-first)
        stack = [source]
        sigma = [0.0] * n
        sigma[source] = 1.0
        dist = [-1] * n
        dist[source] = 0
        for v in stack:  # the stack doubles as the BFS queue
            dv = dist[v] + 1
            for u in nbrs[v]:
                if dist[u] < 0:
                    dist[u] = dv
                    stack.append(u)
                if dist[u] == dv:
                    sigma[u] += sigma[v]
        delta = [0.0] * n
        for w in reversed(stack):
            sw, dw, up = sigma[w], 1.0 + delta[w], dist[w] - 1
            for v in nbrs[w]:
                if dist[v] == up:
                    delta[v] += (sigma[v] / sw) * dw
            if w != source:
                score[w] += delta[w]
    # each unordered pair was counted from both endpoints
    return {v: score[i] * 0.5 for i, v in enumerate(graph.nodes)}


def edge_weight_shares(weights: Mapping[str, int]) -> dict[str, float] | None:
    """Each class's share of the total of per-class edge ``weights``, as
    :func:`class_edges` gives them, keyed by class; the shares sum to 1.
    ``None`` when the total is 0 (the graph has no edges)."""
    total = sum(weights.values())
    if not total:
        return None
    return {cls: weight / total for cls, weight in weights.items()}


def frame_metrics(graph: FrameGraph) -> dict:
    """One row of per-frame community-level indicators.

    Besides the :data:`METRIC_COLUMNS`, the row holds ``edge_weights``,
    the graph's per-class edge weights, which the run sums over frames.
    """
    bc = [i for i, v in enumerate(graph.nodes) if v[0] == BACKBONE_CLASS]
    gc = [i for i, v in enumerate(graph.nodes) if v[0] == GENERAL_CLASS]
    counts, weights = class_edges(graph)
    shares = edge_weight_shares(weights) or dict.fromkeys(weights)
    central = list(betweenness(graph).values())  # in local-id order
    return {
        "frame": graph.frame_index,
        "n_communities": len(graph),
        "n_bc": len(bc),
        "n_gc": len(gc),
        "n_bc_isolated": sum(1 for i in bc if not graph.rows[i]),
        "n_gc_isolated": sum(1 for i in gc if not graph.rows[i]),
        "l_total": graph.edge_count,
        "l_bbe": counts["BBE"],
        "l_gge": counts["GGE"],
        "l_bge": counts["BGE"],
        "density_all": density(graph),
        # the BC-BC and GC-GC links are the edges internal to each class
        "density_bc": _density(len(bc), counts["BBE"]),
        "density_gc": _density(len(gc), counts["GGE"]),
        "mean_betweenness_bc": mean(central[i] for i in bc),
        "mean_betweenness_gc": mean(central[i] for i in gc),
        "share_bbe": shares["BBE"],
        "share_gge": shares["GGE"],
        "share_bge": shares["BGE"],
        "edge_weights": weights,
    }


METRIC_COLUMNS = [
    "frame",
    "n_communities",
    "n_bc",
    "n_gc",
    "n_bc_isolated",
    "n_gc_isolated",
    "l_total",
    "l_bbe",
    "l_gge",
    "l_bge",
    "density_all",
    "density_bc",
    "density_gc",
    "mean_betweenness_bc",
    "mean_betweenness_gc",
    "share_bbe",
    "share_gge",
    "share_bge",
]


def write_abstract_csv(path, graphs: Iterable[FrameGraph]) -> None:
    """Dump abstract edges: frame,comm_a,class_a,comm_b,class_b,edge_class,weight."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["frame", "comm_a", "class_a", "comm_b", "class_b", "edge_class", "weight"]
        )
        for graph in graphs:
            for a, b, w in graph.edges():
                writer.writerow(
                    [
                        graph.frame_index,
                        a[1],
                        a[0],
                        b[1],
                        b[0],
                        edge_class(a[0], b[0]),
                        w,
                    ]
                )


def write_metrics_csv(path, rows: Sequence[dict]) -> None:
    """Dump per-frame metric rows with a fixed column order."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(METRIC_COLUMNS)
        for row in rows:
            out = []
            for column in METRIC_COLUMNS:
                value = row.get(column)
                if value is None:
                    out.append("")
                elif isinstance(value, float):
                    out.append(f"{value:.10f}")
                else:
                    out.append(value)
            writer.writerow(out)
