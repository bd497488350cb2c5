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
from .kshell import BackboneSplit

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
    frame: FrameGraph,
    bsn_map: Mapping[str, int],
    gsn_map: Mapping[str, int],
    split: BackboneSplit | None = None,
) -> FrameGraph:
    """Collapse one frame to the community level.

    The result is a :class:`FrameGraph` over :data:`NodeKey` nodes, every
    community a node.  Every ``"BC"`` key sorts before every ``"GC"`` key.

    Args:
        frame: the full frame graph (backbone + general members).
        bsn_map: community assignment of the frame's backbone members.
        gsn_map: community assignment of the frame's general members.
        split: optional; when given, partition membership is checked against
            the declared backbone/general sets.

    Raises:
        ValueError: if a member is assigned on both sides, a partition
            contradicts ``split``, or a frame node is assigned on neither.
    """
    both = bsn_map.keys() & gsn_map.keys()
    if both:
        sample = sorted(both)[:3]
        raise ValueError(f"members assigned to both sub-networks: {sample}")
    if split is not None:
        stray = sorted(set(bsn_map) - split.backbone)[:3]
        if stray:
            raise ValueError(f"backbone partition holds non-backbone members: {stray}")
        stray = sorted(set(gsn_map) - split.general)[:3]
        if stray:
            raise ValueError(f"general partition holds non-general members: {stray}")

    node_of = {m: (BACKBONE_CLASS, c) for m, c in bsn_map.items()}
    node_of.update((m, (GENERAL_CLASS, c)) for m, c in gsn_map.items())

    missing = sorted(set(frame.nodes) - node_of.keys())[:3]
    if missing:
        raise ValueError(f"frame members missing from both partitions: {missing}")

    keys = [node_of[m] for m in frame.nodes]
    # intra-community links are hidden at this level
    crossing = (
        (keys[i], keys[j], w)
        for i, row in enumerate(frame.rows)
        for j, w in row.items()
        if i < j and keys[i] != keys[j]
    )
    return FrameGraph.from_edges(frame.frame_index, crossing, node_of.values())


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
    is skipped.
    """
    nbrs = [list(row) for row in graph.rows]
    n = len(nbrs)
    score = [0.0] * n
    for source in range(n):
        if not nbrs[source]:
            continue
        # single-source shortest-path counts (breadth-first)
        stack = [source]
        preds: list[list[int]] = [[] for _ in range(n)]
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
                    preds[u].append(v)
        delta = [0.0] * n
        for w in reversed(stack):
            sw, dw = sigma[w], 1.0 + delta[w]
            for v in preds[w]:
                delta[v] += (sigma[v] / sw) * dw
            if w != source:
                score[w] += delta[w]
    # each unordered pair was counted from both endpoints
    return {v: score[i] * 0.5 for i, v in enumerate(graph.nodes)}


def edge_weight_shares(weights: Mapping[str, int]) -> tuple[float, float, float]:
    """(BBE, GGE, BGE) shares of the total of per-class edge ``weights``, as
    :func:`class_edges` gives them; they sum to 1.

    Raises:
        ValueError: if the total weight is 0 (the graph has no edges).
    """
    total = sum(weights.values())
    if total == 0:
        raise ValueError("edge-weight shares are undefined without edges")
    return (weights["BBE"] / total, weights["GGE"] / total, weights["BGE"] / total)


def frame_metrics(graph: FrameGraph) -> dict:
    """One row of per-frame community-level indicators.

    Besides the :data:`METRIC_COLUMNS`, the row holds ``edge_weights``,
    the graph's per-class edge weights, which the run sums over frames.
    """
    bc = [i for i, v in enumerate(graph.nodes) if v[0] == BACKBONE_CLASS]
    gc = [i for i, v in enumerate(graph.nodes) if v[0] == GENERAL_CLASS]
    bc_iso = sum(1 for i in bc if not graph.rows[i])
    gc_iso = sum(1 for i in gc if not graph.rows[i])
    counts, weights = class_edges(graph)
    central = list(betweenness(graph).values())  # in local-id order
    mean_bc = mean(central[i] for i in bc)
    mean_gc = mean(central[i] for i in gc)
    row = {
        "frame": graph.frame_index,
        "n_communities": len(graph),
        "n_bc": len(bc),
        "n_gc": len(gc),
        "n_bc_isolated": bc_iso,
        "n_gc_isolated": gc_iso,
        "l_total": graph.edge_count,
        "l_bbe": counts["BBE"],
        "l_gge": counts["GGE"],
        "l_bge": counts["BGE"],
        "density_all": density(graph),
        # the BC-BC and GC-GC links are the edges internal to each class
        "density_bc": _density(len(bc), counts["BBE"]),
        "density_gc": _density(len(gc), counts["GGE"]),
        "mean_betweenness_bc": mean_bc,
        "mean_betweenness_gc": mean_gc,
        "edge_weights": weights,
    }
    if graph.edge_count > 0:
        bbe, gge, bge = edge_weight_shares(weights)
        row["share_bbe"] = bbe
        row["share_gge"] = gge
        row["share_bge"] = bge
    else:
        row["share_bbe"] = row["share_gge"] = row["share_bge"] = None
    return row


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
