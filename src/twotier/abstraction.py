"""Community-level abstraction of a frame and its core-periphery metrics.

Each community found in the backbone sub-network becomes a BC node, each
community of the general sub-network a GC node.  Links between members of
two different communities collapse into one weighted edge between the
community nodes; links inside a community are hidden at this level.  Edges
are classed by their endpoints: BC-BC -> BBE, GC-GC -> GGE, mixed -> BGE.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Collection, Iterable, Mapping, Sequence

from .community import Partition
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


@dataclass
class AbstractGraph:
    """Community-level graph of one frame.

    ``nodes`` holds every community node (isolated communities are still
    nodes); ``edges`` maps canonical node-key pairs to collapsed link weight.
    """

    frame_index: int
    nodes: Collection[NodeKey]
    edges: dict[tuple[NodeKey, NodeKey], int]
    _adj: dict[NodeKey, dict[NodeKey, int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        adj: dict[NodeKey, dict[NodeKey, int]] = {v: {} for v in sorted(self.nodes)}
        for (a, b), w in sorted(self.edges.items()):
            if a not in adj or b not in adj:
                raise ValueError(f"edge {a}-{b} references an unknown community")
            if a == b:
                raise ValueError(f"self-edge on community {a}")
            adj[a][b] = w
            adj[b][a] = w
        self._adj = adj

    @property
    def node_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def nodes_of_class(self, node_class: str) -> list[NodeKey]:
        return [v for v in self._adj if v[0] == node_class]

    def neighbors(self, key: NodeKey) -> Mapping[NodeKey, int]:
        return self._adj[key]

    def class_edge_counts(self) -> dict[str, int]:
        counts = {"BBE": 0, "GGE": 0, "BGE": 0}
        for a, b in self.edges:
            counts[edge_class(a[0], b[0])] += 1
        return counts

    def class_edge_weights(self) -> dict[str, int]:
        weights = {"BBE": 0, "GGE": 0, "BGE": 0}
        for (a, b), w in self.edges.items():
            weights[edge_class(a[0], b[0])] += w
        return weights


def abstract(
    frame: FrameGraph,
    bsn_partition: Partition | Mapping[str, int],
    gsn_partition: Partition | Mapping[str, int],
    split: BackboneSplit | None = None,
) -> AbstractGraph:
    """Collapse one frame to the community level.

    Args:
        frame: the full frame graph (backbone + general members).
        bsn_partition: community assignment of the frame's backbone members.
        gsn_partition: community assignment of the frame's general members.
        split: optional; when given, partition membership is checked against
            the declared backbone/general sets.

    Raises:
        ValueError: if a member is assigned on both sides, a partition
            contradicts ``split``, or a frame node is assigned on neither.
    """
    bsn_map = bsn_partition.assignment if isinstance(bsn_partition, Partition) else bsn_partition
    gsn_map = gsn_partition.assignment if isinstance(gsn_partition, Partition) else gsn_partition
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

    edges: dict[tuple[NodeKey, NodeKey], int] = {}
    for u, v, w in frame.edges():
        a, b = node_of[u], node_of[v]
        if a == b:
            continue  # intra-community links are hidden at this level
        pair = (a, b) if a < b else (b, a)
        edges[pair] = edges.get(pair, 0) + w
    return AbstractGraph(frame.frame_index, set(node_of.values()), edges)


def density(agraph: AbstractGraph, node_class: str | None = None) -> float:
    """Edge density 2L / (N (N-1)), by node class or for the whole graph.

    With a class given, only nodes of that class and edges internal to it
    count.  Graphs with at most one qualifying node have density 0.
    """
    if node_class is None:
        n = agraph.node_count
        links = agraph.edge_count
    else:
        keep = set(agraph.nodes_of_class(node_class))
        n = len(keep)
        links = sum(1 for a, b in agraph.edges if a in keep and b in keep)
    if n <= 1:
        return 0.0
    return 2.0 * links / (n * (n - 1))


def betweenness(agraph: AbstractGraph) -> dict[NodeKey, float]:
    """Shortest-path betweenness of every community node.

    For each unordered node pair (m, n), a node z != m, n accrues the
    fraction of shortest m-n paths passing through it.  Paths are hop-based
    (edge weights do not shorten them).

    Brandes' algorithm (J. Math. Sociol. 2001) on dense node indices.  A
    source without neighbours reaches no one and adds exactly 0, so it is
    skipped.
    """
    order = list(agraph._adj)
    index = {v: i for i, v in enumerate(order)}
    nbrs = [[index[u] for u in agraph._adj[v]] for v in order]
    n = len(order)
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
    return {v: score[i] * 0.5 for i, v in enumerate(order)}


def edge_weight_shares(agraph: AbstractGraph) -> tuple[float, float, float]:
    """(BBE, GGE, BGE) shares of total collapsed edge weight; they sum to 1.

    Raises:
        ValueError: if the abstract graph has no edges.
    """
    weights = agraph.class_edge_weights()
    total = sum(weights.values())
    if total == 0:
        raise ValueError("edge-weight shares are undefined without edges")
    return (weights["BBE"] / total, weights["GGE"] / total, weights["BGE"] / total)


def frame_metrics(agraph: AbstractGraph) -> dict:
    """One row of per-frame community-level indicators."""
    bc = agraph.nodes_of_class(BACKBONE_CLASS)
    gc = agraph.nodes_of_class(GENERAL_CLASS)
    bc_iso = sum(1 for v in bc if not agraph._adj[v])
    gc_iso = sum(1 for v in gc if not agraph._adj[v])
    counts = agraph.class_edge_counts()
    central = betweenness(agraph)
    mean_bc = mean(central[v] for v in bc)
    mean_gc = mean(central[v] for v in gc)
    row = {
        "frame": agraph.frame_index,
        "n_communities": agraph.node_count,
        "n_bc": len(bc),
        "n_gc": len(gc),
        "n_bc_isolated": bc_iso,
        "n_gc_isolated": gc_iso,
        "l_total": agraph.edge_count,
        "l_bbe": counts["BBE"],
        "l_gge": counts["GGE"],
        "l_bge": counts["BGE"],
        "density_all": density(agraph),
        "density_bc": density(agraph, BACKBONE_CLASS),
        "density_gc": density(agraph, GENERAL_CLASS),
        "mean_betweenness_bc": mean_bc,
        "mean_betweenness_gc": mean_gc,
    }
    if agraph.edge_count > 0:
        bbe, gge, bge = edge_weight_shares(agraph)
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


def write_abstract_csv(path, graphs: Iterable[AbstractGraph]) -> None:
    """Dump abstract edges: frame,comm_a,class_a,comm_b,class_b,edge_class,weight."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["frame", "comm_a", "class_a", "comm_b", "class_b", "edge_class", "weight"]
        )
        for agraph in graphs:
            for (a, b), w in sorted(agraph.edges.items()):
                writer.writerow(
                    [
                        agraph.frame_index,
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
