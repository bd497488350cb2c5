"""Weighted undirected graph model shared by every analysis stage.

``FrameGraph`` is one time-frame snapshot; ``DynamicNetwork`` is the ordered
stack of snapshots plus the all-time member registry.  Graphs are immutable
by convention: no public mutator exists and every algorithm builds new
instances, so per-frame work can run concurrently without locking.  Tier
one's closeness and tier two's restrictions and community detections run on
forked worker processes, and the runs stay bit-reproducible: each detection's seed depends only on
the configured seed, the side of the split and the frame index, and the
results are read back in task order.
"""

from __future__ import annotations

import csv
from typing import Iterable, Iterator, Mapping, Sequence

#: Frame index used for the all-frames aggregate graph.
AGGREGATE_FRAME = -1

#: Sources per pass of :func:`closeness_all`; bounds its bitsets to 1 KB
#: each, so memory stays linear in the node count.
_SOURCE_BLOCK = 8192


class FrameGraph:
    """Undirected weighted graph for a single time frame.

    Edge weights count interaction links between a node pair inside the
    frame, so they are integers >= 1.  Self-loops are rejected.  The node set
    may include isolated nodes (members who only joined singleton teams).
    """

    __slots__ = ("frame_index", "_adj", "_total_weight", "_local")

    def __init__(
        self, frame_index: int, adjacency: Mapping[str, Mapping[str, int]]
    ) -> None:
        adj: dict[str, dict[str, int]] = {}
        for node in sorted(adjacency):
            row = adjacency[node]
            adj[node] = {v: row[v] for v in sorted(row)}
        total = 0
        for node, row in adj.items():
            for other, weight in row.items():
                if other == node:
                    raise ValueError(f"self-loop on node {node!r}")
                if not isinstance(weight, int) or weight < 1:
                    raise ValueError(
                        f"edge {node!r}-{other!r} has non-positive weight {weight!r}"
                    )
                back = adj.get(other)
                if back is None or back.get(node) != weight:
                    raise ValueError(f"asymmetric edge {node!r}-{other!r}")
                total += weight
        self.frame_index = frame_index
        self._adj = adj
        self._total_weight = total // 2
        self._local = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        frame_index: int,
        edges: Iterable[tuple[str, str, int]],
        nodes: Iterable[str] = (),
    ) -> "FrameGraph":
        """Build a graph from ``(u, v, weight)`` triples plus extra isolated nodes.

        Repeated pairs accumulate weight.  The two endpoint orders are
        interchangeable.
        """
        adj: dict[str, dict[str, int]] = {v: {} for v in nodes}
        for u, v, w in edges:
            if u == v:
                raise ValueError(f"self-loop on node {u!r}")
            adj.setdefault(u, {})
            adj.setdefault(v, {})
            adj[u][v] = adj[u].get(v, 0) + w
            adj[v][u] = adj[v].get(u, 0) + w
        return cls(frame_index, adj)

    # -- read access ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, node: str) -> bool:
        return node in self._adj

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrameGraph):
            return NotImplemented
        return self.frame_index == other.frame_index and self._adj == other._adj

    @property
    def nodes(self) -> Sequence[str]:
        """Node identifiers in sorted order."""
        return list(self._adj)

    @property
    def edge_count(self) -> int:
        return sum(len(r) for r in self._adj.values()) // 2

    @property
    def total_weight(self) -> int:
        """Sum of edge weights, each undirected edge counted once."""
        return self._total_weight

    def neighbors(self, node: str) -> Mapping[str, int]:
        return self._adj[node]

    def degree(self, node: str) -> int:
        """Number of distinct neighbours."""
        return len(self._adj[node])

    def strength(self, node: str) -> int:
        """Sum of incident edge weights."""
        return sum(self._adj[node].values())

    def edges(self) -> Iterator[tuple[str, str, int]]:
        """Yield each undirected edge once as ``(u, v, w)`` with ``u < v``."""
        for u, row in self._adj.items():
            for v, w in row.items():
                if u < v:
                    yield u, v, w

    def restrict(self, keep: Iterable[str]) -> "FrameGraph":
        """Induced subgraph on ``keep`` (unknown ids are ignored).

        Restriction composes: restricting to A then to B equals restricting
        to the intersection of A and B.

        The result skips the constructor's sorting and checks: filtering a
        sorted, symmetric, loop-free graph keeps it so, in the same order.
        Its one pass builds the subgraph's :meth:`local_form`, which is all
        the subgraph stores; its name-keyed rows are built from that form the
        first time something reads them.
        """
        adj = self._adj
        keep_set = adj.keys() & keep
        nodes = [u for u in adj if u in keep_set]
        index = {u: i for i, u in enumerate(nodes)}
        rows = [{index[v]: w for v, w in adj[u].items() if v in index} for u in nodes]
        strengths = [sum(row.values()) for row in rows]
        sub = FrameGraph.__new__(FrameGraph)
        sub.frame_index = self.frame_index
        sub._total_weight = sum(strengths) // 2
        sub._local = (nodes, rows, strengths)
        return sub

    def __getattr__(self, name: str):
        # only reached for a slot never set: a restriction's ``_adj``
        if name != "_adj":
            raise AttributeError(name)
        nodes, rows, _strengths = self._local
        self._adj = {
            u: {nodes[j]: w for j, w in row.items()} for u, row in zip(nodes, rows)
        }
        return self._adj

    def local_form(self) -> tuple[list[str], list[dict[int, int]], list[int]]:
        """The graph over local ids: the nodes in sorted order, each node's
        row as ``{local id: weight}`` (a local id indexes the node list), and
        the node strengths, all in node order.

        A restriction carries the form it was built as; any other graph
        builds it by restricting to all of its nodes, and keeps nothing.
        """
        if self._local is None:
            return self.restrict(self._adj)._local
        return self._local


class DynamicNetwork:
    """Ordered sequence of frame snapshots over a fixed member registry.

    The registry covers every frame's nodes and may hold more members.
    """

    __slots__ = ("frames", "members")

    def __init__(
        self, frames: Sequence[FrameGraph], members: Iterable[str] | None = None
    ) -> None:
        self.frames = list(frames)
        for t, frame in enumerate(self.frames):
            if frame.frame_index != t:
                raise ValueError(
                    f"frame at position {t} carries index {frame.frame_index}"
                )
        if members is None:
            members = set().union(*(frame._adj for frame in self.frames))
        self.members = frozenset(members)
        for frame in self.frames:
            missing = frame._adj.keys() - self.members
            if missing:
                raise ValueError(
                    f"node {min(missing)!r} of frame {frame.frame_index} "
                    "is missing from the member registry"
                )

    @property
    def frame_count(self) -> int:
        return len(self.frames)


def mean(values: Iterable[float]) -> float:
    """Mean of ``values`` (0.0 when there are none), summed left to right.

    Built-in ``sum`` of floats is compensated from Python 3.12 on, so it
    would make the bundle's floats depend on the interpreter version.
    """
    total = 0.0
    count = 0
    for value in values:
        total += value
        count += 1
    return total / count if count else 0.0


def aggregate(network: DynamicNetwork) -> FrameGraph:
    """Collapse all frames into one graph; pair weights add across frames.

    The result carries frame index ``AGGREGATE_FRAME`` (-1) and registers
    every member of the network registry (so members seen only in singleton
    teams stay represented).
    """
    adj: dict[str, dict[str, int]] = {v: {} for v in network.members}
    for frame in network.frames:
        for u, v, w in frame.edges():
            adj[u][v] = adj[u].get(v, 0) + w
            adj[v][u] = adj[v].get(u, 0) + w
    return FrameGraph(AGGREGATE_FRAME, adj)


def closeness_all(graph: FrameGraph) -> dict[str, float]:
    """Closeness of every node on the unweighted topology.

    Defined as (r / (n - 1)) * (r / s) where r is the number of other nodes
    reachable from the node, s the sum of hop distances to them, and n the
    graph's node count.  Isolated nodes (and the single-node graph) score 0.

    All sources of a block advance together in one level-synchronous
    breadth-first search (multi-source BFS, Then et al., VLDB 2014): each
    node holds an int whose bit i is set once source i has reached it.  The
    bits a node gains at level d are the sources at distance exactly d, and
    distances are symmetric, so their count adds to the node's own r and
    d times it to its own s.
    """
    adj = graph._adj
    order = list(adj)
    n = len(order)
    reach = dict.fromkeys(order, 0)
    total = dict.fromkeys(order, 0)
    for first in range(0, n, _SOURCE_BLOCK):
        sources = order[first : first + _SOURCE_BLOCK]
        frontier = {v: 1 << i for i, v in enumerate(sources)}
        seen = dict(frontier)
        level = 0
        while frontier:
            level += 1
            found: dict[str, int] = {}
            for v, row in adj.items():
                bits = 0
                for u in row:
                    if u in frontier:
                        bits |= frontier[u]
                bits &= ~seen.get(v, 0)
                if bits:
                    found[v] = bits
                    seen[v] = seen.get(v, 0) | bits
                    count = bits.bit_count()
                    reach[v] += count
                    total[v] += level * count
            frontier = found
    return {
        v: (reach[v] / (n - 1)) * (reach[v] / total[v]) if reach[v] else 0.0
        for v in order
    }


EDGE_COLUMNS = ["frame", "node_a", "node_b", "weight"]


def write_edge_csv(path, frames: Iterable[FrameGraph]) -> None:
    """Dump frames as ``frame,node_a,node_b,weight`` rows, sorted."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(EDGE_COLUMNS)
        for frame in frames:
            for u, v, w in frame.edges():
                writer.writerow([frame.frame_index, u, v, w])


def read_edge_csv(path) -> dict[int, FrameGraph]:
    """Rebuild per-frame graphs from a :func:`write_edge_csv` dump.

    Isolated nodes are not representable in the edge-list format, so frames
    come back without them.
    """
    edges_by_frame: dict[int, list[tuple[str, str, int]]] = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != EDGE_COLUMNS:
            raise ValueError(f"unexpected header {header!r} in {path}")
        for row in reader:
            frame, u, v, w = row
            edges_by_frame.setdefault(int(frame), []).append((u, v, int(w)))
    return {
        t: FrameGraph.from_edges(t, edges)
        for t, edges in sorted(edges_by_frame.items())
    }
