"""Weighted undirected graph model shared by every analysis stage.

``FrameGraph`` is one time-frame snapshot; ``DynamicNetwork`` is the ordered
stack of snapshots plus its member registry, the members present in any
frame.
``FrameGraph.from_edges`` is the one checked builder: ingestion builds every
frame with it, and :func:`aggregate` the all-frames graph; ``restrict``
derives subgraphs from a built graph.  Graphs are immutable by convention:
no public mutator exists and every algorithm builds new instances, so
per-frame work can run concurrently without locking.  Four jobs run on
forked worker processes: tier one's kernels on the aggregate graph
(closeness, aggregate shells, both coverage curves) as one job; tier two's
restrictions and community detections, with the partition file, per
(X, filter, side); the network files of every filter as one job; and each
(X, filter)'s frame metrics with its abstract file.  The runs stay
bit-reproducible: each detection's seed depends only on the configured
seed, the side of the split and the frame index, and the results are read
back by (X, filter, side).  No job hands back a member name: closeness
comes back in the aggregate's node order, and a detection's community
labels in its restriction's node order, which ``FrameGraph.kept`` gives,
so the main process puts them to its own node names.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left
from collections import defaultdict
from itertools import chain, compress
from typing import AbstractSet, Iterable, Iterator, Sequence

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

    Node ids are member names, or ``(class, community)`` keys in tier
    two's community graph (``abstraction.abstract``).  The graph is held
    over local ids: ``nodes`` lists the node ids in sorted order, and a
    node's local id is its position there.  ``rows[i]`` maps
    each neighbour's local id to the edge weight, keys ascending;
    ``strengths[i]`` is the sum of that row, and ``total_weight`` counts
    each undirected edge once.  The kernels read these lists; the
    name-level methods below are views over them.

    The constructor holds ``nodes`` and ``rows`` as given and checks
    nothing: the rows must be symmetric, loop-free and ascending, with int
    weights >= 1.  :meth:`from_edges` builds that form and checks it;
    :meth:`restrict` derives it from a graph that has it.
    """

    __slots__ = ("frame_index", "nodes", "rows", "strengths", "total_weight")

    def __init__(
        self, frame_index: int, nodes: list[str], rows: list[dict[int, int]]
    ) -> None:
        self.frame_index = frame_index
        self.nodes = nodes
        self.rows = rows
        self.strengths = [sum(row.values()) for row in rows]
        self.total_weight = sum(self.strengths) // 2

    @classmethod
    def from_edges(
        cls,
        frame_index: int,
        edges: Iterable[tuple[str, str, int]],
        nodes: Iterable[str] = (),
    ) -> "FrameGraph":
        """Build a graph from ``(u, v, weight)`` triples plus extra isolated nodes.

        Repeated pairs accumulate weight.  The two endpoint orders are
        interchangeable.  Raises ``ValueError`` on a self-loop, and on a
        pair whose accumulated weight is not an int >= 1.
        """
        adj = defaultdict(dict, {v: {} for v in nodes})
        for u, v, w in edges:
            if u == v:
                raise ValueError(f"self-loop on node {u!r}")
            row_u, row_v = adj[u], adj[v]
            row_u[v] = row_u.get(v, 0) + w
            row_v[u] = row_v.get(u, 0) + w
        names = sorted(adj)
        index = {node: i for i, node in enumerate(names)}
        rows: list[dict[int, int]] = [{} for _ in names]
        # node i enters its neighbours' rows in ascending i, so keys ascend
        for i, node in enumerate(names):
            for other, weight in adj[node].items():
                if not isinstance(weight, int) or weight < 1:
                    raise ValueError(
                        f"edge {node!r}-{other!r} has accumulated weight {weight!r}, "
                        "not an int >= 1"
                    )
                rows[index[other]][i] = weight
        return cls(frame_index, names, rows)

    # -- read access ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: str) -> bool:
        i = bisect_left(self.nodes, node)
        return i < len(self.nodes) and self.nodes[i] == node

    def _id(self, node: str) -> int:
        """The local id of ``node``; raises ``KeyError`` for a stranger."""
        if node not in self:
            raise KeyError(node)
        return bisect_left(self.nodes, node)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrameGraph):
            return NotImplemented
        return (self.frame_index, self.nodes, self.rows) == (
            other.frame_index, other.nodes, other.rows
        )

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.rows)) // 2

    def neighbors(self, node: str) -> dict[str, int]:
        nodes = self.nodes
        return {nodes[j]: w for j, w in self.rows[self._id(node)].items()}

    def degree(self, node: str) -> int:
        """Number of distinct neighbours."""
        return len(self.rows[self._id(node)])

    def strength(self, node: str) -> int:
        """Sum of incident edge weights."""
        return self.strengths[self._id(node)]

    def edges(self) -> Iterator[tuple[str, str, int]]:
        """Yield each undirected edge once as ``(u, v, w)`` with ``u < v``."""
        nodes = self.nodes
        for i, row in enumerate(self.rows):
            for j, w in row.items():
                if i < j:
                    yield nodes[i], nodes[j], w

    def kept(self, keep: AbstractSet[str]) -> list[int]:
        """The local ids of the nodes in ``keep``, ascending: their order in
        ``restrict(keep)``, whose node ``k`` is node ``kept(keep)[k]`` here."""
        nodes = self.nodes
        return list(compress(range(len(nodes)), map(keep.__contains__, nodes)))

    def restrict(self, keep: Iterable[str]) -> "FrameGraph":
        """Induced subgraph on ``keep`` (unknown ids are ignored).

        Restriction composes: restricting to A then to B equals restricting
        to the intersection of A and B.

        The result needs no checks: filtering a sorted, symmetric, loop-free
        graph keeps it so, in the same order, and renumbering the kept local
        ids in order keeps the rows' keys ascending.
        """
        kept = self.kept(frozenset(keep))  # no copy when ``keep`` is a frozenset
        local = {i: k for k, i in enumerate(kept)}
        rows = self.rows
        return FrameGraph(
            self.frame_index,
            [self.nodes[i] for i in kept],
            [{local[j]: w for j, w in rows[i].items() if j in local} for i in kept],
        )


class DynamicNetwork:
    """Ordered sequence of frame snapshots.

    ``members``, the registry, is derived: the members present in at least
    one frame, so it holds every frame's nodes and nothing else.
    """

    __slots__ = ("frames", "members")

    def __init__(self, frames: Sequence[FrameGraph]) -> None:
        self.frames = list(frames)
        for t, frame in enumerate(self.frames):
            if frame.frame_index != t:
                raise ValueError(
                    f"frame at position {t} carries index {frame.frame_index}"
                )
        # copied from a set, so its table is sized exactly (union may double it)
        self.members = frozenset(set().union(*(frame.nodes for frame in self.frames)))

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

    The result carries frame index ``AGGREGATE_FRAME`` (-1), and its nodes
    are the network's members (so members seen only in singleton teams stay
    represented).
    """
    return FrameGraph.from_edges(
        AGGREGATE_FRAME,
        chain.from_iterable(frame.edges() for frame in network.frames),
        network.members,
    )


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
    rows = graph.rows
    n = len(rows)
    reach = [0] * n
    total = [0] * n
    for first in range(0, n, _SOURCE_BLOCK):
        sources = range(first, min(first + _SOURCE_BLOCK, n))
        frontier = {v: 1 << (v - first) for v in sources}
        seen = [frontier.get(v, 0) for v in range(n)]
        level = 0
        while frontier:
            level += 1
            found: dict[int, int] = {}
            for v, row in enumerate(rows):
                bits = 0
                for u in row:
                    if u in frontier:
                        bits |= frontier[u]
                bits &= ~seen[v]
                if bits:
                    found[v] = bits
                    seen[v] |= bits
                    count = bits.bit_count()
                    reach[v] += count
                    total[v] += level * count
            frontier = found
    return {
        node: (r / (n - 1)) * (r / s) if r else 0.0
        for node, r, s in zip(graph.nodes, reach, total)
    }


EDGE_COLUMNS = ["frame", "node_a", "node_b", "weight"]


def write_edge_csv(path, frames: Iterable[FrameGraph]) -> None:
    """Dump frames as ``frame,node_a,node_b,weight`` rows, sorted.

    The bytes are those of one ``csv.writer`` row per edge, but each node
    name is rendered by the writer once, and each frame's rows are joined
    into one write.
    """
    cell = io.StringIO()
    render = csv.writer(cell)
    cells: dict[str, str] = {}
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(EDGE_COLUMNS)
        for frame in frames:
            names = []
            for node in frame.nodes:
                if node not in cells:
                    # the name as the second field of a row, so that an
                    # empty name is not quoted as a lone empty field is
                    cell.seek(0)
                    cell.truncate()
                    render.writerow(("", node))
                    cells[node] = cell.getvalue()[1:-2]
                names.append(cells[node])
            t = frame.frame_index
            handle.write("".join(
                f"{t},{names[i]},{names[j]},{w}\r\n"
                for i, row in enumerate(frame.rows)
                for j, w in row.items()
                if i < j
            ))


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
