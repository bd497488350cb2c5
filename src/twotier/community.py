"""Community structure: weighted modularity and greedy two-phase detection.

Detection follows the usual two-phase scheme — local single-node moves until
no gain remains, then collapsing communities into super-nodes and repeating —
plus a final node-level refinement pass on the original graph, so the
returned partition is locally optimal: no single node can move to another
community (or isolate itself) and raise Q.  All randomness comes from one
seeded generator; runs are reproducible.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Mapping, Sequence

from .graph import FrameGraph, mean

_EPS = 1e-12
_MAX_SWEEPS = 100


def modularity(graph: FrameGraph, assignment: Mapping[str, int]) -> float:
    """Weighted modularity Q of a node-to-community assignment.

    Q sums, over communities, the internal weight fraction minus the squared
    fraction of total strength: Q = sum_c [in_c/(2m) - (tot_c/(2m))^2] where
    in_c counts ordered intra-community pairs.  Self-weights are zero by
    graph construction.

    Raises:
        ValueError: if the graph has no edges (Q is undefined) or the
            assignment does not cover exactly the graph's nodes.
    """
    if set(assignment) != set(graph.nodes):
        raise ValueError("assignment must cover exactly the graph's nodes")
    m2 = 2.0 * graph.total_weight
    if m2 == 0:
        raise ValueError("modularity is undefined for an edgeless graph")
    label = [assignment[v] for v in graph.nodes]
    return _modularity(graph.rows, graph.strengths, label, m2)


def _modularity(
    rows: Sequence[Mapping[int, int]],
    strengths: Sequence[int],
    label: Sequence[int],
    m2: float,
) -> float:
    """Q from a :class:`FrameGraph`'s rows and strengths and each node's
    community label.

    Both sums per community add up integer weights as ints, so they are
    exact; the terms are added by ascending community label.
    """
    internal: dict[int, int] = {}
    tot: dict[int, int] = {}
    for v, row in enumerate(rows):
        c = label[v]
        tot[c] = tot.get(c, 0) + strengths[v]
        inside = internal.get(c, 0)
        for u, w in row.items():
            if label[u] == c:
                inside += w
        internal[c] = inside
    q = 0.0
    for c in sorted(tot):
        q += internal[c] / m2 - (tot[c] / m2) ** 2
    return q


@dataclass(frozen=True)
class Partition:
    """A detected partition of one frame.

    ``assignment`` maps member -> community id; ids are dense integers
    0..C-1 ordered by each community's smallest member id.  ``degenerate``
    flags frames where Q was undefined (edgeless) and the all-singletons
    fallback was used.
    """

    frame_index: int
    assignment: dict[str, int]
    q: float
    degenerate: bool = False

    @classmethod
    def from_labels(
        cls,
        frame_index: int,
        nodes: Iterable[str],
        labels: Iterable[int],
        q: float,
        degenerate: bool,
    ) -> "Partition":
        """The partition that gives ``nodes[i]`` community ``labels[i]``, as
        :func:`detect_local` returns them; ``assignment`` keeps that order."""
        return cls(frame_index, dict(zip(nodes, labels, strict=True)), q, degenerate)

    @property
    def community_count(self) -> int:
        return max(self.assignment.values(), default=-1) + 1


def _move_nodes(
    adj: Sequence[Mapping[int, float]],
    k: Sequence[float],
    com: list[int],
    order: Sequence[int],
    m2: float,
) -> bool:
    """Local-move phase of Blondel et al. (2008), applied to ``com`` in place.

    Sweeps the nodes in ``order``, moving each to the neighbouring community
    with the largest modularity gain (ties keep the node where it is, else
    pick the smallest label), until a sweep makes no move.  Returns whether
    any node moved.  Weights and strengths may be ints or floats: adding an
    int to a float, or multiplying the two, rounds as ``float(int)`` would.

    No move to a fresh singleton community is offered.  On a graph without
    self-loops, such as level 0, where ``k[v]`` is the sum of ``adj[v]``, it
    would never win: v's weights into the neighbouring communities add up
    to k[v] and their totals to at most 2m - k[v], so some neighbouring
    community c has w_c / k[v] > tot_c / 2m, a positive gain where
    isolation gains 0.

    ``nbw[v]`` maps each community holding a neighbour of v to v's total
    edge weight into it.  It is built once from the rows and ``com``, and
    kept up to date: when v moves from cv to c, each neighbour u loses v's
    weight from ``nbw[u][cv]`` (the key goes when it reaches zero) and gains
    it in ``nbw[u][c]``.  Weights are positive integers at level 0 and
    integer-valued floats above it (sums of integers, exact below 2**53), so
    every kept value and community total in ``tot`` equals a fresh sum bit
    for bit, and the keys are exactly the neighbours' communities.  Every
    gain, tie and move is the one a rebuild from the row would give.  Two
    shortcuts change nothing either:

    - A node whose ``nbw`` holds no community but its own has no other
      community to go to, so it stays and is not evaluated.
    - The scan in label order starts from staying and changes its choice
      first to a community whose gain exceeds the stay gain by more than
      ``_EPS``; every later change needs that choice already made.  So when
      no neighbouring community's gain passes that bar, computed by the
      same expressions, the scan would keep the node, and it is not run.
    """
    tot = [0.0] * (max(com, default=-1) + 1)
    for v, c in enumerate(com):
        tot[c] += k[v]
    nbw: list[dict[int, float]] = []
    for row in adj:
        weights: dict[int, float] = {}
        for u, w in row.items():
            cu = com[u]
            weights[cu] = weights.get(cu, 0) + w
        nbw.append(weights)
    moves = 0
    for _sweep in range(_MAX_SWEEPS):
        moves_before = moves
        for v in order:
            cv = com[v]
            weights = nbw[v]
            if not weights or (len(weights) == 1 and cv in weights):
                continue
            # gains are relative to v sitting alone outside any community
            kv = k[v]
            tot[cv] -= kv
            best_c, best_gain = cv, weights.get(cv, 0.0) - kv * tot[cv] / m2
            bar = best_gain + _EPS
            for c, w in weights.items():
                if w - kv * tot[c] / m2 > bar:
                    # some community beats staying: scan them in label order
                    for c in sorted(weights):
                        if c == cv:
                            continue
                        gain = weights[c] - kv * tot[c] / m2
                        if gain > best_gain + _EPS or (
                            gain > best_gain - _EPS and best_c != cv and c < best_c
                        ):
                            best_c, best_gain = c, gain
                    break
            tot[best_c] += kv
            if best_c == cv:
                continue
            com[v] = best_c
            moves += 1
            for u, w in adj[v].items():
                other = nbw[u]
                left = other[cv] - w
                if left:
                    other[cv] = left
                else:
                    del other[cv]
                other[best_c] = other.get(best_c, 0) + w
        if moves == moves_before:
            break
    return moves > 0


def _collapse(
    adj: Sequence[Mapping[int, float]], k: Sequence[float], com: list[int]
) -> tuple[list[dict[int, float]], list[float]]:
    """Aggregate the level graph by its communities (labels dense 0..C-1).

    Intra-community weight becomes a self-loop, which only shows in the
    super-node's strength; strengths are sums of integer weights, so adding
    them up per community is exact.
    """
    size = max(com) + 1
    new_adj: list[dict[int, float]] = [{} for _ in range(size)]
    new_k = [0.0] * size
    for v, row in enumerate(adj):
        cv = com[v]
        new_k[cv] += k[v]
        target = new_adj[cv]
        for u, w in row.items():
            cu = com[u]
            if cu != cv:
                target[cu] = target.get(cu, 0.0) + w
    return new_adj, new_k


def detect_local(
    rows: Sequence[Mapping[int, int]],
    strengths: Sequence[int],
    total_weight: int,
    seed: int,
) -> tuple[list[int], float, bool]:
    """Detect communities in one graph given over local ids.

    Takes a :class:`FrameGraph`'s rows and strengths, its total edge weight
    and the seed; returns each node's community label in node
    order, Q and whether the graph was degenerate.  Labels are dense
    integers 0..C-1 by each community's smallest node.

    Edgeless graphs (including the empty graph) cannot be scored, so they
    yield all singletons with Q = 0, flagged degenerate.  Isolated nodes in
    an otherwise connected graph always end up as singleton communities,
    keeping them addressable downstream.  Level 0 and the polish run on the
    int rows and strengths; Q is computed from the same rows and strengths.
    """
    if total_weight == 0:
        return list(range(len(rows))), 0.0, True
    adj, k = rows, strengths
    m2 = 2.0 * total_weight
    rng = random.Random(seed)
    chain = list(range(len(rows)))
    while True:
        com = list(range(len(adj)))
        order = list(range(len(adj)))
        rng.shuffle(order)
        moved = _move_nodes(adj, k, com, order, m2)
        remap = {lab: i for i, lab in enumerate(sorted(set(com)))}
        com = [remap[c] for c in com]
        chain = [com[cur] for cur in chain]
        if not moved or len(remap) == len(adj):
            break
        adj, k = _collapse(adj, k, com)
    # polish on the original graph: the collapsed phases alone do not make
    # the partition locally optimal under single-node moves
    _move_nodes(rows, strengths, chain, range(len(rows)), m2)
    # renumber by first appearance in node order, i.e. by smallest member id
    renumber: dict[int, int] = {}
    labels = [renumber.setdefault(c, len(renumber)) for c in chain]
    return labels, _modularity(rows, strengths, labels, m2), False


def detect(graph: FrameGraph, seed: int = 42) -> Partition:
    """Detect communities in one frame graph with :func:`detect_local`."""
    return Partition.from_labels(
        graph.frame_index,
        graph.nodes,
        *detect_local(graph.rows, graph.strengths, graph.total_weight, seed),
    )


def frame_seed(seed: int, frame_index: int) -> int:
    """The detection seed of one frame, derived from a run's seed."""
    return seed + 1000003 * (frame_index + 1)


@dataclass
class FramePartitionSet:
    """Partitions for every frame of a sub-network plus summary statistics.

    ``average_q`` is the mean Q over analyzed frames (frames holding at
    least one node), taken in list order; degenerate frames contribute 0.
    Frames with no nodes are skipped from the average but still get an
    (empty) partition, so the partitions line up with the input frames.
    """

    partitions: list[Partition]
    average_q: float
    degenerate_frames: list[int] = field(default_factory=list)


def detect_all(partitions: Iterable[Partition]) -> FramePartitionSet:
    """Collect a frame sequence's partitions with their average Q and
    degenerate frames.

    ``partitions`` is read once and in order, so a generator that detects
    each frame when asked, as :func:`detect` composed with
    :func:`frame_seed`, runs its detections inside this call.
    """
    partitions = list(partitions)
    analyzed = [p.q for p in partitions if p.assignment]
    degenerate = [p.frame_index for p in partitions if p.assignment and p.degenerate]
    return FramePartitionSet(partitions, mean(analyzed), degenerate)


PARTITION_COLUMNS = ["frame", "member_id", "community_id"]


def write_partition_csv(path, partitions: Iterable[Partition]) -> None:
    """Dump partitions as frame,member_id,community_id rows, sorted; each
    frame's rows go to the writer in one call."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(PARTITION_COLUMNS)
        for part in partitions:
            assignment = part.assignment
            members = sorted(assignment)
            writer.writerows(
                zip(repeat(part.frame_index), members, map(assignment.__getitem__, members))
            )


def read_partition_csv(path) -> dict[int, dict[str, int]]:
    """Rebuild frame -> assignment mappings from a partition dump."""
    frames: dict[int, dict[str, int]] = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != PARTITION_COLUMNS:
            raise ValueError(f"unexpected header {header!r} in {path}")
        for frame, member, community in reader:
            frames.setdefault(int(frame), {})[member] = int(community)
    return frames
