"""Weighted k-shell decomposition, per-frame influence and backbone selection.

A node's weighted degree combines how many neighbours it has with how much
weight sits on those edges.  Shell decomposition repeatedly peels the nodes
whose current weighted degree falls at or below the running shell index; a
node's shell is the index at which it was peeled.  Running the decomposition
frame by frame and summing the shells a member earned while present gives a
time-aware influence score, which drives backbone selection.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .graph import DynamicNetwork, FrameGraph, aggregate, mean


def weighted_degree_value(degree: int, weight_sum: int) -> int:
    """round(sqrt(degree * weight_sum)) with half-away-from-zero rounding.

    Computed in exact integer arithmetic (no float sqrt), so large inputs
    cannot drift.  The square root of an integer is never exactly halfway
    between two integers, so the tie direction never actually fires; it is
    pinned anyway for the contract's sake.
    """
    if degree < 0 or weight_sum < 0:
        raise ValueError("degree and weight_sum must be non-negative")
    product = degree * weight_sum
    root = math.isqrt(product)
    # product > (root + 1/2)^2  <=>  product - root^2 > root (integers)
    return root + 1 if product - root * root > root else root


def wks_decompose(graph: FrameGraph) -> dict[str, int]:
    """Weighted k-shell decomposition of one graph: node -> shell index (>= 1).

    Starting at shell index k = 1, repeatedly remove every node whose
    current weighted degree is <= k (recomputing weighted degrees on the
    trimmed graph after each sweep); when no node qualifies the index grows
    and peeling resumes, until nothing is left.  Nodes removed at index k
    form shell k.  Isolated nodes have weighted degree 0 and land in shell 1.

    Index growth jumps straight to the smallest current weighted degree,
    which is observably identical to stepping by one (sweeps at skipped
    indices remove nothing) but avoids idle passes.
    """
    degree: dict[str, int] = {}
    strength: dict[str, int] = {}
    for node in graph.nodes:
        degree[node] = graph.degree(node)
        strength[node] = graph.strength(node)

    def current(node: str) -> int:
        return weighted_degree_value(degree[node], strength[node])

    alive = set(degree)
    shells: dict[str, int] = {}
    k = 1
    while alive:
        batch = [v for v in alive if current(v) <= k]
        if not batch:
            k = max(k + 1, min(current(v) for v in alive))
            continue
        while batch:
            touched = set()
            for node in batch:
                alive.discard(node)
                shells[node] = k
                for other, w in graph.neighbors(node).items():
                    if other in alive:
                        degree[other] -= 1
                        strength[other] -= w
                        touched.add(other)
            batch = [v for v in sorted(touched) if v in alive and current(v) <= k]
        k += 1
    return shells


@dataclass
class InfluenceTable:
    """Accumulated influence and the tier-one facts of every registry member.

    ``tiebreak_degree`` is the member's distinct-neighbour count in the
    aggregate graph; ``active`` counts the frames the member is present in.
    """

    total: dict[str, int]
    tiebreak_degree: dict[str, int]
    active: dict[str, int]

    def ranking(self) -> list[str]:
        """Members ordered by (influence desc, degree desc, id asc)."""
        return sorted(
            self.total,
            key=lambda m: (-self.total[m], -self.tiebreak_degree[m], m),
        )

    def shell_statistics(self) -> dict[str, int]:
        """How finely the scoring separates members.

        ``distinct_influence`` counts distinct accumulated scores;
        ``distinct_rank_keys`` counts distinct (influence, degree) pairs,
        i.e. levels after the tiebreak is applied.
        """
        totals = set(self.total.values())
        keys = {(self.total[m], self.tiebreak_degree[m]) for m in self.total}
        return {
            "distinct_influence": len(totals),
            "distinct_rank_keys": len(keys),
        }


def dynamic_influence(
    network: DynamicNetwork, aggregate_graph: FrameGraph | None = None
) -> InfluenceTable:
    """Frame-by-frame decomposition accumulated into influence scores.

    Every registry member gets a row; members absent from every frame score
    0.  Passing a precomputed aggregate graph avoids rebuilding it.
    """
    if aggregate_graph is None:
        aggregate_graph = aggregate(network)
    total = {m: 0 for m in sorted(network.members)}
    tiebreak = {
        m: (aggregate_graph.degree(m) if m in aggregate_graph else 0)
        for m in total
    }
    active = dict.fromkeys(total, 0)
    for frame in network.frames:
        for member, shell in wks_decompose(frame).items():
            total[member] += shell
            active[member] += 1
    return InfluenceTable(total=total, tiebreak_degree=tiebreak, active=active)


def aggregate_ranking(aggregate_graph: FrameGraph, shells: Mapping[str, int]) -> list[str]:
    """Members of the aggregate graph ordered by the frame-free method:
    (aggregate shell desc, degree desc, id asc), where ``shells`` is the
    graph's :func:`wks_decompose`."""
    return sorted(
        aggregate_graph.nodes,
        key=lambda m: (-shells[m], -aggregate_graph.degree(m), m),
    )


def backbone_size(member_count: int, x: float) -> int:
    """floor(member_count * x / 100), at least 1."""
    if not 0 < x <= 100:
        raise ValueError(f"x must lie in (0, 100], got {x}")
    if member_count < 1:
        raise ValueError("cannot select a backbone from an empty registry")
    return max(1, math.floor(member_count * x / 100.0))


@dataclass
class BackboneSplit:
    """Top-X% backbone members vs the general rest of the registry."""

    x: float
    backbone: frozenset[str]
    general: frozenset[str]


def select_backbone(table: InfluenceTable, x: float) -> BackboneSplit:
    """Split the registry into backbone members (top X% by influence) and rest.

    Ranking ties break by aggregate degree, then member id, so the split is
    reproducible.  ``x`` must lie in (0, 100]; the backbone always keeps at
    least one member.
    """
    ranked = table.ranking()
    take = backbone_size(len(ranked), x)
    return BackboneSplit(x, frozenset(ranked[:take]), frozenset(ranked[take:]))


def coverage(frames: Iterable[FrameGraph], seeds: Iterable[str]) -> float:
    """Mean, over the frames holding at least one node, of the fraction of
    a frame's nodes that are a seed or adjacent to one.

    A single graph is scored as the one-frame sequence ``[graph]``.
    """
    seeds = list(seeds)
    values = []
    for frame in frames:
        if len(frame) == 0:
            continue
        covered: set[str] = set()
        for seed in seeds:
            if seed in frame:
                covered.add(seed)
                covered.update(frame.neighbors(seed))
        values.append(len(covered) / len(frame))
    if not values:
        raise ValueError("coverage of a network with no populated frames is undefined")
    return mean(values)


def coverage_curve(
    frames: Sequence[FrameGraph], ranked: Sequence[str], x_values: Sequence[float]
) -> list[tuple[float, float]]:
    """Coverage of ``frames`` (as in :func:`coverage`) by the top X% of
    ``ranked``, for each X in ``x_values``.

    The seed count follows the backbone-selection rule.  The paper's two
    curves are ``(network.frames, table.ranking())`` for the frame-aware
    ranking and ``([aggregate_graph], aggregate_ranking(...))`` for the
    frame-free one.
    """
    points = []
    for x in x_values:
        take = backbone_size(len(ranked), x)
        points.append((x, coverage(frames, ranked[:take])))
    return points


def write_influence_csv(path, table: InfluenceTable) -> None:
    """Dump influence rows: member_id,total_influence,tiebreak_degree,frames_active."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["member_id", "total_influence", "tiebreak_degree", "frames_active"]
        )
        for member in sorted(table.total):
            writer.writerow(
                [
                    member,
                    table.total[member],
                    table.tiebreak_degree[member],
                    table.active[member],
                ]
            )


def write_coverage_csv(path, curves: Mapping[str, Sequence[tuple[float, float]]]) -> None:
    """Dump coverage curves as method,x,coverage rows."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["method", "x", "coverage"])
        for method in sorted(curves):
            for x, value in curves[method]:
                writer.writerow([method, x, f"{value:.10f}"])
