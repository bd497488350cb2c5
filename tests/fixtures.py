"""Hand-built inputs for the tests: logs, community histories and graphs
whose expected analysis results are known in advance, the digest that
pins a bundle's bytes, and the two forms of a community timeline (member
sets, member -> id mappings) with a bundle's timelines read back."""

from __future__ import annotations

import hashlib
import json
import random
from datetime import timedelta
from pathlib import Path
from typing import Iterable, Mapping

from twotier.community import read_partition_csv
from twotier.evolution import read_event_csv
from twotier.graph import FrameGraph
from twotier.ingest import (
    ActivityType,
    FrameSpec,
    TeamRecord,
    add_months,
    parse_timestamp,
)


def intermittent_activity_records(
    frames: int = 16,
    steady_members: int = 6,
    crowd_per_steady: int = 2,
    consortium_size: int = 12,
    consortium_repeats: int = 10,
) -> list[TeamRecord]:
    """A deterministic log contrasting steady and one-burst participation.

    A small steady group works together every frame (plus fresh one-off
    crowd members), while a larger consortium collaborates intensely in
    frame 0 only.  Frame-by-frame shell analysis ranks the steady members
    first (their influence accumulates), whereas a single all-time snapshot
    ranks the consortium first on intensity alone — the fixture for
    comparing the two ranking routes.
    """
    start = parse_timestamp("2020-01-01T00:00:00Z")
    records = []
    steady = [f"s{i}" for i in range(steady_members)]
    consortium = [f"k{i:02d}" for i in range(consortium_size)]
    for rep in range(consortium_repeats):
        records.append(
            TeamRecord(
                team_id=f"f00burst{rep:02d}",
                activity_id="a_burst",
                activity_type=ActivityType.B,
                timestamp=start + timedelta(hours=rep),
                members=tuple(consortium),
            )
        )
    for t in range(frames):
        frame_start = add_months(start, t)
        records.append(
            TeamRecord(
                team_id=f"f{t:02d}steady",
                activity_id=f"a_steady{t:02d}",
                activity_type=ActivityType.B,
                timestamp=frame_start + timedelta(days=1),
                members=tuple(steady),
            )
        )
        for i in range(steady_members):
            crowd = [f"c{t:02d}_{i}_{j}" for j in range(crowd_per_steady)]
            records.append(
                TeamRecord(
                    team_id=f"f{t:02d}crowd{i}",
                    activity_id=f"a_crowd{t:02d}",
                    activity_type=ActivityType.A,
                    timestamp=frame_start + timedelta(days=2, hours=i),
                    members=tuple([steady[i]] + crowd),
                )
            )
    return records


def intermittent_spec(frames: int = 16) -> FrameSpec:
    """Frame spec matching :func:`intermittent_activity_records`."""
    start = parse_timestamp("2020-01-01T00:00:00Z")
    return FrameSpec(start, add_months(start, frames), 1)


def scripted_event_timeline() -> tuple[list[list[frozenset[str]]], list[dict]]:
    """An 8-frame community history exercising all nine event kinds once or more.

    Returns the per-frame community lists plus the expected events as dicts
    with kind, frame, predecessor and successor (frame, community) pairs.
    """
    a = ["a1", "a2", "a3", "a4"]
    frames = [
        [frozenset(a), frozenset({"b1", "b2", "b3"}), frozenset({"s1", "s2", "s3"})],
        [frozenset(a), frozenset({"b1", "b2", "b3", "b4", "b5"})],
        [frozenset({"a1", "a2"}), frozenset({"a3", "a4"}), frozenset({"b1", "b2", "b3", "b4"})],
        [frozenset(a), frozenset({"b1", "b2", "b3", "b4"}), frozenset({"s1", "s2", "s3"})],
        [frozenset(a), frozenset({"s1", "s2", "s3"})],
        [frozenset(a), frozenset({"s1", "s2", "s3"}), frozenset({"f1", "f2", "f3"})],
        [frozenset(a), frozenset({"s1", "s2", "s3"}), frozenset({"f1", "f2", "f3", "f4"})],
        [frozenset(a), frozenset({"s1", "s2", "s3"}), frozenset({"f1", "f2", "f3", "f4"})],
    ]

    def event(kind, frame, preds, succs):
        return {
            "kind": kind,
            "frame": frame,
            "predecessors": tuple(preds),
            "successors": tuple(succs),
        }

    expected = [
        event("Form", 0, [], [(0, 0)]),
        event("Form", 0, [], [(0, 1)]),
        event("Form", 0, [], [(0, 2)]),
        event("Suspend", 0, [(0, 2)], []),
        event("Continue", 1, [(0, 0)], [(1, 0)]),
        event("Grow", 1, [(0, 1)], [(1, 1)]),
        event("Split", 2, [(1, 0)], [(2, 0), (2, 1)]),
        event("Shrink", 2, [(1, 1)], [(2, 2)]),
        event("Merge", 3, [(2, 0), (2, 1)], [(3, 0)]),
        event("Continue", 3, [(2, 2)], [(3, 1)]),
        event("ReEmerge", 3, [(0, 2)], [(3, 2)]),
        event("Dissolve", 3, [(3, 1)], []),
        event("Continue", 4, [(3, 0)], [(4, 0)]),
        event("Continue", 4, [(3, 2)], [(4, 1)]),
        event("Continue", 5, [(4, 0)], [(5, 0)]),
        event("Continue", 5, [(4, 1)], [(5, 1)]),
        event("Form", 5, [], [(5, 2)]),
        event("Continue", 6, [(5, 0)], [(6, 0)]),
        event("Continue", 6, [(5, 1)], [(6, 1)]),
        event("Grow", 6, [(5, 2)], [(6, 2)]),
        event("Continue", 7, [(6, 0)], [(7, 0)]),
        event("Continue", 7, [(6, 1)], [(7, 1)]),
        event("Continue", 7, [(6, 2)], [(7, 2)]),
    ]
    return frames, expected


def as_assignments(frames) -> list[dict[str, int]]:
    """A community timeline of member sets (``frames[u][j]`` is community j
    of frame u) as ``classify`` reads it: per frame, each member's
    community id."""
    return [{m: c for c, group in enumerate(frame) for m in group} for frame in frames]


def member_sets(assignment: Mapping[str, int]) -> list[frozenset[str]]:
    """The member sets of one frame's assignment, indexed by community id."""
    groups: list[list[str]] = [[] for _ in range(len(set(assignment.values())))]
    for member, c in assignment.items():
        groups[c].append(member)
    return [frozenset(g) for g in groups]


def bundle_timelines(root):
    """Each (X, filter, side) timeline of a bundle: its ``x*/filter/side``
    label, its assignment per frame from the partition file (empty for a
    frame without rows, up to ``summary.json``'s frame count) and the
    events file's events."""
    root = Path(root)
    frames = json.loads((root / "summary.json").read_text())["network"]["frames"]
    for path in sorted(root.glob("x*/*/partitions_*.csv")):
        side = path.stem.split("_", 1)[1]
        by_frame = read_partition_csv(path)
        yield (
            f"{path.parent.relative_to(root).as_posix()}/{side}",
            [by_frame.get(t, {}) for t in range(frames)],
            read_event_csv(path.with_name(f"events_{side}.csv")),
        )


def adjacency_graph(frame_index: int, adj: Mapping[str, Mapping[str, int]]) -> FrameGraph:
    """The graph of a symmetric name-keyed adjacency, such as
    ``oracles.random_weighted_adj`` returns: every key is a node, and
    ``FrameGraph.from_edges`` gets each edge once."""
    return FrameGraph.from_edges(
        frame_index,
        ((u, v, w) for u, row in adj.items() for v, w in row.items() if u < v),
        nodes=adj,
    )


def abstract_graph(
    frame_index: int,
    nodes: Iterable[tuple[str, int]],
    edges: Mapping[tuple[tuple[str, int], tuple[str, int]], int],
) -> FrameGraph:
    """The community-level graph over ``(class, community)`` ``nodes`` with
    one edge per ``{(key_a, key_b): weight}`` entry, as
    ``abstraction.abstract`` returns it: ``FrameGraph.from_edges`` gets the
    mapping's edges and every node."""
    return FrameGraph.from_edges(
        frame_index, ((a, b, w) for (a, b), w in edges.items()), nodes
    )


def planted_partition(
    blocks: int,
    nodes_per_block: int,
    p_in: float,
    p_out: float,
    seed: int = 42,
) -> FrameGraph:
    """Random graph with planted communities; node ids encode the block.

    Every intra-block pair gets an edge with probability ``p_in`` and every
    cross-block pair with ``p_out``; requires 0 <= p_out < p_in <= 1.
    """
    if not 0.0 <= p_out < p_in <= 1.0:
        raise ValueError(f"need 0 <= p_out < p_in <= 1, got p_in={p_in}, p_out={p_out}")
    if blocks < 1 or nodes_per_block < 1:
        raise ValueError("blocks and nodes_per_block must be >= 1")
    rng = random.Random(seed)
    names = [
        [f"b{b}n{i:03d}" for i in range(nodes_per_block)] for b in range(blocks)
    ]
    edges = []
    for block in names:
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                if rng.random() < p_in:
                    edges.append((block[i], block[j], 1))
    for b1 in range(blocks):
        for b2 in range(b1 + 1, blocks):
            for u in names[b1]:
                for v in names[b2]:
                    if rng.random() < p_out:
                        edges.append((u, v, 1))
    nodes = [m for block in names for m in block]
    return FrameGraph.from_edges(0, edges, nodes=nodes)


def collation_log_records() -> list[TeamRecord]:
    """A four-month log whose member names sort differently as strings than
    by number (``m9``/``m10``), by case (``M1``/``m1``) or by letter
    (``é2``/``z1``), listed in none of those orders.

    Two groups meet every month, one through type A teams and one through
    type B teams, and a few members bridge them, so every frame has edges,
    both types occur and the backbone split leaves edges on each side.
    """
    start = parse_timestamp("2021-03-01T00:00:00Z")
    left = ("z1", "m10", "é2", "M1", "m9")
    right = ("m1", "Zz", "n100", "a", "n20", "É0")
    records = []
    for t in range(4):
        month = add_months(start, t)
        teams = [
            (ActivityType.A, left[: 3 + t % 2]),
            (ActivityType.A, left[2:] + right[:1]),
            (ActivityType.B, right[t % 3 :]),
            (ActivityType.B, ("M1", "m1", right[3 + t % 3])),
            (ActivityType.A, ("m9", "n20") if t % 2 else ("é2",)),
        ]
        for i, (kind, members) in enumerate(teams):
            records.append(
                TeamRecord(
                    team_id=f"t{t}{i}",
                    activity_id=f"act{t}{i % 2}",
                    activity_type=kind,
                    timestamp=month + timedelta(days=2 * i + t, hours=i),
                    members=members,
                )
            )
    return records


def bundle_digest(root: Path) -> str:
    """sha256 over the sorted relative paths and each file's sha256, as the
    benchmark harness computes it (``perfbench/check.py``)."""
    digest = hashlib.sha256()
    for rel, path in sorted(
        (p.relative_to(root).as_posix(), p) for p in root.rglob("*") if p.is_file()
    ):
        digest.update(f"{rel}\t{hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
    return digest.hexdigest()
