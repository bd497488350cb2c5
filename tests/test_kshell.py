import math
import random

import pytest

from twotier.graph import DynamicNetwork, FrameGraph, aggregate
from twotier.kshell import (
    aggregate_ranking,
    backbone_size,
    coverage,
    coverage_curve,
    dynamic_influence,
    select_backbone,
    weighted_degree_value,
    wks_decompose,
    write_coverage_csv,
    write_influence_csv,
)

from .oracles import naive_wks, random_weighted_adj


def _network(frame_edges, members=None):
    frames = [FrameGraph.from_edges(i, edges) for i, edges in enumerate(frame_edges)]
    return DynamicNetwork(frames, members)


def test_weighted_degree_value_small_cases():
    assert weighted_degree_value(0, 0) == 0
    assert weighted_degree_value(1, 1) == 1
    assert weighted_degree_value(2, 2) == 2
    assert weighted_degree_value(3, 12) == 6
    # rounding goes to nearest, e.g. sqrt(8) = 2.83 -> 3
    assert weighted_degree_value(2, 4) == 3


def test_weighted_degree_uses_degree_times_strength():
    g = FrameGraph.from_edges(0, [("a", "b", 3), ("a", "c", 5)])
    assert weighted_degree_value(g.degree("a"), g.strength("a")) == round(math.sqrt(2 * 8))
    assert weighted_degree_value(g.degree("b"), g.strength("b")) == round(math.sqrt(1 * 3))


def test_wks_shells_on_known_graph():
    # a 4-clique keeps shell > 1 while pendant leaves peel off at level 1
    edges = [("a", "b", 1), ("a", "c", 1), ("a", "d", 1),
             ("b", "c", 1), ("b", "d", 1), ("c", "d", 1),
             ("d", "leaf", 1)]
    g = FrameGraph.from_edges(0, edges, nodes=["a", "b", "c", "d", "leaf", "iso"])
    shells = wks_decompose(g)
    assert shells["leaf"] == 1
    assert shells["iso"] == 1
    assert shells["a"] == shells["b"] == shells["c"] == shells["d"]
    assert shells["a"] > 1
    assert max(shells.values()) == shells["a"]


def test_wks_matches_naive_oracle_on_random_graphs():
    rng = random.Random(99)
    for _ in range(60):
        adj = random_weighted_adj(rng, max_nodes=30, max_edges=90)
        got = wks_decompose(FrameGraph(0, adj))
        want = naive_wks(adj)
        assert got == want


def test_influence_is_sum_of_per_frame_shells():
    net = _network([
        [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)],
        [("a", "b", 1)],
    ])
    table = dynamic_influence(net)
    per_frame = [wks_decompose(g) for g in net.frames]
    for m in ("a", "b", "c"):
        want = sum(sh.get(m, 0) for sh in per_frame)
        assert table.total[m] == want
    # c sits out frame 1: that frame contributes nothing
    assert "c" not in per_frame[1]
    assert table.total["c"] == per_frame[0]["c"]
    assert table.active == {"a": 2, "b": 2, "c": 1}


def test_ranking_tiebreaks_by_degree_then_id():
    net = _network([[("a", "b", 1), ("c", "d", 1), ("c", "e", 1)]])
    table = dynamic_influence(net)
    ranking = table.ranking()
    # all shells equal here, so aggregate degree decides; c has degree 2
    assert ranking[0] == "c"
    # a/b/d/e all tie on influence and degree -> sorted by id
    assert ranking[1:] == ["a", "b", "d", "e"]


def test_backbone_size_floor_and_minimum():
    assert backbone_size(5173, 5) == 258
    assert backbone_size(100, 10) == 10
    assert backbone_size(7, 1) == 1   # floor would be 0, clamp to 1
    assert backbone_size(10, 100) == 10
    with pytest.raises(ValueError):
        backbone_size(10, 0)
    with pytest.raises(ValueError):
        backbone_size(10, 101)
    with pytest.raises(ValueError):
        backbone_size(0, 10)


def test_select_backbone_splits_frames_and_counts_cross_links():
    net = _network([[("a", "b", 2), ("b", "c", 1), ("c", "d", 1), ("a", "c", 1)]])
    table = dynamic_influence(net)
    split = select_backbone(table, 50)
    assert len(split.backbone) == 2
    assert split.backbone | split.general == net.members
    assert split.backbone.isdisjoint(split.general)
    frame = net.frames[0]
    bsn = frame.restrict(split.backbone)
    gsn = frame.restrict(split.general)
    assert set(bsn.nodes) == split.backbone
    assert set(gsn.nodes) == split.general
    cross_weight = sum(
        w for u, v, w in frame.edges() if (u in split.backbone) != (v in split.backbone)
    )
    assert bsn.total_weight + gsn.total_weight + cross_weight == frame.total_weight


def test_coverage_modes():
    net = _network([
        [("a", "b", 1), ("c", "d", 1)],
        [("a", "b", 1), ("b", "c", 1), ("c", "d", 1)],
    ])
    # a network scores the average of its per-frame fractions
    f0 = 2 / 4
    f1 = 2 / 4
    assert coverage(net.frames, ["a"]) == pytest.approx((f0 + f1) / 2)
    g = net.frames[1]
    assert coverage([g], ["b"]) == pytest.approx(3 / 4)


def test_coverage_curves_are_monotone_and_comparable():
    rng = random.Random(7)
    frame_edges = []
    for _ in range(4):
        edges = set()
        while len(edges) < 30:
            u, v = rng.sample(range(25), 2)
            edges.add((f"m{min(u, v):02d}", f"m{max(u, v):02d}"))
        frame_edges.append([(u, v, rng.randint(1, 3)) for u, v in edges])
    net = _network(frame_edges)
    xs = list(range(1, 51))
    agg = aggregate(net)
    dyn = coverage_curve(net.frames, dynamic_influence(net, agg).ranking(), xs)
    stat = coverage_curve([agg], aggregate_ranking(agg, wks_decompose(agg)), xs)
    for curve in (dyn, stat):
        values = [c for _, c in curve]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert all(0.0 <= c <= 1.0 for c in values)


def test_csv_writers(tmp_path):
    net = _network([[("a", "b", 1)]])
    table = dynamic_influence(net)
    p1 = tmp_path / "influence.csv"
    write_influence_csv(p1, table)
    header = p1.read_text().splitlines()[0]
    assert header == "member_id,total_influence,tiebreak_degree,frames_active"
    p2 = tmp_path / "coverage.csv"
    write_coverage_csv(p2, {"dwks": [(5, 0.25)]})
    lines = p2.read_text().splitlines()
    assert lines[0] == "method,x,coverage"
    assert lines[1].startswith("dwks,5,0.25")
