import random
from itertools import combinations

import networkx as nx
import pytest

from twotier.abstraction import (
    AbstractGraph,
    abstract,
    betweenness,
    density,
    edge_class,
    edge_weight_shares,
    frame_metrics,
    write_abstract_csv,
    write_metrics_csv,
)
from twotier.graph import FrameGraph

from .oracles import brute_betweenness, dict_brandes_betweenness, random_weighted_adj


def _agraph(n_bc, n_gc, edges):
    """AbstractGraph builder with nodes BC0..  GC0.."""
    keys = [("BC", i) for i in range(n_bc)] + [("GC", i) for i in range(n_gc)]
    named = {}
    for a, b, w in edges:
        named[tuple(sorted((a, b)))] = w
    return AbstractGraph(0, keys, named)


def test_edge_class_names():
    assert edge_class("BC", "BC") == "BBE"
    assert edge_class("GC", "GC") == "GGE"
    assert edge_class("BC", "GC") == "BGE"
    assert edge_class("GC", "BC") == "BGE"


def test_abstract_collapses_and_hides_intra_links():
    frame = FrameGraph.from_edges(0, [
        ("b1", "b2", 5),   # same backbone community -> hidden
        ("b1", "b3", 2),   # backbone cross-community -> BBE
        ("g1", "g2", 1),   # same general community -> hidden
        ("b1", "g1", 4),   # cross group -> BGE
        ("b3", "g3", 1),   # cross group -> BGE
    ])
    bsn = {"b1": 0, "b2": 0, "b3": 1}
    gsn = {"g1": 0, "g2": 0, "g3": 1}
    ag = abstract(frame, bsn, gsn)
    assert ag.node_count == 4
    weights = ag.class_edge_weights()
    assert weights == {"BBE": 2, "GGE": 0, "BGE": 5}
    # hidden edges do not appear anywhere
    assert ag.edge_count == 3


def test_abstract_rejects_bad_assignments():
    frame = FrameGraph.from_edges(0, [("a", "b", 1)])
    with pytest.raises(ValueError):
        abstract(frame, {"a": 0, "b": 0}, {"b": 0})  # assigned on both sides
    with pytest.raises(ValueError):
        abstract(frame, {"a": 0}, {})  # b uncovered


def test_density_closed_forms():
    complete = _agraph(4, 0, [
        (("BC", i), ("BC", j), 1) for i, j in combinations(range(4), 2)
    ])
    assert density(complete) == 1.0
    five = _agraph(5, 0, [
        (("BC", 0), ("BC", 1), 1),
        (("BC", 2), ("BC", 3), 1),
    ])
    assert density(five) == pytest.approx(0.2)
    assert density(_agraph(1, 0, [])) == 0.0
    assert density(_agraph(0, 0, [])) == 0.0


def test_density_by_class_counts_internal_edges_only():
    ag = _agraph(2, 2, [
        (("BC", 0), ("BC", 1), 9),
        (("GC", 0), ("GC", 1), 1),
        (("BC", 0), ("GC", 0), 7),
    ])
    assert density(ag, "BC") == 1.0
    assert density(ag, "GC") == 1.0
    ag2 = _agraph(3, 2, [(("BC", 0), ("BC", 1), 1)])
    assert density(ag2, "BC") == pytest.approx(1 / 3)


def test_betweenness_closed_forms():
    star = _agraph(5, 0, [(("BC", 0), ("BC", i), 1) for i in range(1, 5)])
    bw = betweenness(star)
    assert bw[("BC", 0)] == pytest.approx(6.0)     # C(4,2) pairs routed
    assert bw[("BC", 1)] == pytest.approx(0.0)
    path = _agraph(3, 0, [(("BC", 0), ("BC", 1), 1), (("BC", 1), ("BC", 2), 1)])
    assert betweenness(path)[("BC", 1)] == pytest.approx(1.0)
    complete = _agraph(4, 0, [
        (("BC", i), ("BC", j), 1) for i, j in combinations(range(4), 2)
    ])
    assert all(v == pytest.approx(0.0) for v in betweenness(complete).values())


def test_betweenness_matches_brute_enumeration():
    rng = random.Random(314)
    for _ in range(40):
        n = rng.randint(2, 12)
        keys = [("BC", i) for i in range(n)]
        edges = {}
        for a, b in combinations(keys, 2):
            if rng.random() < 0.3:
                edges[(a, b)] = 1
        ag = AbstractGraph(0, keys, edges)
        adj = {k: dict(ag.neighbors(k)) for k in keys}
        want = brute_betweenness(adj)
        got = betweenness(ag)
        for k in keys:
            assert got[k] == pytest.approx(want[k], abs=1e-9)


def _random_agraph(rng):
    """An abstract graph over a random_weighted_adj topology, classes mixed."""
    adj = random_weighted_adj(rng, max_nodes=40, max_edges=rng.choice((10, 60, 150)))
    key = {v: (rng.choice(("BC", "GC")), i) for i, v in enumerate(sorted(adj))}
    edges = {}
    for u, row in adj.items():
        for v, w in row.items():
            a, b = sorted((key[u], key[v]))
            edges[(a, b)] = w
    return AbstractGraph(3, set(key.values()), edges)


def test_betweenness_equals_dict_keyed_brandes():
    rng = random.Random(2001)
    for _ in range(60):
        ag = _random_agraph(rng)
        assert betweenness(ag) == dict_brandes_betweenness(ag)


def test_betweenness_matches_networkx():
    rng = random.Random(77)
    for _ in range(40):
        ag = _random_agraph(rng)
        g = nx.Graph()
        g.add_nodes_from(ag.nodes)
        g.add_edges_from(ag.edges)
        want = nx.betweenness_centrality(g, normalized=False)
        got = betweenness(ag)
        assert set(got) == set(want)
        for k in got:
            assert got[k] == pytest.approx(want[k], abs=1e-9)


def test_edge_weight_shares():
    ag = _agraph(2, 2, [
        (("BC", 0), ("BC", 1), 6),
        (("GC", 0), ("GC", 1), 1),
        (("BC", 0), ("GC", 0), 3),
    ])
    bbe, gge, bge = edge_weight_shares(ag)
    assert bbe == pytest.approx(0.6)
    assert gge == pytest.approx(0.1)
    assert bge == pytest.approx(0.3)
    with pytest.raises(ValueError):
        edge_weight_shares(_agraph(2, 0, []))


def test_frame_metrics_row():
    ag = _agraph(2, 2, [
        (("BC", 0), ("BC", 1), 2),
        (("BC", 0), ("GC", 0), 1),
    ])
    row = frame_metrics(ag)
    assert row["frame"] == 0
    assert row["n_bc"] == 2 and row["n_gc"] == 2
    assert row["l_bbe"] == 1 and row["l_bge"] == 1 and row["l_gge"] == 0
    assert row["l_total"] == 2
    assert row["n_gc_isolated"] == 1
    assert row["density_bc"] == 1.0
    assert row["share_bbe"] == pytest.approx(2 / 3)


def test_metrics_csv_handles_missing_values(tmp_path):
    empty = _agraph(0, 0, [])
    row = frame_metrics(empty)
    assert row["share_bbe"] is None
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, [row])
    body = path.read_text().splitlines()
    assert len(body) == 2
    assert ",," in body[1]  # blank cells for the undefined shares


def test_abstract_csv_lists_edges(tmp_path):
    ag = _agraph(2, 1, [(("BC", 0), ("BC", 1), 2), (("BC", 1), ("GC", 0), 1)])
    path = tmp_path / "abstract.csv"
    write_abstract_csv(path, [ag])
    lines = path.read_text().splitlines()
    assert lines[0] == "frame,comm_a,class_a,comm_b,class_b,edge_class,weight"
    assert len(lines) == 3
