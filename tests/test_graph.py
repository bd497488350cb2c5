import random

import networkx as nx
import pytest

from twotier import graph
from twotier.graph import (
    AGGREGATE_FRAME,
    DynamicNetwork,
    FrameGraph,
    aggregate,
    closeness_all,
    read_edge_csv,
    write_edge_csv,
)

from .oracles import bfs_closeness, random_weighted_adj


def test_from_edges_accumulates_weights():
    g = FrameGraph.from_edges(0, [("a", "b", 1), ("b", "a", 2), ("b", "c", 1)])
    assert g.neighbors("a").get("b", 0) == 3
    assert g.neighbors("c").get("b", 0) == 1
    assert g.degree("b") == 2
    assert g.strength("b") == 4
    assert g.edge_count == 2
    assert g.total_weight == 4


def test_nodes_are_sorted_and_isolates_kept():
    g = FrameGraph.from_edges(3, [("x", "m", 1)], nodes=["z", "m", "x"])
    assert g.nodes == ["m", "x", "z"]
    assert g.degree("z") == 0
    assert g.strength("z") == 0


def test_rejects_self_loops_and_bad_weights():
    with pytest.raises(ValueError):
        FrameGraph.from_edges(0, [("a", "a", 1)])
    with pytest.raises(ValueError):
        FrameGraph.from_edges(0, [("a", "b", 0)])
    with pytest.raises(ValueError):
        FrameGraph(0, {"a": {"b": 1}, "b": {}})  # asymmetric


def test_edges_listing_is_canonical():
    g = FrameGraph.from_edges(0, [("d", "c", 2), ("a", "d", 1)])
    assert list(g.edges()) == [("a", "d", 1), ("c", "d", 2)]


def test_restrict_keeps_internal_edges_only():
    g = FrameGraph.from_edges(0, [("a", "b", 1), ("b", "c", 2), ("c", "d", 1)])
    sub = g.restrict({"a", "b", "c"})
    assert sub.nodes == ["a", "b", "c"]
    assert sub.neighbors("b").get("c", 0) == 2
    assert sub.neighbors("c").get("d", 0) == 0


def _random_frame(rng):
    adj = random_weighted_adj(rng, max_nodes=30, max_edges=rng.choice((5, 40, 120)))
    return FrameGraph(rng.randint(0, 9), adj)


def _same_graph(a, b):
    return (a == b and a.nodes == b.nodes and a.rows == b.rows
            and a.strengths == b.strengths and a.total_weight == b.total_weight)


def _assert_one_form(g, adj=None):
    """The local-id form's invariants, and ``edges()`` listing each edge once
    as ``(u, v, w)`` with ``u < v`` in (u, v) order; with ``adj``, the name
    adjacency the graph was built from, the edges are exactly its edges."""
    assert g.nodes == sorted(set(g.nodes))
    assert len(g.rows) == len(g.strengths) == len(g.nodes)
    for i, row in enumerate(g.rows):
        assert list(row) == sorted(row)
        assert all(g.rows[j][i] == w for j, w in row.items())
        assert g.strengths[i] == sum(row.values())
    assert g.total_weight == sum(g.strengths) // 2
    edges = list(g.edges())
    assert all(u < v for u, v, _w in edges) and edges == sorted(edges)
    if adj is not None:
        assert edges == sorted((u, v, w) for u, row in adj.items()
                               for v, w in row.items() if u < v)


def test_restrict_equals_validating_constructor():
    rng = random.Random(808)
    for _ in range(80):
        g = _random_frame(rng)
        keep = set(rng.sample(g.nodes, rng.randint(0, len(g)))) | {"ghost"}
        sub = g.restrict(keep)
        adj = {
            u: {v: g.neighbors(u)[v]
                for v in rng.sample(list(g.neighbors(u)), g.degree(u)) if v in keep}
            for u in rng.sample(g.nodes, len(g)) if u in keep
        }
        built = FrameGraph(g.frame_index, adj)
        _assert_one_form(sub)
        _assert_one_form(built, adj)
        assert _same_graph(sub, built)


def test_restrict_composes():
    rng = random.Random(909)
    for _ in range(80):
        g = _random_frame(rng)
        a = set(rng.sample(g.nodes, rng.randint(0, len(g))))
        b = set(rng.sample(g.nodes, rng.randint(0, len(g))))
        _assert_one_form(g.restrict(a).restrict(b))
        assert _same_graph(g.restrict(a).restrict(b), g.restrict(a & b))
        assert _same_graph(g.restrict(g.nodes), g)


def test_network_frame_index_must_match_position():
    f0 = FrameGraph.from_edges(0, [("a", "b", 1)])
    f_bad = FrameGraph.from_edges(5, [("a", "b", 1)])
    with pytest.raises(ValueError):
        DynamicNetwork([f0, f_bad], frozenset({"a", "b"}))
    # the registry must cover every frame's nodes, and may hold more
    with pytest.raises(ValueError, match="node 'b' of frame 0"):
        DynamicNetwork([f0], members={"a"})
    assert DynamicNetwork([f0], members={"a", "b", "z"}).members == {"a", "b", "z"}


def test_aggregate_sums_weights_and_registry():
    f0 = FrameGraph.from_edges(0, [("a", "b", 2)])
    f1 = FrameGraph.from_edges(1, [("a", "b", 1), ("b", "c", 1)])
    net = DynamicNetwork([f0, f1], frozenset({"a", "b", "c", "zzz"}))
    agg = aggregate(net)
    assert agg.frame_index == AGGREGATE_FRAME
    assert agg.neighbors("a").get("b", 0) == 3
    # every registered member is a node, active or not
    assert "zzz" in agg.nodes


def test_closeness_against_bfs_oracle(monkeypatch):
    monkeypatch.setattr(graph, "_SOURCE_BLOCK", 7)  # odd block to exercise blocking
    rng = random.Random(4242)
    for _ in range(40):
        adj = random_weighted_adj(rng, max_nodes=18, max_edges=40)
        g = FrameGraph(0, adj)
        n = len(g.nodes)
        want = {v: bfs_closeness(adj, v, n) for v in adj}
        bulk = closeness_all(g)
        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(adj)
        nx_graph.add_edges_from((u, v) for u, row in adj.items() for v in row)
        reference = nx.closeness_centrality(nx_graph, wf_improved=True)
        for v in adj:
            assert bulk[v] == pytest.approx(want[v], abs=1e-12)
            assert bulk[v] == pytest.approx(reference[v], abs=1e-12)


def test_closeness_of_isolated_node_is_zero():
    g = FrameGraph.from_edges(0, [("a", "b", 1)], nodes=["a", "b", "c"])
    assert closeness_all(g)["c"] == 0.0


def test_edge_csv_round_trip(tmp_path):
    f0 = FrameGraph.from_edges(0, [("a", "b", 2), ("b", "c", 1)])
    f1 = FrameGraph.from_edges(1, [("a", "c", 4)])
    path = tmp_path / "frames.csv"
    write_edge_csv(path, [f0, f1])
    back = read_edge_csv(path)
    assert set(back) == {0, 1}
    assert list(back[0].edges()) == list(f0.edges())
    assert list(back[1].edges()) == list(f1.edges())
