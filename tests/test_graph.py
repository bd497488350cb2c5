import csv
import io
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

from .fixtures import adjacency_graph
from .oracles import bfs_closeness, random_weighted_adj


def test_from_edges_accumulates_weights():
    g = FrameGraph.from_edges(0, [("a", "b", 1), ("b", "a", 2), ("b", "c", 1)])
    assert g.neighbors("a").get("b", 0) == 3
    assert g.neighbors("c").get("b", 0) == 1
    assert g.degree("b") == 2
    assert g.strength("b") == 4
    assert g.edge_count == 2
    assert g.total_weight == 4
    # the weight check reads the accumulated weight, not each triple's
    g = FrameGraph.from_edges(0, [("a", "b", 2), ("b", "a", -1)])
    assert g.neighbors("a") == {"b": 1}
    assert g.total_weight == 1


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

    def looping():
        yield ("a", "b", 1)
        yield ("a", "a", 1)
        raise AssertionError("read past the self-loop")

    with pytest.raises(ValueError, match="self-loop on node 'a'"):
        FrameGraph.from_edges(0, looping())
    # every pair's accumulated weight must be an int >= 1
    for edges in ([("a", "b", -2)], [("a", "b", 1.0)], [("a", "b", 2), ("b", "a", -2)],
                  [("a", "b", 1), ("c", "b", 0.5)]):
        with pytest.raises(ValueError, match=r"accumulated weight .*, not an int >= 1$"):
            FrameGraph.from_edges(0, edges)


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
    return adjacency_graph(rng.randint(0, 9), adj)


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
        built = adjacency_graph(g.frame_index, adj)
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


def test_from_edges_ignores_how_the_edges_are_listed():
    """Each edge once, in the other endpoint order, with its weight split
    across repeated triples, and that split list shuffled: one graph."""
    rng = random.Random(1717)
    for _ in range(60):
        adj = random_weighted_adj(rng, max_nodes=30, max_edges=rng.choice((5, 40, 120)))
        once = [(u, v, w) for u, row in adj.items() for v, w in row.items() if u < v]
        swapped = [(v, u, w) for u, v, w in once]
        split = []
        for u, v, w in once:
            cuts = sorted(rng.sample(range(1, w), rng.randint(0, w - 1)))
            for lo, hi in zip([0] + cuts, cuts + [w]):
                split.append((u, v, hi - lo) if rng.random() < 0.5 else (v, u, hi - lo))
        shuffled = rng.sample(split, len(split))
        graphs = [FrameGraph.from_edges(4, edges, nodes=rng.sample(list(adj), len(adj)))
                  for edges in (once, swapped, split, shuffled)]
        for g in graphs:
            _assert_one_form(g, adj)
            assert _same_graph(g, graphs[0])
        assert graphs[0].nodes == sorted(adj)


def test_aggregate_equals_per_pair_sum_over_frames():
    rng = random.Random(2323)
    for _ in range(30):
        adjs = [
            random_weighted_adj(rng, max_nodes=20, max_edges=rng.choice((0, 10, 40)))
            for _ in range(rng.randint(1, 5))
        ]
        # members present in a frame without a link anywhere
        unlinked = {f"z{i}" for i in range(rng.randint(0, 3))}
        adjs[-1].update((z, {}) for z in unlinked)
        frames = [adjacency_graph(t, adj) for t, adj in enumerate(adjs)]
        members = set().union(*(f.nodes for f in frames))
        agg = aggregate(DynamicNetwork(frames))
        want: dict[tuple[str, str], int] = {}
        for f in frames:
            for u in f.nodes:
                for v, w in f.neighbors(u).items():
                    want[u, v] = want.get((u, v), 0) + w
        assert agg.frame_index == AGGREGATE_FRAME
        assert agg.nodes == sorted(members)
        assert {(u, v): w for u in agg.nodes for v, w in agg.neighbors(u).items()} == want
        assert all(agg.degree(z) == 0 for z in unlinked)
        _assert_one_form(agg)


def test_network_frame_index_must_match_position():
    f0 = FrameGraph.from_edges(0, [("a", "b", 1)])
    f_bad = FrameGraph.from_edges(5, [("a", "b", 1)])
    with pytest.raises(ValueError):
        DynamicNetwork([f0, f_bad])


def test_aggregate_sums_weights_and_registry():
    f0 = FrameGraph.from_edges(0, [("a", "b", 2)])
    f1 = FrameGraph.from_edges(1, [("a", "b", 1), ("b", "c", 1)], nodes=["zzz"])
    net = DynamicNetwork([f0, f1])
    # the registry is the members present in a frame, linked or not
    assert net.members == {"a", "b", "c", "zzz"}
    agg = aggregate(net)
    assert agg.frame_index == AGGREGATE_FRAME
    assert agg.neighbors("a").get("b", 0) == 3
    # every member is a node, linked or not
    assert "zzz" in agg.nodes


def test_closeness_against_bfs_oracle(monkeypatch):
    monkeypatch.setattr(graph, "_SOURCE_BLOCK", 7)  # odd block to exercise blocking
    rng = random.Random(4242)
    for _ in range(40):
        adj = random_weighted_adj(rng, max_nodes=18, max_edges=40)
        g = adjacency_graph(0, adj)
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


def test_edge_csv_writes_one_csv_writer_row_per_edge(tmp_path):
    # names the writer must quote, an empty one, and names that sort apart
    names = ["", "a,b", 'say "hi"', "new\nline", "cr\rx", " lead", "é2", "m10", "m9", "M1"]
    rng = random.Random(5)
    frames = [
        FrameGraph.from_edges(
            t,
            [(u, v, rng.randint(1, 9)) for u in names for v in names
             if u < v and rng.random() < 0.5],
            names[:t + 3],
        )
        for t in range(3)
    ]
    reference = io.StringIO()
    writer = csv.writer(reference)
    writer.writerow(["frame", "node_a", "node_b", "weight"])
    for frame in frames:
        for u, v, w in frame.edges():
            writer.writerow([frame.frame_index, u, v, w])
    path = tmp_path / "frames.csv"
    write_edge_csv(path, frames)
    assert path.read_bytes() == reference.getvalue().encode("utf-8")
