import csv
import io
import random

import networkx as nx
import pytest

from twotier import community
from twotier.community import (
    Partition,
    FramePartitionSet,
    detect,
    detect_all,
    frame_seed,
    modularity,
    read_partition_csv,
    write_partition_csv,
)
from twotier.graph import FrameGraph

from .fixtures import adjacency_graph, member_sets
from .oracles import (
    edge_sum_modularity,
    full_sweep_move_nodes,
    matrix_modularity,
    random_weighted_adj,
)


def _clique(prefix, size, weight=1):
    names = [f"{prefix}{i}" for i in range(size)]
    return [(names[i], names[j], weight) for i in range(size) for j in range(i + 1, size)]


def test_modularity_matches_matrix_oracle():
    rng = random.Random(5150)
    for _ in range(30):
        adj = random_weighted_adj(rng, max_nodes=16, max_edges=40)
        g = adjacency_graph(0, adj)
        if g.total_weight == 0:
            continue
        # random assignment into up to 4 groups
        assignment = {v: rng.randrange(4) for v in adj}
        want = matrix_modularity(adj, assignment)
        assert modularity(g, assignment) == pytest.approx(want, abs=1e-12)


def test_modularity_equals_edge_sum_form():
    rng = random.Random(4242)
    for _ in range(60):
        g = adjacency_graph(0, random_weighted_adj(rng, max_nodes=40, max_edges=150))
        if g.total_weight == 0:
            continue
        assignment = {v: rng.randrange(rng.randint(1, 6)) for v in g.nodes}
        assert modularity(g, assignment) == edge_sum_modularity(g, assignment)


def test_modularity_and_detect_match_networkx():
    rng = random.Random(6174)
    checked = 0
    for trial in range(40):
        adj = random_weighted_adj(rng, max_nodes=30, max_edges=90)
        g = adjacency_graph(0, adj)
        if g.total_weight == 0:
            continue
        nxg = nx.Graph()
        nxg.add_nodes_from(adj)
        nxg.add_weighted_edges_from(g.edges())
        assignment = {v: rng.randrange(rng.randint(1, 5)) for v in g.nodes}
        groups = [{v for v, c in assignment.items() if c == c0} for c0 in set(assignment.values())]
        want = nx.community.modularity(nxg, groups, weight="weight")
        assert modularity(g, assignment) == pytest.approx(want, abs=1e-12)
        part = detect(g, seed=trial)
        want = nx.community.modularity(nxg, member_sets(part.assignment), weight="weight")
        assert part.q == pytest.approx(want, abs=1e-12)
        checked += 1
    assert checked >= 30


def test_modularity_single_community_is_zero():
    g = FrameGraph.from_edges(0, _clique("n", 5))
    q = modularity(g, {v: 0 for v in g.nodes})
    assert abs(q) < 1e-12


def test_modularity_requires_exact_node_cover():
    g = FrameGraph.from_edges(0, [("a", "b", 1)])
    with pytest.raises(ValueError):
        modularity(g, {"a": 0})
    with pytest.raises(ValueError):
        modularity(g, {"a": 0, "b": 0, "ghost": 1})


def test_modularity_weight_scale_invariance():
    base = _clique("a", 4) + _clique("b", 4) + [("a0", "b0", 1)]
    g1 = FrameGraph.from_edges(0, base)
    g7 = FrameGraph.from_edges(0, [(u, v, w * 7) for u, v, w in base])
    assignment = {v: (0 if v.startswith("a") else 1) for v in g1.nodes}
    assert abs(modularity(g1, assignment) - modularity(g7, assignment)) < 1e-12


def test_two_disconnected_cliques_score_half():
    g = FrameGraph.from_edges(0, _clique("a", 5) + _clique("b", 5))
    assignment = {v: (0 if v.startswith("a") else 1) for v in g.nodes}
    assert modularity(g, assignment) == pytest.approx(0.5, abs=1e-12)
    part = detect(g, seed=1)
    assert part.community_count == 2
    assert part.q == pytest.approx(0.5, abs=1e-12)


def test_detect_on_edgeless_graph_degenerates():
    g = FrameGraph.from_edges(0, [], nodes=["a", "b", "c"])
    part = detect(g)
    assert part.degenerate
    assert part.q == 0.0
    assert part.community_count == 3
    assert sorted(part.assignment.values()) == [0, 1, 2]


def test_detect_keeps_isolated_nodes_as_singletons():
    g = FrameGraph.from_edges(0, _clique("a", 4), nodes=[f"a{i}" for i in range(4)] + ["lone"])
    part = detect(g, seed=3)
    others = {part.assignment[f"a{i}"] for i in range(4)}
    assert len(others) == 1
    assert part.assignment["lone"] not in others


def test_detect_is_deterministic_per_seed():
    rng = random.Random(11)
    adj = random_weighted_adj(rng, max_nodes=40, max_edges=120)
    g = adjacency_graph(0, adj)
    p1 = detect(g, seed=123)
    p2 = detect(g, seed=123)
    assert p1.assignment == p2.assignment
    assert p1.q == p2.q


def test_no_single_move_improves_q():
    """Local optimality: after detect, no single node wants to move."""
    rng = random.Random(2024)
    for _ in range(10):
        adj = random_weighted_adj(rng, max_nodes=20, max_edges=50)
        g = adjacency_graph(0, adj)
        if g.total_weight == 0:
            continue
        part = detect(g, seed=17)
        base = modularity(g, part.assignment)
        fresh = max(part.assignment.values()) + 1
        for v in g.nodes:
            options = {part.assignment[u] for u in g.neighbors(v)}
            options.add(fresh)  # also try isolating the node
            for c in options:
                if c == part.assignment[v]:
                    continue
                trial = dict(part.assignment)
                trial[v] = c
                assert modularity(g, trial) <= base + 1e-9


def test_communities_renumbered_by_smallest_member():
    g = FrameGraph.from_edges(0, _clique("z", 3) + _clique("a", 3))
    part = detect(g, seed=5)
    # community containing "a0" must get id 0, the "z" clique id 1
    assert part.assignment["a0"] == 0
    assert part.assignment["z0"] == 1
    comms = member_sets(part.assignment)
    assert comms[0] == frozenset({"a0", "a1", "a2"})


def _detect_frames(frames, seed):
    """Each frame's partition, detected with its frame seed, summarised."""
    return detect_all(detect(f, frame_seed(seed, f.frame_index)) for f in frames)


def test_detect_all_aggregates_q(tmp_path):
    f0 = FrameGraph.from_edges(0, _clique("a", 4) + _clique("b", 4))
    f1 = FrameGraph.from_edges(1, [], nodes=["x", "y"])
    result = _detect_frames([f0, f1], seed=9)
    assert isinstance(result, FramePartitionSet)
    assert len(result.partitions) == 2
    assert result.degenerate_frames == [1]
    # the edgeless frame is analyzed and contributes q = 0 to the mean
    assert result.average_q == pytest.approx(result.partitions[0].q / 2)

    path = tmp_path / "parts.csv"
    write_partition_csv(path, result.partitions)
    back = read_partition_csv(path)
    assert back[0] == result.partitions[0].assignment
    assert back[1] == result.partitions[1].assignment

    # frame indices need not be list positions: the mean runs in list order
    lone = FrameGraph.from_edges(3, [("a", "b", 1), ("b", "c", 2)])
    single = _detect_frames([lone], seed=9)
    assert single.partitions[0].frame_index == 3
    assert single.average_q == single.partitions[0].q
    f2 = FrameGraph.from_edges(2, _clique("c", 3) + _clique("d", 5))
    empty = FrameGraph.from_edges(1, [])
    gapped = _detect_frames([f0, f2], seed=9)
    assert [p.frame_index for p in gapped.partitions] == [0, 2]
    assert gapped.average_q == (gapped.partitions[0].q + gapped.partitions[1].q) / 2
    # a frame without nodes gets an empty partition and stays out of the mean
    with_empty = _detect_frames([f0, empty, f2], seed=9)
    assert with_empty.partitions[1].assignment == {}
    assert with_empty.average_q == gapped.average_q


def _kernel_inputs(rng, max_edges):
    """Kernel runs on a random graph: its rows and strengths as ints (level
    0) and floats, and a collapsed level of it, whose strengths count the
    self-loops its rows leave out.  Each run has random start labels (some
    unused), a node order, and whether the full sweep may isolate a node:
    only where the graph has no self-loops."""
    g = adjacency_graph(0, random_weighted_adj(rng, max_nodes=30, max_edges=max_edges))
    if g.total_weight == 0:
        return []
    rows, k = g.rows, g.strengths
    as_floats = ([{u: float(w) for u, w in row.items()} for row in rows], [float(s) for s in k])
    groups = [rng.randrange(1 + rng.randrange(len(rows))) for _ in rows]
    dense = {c: i for i, c in enumerate(sorted(set(groups)))}
    collapsed = community._collapse(*as_floats, [dense[c] for c in groups])
    runs = []
    for (adj, strengths), isolate in ((rows, k), True), (as_floats, True), (collapsed, False):
        start = [rng.randrange(len(adj)) for _ in adj]
        order = rng.sample(range(len(adj)), len(adj))
        runs.append((adj, strengths, start, order, 2.0 * g.total_weight, isolate))
    return runs


def test_move_nodes_equals_full_sweep_kernel(monkeypatch):
    """The kernel, which keeps each node's community weights up to date,
    skips the ordered scan when nothing beats staying and offers no
    isolating move, ends where the full sweep does: the full sweep sums the
    weights from each row at every evaluation, and may isolate a node on
    graphs without self-loops.  Many of the runs still move in a third
    sweep, long after the kept weights first changed."""
    rng = random.Random(94)
    runs = [run for _ in range(200) for run in _kernel_inputs(rng, 90)]
    runs += [run for _ in range(60) for run in _kernel_inputs(rng, 200)]
    long_runs = 0
    for adj, k, start, order, m2, isolate in runs:
        fast, slow = list(start), list(start)
        moved = community._move_nodes(adj, k, fast, order, m2)
        assert moved == full_sweep_move_nodes(adj, k, slow, order, m2, isolate)
        assert fast == slow
        with monkeypatch.context() as capped:
            capped.setattr(community, "_MAX_SWEEPS", 2)
            two_sweeps = list(start)
            full_sweep_move_nodes(adj, k, two_sweeps, order, m2, isolate)
        long_runs += two_sweeps != slow
    assert long_runs >= 100


def _isolating_full_sweep(adj, k, com, order, m2):
    """The full sweep, allowed to isolate a node wherever the graph has no
    self-loops, as at level 0 and in the polish."""
    loop_free = all(k[v] == sum(row.values()) for v, row in enumerate(adj))
    return full_sweep_move_nodes(adj, k, com, order, m2, loop_free)


@pytest.mark.parametrize("max_sweeps", [None, 1, 2])
def test_detect_equals_full_sweep_kernel(monkeypatch, max_sweeps):
    """Equal assignments and Q, also when the sweep cap cuts the runs short."""
    if max_sweeps is not None:
        monkeypatch.setattr(community, "_MAX_SWEEPS", max_sweeps)
    rng = random.Random(1008)
    for trial in range(40):
        edges = rng.choice((30, 120, 400))
        g = adjacency_graph(0, random_weighted_adj(rng, max_nodes=50, max_edges=edges))
        fast = detect(g, seed=trial)
        with monkeypatch.context() as patched:
            patched.setattr(community, "_move_nodes", _isolating_full_sweep)
            slow = detect(g, seed=trial)
        assert fast.assignment == slow.assignment
        assert fast.q == slow.q


def test_partition_csv_writes_one_csv_writer_row_per_member(tmp_path):
    # names the writer must quote, an empty one, and names that sort apart
    names = ["", "a,b", 'say "hi"', "new\nline", "cr\rx", " lead", "é2", "m10", "m9", "M1"]
    rng = random.Random(6)
    parts = [
        Partition(t, {n: rng.randrange(4) for n in rng.sample(names, rng.randint(0, 10))},
                  0.0)
        for t in range(5)
    ]
    reference = io.StringIO()
    writer = csv.writer(reference)
    writer.writerow(["frame", "member_id", "community_id"])
    for part in parts:
        for member in sorted(part.assignment):
            writer.writerow([part.frame_index, member, part.assignment[member]])
    path = tmp_path / "partitions.csv"
    write_partition_csv(path, parts)
    assert path.read_bytes() == reference.getvalue().encode("utf-8")
    assert read_partition_csv(path) == {
        p.frame_index: p.assignment for p in parts if p.assignment
    }
