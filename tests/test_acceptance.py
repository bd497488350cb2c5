"""End-to-end acceptance checks for the analysis pipeline.

Each test prints exactly one PASS/FAIL line naming the property it checks
(run with -s to see them all together); tolerances are pinned inline.  The
heavyweight checks share one full run of the default synthetic preset.
"""

import json
import math
import random
import statistics
import time
from itertools import combinations
from pathlib import Path

import pytest

from twotier.abstraction import betweenness, density
from twotier.community import detect, modularity, read_partition_csv
from twotier.evolution import ATTRIBUTE, EventKind, classify
from twotier.graph import DynamicNetwork, FrameGraph, aggregate
from twotier.ingest import build_frames
from twotier.kshell import (
    aggregate_ranking,
    coverage_curve,
    dynamic_influence,
    weighted_degree_value,
    wks_decompose,
)
from twotier.report import PipelineConfig, run_pipeline

from .fixtures import (
    abstract_graph,
    adjacency_graph,
    as_assignments,
    bundle_digest,
    intermittent_activity_records,
    intermittent_spec,
    planted_partition,
    scripted_event_timeline,
)
from .oracles import naive_wks, brute_betweenness, nmi, random_weighted_adj

X_VALUES = (5, 10, 20)


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    tail = f" -- {detail}" if detail else ""
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}{tail}")
    assert ok, f"{name}{tail}"


@pytest.fixture(scope="module")
def preset_run(tmp_path_factory):
    """One full pipeline run on the default preset, shared by the
    core-periphery, profile and performance checks."""
    out = tmp_path_factory.mktemp("bundle_a")
    config = PipelineConfig(preset="large", out_dir=str(out))
    t0 = time.perf_counter()
    result = run_pipeline(config)
    elapsed = time.perf_counter() - t0
    return result, Path(out), elapsed


def test_01_kshell_matches_pruning_oracle():
    rng = random.Random(20240901)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        adj = random_weighted_adj(rng, max_nodes=50, max_edges=200)
        if wks_decompose(adjacency_graph(0, adj)) != naive_wks(adj):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        "k-shell decomposition equals naive pruning oracle on 200 random graphs",
        mismatches == 0 and elapsed < 5.0,
        f"mismatches={mismatches}, {elapsed:.2f}s (budget 5s)",
    )


def test_02_weighted_degree_grid():
    bad = [
        (d, s)
        for d in range(21)
        for s in range(101)
        if weighted_degree_value(d, s) != round(math.sqrt(d * s))
    ]
    _verdict(
        "weighted degree equals round(sqrt(degree * weight sum)) on the full grid",
        not bad,
        f"{21 * 101} cells, first bad={bad[:3] if bad else None}",
    )


def test_03_influence_additivity():
    def influence(frame_edges):
        net = DynamicNetwork(
            [FrameGraph.from_edges(i, e) for i, e in enumerate(frame_edges)]
        )
        return dynamic_influence(net, aggregate(net))

    f0 = [("a", "b", 2), ("b", "c", 1), ("a", "c", 1), ("c", "d", 1)]
    f1 = [("a", "b", 1), ("b", "c", 3)]
    base = influence([f0, f1])
    shells0 = wks_decompose(FrameGraph.from_edges(0, f0))
    shells1 = wks_decompose(FrameGraph.from_edges(1, f1))
    ok = "d" not in shells1  # d sits out frame 1, which adds nothing for it
    ok = ok and base.total["d"] == shells0["d"]
    ok = ok and all(
        base.total[m] == shells0.get(m, 0) + shells1.get(m, 0)
        for m in ("a", "b", "c", "d")
    )
    ok = ok and base.active == {"a": 2, "b": 2, "c": 2, "d": 1}
    # duplicating a frame adds exactly that frame's shell once more
    doubled = influence([f0, f1, f1])
    ok = ok and all(
        doubled.total[m] == base.total[m] + shells1.get(m, 0)
        for m in ("a", "b", "c", "d")
    )
    twice = influence([f1, f1])
    once = influence([f1])
    ok = ok and all(twice.total[m] == 2 * once.total[m] for m in ("a", "b", "c"))
    _verdict("influence is an exact per-frame sum (absent frames add 0)", ok)


def test_04_coverage_monotone_and_dynamic_dominates():
    t0 = time.perf_counter()
    records = intermittent_activity_records()
    spec = intermittent_spec()
    net = build_frames(records, spec)["full"]
    agg = aggregate(net)
    xs = list(range(1, 51))
    dyn = coverage_curve(net.frames, dynamic_influence(net, agg).ranking(), xs)
    stat = coverage_curve([agg], aggregate_ranking(agg, wks_decompose(agg)), xs)
    problems = []
    for label, curve in (("dwks", dyn), ("wks_aggregate", stat)):
        vals = [c for _, c in curve]
        drops = [x for (x, _), a, b in zip(curve[1:], vals, vals[1:]) if b < a - 1e-12]
        if drops:
            problems.append(f"{label} drops at X={drops[:3]}")
    below = [x for (x, d), (_, s) in zip(dyn, stat) if d < s - 1e-12]
    if below:
        problems.append(f"dynamic < static at X={below[:5]}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        problems.append(f"too slow: {elapsed:.1f}s")
    _verdict(
        "coverage grows with X and the frame-aware ranking covers at least "
        "as much as the all-time ranking",
        not problems,
        "; ".join(problems) or f"{elapsed:.2f}s (budget 30s)",
    )


def test_05_modularity_suite():
    problems = []

    def clique(prefix, size, w=1):
        names = [f"{prefix}{i}" for i in range(size)]
        return [(names[i], names[j], w) for i in range(size) for j in range(i + 1, size)]

    g = FrameGraph.from_edges(0, clique("n", 6))
    q = modularity(g, {v: 0 for v in g.nodes})
    if abs(q) >= 1e-12:
        problems.append(f"single community q={q!r}")

    two = FrameGraph.from_edges(0, clique("a", 5) + clique("b", 5))
    assign = {v: (0 if v.startswith("a") else 1) for v in two.nodes}
    q = modularity(two, assign)
    if abs(q - 0.5) >= 1e-12:
        problems.append(f"two-clique q={q!r}")

    bridged = clique("a", 4) + clique("b", 4) + [("a0", "b0", 1)]
    g1 = FrameGraph.from_edges(0, bridged)
    g9 = FrameGraph.from_edges(0, [(u, v, 9 * w) for u, v, w in bridged])
    assign = {v: (0 if v.startswith("a") else 1) for v in g1.nodes}
    dq = abs(modularity(g1, assign) - modularity(g9, assign))
    if dq >= 1e-12:
        problems.append(f"weight scaling moved q by {dq!r}")

    good = 0
    for seed in range(20):
        g = planted_partition(4, 20, 0.3, 0.01, seed=seed)
        part = detect(g, seed=seed)
        planted = {n: n[1] for n in g.nodes}
        agree = total = 0
        for u, v in combinations(g.nodes, 2):
            total += 1
            agree += (planted[u] == planted[v]) == (
                part.assignment[u] == part.assignment[v]
            )
        if agree / total >= 0.95 and part.q > 0.3:
            good += 1
    if good < 19:
        problems.append(f"planted recovery in only {good}/20 runs")

    _verdict(
        "modularity closed forms hold and planted partitions are recovered",
        not problems,
        "; ".join(problems) or f"planted recovery {good}/20",
    )


def test_06_evolution_event_catalogue():
    frames, expected = scripted_event_timeline()
    timeline = classify(as_assignments(frames))

    def key(kind, frame, preds, succs):
        return (kind, frame, tuple(preds), tuple(succs))

    got: dict[str, set] = {}
    for e in timeline.events:
        got.setdefault(e.kind.value, set()).add(key(
            e.kind.value, e.frame,
            [(r.frame, r.community) for r in e.predecessors],
            [(r.frame, r.community) for r in e.successors],
        ))
    want: dict[str, set] = {}
    for e in expected:
        want.setdefault(e["kind"], set()).add(
            key(e["kind"], e["frame"], e["predecessors"], e["successors"])
        )

    problems = []
    for kind in sorted(set(got) | set(want)):
        g = got.get(kind, set())
        w = want.get(kind, set())
        tp = len(g & w)
        precision = tp / len(g) if g else 0.0
        recall = tp / len(w) if w else 0.0
        if precision != 1.0 or recall != 1.0:
            problems.append(f"{kind}: p={precision:.2f} r={recall:.2f}")

    membership_kinds = {EventKind.FORM, EventKind.DISSOLVE,
                        EventKind.SUSPEND, EventKind.REEMERGE}
    link_kinds = {EventKind.GROW, EventKind.SHRINK,
                  EventKind.SPLIT, EventKind.MERGE}
    for kind in EventKind:
        expected_attr = ("V" if kind in membership_kinds
                         else "S" if kind in link_kinds else "-")
        if ATTRIBUTE[kind] != expected_attr:
            problems.append(f"{kind.value} tagged {ATTRIBUTE[kind]}")

    _verdict(
        "all nine evolution event kinds classified with precision = recall = 1",
        not problems,
        "; ".join(problems) or f"{len(timeline.events)} events",
    )


def test_07_betweenness_matches_enumeration():
    rng = random.Random(777)
    worst = 0.0
    checked = 0
    for _ in range(100):
        n = rng.randint(2, 20)
        keys = [("BC", i) for i in range(n)]
        edges = {}
        for a, b in combinations(keys, 2):
            if rng.random() < 0.25:
                edges[(a, b)] = 1
        ag = abstract_graph(0, keys, edges)
        adj = {k: dict(ag.neighbors(k)) for k in keys}
        want = brute_betweenness(adj)
        got = betweenness(ag)
        for k in keys:
            worst = max(worst, abs(got[k] - want[k]))
            checked += 1
    ok = worst <= 1e-9

    star = abstract_graph(0, [("BC", i) for i in range(7)],
                          {(("BC", 0), ("BC", i)): 1 for i in range(1, 7)})
    ok = ok and betweenness(star)[("BC", 0)] == 15.0  # C(6,2)
    ok = ok and all(betweenness(star)[("BC", i)] == 0.0 for i in range(1, 7))
    path_nodes = [("BC", i) for i in range(5)]
    path_edges = {(("BC", i), ("BC", i + 1)): 1 for i in range(4)}
    path_bw = betweenness(abstract_graph(0, path_nodes, path_edges))
    ok = ok and [path_bw[("BC", i)] for i in range(5)] == [0.0, 3.0, 4.0, 3.0, 0.0]
    comp = abstract_graph(0, [("BC", i) for i in range(6)],
                          {(a, b): 1 for a, b in
                           combinations([("BC", i) for i in range(6)], 2)})
    ok = ok and all(v == 0.0 for v in betweenness(comp).values())
    _verdict(
        "betweenness equals brute-force shortest-path enumeration",
        ok,
        f"{checked} node scores, worst gap {worst:.1e} (tol 1e-9)",
    )


def test_08_density_closed_forms():
    def ag(n, pairs):
        nodes = [("GC", i) for i in range(n)]
        return abstract_graph(0, nodes, {p: 1 for p in pairs})

    nodes = [("GC", i) for i in range(6)]
    complete = ag(6, list(combinations(nodes, 2)))
    ok = density(complete) == 1.0
    five = ag(5, [(("GC", 0), ("GC", 1)), (("GC", 2), ("GC", 3))])
    ok = ok and density(five) == 0.2
    ok = ok and density(ag(1, [])) == 0.0
    ok = ok and density(ag(0, [])) == 0.0
    _verdict("density closed forms (complete=1, 2 links over 5 nodes=0.2, "
             "tiny graphs=0)", ok)


def _core_periphery_problems(result) -> list[str]:
    """test_09's predicates on one run's frame metrics and edge weight
    totals; each one that fails, named with its X (and frame)."""
    problems = []
    for x in X_VALUES:
        for row in result.metrics[(x, "full")]:
            if row["n_bc"] < 2 or row["n_gc"] < 2:
                continue
            if not row["density_bc"] > row["density_gc"]:
                problems.append(f"X={x} frame {row['frame']}: density order")
            if not row["mean_betweenness_bc"] > row["mean_betweenness_gc"]:
                problems.append(f"X={x} frame {row['frame']}: betweenness order")
            if not row["share_bbe"] + row["share_bge"] > row["share_gge"]:
                problems.append(f"X={x} frame {row['frame']}: share order")
        full = result.edge_totals[(x, "full")]
        if not full["BBE"] + full["BGE"] > full["GGE"]:
            problems.append(f"X={x}: BBE+BGE <= GGE on the full network")
        a = result.edge_totals[(x, "A")]
        if not a["BGE"] > max(a["BBE"], a["GGE"]):
            problems.append(f"X={x}: BGE not the largest share in the A split")
        b = result.edge_totals[(x, "B")]
        if not b["BBE"] > b["BGE"]:
            problems.append(f"X={x}: BBE <= BGE in the B split")
    return problems


def test_09_core_periphery_structure(preset_run):
    result, _, _ = preset_run
    problems = _core_periphery_problems(result)
    _verdict(
        "community-level core-periphery structure (dense central communities, "
        "periphery attached through them; activity-type split shares ordered)",
        not problems,
        "; ".join(problems[:4]) or f"checked X={X_VALUES}",
    )


@pytest.mark.parametrize("seed", [1, 2])
def test_09_core_periphery_structure_holds_for_other_detection_seeds(
    preset_run, tmp_path, seed
):
    """Louvain's partition depends on its seed, and modularity has many
    near-optimal partitions; the findings must not rest on one of them.
    The preset's log is analysed again as an input with another seed."""
    _, out, _ = preset_run
    result = run_pipeline(PipelineConfig(
        input=str(out / "synth_log.csv"), seed=seed, out_dir=str(tmp_path)
    ))
    problems = _core_periphery_problems(result)
    _verdict(
        f"community-level core-periphery structure holds with detection seed {seed}",
        not problems,
        "; ".join(problems[:4]) or f"checked X={X_VALUES}",
    )


#: Least share of the preset's planted core members that the backbone at X
#: holds, a margin below what the ``large`` preset gives on seeds 3, 7, 11
#: and 42: 249 of 250 at X=5 (backbones of 255-258), all 250 at X=10 and 20.
_CORE_RECOVERY_FLOORS = {5: 0.95, 10: 0.98, 20: 0.98}


def test_backbone_recovers_the_planted_core(preset_run):
    result, out, _ = preset_run
    core = frozenset(json.loads((out / "ground_truth.json").read_text())["core_members"])
    held = {x: len(core & result.splits[x].backbone) for x in X_VALUES}
    problems = [
        f"X={x}: {held[x]} < {floor:.0%} of {len(core)}"
        for x, floor in _CORE_RECOVERY_FLOORS.items()
        if held[x] < floor * len(core)
    ]
    _verdict(
        "the backbone holds most of the planted core members at X=5 and "
        "nearly all of them at X=10 and X=20",
        len(core) == 250 and not problems,
        "; ".join(problems) or ", ".join(f"X={x}: {n}/{len(core)}" for x, n in held.items()),
    )


#: (X, side) -> least per-frame and least median NMI between the ``full``
#: filter's communities and the planted blocks of their members.  Each is a
#: margin below the least value the ``large`` preset gives on seeds 3, 7, 11
#: and 42 over its 24 frames, which is, per-frame / median and rounded
#: down: X=5 BSN 0.414 / 0.569, GSN 0.794 / 0.818; X=20 BSN 0.652 / 0.705,
#: GSN 0.839 / 0.874.
_BLOCK_NMI_FLOORS = {
    (5, "bsn"): (0.35, 0.52),
    (5, "gsn"): (0.75, 0.77),
    (20, "bsn"): (0.60, 0.65),
    (20, "gsn"): (0.80, 0.82),
}


def test_nmi_oracle_closed_forms():
    assert nmi("aabb", "xxyy") == 1.0
    assert nmi("aaaa", "xxxx") == 1.0
    assert nmi("aabb", "xyxy") == 0.0  # independent labelings
    assert nmi("aaaa", "xxyy") == 0.0
    # B determines A, so I = H(A) = ln 3 - (2/3) ln 2, and H(B) = ln 3
    h_a = math.log(3) - 2 / 3 * math.log(2)
    assert math.isclose(nmi("aab", "xyz"), 2 * h_a / (h_a + math.log(3)))


def test_communities_recover_the_planted_blocks(preset_run):
    """Per frame, each side's communities at X=5 and X=20 (``full``
    filter) share information with the planted blocks of their members."""
    _, out, _ = preset_run
    blocks = json.loads((out / "ground_truth.json").read_text())["blocks"]
    problems, shown = [], []
    for (x, side), (frame_floor, median_floor) in _BLOCK_NMI_FLOORS.items():
        frames = read_partition_csv(out / f"x{x}/full/partitions_{side}.csv")
        scores = [
            nmi(list(assignment.values()), [blocks[m] for m in assignment])
            for assignment in frames.values()
        ]
        low, median = min(scores), statistics.median(scores)
        if len(scores) != 24 or low < frame_floor or median < median_floor:
            problems.append(f"X={x} {side}: {len(scores)} frames, min {low:.3f} "
                            f"(floor {frame_floor}), median {median:.3f} (floor {median_floor})")
        shown.append(f"X={x} {side} min {low:.3f} median {median:.3f}")
    _verdict(
        "each frame's communities recover the planted blocks at X=5 and X=20",
        not problems,
        "; ".join(problems) or ", ".join(shown),
    )


def test_10_member_profiles(preset_run):
    result, _, _ = preset_run
    problems = []
    for x in X_VALUES:
        bm = result.profiles[x]["BM"]
        gm = result.profiles[x]["GM"]
        checks = [
            ("degree", bm.avg_degree > gm.avg_degree),
            ("closeness", bm.avg_closeness > gm.avg_closeness),
            ("active frames", bm.avg_active_frames > gm.avg_active_frames),
            ("BM type lean", bm.avg_type_b > bm.avg_type_a),
            ("GM type lean", gm.avg_type_a > gm.avg_type_b),
        ]
        problems += [f"X={x}: {name}" for name, ok in checks if not ok]
    _verdict(
        "backbone members out-average general members (degree, closeness, "
        "presence) and the activity-type leans point opposite ways",
        not problems,
        "; ".join(problems) or f"checked X={X_VALUES}",
    )


def test_11_runtime_and_determinism(preset_run, tmp_path_factory):
    result, out_a, elapsed = preset_run
    problems = []
    if elapsed >= 60.0:
        problems.append(f"pipeline took {elapsed:.1f}s (budget 60s)")

    out_b = tmp_path_factory.mktemp("bundle_b")
    run_pipeline(PipelineConfig(preset="large", out_dir=str(out_b)))
    files_a = {p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(out_b) for p in Path(out_b).rglob("*") if p.is_file()}
    if files_a != files_b:
        problems.append(f"bundle listings differ: {files_a ^ files_b}")
    else:
        diff = [str(rel) for rel in sorted(files_a)
                if (out_a / rel).read_bytes() != (Path(out_b) / rel).read_bytes()]
        if diff:
            problems.append(f"{len(diff)} files differ: {diff[:3]}")
    _verdict(
        "full pipeline fits the time budget and repeated runs emit "
        "byte-identical bundles",
        not problems,
        "; ".join(problems) or f"{elapsed:.1f}s, {len(files_a)} files compared",
    )


def test_large_preset_bundle_is_pinned(preset_run):
    """The paper-scale bundle (default preset, seed 42) has the same bytes
    on every supported Python."""
    _, out, _ = preset_run
    assert bundle_digest(out) == (
        "028b6a5653a3baa6254f58a960ace1fed705bc2ac145b60eb1eaa25502000b07"
    )
