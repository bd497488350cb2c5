"""The analysis on worker processes (tier one's kernels, tier two's
detections and frame metrics, the bundle's network, partition and abstract
files): the same bundle, a bounded worker count, failures that reach the
caller, and results that hold no member name."""

import collections
import gc
import json
import multiprocessing
import os
import pickle
import pickletools
import random
import sys
import threading
import warnings
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twotier import abstraction, cli, community, evolution, kshell, report, synth
from twotier.graph import AGGREGATE_FRAME, DynamicNetwork, FrameGraph
from twotier.ingest import TeamRecord
from twotier.report import PipelineConfig, pool_workers, run_pipeline

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="the worker pool needs the fork start method"
)


def _files(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


def _force_pool(monkeypatch):
    """Run the analysis on a pool of 2 whatever the input size and CPU count,
    and record the worker counts the pipeline chose."""
    monkeypatch.setattr(report, "_POOL_MIN_EDGES", 0)
    monkeypatch.setattr(report, "_usable_cpus", lambda: 2)
    chosen = []

    def recorded(*args):
        chosen.append(pool_workers(*args))
        return chosen[-1]

    monkeypatch.setattr(report, "pool_workers", recorded)
    return chosen


@needs_fork
def test_pooled_run_writes_the_in_process_bundle(tmp_path, monkeypatch):
    here, pooled = tmp_path / "here", tmp_path / "pooled"
    run_pipeline(PipelineConfig(preset="small", out_dir=str(here)))
    chosen = _force_pool(monkeypatch)
    # a pool left unclosed warns from its finalizer, which no caller sees
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_pipeline(PipelineConfig(preset="small", out_dir=str(pooled)))
        gc.collect()
    assert chosen == [2]
    assert [u.exc_value for u in unraisable] == []
    assert multiprocessing.active_children() == []
    assert _files(pooled) == _files(here)


def test_pool_workers_never_exceed_cpus_or_tasks():
    cut = report._POOL_MIN_EDGES
    for cpus in range(1, 9):
        for tasks in (0, 1, 2, 5, 414):
            for edges in (0, cut - 1, cut, 10**6):
                workers = pool_workers(cpus, True, tasks, edges)
                assert 0 <= workers <= min(cpus, tasks)
                in_process = cpus == 1 or edges < cut or tasks == 0
                assert (workers == 0) == in_process
    assert pool_workers(2, True, 414, 72_859) == 2
    assert pool_workers(16, True, 3, 72_859) == 3
    # in-process: one CPU, no fork, or too few edges to pay for a pool
    assert pool_workers(1, True, 414, 72_859) == 0
    assert pool_workers(8, False, 414, 72_859) == 0
    assert pool_workers(8, True, 414, cut - 1) == 0


def test_small_preset_stays_in_process(tmp_path):
    """Its traced run then charges Louvain to ``community.detect_s``, as
    test_in_process_detections_run_inside_detect_all checks."""
    result = run_pipeline(PipelineConfig(preset="small", x_values=(10,),
                                         curve_x=(10,), out_dir=str(tmp_path)))
    assert sum(f.edge_count for f in result.network.frames) < report._POOL_MIN_EDGES


def test_in_process_detections_run_inside_detect_all(tmp_path, monkeypatch):
    """Without a pool, every Louvain run happens while a
    ``community.detect_all`` call is active, so a traced run charges it to
    ``community.detect_s`` rather than to no span at all."""
    monkeypatch.setattr(report, "_usable_cpus", lambda: 1)
    detect_all, detect_local = community.detect_all, community.detect_local
    active, inside = [], []

    def reading(*args, **kwargs):
        active.append(True)
        try:
            return detect_all(*args, **kwargs)
        finally:
            active.pop()

    def detecting(*args, **kwargs):
        inside.append(bool(active))
        return detect_local(*args, **kwargs)

    monkeypatch.setattr(community, "detect_all", reading)
    monkeypatch.setattr(community, "detect_local", detecting)
    result = run_pipeline(PipelineConfig(preset="small", out_dir=str(tmp_path)))
    # per X, filter, side and frame
    assert len(inside) == 3 * 3 * 2 * result.network.frame_count
    assert all(inside)


@needs_fork
def test_worker_failure_is_raised_and_pool_reaped(tmp_path, monkeypatch):
    chosen = _force_pool(monkeypatch)

    def broken(*args):
        raise ZeroDivisionError(os.getpid())

    # patched before the pool forks, so the workers inherit it
    monkeypatch.setattr(community, "_move_nodes", broken)
    with pytest.raises(ZeroDivisionError) as raised:
        run_pipeline(PipelineConfig(preset="small", out_dir=str(tmp_path)))
    assert chosen == [2]
    assert raised.value.args[0] != os.getpid()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("pooled", [False, pytest.param(True, marks=needs_fork)])
def test_counted_calls_stay_in_this_process(tmp_path, monkeypatch, pooled):
    """The calls a traced run counts (detections read, timelines, abstract
    graphs) run here, as often as in-process, while the workers write the
    partition, network and abstract files."""
    chosen = _force_pool(monkeypatch) if pooled else []
    calls = tmp_path / "calls"
    for module, name in ((community, "detect_all"), (evolution, "classify"),
                         (abstraction, "abstract")):
        def recorded(*args, _name=name, _call=getattr(module, name), **kwargs):
            with open(calls, "a") as handle:
                handle.write(f"{_name} {os.getpid()}\n")
            return _call(*args, **kwargs)

        # patched before the pool forks, so a worker would inherit it
        monkeypatch.setattr(module, name, recorded)
    result = run_pipeline(PipelineConfig(preset="small", out_dir=str(tmp_path / "out")))
    assert chosen == ([2] if pooled else [])
    lines = [line.split() for line in calls.read_text().splitlines()]
    assert {int(pid) for _name, pid in lines} == {os.getpid()}
    blocks = 3 * 3  # X values times filters
    frames = result.network.frame_count
    assert sorted(collections.Counter(name for name, _pid in lines).items()) == [
        ("abstract", blocks * frames), ("classify", blocks * 2), ("detect_all", blocks * 2)
    ]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("pooled", [False, pytest.param(True, marks=needs_fork)])
@pytest.mark.parametrize("module, writer", [
    (community, "write_partition_csv"),
    (report, "write_edge_csv"),
    (abstraction, "write_abstract_csv"),
])
def test_failed_worker_write_fails_the_run(tmp_path, monkeypatch, pooled, module, writer):
    """A file a worker writes fails the run as one written here would: its
    error is raised, and no manifest is written."""
    chosen = _force_pool(monkeypatch) if pooled else []

    def full(*args):
        raise OSError(os.getpid(), "no space left on device")

    # patched before the pool forks, so the workers inherit it
    monkeypatch.setattr(module, writer, full)
    with pytest.raises(OSError) as raised:
        run_pipeline(PipelineConfig(preset="small", out_dir=str(tmp_path)))
    assert chosen == ([2] if pooled else [])
    assert raised.value.args[1] == "no space left on device"
    assert (raised.value.args[0] != os.getpid()) == pooled
    assert not (tmp_path / "manifest.json").exists()
    assert multiprocessing.active_children() == []


def _kill_workers(monkeypatch):
    """Make every worker exit hard in its first detection, as if the kernel
    had killed it; patched before the pool forks."""
    parent = os.getpid()

    def killed(*args):
        if os.getpid() == parent:
            raise AssertionError("ran in the parent")
        os._exit(1)

    monkeypatch.setattr(community, "_move_nodes", killed)


@needs_fork
def test_dead_worker_fails_the_run(tmp_path, monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    chosen = _force_pool(monkeypatch)
    _kill_workers(monkeypatch)
    with pytest.raises(BrokenProcessPool):
        run_pipeline(PipelineConfig(preset="small", out_dir=str(tmp_path)))
    assert chosen == [2]
    assert multiprocessing.active_children() == []


@needs_fork
def test_dead_worker_is_a_command_error(tmp_path, monkeypatch, capsys):
    chosen = _force_pool(monkeypatch)
    _kill_workers(monkeypatch)
    code = cli.main(["analyze", "--preset", "small", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: an analysis worker process died")
    assert "Traceback" not in err
    assert chosen == [2]
    assert multiprocessing.active_children() == []


@needs_fork
def test_one_work_item_per_x_filter_and_side(tmp_path, monkeypatch):
    from concurrent.futures import ProcessPoolExecutor

    config = dict(preset="small", x_values=(5, 10))
    here, pooled = tmp_path / "here", tmp_path / "pooled"
    run_pipeline(PipelineConfig(out_dir=str(here), **config))
    chosen = _force_pool(monkeypatch)
    submitted = []
    submit = ProcessPoolExecutor.submit

    def counted(self, *args, **kwargs):
        submitted.append(args)
        return submit(self, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", counted)
    dropped = []
    detections = report._Work.detections

    def submitting(self, bundle):
        calls = detections(self, bundle)
        dropped.append(self.agg is None)
        return calls

    monkeypatch.setattr(report._Work, "detections", submitting)
    result = run_pipeline(PipelineConfig(out_dir=str(pooled), **config))
    assert chosen == [2]
    assert result.network.frame_count > 1
    # detections per (X, filter, side), tier one's kernels as one item, the
    # network files of every filter as one item, and frame metrics per
    # (X, filter); none of them is per frame
    assert len(submitted) == 2 * 3 * 2 + 1 + 1 + 2 * 3
    # each item's arguments cross as one pickled payload
    assert [(fn, type(payload)) for fn, _step, payload in submitted] == [
        (report._in_worker, bytes)
    ] * len(submitted)
    assert collections.Counter(step for _fn, step, _payload in submitted) == {
        "tier_one": 1, "detect": 2 * 3 * 2, "write_networks": 1, "frame_rows": 2 * 3,
    }
    # the aggregate graph is gone once its last readers are submitted
    assert dropped == [True]
    assert _files(pooled) == _files(here)


@needs_fork
def test_workers_start_before_the_rest_of_tier_one(tmp_path, monkeypatch):
    _force_pool(monkeypatch)
    pids = tmp_path / "closeness_pids"
    closeness_all = report.closeness_all

    def watched(*args):
        with open(pids, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return closeness_all(*args)

    # patched before the pool forks, so the workers inherit it
    monkeypatch.setattr(report, "closeness_all", watched)
    run_pipeline(PipelineConfig(preset="small", x_values=(10,), curve_x=(10,),
                                out_dir=str(tmp_path / "out")))
    ran_in = [int(line) for line in pids.read_text().split()]
    assert len(ran_in) == 1 and ran_in[0] != os.getpid()
    assert multiprocessing.active_children() == []


def test_threaded_caller_stays_in_process(tmp_path, monkeypatch):
    chosen = _force_pool(monkeypatch)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait, args=(60,))
    waiting.start()
    try:
        run_pipeline(PipelineConfig(preset="small", x_values=(10,), curve_x=(10,),
                                    type_filter="A", out_dir=str(tmp_path)))
    finally:
        release.set()
        waiting.join(timeout=60)
    assert not waiting.is_alive()
    assert chosen == [0]


@pytest.mark.parametrize("pooled", [False, pytest.param(True, marks=needs_fork)])
def test_tier_two_runs_without_team_records_or_aggregate(tmp_path, monkeypatch, pooled):
    """By tier two, this process holds no team record and no aggregate
    graph: the networks and team counts replace the records, and tier
    one's kernels were the aggregate's last readers."""
    chosen = _force_pool(monkeypatch) if pooled else []
    analyze = report._analyze_filter
    held = set()

    def scanned(*args):
        gc.collect()
        held.update(
            type(o).__name__ for o in gc.get_objects()
            if isinstance(o, TeamRecord)
            or isinstance(o, FrameGraph) and o.frame_index == AGGREGATE_FRAME
        )
        return analyze(*args)

    monkeypatch.setattr(report, "_analyze_filter", scanned)
    run_pipeline(PipelineConfig(preset="small", x_values=(10,), curve_x=(10,),
                                out_dir=str(tmp_path)))
    assert chosen == ([2] if pooled else [])
    assert held == set()


@pytest.mark.parametrize("pooled", [False, pytest.param(True, marks=needs_fork)])
def test_tier_two_holds_one_side_of_events_at_a_time(tmp_path, monkeypatch, pooled):
    """At the start of each (X, filter) block and of each side's
    ``classify``, this process holds no evolution event or timeline: each
    side's events are dropped once written and summed up.  Nor does it
    hold a community timeline of member sets: ``classify`` reads the
    partitions' own assignments."""
    chosen = _force_pool(monkeypatch) if pooled else []
    analyze, classify = report._analyze_filter, evolution.classify
    met: set = set()  # the members of the blocks begun so far
    held, scans = set(), []

    def scan(where):
        scans.append(where)
        gc.collect()
        held.update(
            type(o).__name__ for o in gc.get_objects()
            if isinstance(o, (evolution.EvolutionEvent, evolution.Timeline))
            or isinstance(o, list) and o and isinstance(o[0], frozenset)
            and o[0] and o[0] <= met
        )

    def scanned_analyze(fnet, *args):
        met.update(fnet.members)
        scan("block")
        return analyze(fnet, *args)

    def scanned_classify(*args, **kwargs):
        scan("classify")
        return classify(*args, **kwargs)

    monkeypatch.setattr(report, "_analyze_filter", scanned_analyze)
    monkeypatch.setattr(evolution, "classify", scanned_classify)
    run_pipeline(PipelineConfig(preset="small", x_values=(10,), curve_x=(10,),
                                out_dir=str(tmp_path)))
    assert chosen == ([2] if pooled else [])
    assert scans == ["block", "classify", "classify"] * 3  # filters, then sides
    assert held == set()


def _small_log(tmp_path):
    """The ``small`` preset's records, as a CSV log; the path and the records."""
    records, _truth = synth.generate(synth.small_preset(42))
    log = tmp_path / "log.csv"
    synth.write_log_csv(log, records)
    return log, records


@pytest.mark.parametrize("pooled", [False, pytest.param(True, marks=needs_fork)])
def test_shuffled_records_give_the_same_bundle(tmp_path, monkeypatch, pooled):
    """The networks are built from the teams grouped by frame; the order of
    the records must not reach the bundle.  Both logs are read from one
    path, so the summary's source block agrees too."""
    log, records = _small_log(tmp_path)
    ordered, shuffled = tmp_path / "ordered", tmp_path / "shuffled"
    run_pipeline(PipelineConfig(input=str(log), out_dir=str(ordered)))
    random.Random(7).shuffle(records)
    synth.write_log_csv(log, records)
    chosen = _force_pool(monkeypatch) if pooled else []
    run_pipeline(PipelineConfig(input=str(log), out_dir=str(shuffled)))
    assert chosen == ([2] if pooled else [])
    assert _files(shuffled) == _files(ordered)


@needs_fork
def test_fixed_duration_window_runs_pooled_as_in_process(tmp_path, monkeypatch):
    log, _records = _small_log(tmp_path)
    config = dict(input=str(log), window="30d")
    here, pooled = tmp_path / "here", tmp_path / "pooled"
    run_pipeline(PipelineConfig(out_dir=str(here), **config))
    chosen = _force_pool(monkeypatch)
    run_pipeline(PipelineConfig(out_dir=str(pooled), **config))
    assert chosen == [2]
    spec = json.loads((here / "summary.json").read_text())["network"]["frame_spec"]
    assert spec["window"] == "2592000s"
    assert spec["frame_count"] > 1
    assert _files(pooled) == _files(here)


@pytest.mark.parametrize("pooled", [False, pytest.param(True, marks=needs_fork)])
def test_detections_hand_back_labels_and_tier_two_reads_its_own_names(
    tmp_path, monkeypatch, pooled
):
    """A detection item's result holds no string, so no member name is
    copied back from a worker: every key of every assignment that
    ``classify`` and ``abstract`` read is the frame's own node string."""
    chosen = _force_pool(monkeypatch) if pooled else []
    analyze, detections = report._analyze_filter, report._Work.detections
    classify, abstract = evolution.classify, abstraction.abstract
    frames = []  # the frames of the block being analysed
    handed, copies = [], []

    def own(where, frame, assignment):
        nodes = set(map(id, frame.nodes))
        copies.extend((where, frame.frame_index, m) for m in assignment if id(m) not in nodes)

    def recorded(call):
        def read():
            value = call()
            handed.append(pickle.dumps(value))
            return value

        return read

    def recording(self, bundle):
        return {key: recorded(call) for key, call in detections(self, bundle).items()}

    def scanned_analyze(fnet, *args):
        frames[:] = fnet.frames
        return analyze(fnet, *args)

    def scanned_classify(timeline, **kwargs):
        for frame, assignment in zip(frames, timeline, strict=True):
            own("classify", frame, assignment)
        return classify(timeline, **kwargs)

    def scanned_abstract(frame, bsn_map, gsn_map):
        own("abstract", frame, bsn_map)
        own("abstract", frame, gsn_map)
        return abstract(frame, bsn_map, gsn_map)

    monkeypatch.setattr(report._Work, "detections", recording)
    monkeypatch.setattr(report, "_analyze_filter", scanned_analyze)
    monkeypatch.setattr(evolution, "classify", scanned_classify)
    monkeypatch.setattr(abstraction, "abstract", scanned_abstract)
    result = run_pipeline(PipelineConfig(preset="small", x_values=(10,), curve_x=(10,),
                                         out_dir=str(tmp_path)))
    assert chosen == ([2] if pooled else [])
    assert result.network.frame_count > 1
    assert copies == []
    assert len(handed) == 3 * 2  # filters times sides
    strings = [arg for data in handed for _op, arg, _pos in pickletools.genops(data)
               if isinstance(arg, str)]
    assert strings == []


@pytest.mark.parametrize("pooled", [False, pytest.param(True, marks=needs_fork)])
def test_no_pool_step_hands_back_a_member_name(tmp_path, monkeypatch, pooled):
    """Every step's result, pickled, holds no string equal to a member
    name: tier one's closeness values and the detections' labels come back
    in node order, and this process puts its own names to them."""
    chosen = _force_pool(monkeypatch) if pooled else []
    submit, detections = report._Work.submit, report._Work.detections
    handed = []  # (step, pickled result)

    def recorded(step, call):
        def read():
            value = call()
            handed.append((step, pickle.dumps(value)))
            return value

        return read

    def submitting(self, step, *args):
        return recorded(step, submit(self, step, *args))

    def detecting(self, bundle):
        return {key: recorded("detect", call)
                for key, call in detections(self, bundle).items()}

    monkeypatch.setattr(report._Work, "submit", submitting)
    monkeypatch.setattr(report._Work, "detections", detecting)
    result = run_pipeline(PipelineConfig(preset="small", out_dir=str(tmp_path)))
    assert chosen == ([2] if pooled else [])
    members = result.network.members
    named = {
        (step, arg) for step, data in handed
        for _op, arg, _pos in pickletools.genops(data)
        if isinstance(arg, str) and arg in members
    }
    assert named == set()
    assert {step for step, _data in handed} == {
        "tier_one", "detect", "write_networks", "frame_rows",
    }


_NAMES = [f"m{i}" for i in range(7)]
_STRANGERS = ["s0", "s1"]  # in a side, but in no frame


@st.composite
def _frames_and_sides(draw):
    """A few frames over ``_NAMES`` (possibly empty or edgeless), a seed, and
    each side's members, which may miss every node and hold strangers."""
    frames = []
    for t in range(draw(st.integers(1, 4))):
        # frame 0 has a node, since the split needs a member to rank
        nodes = sorted(draw(st.sets(st.sampled_from(_NAMES), min_size=int(t == 0))))
        pairs = list(combinations(nodes, 2))
        edges = draw(st.lists(
            st.tuples(st.sampled_from(pairs), st.integers(1, 3)), max_size=12
        )) if pairs else []
        frames.append(FrameGraph.from_edges(t, [(u, v, w) for (u, v), w in edges], nodes))
    side = st.frozensets(st.sampled_from(_NAMES + _STRANGERS))
    return frames, draw(st.integers(0, 2**32)), draw(side), draw(side)


_TRIANGLES = FrameGraph.from_edges(0, [
    ("m0", "m1", 2), ("m1", "m2", 1), ("m0", "m2", 1), ("m3", "m4", 1), ("m4", "m5", 3),
    ("m3", "m5", 1), ("m2", "m3", 1),
])


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_frames_and_sides())
@example(  # edgeless frames: isolated nodes, then no node at all
    ([FrameGraph.from_edges(0, [], ["m0", "m1"]), FrameGraph.from_edges(1, [])], 7,
     frozenset({"m0", "m1"}), frozenset({"m1"})))
@example(  # the backbone has no member in frame 1, the rest none in frame 0
    ([_TRIANGLES, FrameGraph.from_edges(1, [("m6", "m7", 1)])], 42,
     frozenset({"m0", "m1", "m2", "m3"}), frozenset({"m6", "m7"})))
@example(  # strangers on both sides
    ([_TRIANGLES, FrameGraph.from_edges(1, [("m0", "m1", 2), ("m1", "m2", 1)])], 3,
     frozenset({"m0", "m1", "m2", "s0"}), frozenset({"m3", "m4", "m5", "s0", "s1"})))
def test_handed_back_labels_rebuild_the_detected_partitions(case):
    """A detection item's result, pickled and read back, rebuilt over the
    frames' own names, is the partition ``community.detect`` finds on the
    frame restricted to the side: frame index, assignment in node order,
    Q and degenerate flag."""
    frames, seed, backbone, general = case
    network = DynamicNetwork(frames)
    work = report._Work(PipelineConfig(seed=seed, x_values=(10,), curve_x=(10,)),
                         {"full": network})
    work.splits = {10: kshell.BackboneSplit(10, backbone, general)}
    for side, members in (("bsn", backbone), ("gsn", general)):
        handed = pickle.loads(pickle.dumps(work.detect(10, "full", side, os.devnull)))
        rebuilt = report._partitions(lambda: handed, network, members)
        offset = report._SIDES[side][1]
        want = [
            community.detect(frame.restrict(members),
                             community.frame_seed(seed + offset, frame.frame_index))
            for frame in frames
        ]
        assert [
            (p.frame_index, list(p.assignment.items()), p.q, p.degenerate)
            for p in rebuilt
        ] == [
            (p.frame_index, list(p.assignment.items()), p.q, p.degenerate)
            for p in want
        ]
