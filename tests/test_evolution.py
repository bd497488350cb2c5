import csv
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotier import evolution
from twotier.community import detect
from twotier.evolution import (
    ATTRIBUTE,
    CommunityRef,
    EventKind,
    classify,
    event_shares,
    read_event_csv,
    timeline_from_partitions,
    write_event_csv,
)
from twotier.report import PipelineConfig, run_pipeline

from .fixtures import (
    adjacency_graph,
    as_assignments,
    bundle_timelines,
    member_sets,
    scripted_event_timeline,
)
from .oracles import random_weighted_adj, reference_classify

F = frozenset


def _events_of(timeline, kind):
    return [e for e in timeline.events if e.kind is kind]


def test_attribute_table_is_complete():
    # membership-changing events carry V, link-rearranging events S,
    # plain continuation carries neither
    assert ATTRIBUTE[EventKind.FORM] == "V"
    assert ATTRIBUTE[EventKind.DISSOLVE] == "V"
    assert ATTRIBUTE[EventKind.SUSPEND] == "V"
    assert ATTRIBUTE[EventKind.REEMERGE] == "V"
    assert ATTRIBUTE[EventKind.GROW] == "S"
    assert ATTRIBUTE[EventKind.SHRINK] == "S"
    assert ATTRIBUTE[EventKind.SPLIT] == "S"
    assert ATTRIBUTE[EventKind.MERGE] == "S"
    assert ATTRIBUTE[EventKind.CONTINUE] == "-"
    assert set(ATTRIBUTE) == set(EventKind)


def test_match_inclusion_thresholds():
    prev = [F({"a", "b", "c", "d"})]
    nxt = [F({"a", "b", "x", "y", "z", "w"})]
    # forward inclusion 2/4 = 0.5 passes alpha: the pair matches and grows
    tl = classify(as_assignments([prev, nxt]), alpha=0.5, beta=0.5)
    assert len(_events_of(tl, EventKind.GROW)) == 1
    # raise alpha; backward inclusion 2/6 < beta, so no match
    tl = classify(as_assignments([prev, nxt]), alpha=0.75, beta=0.5)
    assert not _events_of(tl, EventKind.GROW)
    # backward route: successor mostly contained in predecessor
    tl = classify(as_assignments([[F({"a", "b", "c", "d"})], [F({"a", "b", "c"})]]),
                  alpha=0.9, beta=0.7)
    assert len(_events_of(tl, EventKind.SHRINK)) == 1


def test_match_rejects_bad_input():
    # community 0 of frame 1 has no member
    with pytest.raises(ValueError, match="frame 1: community 0 is empty"):
        classify([{"a": 0}, {"a": 1}])
    with pytest.raises(ValueError, match="frame 0: community 1 is empty"):
        classify([{"a": 0, "b": 2}])
    same = as_assignments([[F({"a", "b"})], [F({"a", "b"})]])
    for bad in (0, -0.5, 1.5, 2, float("nan")):
        with pytest.raises(ValueError, match="continue_jaccard must lie in"):
            classify(same, continue_jaccard=bad)
    assert classify(same, continue_jaccard=1).events[-1].kind is EventKind.CONTINUE


def test_classify_first_frame_is_all_form():
    tl = classify(as_assignments([[F({"a", "b"}), F({"c", "d"})]]))
    kinds = [e.kind for e in tl.events]
    assert kinds == [EventKind.FORM, EventKind.FORM]
    # final-frame communities get no exit event
    assert not _events_of(tl, EventKind.DISSOLVE)


def test_classify_continue_grow_shrink():
    tl = classify(as_assignments([
        [F({"a", "b", "c"})],
        [F({"a", "b", "c"})],
        [F({"a", "b", "c", "d", "e"})],
        [F({"a", "b"})],
    ]))
    assert len(_events_of(tl, EventKind.CONTINUE)) == 1
    grow = _events_of(tl, EventKind.GROW)
    assert len(grow) == 1 and grow[0].frame == 2
    assert grow[0].size_before == 3 and grow[0].size_after == 5
    shrink = _events_of(tl, EventKind.SHRINK)
    assert len(shrink) == 1 and shrink[0].frame == 3


def test_classify_split_and_merge():
    tl = classify(as_assignments([
        [F({"a", "b", "c", "d"})],
        [F({"a", "b"}), F({"c", "d"})],
        [F({"a", "b", "c", "d"})],
    ]))
    split = _events_of(tl, EventKind.SPLIT)
    assert len(split) == 1
    assert split[0].frame == 1
    assert len(split[0].successors) == 2
    merge = _events_of(tl, EventKind.MERGE)
    assert len(merge) == 1
    assert merge[0].frame == 2
    assert len(merge[0].predecessors) == 2


def test_equal_size_low_overlap_pair_is_demoted():
    # half the members swap out; inclusion passes at 0.5 but the pair is
    # no stronger than a coincidence, so it must not read as Continue
    tl = classify(as_assignments([
        [F({"a", "b", "c", "d"})],
        [F({"a", "b", "x", "y"})],
    ]), continue_jaccard=0.5)
    assert not _events_of(tl, EventKind.CONTINUE)
    forms = _events_of(tl, EventKind.FORM)
    assert any(e.frame == 1 for e in forms)


def test_suspend_and_reemerge_bridge_a_gap():
    tl = classify(as_assignments([
        [F({"a", "b", "c"}), F({"k", "l", "m"})],
        [F({"k", "l", "m"})],
        [F({"k", "l", "m"})],
        [F({"a", "b", "c"}), F({"k", "l", "m"})],
    ]))
    sus = _events_of(tl, EventKind.SUSPEND)
    assert len(sus) == 1
    assert sus[0].frame == 0  # recorded at the last frame of presence
    ree = _events_of(tl, EventKind.REEMERGE)
    assert len(ree) == 1
    assert ree[0].frame == 3
    # the resumed community keeps its original track
    assert ree[0].track_id == sus[0].track_id


def test_classify_equals_pairwise_reemergence_scan():
    """The member index finds the re-emergences that the reference finds by
    testing every pending track against every unmatched community, so
    events and tracks are equal on Louvain timelines of random graphs,
    where many tracks suspend and re-emerge."""
    rng = random.Random(96)
    reemerged = 0
    for _ in range(30):
        frames = []
        for t in range(rng.randint(2, 30)):
            edges = rng.choice((10, 30, 60))
            adj = random_weighted_adj(rng, max_nodes=25, max_edges=edges)
            frames.append(detect(adjacency_graph(t, adj), seed=t).assignment)
        alpha, beta = rng.choice(((0.5, 0.5), (0.3, 0.8), (1.0, 1.0)))
        fast = classify(frames, alpha, beta)
        slow = reference_classify([member_sets(a) for a in frames], alpha, beta)
        assert fast.events == slow.events
        assert fast.track_of == slow.track_of
        # a track resumes no sooner than two frames after it was last seen
        for event in _events_of(fast, EventKind.REEMERGE):
            assert event.predecessors[0].frame <= event.frame - 2
            reemerged += 1
    assert reemerged >= 100


@st.composite
def _set_timelines(draw):
    """Up to 8 frames over 6 members, each member absent or in one of 3
    communities, numbered in a drawn order: ties, equal sizes, gaps and
    empty frames are common, and so are overlap fractions of 1/3, 1/2,
    2/3 and 1, the drawn thresholds."""
    frames = []
    for _ in range(draw(st.integers(0, 8))):
        labels = draw(st.lists(st.sampled_from((None, 0, 1, 2)), min_size=6, max_size=6))
        groups: dict = {}
        for member, label in zip("abcdef", labels):
            if label is not None:
                groups.setdefault(label, set()).add(member)
        order = draw(st.permutations(sorted(groups)))
        frames.append([F(groups[label]) for label in order])
    return frames


_THRESHOLDS = st.sampled_from((1 / 3, 0.5, 2 / 3, 1.0))


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(_set_timelines(), _THRESHOLDS, _THRESHOLDS, _THRESHOLDS)
def test_classify_equals_reference_on_random_timelines(frames, alpha, beta, jaccard):
    got = classify(as_assignments(frames), alpha, beta, jaccard)
    want = reference_classify(frames, alpha, beta, jaccard)
    assert got.events == want.events
    assert got.track_of == want.track_of


def test_classify_equals_reference_on_the_small_preset(tmp_path):
    """The 18 timelines of the ``small`` preset's bundle, read back from its
    partition files, give the events written next to them, and the
    reference gives the same events and tracks."""
    run_pipeline(PipelineConfig(preset="small", out_dir=str(tmp_path)))
    labels = []
    for label, assignments, written in bundle_timelines(tmp_path):
        got = classify(assignments)
        want = reference_classify([member_sets(a) for a in assignments])
        assert got.events == want.events == written, label
        assert got.track_of == want.track_of, label
        labels.append(label)
    assert len(labels) == 18


def test_classify_reads_its_frames_once():
    """A one-shot generator gives the timeline the list gives."""
    frames = as_assignments(scripted_event_timeline()[0])
    once = classify(frame for frame in frames)
    listed = classify(frames)
    assert once.events == listed.events
    assert once.track_of == listed.track_of


def test_pending_tracks_dissolve_at_end():
    tl = classify(as_assignments([
        [F({"a", "b", "c"})],
        [F({"x", "y", "z"})],
    ]))
    dis = _events_of(tl, EventKind.DISSOLVE)
    assert len(dis) == 1
    assert dis[0].frame == 0
    # the frame-1 community is alive at the end: no exit event for it
    exit_frames = {e.frame for e in dis}
    assert 1 not in exit_frames


def test_scripted_timeline_reproduced_exactly():
    frames, expected = scripted_event_timeline()
    tl = classify(as_assignments(frames))
    got = {
        (e.kind.value, e.frame,
         tuple((r.frame, r.community) for r in e.predecessors),
         tuple((r.frame, r.community) for r in e.successors))
        for e in tl.events
    }
    want = {
        (e["kind"], e["frame"], e["predecessors"], e["successors"])
        for e in expected
    }
    assert got == want


def test_tracks_thread_through_continues():
    tl = classify(as_assignments([
        [F({"a", "b", "c"})],
        [F({"a", "b", "c"})],
        [F({"a", "b", "c", "d"})],
    ]))
    refs = [CommunityRef(t, 0) for t in range(3)]
    tracks = {tl.track_of[r] for r in refs}
    assert len(tracks) == 1


def test_event_shares_percentages():
    tl = classify(as_assignments([
        [F({"a", "b"}), F({"c", "d"})],
        [F({"a", "b"}), F({"c", "d"})],
    ]))
    rows = event_shares({"bsn": tl.events})
    assert list(rows) == ["bsn"]
    row = rows["bsn"]
    assert row["events"] == 4  # 2 Form + 2 Continue
    assert row["Form"] == pytest.approx(50.0)
    assert row["Continue"] == pytest.approx(50.0)
    assert row["V_share"] == pytest.approx(50.0)
    assert row["S_share"] == pytest.approx(0.0)
    assert row["none_share"] == pytest.approx(50.0)


def test_event_csv_round_trip(tmp_path):
    frames, _ = scripted_event_timeline()
    tl = classify(as_assignments(frames))
    path = tmp_path / "events.csv"
    write_event_csv(path, tl.events)
    back = read_event_csv(path)
    assert len(back) == len(tl.events)
    for a, b in zip(back, tl.events):
        assert a.kind is b.kind
        assert a.frame == b.frame
        assert a.predecessors == b.predecessors
        assert a.successors == b.successors
        assert a.track_id == b.track_id


def test_event_csv_writes_one_csv_writer_row_per_event(tmp_path):
    """The bulk writer's bytes are the csv module's, for every event kind,
    merges and splits with several communities on one side, and absent
    sizes."""
    frames, _ = scripted_event_timeline()
    events = classify(as_assignments(frames)).events
    assert {e.kind for e in events} == set(EventKind)
    assert any(len(e.successors) > 1 for e in events)
    assert any(len(e.predecessors) > 1 for e in events)
    reference = io.StringIO()
    writer = csv.writer(reference)
    writer.writerow(evolution.EVENT_COLUMNS)
    for e in events:
        writer.writerow([
            e.frame, e.kind.value, e.attribute, e.track_id,
            ";".join(str(r) for r in e.predecessors),
            ";".join(str(r) for r in e.successors),
            "" if e.size_before is None else e.size_before,
            "" if e.size_after is None else e.size_after,
        ])
    path = tmp_path / "events.csv"
    write_event_csv(path, events)
    assert path.read_bytes() == reference.getvalue().encode("utf-8")


def test_timeline_from_partitions_orders_by_frame():
    from twotier.community import detect, detect_all, frame_seed
    from twotier.graph import FrameGraph

    f0 = FrameGraph.from_edges(0, [("a", "b", 1), ("c", "d", 1)])
    f1 = FrameGraph.from_edges(1, [("a", "b", 1)])
    parts = detect_all(detect(f, frame_seed(2, f.frame_index)) for f in [f0, f1]).partitions
    frames = timeline_from_partitions(parts)
    assert frames == [p.assignment for p in parts]
    assert frames[0]["a"] == frames[0]["b"] != frames[0]["c"]
