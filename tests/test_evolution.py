import pytest

from twotier.evolution import (
    ATTRIBUTE,
    CommunityRef,
    EventKind,
    classify,
    event_shares,
    match,
    read_event_csv,
    timeline_from_partitions,
    write_event_csv,
)
from twotier.synth import scripted_event_timeline

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
    # forward inclusion 2/4 = 0.5 passes alpha
    res = match(prev, nxt, alpha=0.5, beta=0.5)
    assert res.succs[0] == [0]
    # raise alpha; backward inclusion 2/6 < beta, so no match
    res = match(prev, nxt, alpha=0.75, beta=0.5)
    assert res.succs[0] == []
    # backward route: successor mostly contained in predecessor
    res = match([F({"a", "b", "c", "d"})], [F({"a", "b", "c"})], alpha=0.9, beta=0.7)
    assert res.succs[0] == [0]


def test_match_rejects_bad_input():
    with pytest.raises(ValueError):
        match([F()], [F({"a"})])
    with pytest.raises(ValueError):
        match([F({"a"}), F({"a", "b"})], [F({"c"})])  # overlapping communities


def test_classify_first_frame_is_all_form():
    tl = classify([[F({"a", "b"}), F({"c", "d"})]])
    kinds = [e.kind for e in tl.events]
    assert kinds == [EventKind.FORM, EventKind.FORM]
    # final-frame communities get no exit event
    assert not _events_of(tl, EventKind.DISSOLVE)


def test_classify_continue_grow_shrink():
    tl = classify([
        [F({"a", "b", "c"})],
        [F({"a", "b", "c"})],
        [F({"a", "b", "c", "d", "e"})],
        [F({"a", "b"})],
    ])
    assert len(_events_of(tl, EventKind.CONTINUE)) == 1
    grow = _events_of(tl, EventKind.GROW)
    assert len(grow) == 1 and grow[0].frame == 2
    assert grow[0].size_before == 3 and grow[0].size_after == 5
    shrink = _events_of(tl, EventKind.SHRINK)
    assert len(shrink) == 1 and shrink[0].frame == 3


def test_classify_split_and_merge():
    tl = classify([
        [F({"a", "b", "c", "d"})],
        [F({"a", "b"}), F({"c", "d"})],
        [F({"a", "b", "c", "d"})],
    ])
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
    tl = classify([
        [F({"a", "b", "c", "d"})],
        [F({"a", "b", "x", "y"})],
    ], continue_jaccard=0.5)
    assert not _events_of(tl, EventKind.CONTINUE)
    forms = _events_of(tl, EventKind.FORM)
    assert any(e.frame == 1 for e in forms)


def test_suspend_and_reemerge_bridge_a_gap():
    tl = classify([
        [F({"a", "b", "c"}), F({"k", "l", "m"})],
        [F({"k", "l", "m"})],
        [F({"k", "l", "m"})],
        [F({"a", "b", "c"}), F({"k", "l", "m"})],
    ])
    sus = _events_of(tl, EventKind.SUSPEND)
    assert len(sus) == 1
    assert sus[0].frame == 0  # recorded at the last frame of presence
    ree = _events_of(tl, EventKind.REEMERGE)
    assert len(ree) == 1
    assert ree[0].frame == 3
    # the resumed community keeps its original track
    assert ree[0].track_id == sus[0].track_id


def test_pending_tracks_dissolve_at_end():
    tl = classify([
        [F({"a", "b", "c"})],
        [F({"x", "y", "z"})],
    ])
    dis = _events_of(tl, EventKind.DISSOLVE)
    assert len(dis) == 1
    assert dis[0].frame == 0
    # the frame-1 community is alive at the end: no exit event for it
    exit_frames = {e.frame for e in dis}
    assert 1 not in exit_frames


def test_scripted_timeline_reproduced_exactly():
    frames, expected = scripted_event_timeline()
    tl = classify(frames)
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
    tl = classify([
        [F({"a", "b", "c"})],
        [F({"a", "b", "c"})],
        [F({"a", "b", "c", "d"})],
    ])
    refs = [CommunityRef(t, 0) for t in range(3)]
    tracks = {tl.track_of[r] for r in refs}
    assert len(tracks) == 1


def test_event_shares_percentages():
    tl = classify([
        [F({"a", "b"}), F({"c", "d"})],
        [F({"a", "b"}), F({"c", "d"})],
    ])
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
    tl = classify(frames)
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


def test_timeline_from_partitions_orders_by_frame():
    from twotier.community import detect_all
    from twotier.graph import FrameGraph

    f0 = FrameGraph.from_edges(0, [("a", "b", 1), ("c", "d", 1)])
    f1 = FrameGraph.from_edges(1, [("a", "b", 1)])
    parts = detect_all([f0, f1], seed=2).partitions
    frames = timeline_from_partitions(parts)
    assert len(frames) == 2
    assert F({"a", "b"}) in frames[0]
