import dataclasses
import json

import pytest

from twotier.community import detect
from twotier.ingest import expand_teams, load_log, parse_timestamp
from twotier.synth import (
    SynthConfig,
    generate,
    large_preset,
    small_preset,
    write_ground_truth,
    write_log_csv,
    write_log_jsonl,
)

from .fixtures import (
    intermittent_activity_records,
    intermittent_spec,
    member_sets,
    planted_partition,
    scripted_event_timeline,
)


def test_generate_is_deterministic():
    r1, t1 = generate(small_preset(7))
    r2, t2 = generate(small_preset(7))
    assert r1 == r2
    assert t1.tiers == t2.tiers
    assert t1.frame_general_pool == t2.frame_general_pool


def test_different_seeds_differ():
    r1, _ = generate(small_preset(1))
    r2, _ = generate(small_preset(2))
    assert r1 != r2


def test_record_count_and_span():
    cfg = small_preset(3)
    records, truth = generate(cfg)
    per_frame = (cfg.teams_a_core_mixed + cfg.teams_a_general + cfg.teams_a_regular
                 + cfg.teams_b_core + cfg.teams_b_core_cross + cfg.teams_b_core_general
                 + cfg.teams_b_core_regular + cfg.teams_b_regular)
    assert len(records) == cfg.frames * per_frame
    start = parse_timestamp(cfg.span_start)
    for r in records:
        assert r.timestamp >= start


def test_ground_truth_tier_labels():
    records, truth = generate(small_preset(5))
    assert set(truth.tiers.values()) == {"core", "regular", "general"}
    for m in truth.core_members:
        assert truth.tiers[m] == "core"
        assert truth.blocks[m].startswith("c")
    for m in truth.regular_members:
        assert truth.tiers[m] == "regular"
    # every participant is a known member
    for r in records:
        for m in r.members:
            assert m in truth.tiers


def test_churn_replaces_pool_slots():
    cfg = small_preset(11)
    _, truth = generate(cfg)
    first = set(truth.frame_general_pool[0])
    last = set(truth.frame_general_pool[-1])
    assert first != last
    expected_churn = round(cfg.churn_rate * cfg.general_pool)
    gone = len(first - set(truth.frame_general_pool[1]))
    assert gone <= expected_churn
    # pool size is constant
    assert all(len(roster) == cfg.general_pool for roster in truth.frame_general_pool)


def test_validate_rejects_bad_configs():
    with pytest.raises(ValueError):
        SynthConfig(frames=0).validate()
    with pytest.raises(ValueError):
        SynthConfig(churn_rate=1.5).validate()
    with pytest.raises(ValueError):
        SynthConfig(team_size_min=1).validate()
    with pytest.raises(ValueError):
        SynthConfig(regular_grading=(1.0,)).validate()
    with pytest.raises(ValueError):
        SynthConfig(team_size_max=400).validate()
    with pytest.raises(ValueError):
        dataclasses.replace(small_preset(), core_blocks=1).validate()


def test_large_preset_shape():
    cfg = large_preset()
    assert cfg.frames == 24
    assert sum(cfg.regular_block_sizes) == 900
    assert len(cfg.regular_grading) == cfg.regular_blocks == len(cfg.regular_block_sizes)


def test_log_writers_round_trip(tmp_path):
    records, truth = generate(small_preset(13))
    csv_path = tmp_path / "log.csv"
    jsonl_path = tmp_path / "log.jsonl"
    write_log_csv(csv_path, records)
    write_log_jsonl(jsonl_path, records)
    assert load_log(csv_path) == records
    assert load_log(jsonl_path) == records

    gt_path = tmp_path / "truth.json"
    write_ground_truth(gt_path, truth)
    stored = json.loads(gt_path.read_text())
    assert stored["seed"] == truth.seed
    assert stored["tiers"] == truth.tiers


def test_intermittent_fixture_shape():
    frames = 12
    records = intermittent_activity_records(frames=frames)
    spec = intermittent_spec(frames)
    assert spec.frame_count == frames
    by_frame = {}
    for r in records:
        by_frame.setdefault(spec.frame_of(r.timestamp), []).append(r)
    # the consortium burst exists only in frame 0
    burst = [r for r in records if r.team_id.startswith("f00burst")]
    assert len(burst) == 10
    assert all(spec.frame_of(r.timestamp) == 0 for r in burst)
    # the steady team shows up every frame
    for t in range(frames):
        assert any(r.team_id == f"f{t:02d}steady" for r in by_frame[t])


def test_planted_partition_shape_and_recovery():
    g = planted_partition(3, 12, 0.9, 0.02, seed=8)
    assert len(g.nodes) == 36
    part = detect(g, seed=8)
    # with this contrast the blocks must come back exactly
    blocks = {}
    for node in g.nodes:
        blocks.setdefault(node[1], set()).add(node)
    found = set(member_sets(part.assignment))
    assert {frozenset(b) for b in blocks.values()} == found
    with pytest.raises(ValueError):
        planted_partition(2, 5, 0.2, 0.5)


def test_scripted_timeline_is_well_formed():
    frames, expected = scripted_event_timeline()
    assert len(frames) == 8
    kinds = {e["kind"] for e in expected}
    assert kinds == {"Form", "Dissolve", "Grow", "Shrink", "Continue",
                     "Suspend", "ReEmerge", "Split", "Merge"}
    # per-frame communities never share members
    for communities in frames:
        seen = set()
        for c in communities:
            assert not (c & seen)
            seen |= c


def test_expanded_log_feeds_ingestion():
    records, _ = generate(small_preset(21))
    links = expand_teams(records)
    sizes = [len(r.members) for r in records]
    assert len(links) == sum(n * (n - 1) // 2 for n in sizes)
