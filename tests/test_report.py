import hashlib
import json
import sys
from datetime import timedelta
from pathlib import Path

import pytest

from twotier.report import (
    PipelineConfig,
    load_config,
    member_profiles,
    parse_window,
    report_text,
    run_pipeline,
)


def test_parse_window_units():
    assert parse_window("3m") == (3, None)
    assert parse_window("45d") == (None, timedelta(days=45))
    assert parse_window("12h") == (None, timedelta(hours=12))
    assert parse_window("90s") == (None, timedelta(seconds=90))
    for bad in ("m", "3", "3w", "-2m", ""):
        with pytest.raises(ValueError):
            parse_window(bad)


def test_config_validation():
    cfg = PipelineConfig(preset="large")
    cfg.validate()
    with pytest.raises(ValueError):
        PipelineConfig(preset="nope").validate()
    with pytest.raises(ValueError):
        PipelineConfig(x_values=(0,)).validate()
    with pytest.raises(ValueError):
        PipelineConfig(alpha=0.0).validate()
    with pytest.raises(ValueError):
        PipelineConfig(type_filter="C").validate()
    with pytest.raises(ValueError):
        PipelineConfig(input=None, preset=None).validate()
    # wrong types fail here, naming the key, rather than crashing later
    for key, value in (("window", 3), ("x_values", 5), ("alpha", "0.5"),
                       ("seed", "1"), ("curve_x", ["5"]), ("out_dir", None)):
        with pytest.raises(ValueError) as err:
            PipelineConfig(**{key: value}).validate()
        assert key in str(err.value)
    PipelineConfig(input=Path("log.csv"), out_dir=Path("out")).validate()
    # X values are normalised (10.0 -> 10) and may not repeat after that
    cfg = PipelineConfig(x_values=(10.0, 2.5), curve_x=[5.0])
    cfg.validate()
    assert cfg.x_values == (10, 2.5) and type(cfg.x_values[0]) is int
    assert cfg.curve_x == (5,) and type(cfg.curve_x[0]) is int
    for key in ("x_values", "curve_x"):
        with pytest.raises(ValueError) as err:
            PipelineConfig(**{key: (10.0, 10)}).validate()
        assert key in str(err.value)


def test_filters_depend_on_type_filter():
    assert PipelineConfig().filters == ["full", "A", "B"]
    assert PipelineConfig(type_filter="A").filters == ["full", "A"]
    assert PipelineConfig(type_filter="B").filters == ["full", "B"]


def test_load_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"preset": "small", "seed": 9, "x_values": [5, 10]}))
    cfg = load_config(path, overrides={"seed": 11})
    assert cfg.preset == "small"
    assert cfg.seed == 11
    assert cfg.x_values == (5, 10)
    path2 = tmp_path / "bad.json"
    path2.write_text(json.dumps({"presett": "small"}))
    with pytest.raises(ValueError) as err:
        load_config(path2)
    assert "presett" in str(err.value)
    # wrong JSON types are rejected by key, not left to crash the run
    for key, value in (("x_values", 5), ("window", 3)):
        path3 = tmp_path / f"bad_{key}.json"
        path3.write_text(json.dumps({key: value}))
        with pytest.raises(ValueError) as err:
            load_config(path3)
        assert key in str(err.value)


def test_member_profiles_group_averages():
    from twotier.graph import DynamicNetwork, FrameGraph
    from twotier.kshell import dynamic_influence, select_backbone

    g = FrameGraph.from_edges(0, [("a", "b", 3), ("a", "c", 1), ("b", "c", 1)])
    net = DynamicNetwork([g], frozenset({"a", "b", "c"}))
    table = dynamic_influence(net)
    split = select_backbone(table, 34)
    stats = {
        "degree": {m: g.degree(m) for m in net.members},
        "closeness": dict.fromkeys(net.members, 0.5),
        "type_a": dict.fromkeys(net.members, 1),
        "type_b": dict.fromkeys(net.members, 2),
        "active": dict.fromkeys(net.members, 1),
    }
    rows = member_profiles(split, stats)
    assert set(rows) == {"BM", "GM"}
    assert rows["BM"].count == 1
    assert rows["GM"].count == 2
    assert rows["BM"].avg_type_b == pytest.approx(2.0)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    cfg = PipelineConfig(preset="small", out_dir=str(out), x_values=(10, 25),
                         curve_x=(5, 10, 25, 50))
    return run_pipeline(cfg), out


def test_pipeline_bundle_layout(small_run):
    result, out = small_run
    for name in ("summary.json", "manifest.json", "ground_truth.json",
                 "synth_log.csv", "network/frames.csv", "network/influence.csv",
                 "network/coverage.csv"):
        assert (out / name).is_file(), name
    for x in (10, 25):
        xdir = out / f"x{x}"
        assert (xdir / "backbone.csv").is_file()
        assert (xdir / "profiles.csv").is_file()
        for fname in ("full", "A", "B"):
            fdir = xdir / fname
            for artifact in ("partitions_bsn.csv", "partitions_gsn.csv",
                             "events_bsn.csv", "events_gsn.csv",
                             "abstract.csv", "metrics.csv"):
                assert (fdir / artifact).is_file(), (fname, artifact)


def test_pipeline_summary_content(small_run):
    result, out = small_run
    summary = json.loads((out / "summary.json").read_text())
    assert summary["network"]["frames"] == 8
    assert summary["network"]["members"] == len(result.network.members)
    assert set(summary["coverage"]) == {"dwks", "wks_aggregate"}
    for x in ("10", "25"):
        block = summary["x"][x]
        assert set(block["filters"]) == {"full", "A", "B"}
        for fblock in block["filters"].values():
            assert "average_q" in fblock["bsn"]
            assert "tier2" in fblock
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 42
    listed = set(manifest["artifacts"])
    assert "summary.json" in listed
    assert "x10/backbone.csv" in listed


def test_pipeline_result_object(small_run):
    result, _ = small_run
    assert result.elapsed_seconds > 0
    assert set(result.profiles) == {10, 25}
    assert (10, "full") in result.metrics
    assert result.splits[10].x == 10


def test_report_text_renders(small_run):
    result, out = small_run
    summary = json.loads((out / "summary.json").read_text())
    text = report_text(summary)
    assert "members" in text
    assert "X = 10%" in text
    assert "coverage" in text.lower()


def test_pipeline_reads_log_files(tmp_path):
    from twotier.synth import generate, small_preset, write_log_csv

    records, _ = generate(small_preset(33))
    log = tmp_path / "events.csv"
    write_log_csv(log, records)
    cfg = PipelineConfig(input=str(log), preset=None, window="1m",
                         x_values=(20,), curve_x=(10, 30),
                         out_dir=str(tmp_path / "out"), type_filter="A")
    result = run_pipeline(cfg)
    assert result.network.frame_count >= 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["source"]["path"].endswith("events.csv")
    assert summary["source"]["format"] == "csv"
    assert set(summary["x"]["20"]["filters"]) == {"full", "A"}
    # a path object gives the same bundle as the equivalent string
    cfg.input, cfg.out_dir = log, tmp_path / "out_path"
    run_pipeline(cfg)
    for name in ("summary.json", "manifest.json"):
        assert (tmp_path / "out_path" / name).read_bytes() == (
            tmp_path / "out" / name
        ).read_bytes()


def _tree(root):
    return {str(p.relative_to(root)): p.is_file() and p.read_bytes()
            for p in root.rglob("*")}


def test_rerun_into_used_directory_matches_fresh_run(tmp_path):
    used, fresh = tmp_path / "used", tmp_path / "fresh"
    run_pipeline(PipelineConfig(preset="small", x_values=(5, 10), curve_x=(10,),
                                out_dir=str(used)))
    (used / "notes.txt").write_text("not listed, so kept")
    second = dict(preset="small", x_values=(10,), curve_x=(10,), type_filter="A")
    run_pipeline(PipelineConfig(out_dir=str(used), **second))
    run_pipeline(PipelineConfig(out_dir=str(fresh), **second))
    tree = _tree(used)
    assert tree.pop("notes.txt") == b"not listed, so kept"
    assert tree == _tree(fresh)
    assert "x5" not in tree and "network/frames_B.csv" not in tree


def test_each_x_gets_its_own_directory(tmp_path):
    xs = (10.5, 10.500001)  # equal to 6 significant digits
    run_pipeline(PipelineConfig(preset="small", x_values=xs, curve_x=(10,),
                                type_filter="A", out_dir=str(tmp_path)))
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert list(summary["x"]) == ["10.5", "10.500001"]
    for key in summary["x"]:
        lines = (tmp_path / f"x{key}" / "profiles.csv").read_text().splitlines()
        assert {line.split(",")[0] for line in lines[1:]} == {key}
        assert (tmp_path / f"x{key}" / "A" / "metrics.csv").is_file()


def test_pipeline_infers_jsonl_from_suffix(tmp_path):
    from twotier.synth import generate, small_preset, write_log_jsonl

    records, _ = generate(small_preset(33))
    log = tmp_path / "events.jsonl"
    write_log_jsonl(log, records)
    cfg = PipelineConfig(input=str(log), preset=None, window="3m",
                         x_values=(20,), curve_x=(10,),
                         out_dir=str(tmp_path / "out"))
    result = run_pipeline(cfg)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["source"]["format"] == "jsonl"
    assert result.summary["network"]["teams"] == len(records)


def test_pipeline_needs_no_numpy_or_scipy(tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.setitem(sys.modules, "scipy", None)
    run_pipeline(PipelineConfig(preset="small", out_dir=str(tmp_path)))
    assert (tmp_path / "manifest.json").is_file()


def _bundle_digest(root: Path) -> str:
    """sha256 over the sorted relative paths and each file's sha256, as the
    benchmark harness computes it (``perfbench/check.py``)."""
    digest = hashlib.sha256()
    for rel, path in sorted(
        (p.relative_to(root).as_posix(), p) for p in root.rglob("*") if p.is_file()
    ):
        digest.update(f"{rel}\t{hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
    return digest.hexdigest()


def test_small_preset_bundle_is_pinned(tmp_path):
    """The same bytes on every supported Python: float means are summed left
    to right, not by ``sum``, which is compensated from Python 3.12 on."""
    run_pipeline(PipelineConfig(preset="small", out_dir=str(tmp_path)))
    assert _bundle_digest(tmp_path) == (
        "8b70caf84fd6dbe538f643c466ccb0b3b3661850ed965fd33c1b8264ff6b3432"
    )
