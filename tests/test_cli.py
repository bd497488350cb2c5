import json

import pytest

from twotier.cli import main


def test_synth_then_analyze_then_report(tmp_path, capsys):
    synth_dir = tmp_path / "data"
    assert main(["synth", "--preset", "small", "--seed", "5",
                 "--out-dir", str(synth_dir)]) == 0
    log = synth_dir / "log.csv"
    assert log.is_file()
    assert (synth_dir / "ground_truth.json").is_file()

    out = tmp_path / "bundle"
    code = main(["analyze", "--input", str(log), "--window", "1m",
                 "--x", "10,25", "--curve-x", "10,25,50",
                 "--out-dir", str(out)])
    assert code == 0
    assert (out / "summary.json").is_file()

    code = main(["report", "--bundle", str(out)])
    assert code == 0
    shown = capsys.readouterr().out
    assert "members" in shown


def test_analyze_with_preset(tmp_path):
    out = tmp_path / "bundle"
    code = main(["analyze", "--preset", "small", "--x", "20",
                 "--curve-x", "20,40", "--type-filter", "B",
                 "--out-dir", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["x"]["20"]["filters"]) == {"full", "B"}


def test_cli_error_paths(tmp_path, capsys):
    # unknown generator preset
    code = main(["analyze", "--preset", "bogus", "--out-dir", str(tmp_path / "x")])
    assert code == 2
    assert "error" in capsys.readouterr().err.lower()
    # nonexistent log file
    code = main(["analyze", "--input", str(tmp_path / "missing.csv"),
                 "--out-dir", str(tmp_path / "y")])
    assert code == 2
    # malformed x list
    code = main(["analyze", "--preset", "small", "--x", "ten",
                 "--out-dir", str(tmp_path / "z")])
    assert code == 2
    # a config file that is not JSON is named in the message
    bad = tmp_path / "bad.json"
    bad.write_text('{"preset": "small", }')
    code = main(["analyze", "--config", str(bad), "--out-dir", str(tmp_path / "w")])
    assert code == 2
    assert str(bad) in capsys.readouterr().err


def test_report_rejects_missing_bundle(tmp_path, capsys):
    code = main(["report", "--bundle", str(tmp_path / "nothing")])
    assert code == 2
    # a summary.json without the twotier layout is rejected, not a traceback
    (tmp_path / "other").mkdir()
    (tmp_path / "other" / "summary.json").write_text("{}")
    code = main(["report", "--bundle", str(tmp_path / "other")])
    assert code == 2
    assert "is not a twotier summary" in capsys.readouterr().err


def test_subcommand_required():
    with pytest.raises(SystemExit):
        main([])
