import json
import os
import subprocess
import sys
from pathlib import Path

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

    # a summary value of the wrong JSON type is rejected, not a traceback
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["x"]["10"]["filters"]["full"]["event_shares"] = []
    summary_path.write_text(json.dumps(summary))
    code = main(["report", "--bundle", str(out)])
    assert code == 2
    assert "is not a twotier summary" in capsys.readouterr().err


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
    # timestamps whose span or next frame would pass year 9999 are named
    header = "team_id,activity_id,activity_type,timestamp,members\n"
    late = tmp_path / "late.csv"
    late.write_text(header + "t1,a1,A,9999-12-31T23:59:59Z,a;b\n")
    code = main(["analyze", "--input", str(late), "--out-dir", str(tmp_path / "v")])
    assert code == 2
    assert "9999-12-31T23:59:59" in capsys.readouterr().err
    late.write_text(header + "t1,a1,A,9999-11-01T00:00:00Z,a;b\n"
                    "t2,a1,A,9999-12-30T00:00:00Z,a;b\n")
    code = main(["analyze", "--input", str(late), "--out-dir", str(tmp_path / "v")])
    assert code == 2
    assert "9999-11-01T00:00:00" in capsys.readouterr().err
    # a window too long for a timedelta
    code = main(["analyze", "--preset", "small", "--window", "99999999999999d",
                 "--out-dir", str(tmp_path / "u")])
    assert code == 2
    assert "too long" in capsys.readouterr().err
    # an output directory that is a file is named, not a traceback
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["synth", "--preset", "small", "--out-dir", str(taken)])
    assert code == 2
    assert str(taken) in capsys.readouterr().err


def test_report_rejects_missing_bundle(tmp_path, capsys):
    code = main(["report", "--bundle", str(tmp_path / "nothing")])
    assert code == 2
    # a summary.json without the twotier layout is rejected, not a traceback
    (tmp_path / "other").mkdir()
    (tmp_path / "other" / "summary.json").write_text("{}")
    code = main(["report", "--bundle", str(tmp_path / "other")])
    assert code == 2
    assert "is not a twotier summary" in capsys.readouterr().err
    # a summary.json that is a directory is reported, not a traceback
    (tmp_path / "odd" / "summary.json").mkdir(parents=True)
    code = main(["report", "--bundle", str(tmp_path / "odd")])
    assert code == 2
    assert "summary.json" in capsys.readouterr().err


def test_subcommand_required():
    with pytest.raises(SystemExit):
        main([])


def test_analyze_needs_no_test_only_package(tmp_path):
    # the test extras stay test-only: the pipeline runs with them unimportable
    script = (
        "import sys\n"
        "for name in ('numpy', 'scipy', 'networkx', 'hypothesis', 'pytest'):\n"
        "    sys.modules[name] = None\n"
        "from twotier.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    out = tmp_path / "bundle"
    done = subprocess.run(
        [sys.executable, "-c", script, "analyze", "--preset", "small",
         "--out-dir", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert (out / "summary.json").is_file()
