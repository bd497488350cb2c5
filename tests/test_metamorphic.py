"""Metamorphic relations over the whole pipeline: an input change that must
not reach the analysis leaves the bundle as it was, up to the one
difference each relation names (Chen et al., "Metamorphic Testing: A
Review of Challenges and Opportunities", ACM Computing Surveys 51(1),
2018).

Every relation compares a source run on a CSV log with a follow-up run,
in this process and on a forced pool of 2, on the ``small`` preset's log
and on logs drawn from ``test_pipeline_properties``' strategy.  The
record-order relation lives in ``test_tier_two_pool``.
"""

import csv
import json
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings

from twotier import synth
from twotier.ingest import CSV_HEADER
from twotier.report import PipelineConfig, run_pipeline

from .test_pipeline_properties import team_logs
from .test_tier_two_pool import _force_pool, needs_fork

PREFIX = "p~"
SHIFTS = {"later": timedelta(seconds=12_345.678), "earlier": timedelta(days=-400, seconds=7)}

#: relation -> (log edits, config fields) of the follow-up run.  The shift
#: relations run both sides with a fixed-duration window, which counts
#: from the earliest timestamp.
RELATIONS = {
    "csv_as_jsonl": ({"suffix": ".jsonl"}, {}),
    "one_x": ({}, {"x_values": (10,)}),
    "type_a_only": ({}, {"type_filter": "A"}),
    "prefixed_names": ({"prefix": PREFIX}, {}),
    **{f"shifted_{name}": ({"shift": shift}, {"window": "30d"})
       for name, shift in SHIFTS.items()},
}


def _write_log(path: Path, records, prefix="", shift=timedelta(0)) -> None:
    """``records`` as a CSV or JSON Lines log, by the suffix of ``path``,
    with ``prefix`` on every member name and every timestamp moved by
    ``shift``.  Timestamps keep their fraction of a second, which the
    ``synth`` writers drop."""
    rows = [
        {"team_id": r.team_id, "activity_id": r.activity_id,
         "activity_type": r.activity_type.value,
         "timestamp": (r.timestamp + shift).isoformat(),
         "members": [prefix + m for m in r.members]}
        for r in records
    ]
    with open(path, "w", newline="") as handle:
        if path.suffix == ".jsonl":
            handle.writelines(json.dumps(row) + "\n" for row in rows)
            return
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        writer.writerows([*(row[k] for k in CSV_HEADER[:4]), ";".join(row["members"])]
                         for row in rows)


def _bundle(root: Path):
    """The bundle's files as bytes, with ``summary.json`` and
    ``manifest.json`` parsed and the input's path taken out of both: the
    two runs of a relation read different paths."""
    files = {str(p.relative_to(root)): p.read_bytes()
             for p in root.rglob("*") if p.is_file()}
    summary = json.loads(files.pop("summary.json"))
    manifest = json.loads(files.pop("manifest.json"))
    del summary["source"]["path"], manifest["config"]["input"]
    return files, summary, manifest


def _differing(want: dict, got: dict) -> list[str]:
    """The names of the files missing from one side or not equal."""
    return sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))


def _check(relation: str, source, follow) -> None:
    (files, summary, manifest), (files2, summary2, manifest2) = source, follow
    if relation == "csv_as_jsonl":
        assert summary2.pop("source") == {**summary.pop("source"), "format": "jsonl"}
    elif relation == "one_x":
        files = {k: v for k, v in files.items() if k.startswith(("network/", "x10/"))}
        summary["x"] = {"10": summary["x"]["10"]}
    elif relation == "type_a_only":
        files = {k: v for k, v in files.items()
                 if k != "network/frames_B.csv" and "/B/" not in k}
        for block in summary["x"].values():
            del block["filters"]["B"]
    elif relation == "prefixed_names":
        files2 = {k: v.replace(PREFIX.encode(), b"") for k, v in files2.items()}
    elif relation.startswith("shifted_"):
        spec, spec2 = (s["network"]["frame_spec"] for s in (summary, summary2))
        shift = SHIFTS[relation.removeprefix("shifted_")]
        for key in ("span_start", "span_end"):
            moved = datetime.fromisoformat(spec.pop(key)) + shift
            assert datetime.fromisoformat(spec2.pop(key)) == moved, key
    assert _differing(files, files2) == [], relation
    assert summary2 == summary, relation
    if relation not in ("one_x", "type_a_only"):
        assert manifest2 == manifest, relation


def _check_relations(records, tmp: Path, window: str) -> None:
    """Every relation on ``records``, the source run analysed with
    ``window`` unless the relation sets its own."""
    sources = {}
    for relation, (edits, fields) in RELATIONS.items():
        edits, fields = dict(edits), {"window": window, **fields}
        key = fields["window"]
        if key not in sources:
            _write_log(tmp / f"source_{key}.csv", records)
            run_pipeline(PipelineConfig(input=str(tmp / f"source_{key}.csv"),
                                        window=key, out_dir=str(tmp / f"source_{key}")))
            sources[key] = tmp / f"source_{key}"
        log = tmp / f"{relation}{edits.pop('suffix', '.csv')}"
        _write_log(log, records, **edits)
        run_pipeline(PipelineConfig(input=str(log), out_dir=str(tmp / relation), **fields))
        _check(relation, _bundle(sources[key]), _bundle(tmp / relation))


@pytest.mark.parametrize("pooled", [False, pytest.param(True, marks=needs_fork)])
def test_relations_on_the_small_preset(tmp_path, monkeypatch, pooled):
    chosen = _force_pool(monkeypatch) if pooled else []
    records, _truth = synth.generate(synth.small_preset(42))
    _check_relations(records, tmp_path, "3m")
    assert chosen == ([2] * (len(RELATIONS) + 2) if pooled else [])


@pytest.mark.parametrize("pooled", [False, pytest.param(True, marks=needs_fork)])
@settings(max_examples=3, deadline=None, derandomize=True, database=None,
          phases=(Phase.generate,))
@given(records=team_logs())
def test_relations_on_generated_logs(pooled, records):
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        chosen = _force_pool(patch) if pooled else []
        _check_relations(records, Path(tmp), "1m")
    assert chosen == ([2] * (len(RELATIONS) + 2) if pooled else [])
