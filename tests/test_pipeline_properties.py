"""Whole-pipeline invariants on generated small logs."""

import csv
import json
import tempfile
from datetime import datetime, timedelta, timezone
from math import comb
from pathlib import Path

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from twotier.community import modularity, read_partition_csv
from twotier.evolution import read_event_csv
from twotier.graph import FrameGraph, mean, read_edge_csv
from twotier.ingest import ActivityType, TeamRecord
from twotier.report import PipelineConfig, run_pipeline
from twotier.synth import write_log_csv

_START = datetime(2022, 1, 1, tzinfo=timezone.utc)
_SPAN_S = 200 * 86400


@st.composite
def team_logs(draw):
    """2-25 members, 1-40 teams of 1-6 members, A/B types, ~200 days."""
    pool = [f"m{i:02d}" for i in range(draw(st.integers(2, 25)))]
    records = []
    for t in range(draw(st.integers(1, 40))):
        size = draw(st.integers(1, min(6, len(pool))))
        kind = draw(st.sampled_from([ActivityType.A, ActivityType.B]))
        records.append(
            TeamRecord(
                team_id=f"t{t:02d}",
                activity_id=f"{kind.value}{draw(st.integers(0, 3))}",
                activity_type=kind,
                timestamp=_START + timedelta(seconds=draw(st.integers(0, _SPAN_S))),
                members=tuple(draw(st.permutations(pool))[:size]),
            )
        )
    return records


def _files(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()
    }


# no shrinking: each shrink step runs the pipeline twice, so a failure would
# take minutes to report; the first failing log is shown as generated
@settings(
    max_examples=25,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(team_logs())
def test_pipeline_invariants_on_generated_logs(records):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_log_csv(tmp / "log.csv", records)
        bundles = []
        for name in ("one", "two"):
            config = PipelineConfig(input=str(tmp / "log.csv"), preset=None, window="1m",
                                    x_values=(10, 50), out_dir=str(tmp / name))
            result = run_pipeline(config)
            bundles.append(_files(tmp / name))
        assert bundles[0] == bundles[1]
        out = tmp / "two"

        summary = json.loads((out / "summary.json").read_text())
        assert summary["network"]["teams"] == len(records)
        # the registry is the log's distinct members, one influence row each
        members = {m for r in records for m in r.members}
        assert summary["network"]["members"] == len(members)
        with open(out / "network" / "influence.csv", newline="") as handle:
            influence = list(csv.reader(handle))[1:]
        assert [row[0] for row in influence] == sorted(members)
        assert summary["network"]["links"] == sum(comb(len(r.members), 2) for r in records)
        # the BM and GM profiles split the log's (team, member) pairs by type
        for x_block in summary["x"].values():
            for kind, field in ((ActivityType.A, "avg_type_a"), (ActivityType.B, "avg_type_b")):
                pairs = sum(len(r.members) for r in records if r.activity_type is kind)
                tallied = sum(
                    row[field] * row["count"]
                    for row in x_block["profiles"].values()
                    if row["count"]
                )
                assert abs(tallied - pairs) <= 1e-9 * max(pairs, 1), (kind, tallied, pairs)

        for x, x_block in summary["x"].items():
            for fname, block in x_block["filters"].items():
                shares = block["tier2"]["edge_weight_shares"]
                if shares is not None:
                    assert abs(sum(shares.values()) - 1.0) <= 1e-9
                fdir = out / f"x{x}" / fname
                suffix = "" if fname == "full" else f"_{fname}"
                edges = read_edge_csv(out / "network" / f"frames{suffix}.csv")
                for side in ("bsn", "gsn"):
                    parts = read_partition_csv(fdir / f"partitions_{side}.csv")
                    # average_q is the mean Q of the side's non-empty frames,
                    # each scored by the public modularity (0 when edgeless)
                    qs = []
                    for t, assign in sorted(parts.items()):
                        inside = [
                            (u, v, w) for u, v, w in (edges[t].edges() if t in edges else ())
                            if u in assign and v in assign
                        ]
                        sub = FrameGraph.from_edges(t, inside, nodes=assign)
                        qs.append(modularity(sub, assign) if inside else 0.0)
                    assert abs(block[side]["average_q"] - mean(qs)) <= 1e-12, (x, fname, side)
                    sizes: dict[tuple[int, int], int] = {}
                    for t, assign in parts.items():
                        for c in assign.values():
                            sizes[(t, c)] = sizes.get((t, c), 0) + 1
                    for event in read_event_csv(fdir / f"events_{side}.csv"):
                        for ref in event.predecessors + event.successors:
                            assert (ref.frame, ref.community) in sizes, (x, fname, side, ref)
                        # an event's sizes are the summed member counts of its
                        # predecessor and successor communities, None without any
                        for refs, size in ((event.predecessors, event.size_before),
                                           (event.successors, event.size_after)):
                            want = sum(sizes[r] for r in refs) if refs else None
                            assert size == want, (x, fname, side, event)
                    if fname != "full":
                        continue
                    split = result.splits[int(x)]
                    members = split.backbone if side == "bsn" else split.general
                    for frame in result.network.frames:
                        covered = set(parts.get(frame.frame_index, {}))
                        assert covered == set(frame.nodes) & members
