"""End-to-end pipeline: ingest (or generate), analyse, dump a result bundle.

The bundle is a directory of plain CSV/JSON artifacts.  Every file is
written with sorted rows and keys and no wall-clock timestamps, so running
the same configuration twice produces byte-identical output.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import time
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path
from typing import Mapping

from . import abstraction, community, evolution, kshell, synth
from .graph import DynamicNetwork, FrameGraph, aggregate, closeness_all, write_edge_csv
from .ingest import (
    expand_teams,
    infer_format,
    load_log,
    spec_for_records,
    team_participations,
    typed_network,
    build_frames,
    FrameSpec,
    add_months,
    parse_timestamp,
)

_WINDOW_RE = re.compile(r"^(\d+)([mdhs])$")


def parse_window(text: str) -> tuple[int | None, timedelta | None]:
    """'3m' -> 3 calendar months; '90d'/'12h'/'3600s' -> fixed durations."""
    matched = _WINDOW_RE.match(text.strip())
    if not matched:
        raise ValueError(
            f"window {text!r} must look like 3m (months), 90d, 12h or 3600s"
        )
    amount, unit = int(matched.group(1)), matched.group(2)
    if amount < 1:
        raise ValueError("window must be positive")
    if unit == "m":
        return amount, None
    seconds = {"d": 86400, "h": 3600, "s": 1}[unit] * amount
    return None, timedelta(seconds=seconds)


@dataclass
class PipelineConfig:
    """Everything one analysis run needs; mirrors the CLI flags."""

    input: str | os.PathLike | None = None  # log path; None -> generate a preset
    format: str | None = None       # input encoding: csv | jsonl | None (by suffix)
    preset: str | None = "large"    # generator preset when input is None
    seed: int = 42                  # generator + detection seed
    window: str = "3m"              # frame width
    x_values: tuple = (5, 10, 20)   # backbone percentages to analyse
    alpha: float = 0.5              # evolution matcher thresholds
    beta: float = 0.5
    continue_jaccard: float = 0.5
    type_filter: str = "all"        # which activity-type splits to abstract
    curve_x: tuple = (1, 2, 3, 4, 5, 10, 15, 20, 25, 30, 40, 50)
    out_dir: str | os.PathLike = "twotier_out"

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            _check_type(f.name, getattr(self, f.name))
        if self.format not in (None, "csv", "jsonl"):
            raise ValueError(f"format must be csv or jsonl, got {self.format!r}")
        if self.input is None and self.preset not in synth.PRESETS:
            raise ValueError(
                f"unknown preset {self.preset!r}; choose from {sorted(synth.PRESETS)}"
            )
        for x in tuple(self.x_values) + tuple(self.curve_x):
            if not 0 < x <= 100:
                raise ValueError(f"selection percentage {x} outside (0, 100]")
        if not self.x_values:
            raise ValueError("need at least one X value")
        if not 0 < self.alpha <= 1 or not 0 < self.beta <= 1:
            raise ValueError("alpha and beta must lie in (0, 1]")
        if not 0 < self.continue_jaccard <= 1:
            raise ValueError("continue_jaccard must lie in (0, 1]")
        if self.type_filter not in ("A", "B", "all"):
            raise ValueError(f"type_filter must be A, B or all, got {self.type_filter!r}")
        parse_window(self.window)

    @property
    def filters(self) -> list[str]:
        if self.type_filter == "all":
            return ["full", "A", "B"]
        return ["full", self.type_filter]


def load_config(path: str | None = None, overrides: Mapping | None = None) -> PipelineConfig:
    """Build a config from an optional JSON file plus flag overrides.

    The file is a flat object whose keys mirror the config fields; unknown
    keys are rejected by name.  Overrides win over file values.
    """
    known = {f.name for f in dataclasses.fields(PipelineConfig)}
    data: dict = {}
    if path is not None:
        with open(path) as handle:
            loaded = json.load(handle)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        unknown = sorted(set(loaded) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        data.update(loaded)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in known:
            raise ValueError(f"unknown config key: {key}")
        data[key] = value
    config = PipelineConfig(**data)
    config.validate()
    config.x_values = tuple(_normalize_x(v) for v in config.x_values)
    config.curve_x = tuple(_normalize_x(v) for v in config.curve_x)
    return config


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_type(key: str, value) -> None:
    """Reject a config value whose type does not fit the field, naming the key.

    The expected type follows the field's default: a tuple wants a list of
    numbers, a float any number, an int an integer, anything else a string
    (input, format and preset may be None; input and out_dir a path object).
    """
    default = getattr(PipelineConfig, key)
    if isinstance(default, tuple):
        ok = isinstance(value, (list, tuple)) and all(_is_number(v) for v in value)
        kind = "a list of numbers"
    elif isinstance(default, float):
        ok, kind = _is_number(value), "a number"
    elif isinstance(default, int):
        ok, kind = _is_number(value) and isinstance(value, int), "an integer"
    else:
        optional = value is None and key in ("input", "format", "preset")
        path = isinstance(value, os.PathLike) and key in ("input", "out_dir")
        ok, kind = isinstance(value, str) or optional or path, "a string"
    if not ok:
        raise ValueError(f"config key {key} must be {kind}, got {value!r}")


def _normalize_x(value) -> int | float:
    """5.0 -> 5 so directory names and JSON keys stay tidy."""
    value = float(value)
    return int(value) if value.is_integer() else value


@dataclass
class ProfileRow:
    """Averaged member statistics for one group (BM or GM)."""

    group: str
    count: int
    avg_degree: float | None
    avg_closeness: float | None
    avg_type_a: float | None
    avg_type_b: float | None
    avg_active_frames: float | None

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _member_stats(network: DynamicNetwork, agg: FrameGraph, closeness_values: dict):
    stats: dict[str, dict] = {}
    for member in sorted(network.members):
        stats[member] = {
            "degree": agg.degree(member) if member in agg else 0,
            "closeness": closeness_values.get(member, 0.0),
            "type_a": 0,
            "type_b": 0,
            "active": 0,
        }
    for frame in network.frames:
        for node in frame.nodes:
            a, b = frame.activity_counts(node)
            row = stats[node]
            row["type_a"] += a
            row["type_b"] += b
            row["active"] += 1
    return stats


def member_profiles(
    split: kshell.BackboneSplit, member_stats: Mapping[str, dict]
) -> dict[str, ProfileRow]:
    """Average degree/closeness/participation/presence per group."""
    rows = {}
    for group, members in (("BM", split.backbone), ("GM", split.general)):
        count = len(members)
        if count == 0:
            rows[group] = ProfileRow(group, 0, None, None, None, None, None)
            continue
        keys = ("degree", "closeness", "type_a", "type_b", "active")
        sums = {k: 0.0 for k in keys}
        for member in sorted(members):
            row = member_stats[member]
            for k in keys:
                sums[k] += row[k]
        rows[group] = ProfileRow(
            group,
            count,
            sums["degree"] / count,
            sums["closeness"] / count,
            sums["type_a"] / count,
            sums["type_b"] / count,
            sums["active"] / count,
        )
    return rows


def write_profiles_csv(path, x: float, rows: Mapping[str, ProfileRow]) -> None:
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "x",
                "group",
                "count",
                "avg_degree",
                "avg_closeness",
                "avg_type_a",
                "avg_type_b",
                "avg_active_frames",
            ]
        )
        for group in sorted(rows):
            row = rows[group]
            writer.writerow(
                [
                    x,
                    row.group,
                    row.count,
                    *(
                        "" if v is None else f"{v:.10f}"
                        for v in (
                            row.avg_degree,
                            row.avg_closeness,
                            row.avg_type_a,
                            row.avg_type_b,
                            row.avg_active_frames,
                        )
                    ),
                ]
            )


def write_backbone_csv(path, split: kshell.BackboneSplit) -> None:
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["member_id", "group"])
        for member in sorted(split.backbone):
            writer.writerow([member, "BM"])
        for member in sorted(split.general):
            writer.writerow([member, "GM"])


@dataclass
class PipelineResult:
    out_dir: Path
    summary: dict
    manifest: dict
    network: DynamicNetwork
    metrics: dict = field(default_factory=dict)   # (x, filter) -> metric rows
    profiles: dict = field(default_factory=dict)  # x -> {group: ProfileRow}
    edge_totals: dict = field(default_factory=dict)  # (x, filter) -> weight by class
    splits: dict = field(default_factory=dict)    # x -> BackboneSplit
    elapsed_seconds: float = 0.0


def _shares_by_group(timelines: Mapping[str, evolution.Timeline]) -> dict:
    rows = evolution.event_shares(
        {name: tl.events for name, tl in timelines.items()}
    )
    return {row["group"]: {k: v for k, v in row.items() if k != "group"} for row in rows}


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Run the full two-level analysis and write the result bundle."""
    config.validate()
    started = time.perf_counter()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "network").mkdir(exist_ok=True)

    # --- acquire the log -----------------------------------------------------
    if config.input is None:
        synth_config = synth.PRESETS[config.preset](config.seed)
        records, truth = synth.generate(synth_config)
        synth.write_log_csv(out / "synth_log.csv", records)
        synth.write_ground_truth(out / "ground_truth.json", truth)
        start = parse_timestamp(synth_config.span_start)
        spec = FrameSpec(
            start,
            add_months(start, synth_config.frames * synth_config.window_months),
            window_months=synth_config.window_months,
        )
        source = {"kind": "synthetic", "preset": config.preset, "seed": config.seed}
    else:
        effective_format = config.format or infer_format(config.input)
        records = load_log(config.input, effective_format)
        if not records:
            raise ValueError(f"input log {config.input} holds no records")
        months, duration = parse_window(config.window)
        spec = spec_for_records(records, months, duration)
        source = {"kind": "file", "path": str(config.input), "format": effective_format}

    links = expand_teams(records)
    participations = team_participations(records)
    network = build_frames(links, spec, participations)
    activity_ids = {"A": set(), "B": set()}
    for record in records:
        activity_ids[record.activity_type.value].add(record.activity_id)

    # --- tier one: influence, backbone, coverage ------------------------------
    agg = aggregate(network)
    table = kshell.dynamic_influence(network, agg)
    aggregate_stats = kshell.wks_decompose(agg)
    curves = {
        "dwks": kshell.coverage_curve(
            network, "dwks", config.curve_x, table=table, aggregate_graph=agg
        ),
        "wks_aggregate": kshell.coverage_curve(
            network, "wks_aggregate", config.curve_x, aggregate_graph=agg
        ),
    }
    closeness_values = closeness_all(agg)
    member_stats = _member_stats(network, agg, closeness_values)

    write_edge_csv(out / "network" / "frames.csv", network.frames)
    kshell.write_influence_csv(out / "network" / "influence.csv", table)
    kshell.write_coverage_csv(out / "network" / "coverage.csv", curves)

    filters: dict[str, DynamicNetwork] = {"full": network}
    for name in config.filters:
        if name == "full":
            continue
        filters[name] = typed_network(links, spec, name, participations)
        write_edge_csv(out / "network" / f"frames_{name}.csv", filters[name].frames)

    summary: dict = {
        "source": source,
        "network": {
            "members": len(network.members),
            "frames": network.frame_count,
            "teams": len(records),
            "links": len(links),
            "activities_a": len(activity_ids["A"]),
            "activities_b": len(activity_ids["B"]),
            "frame_spec": spec.describe(),
        },
        "shell_statistics": {
            "dynamic": table.shell_statistics(),
            "dynamic_max_total": max(table.total.values(), default=0),
            "aggregate_distinct_shells": aggregate_stats.distinct_shells(),
            "aggregate_max_shell": aggregate_stats.max_shell(),
        },
        "coverage": {
            method: {str(x): value for x, value in points}
            for method, points in curves.items()
        },
        "x": {},
    }

    result = PipelineResult(
        out_dir=out,
        summary=summary,
        manifest={},
        network=network,
    )

    # --- per selection percentage ---------------------------------------------
    for x in config.x_values:
        split = kshell.select_backbone(table, x)
        result.splits[x] = split
        xdir = out / f"x{x:g}"
        xdir.mkdir(exist_ok=True)
        write_backbone_csv(xdir / "backbone.csv", split)
        profiles = member_profiles(split, member_stats)
        result.profiles[x] = profiles
        write_profiles_csv(xdir / "profiles.csv", x, profiles)
        x_summary: dict = {
            "backbone_size": len(split.backbone),
            "profiles": {g: row.as_dict() for g, row in profiles.items()},
            "filters": {},
        }

        for fname in config.filters:
            fnet = filters[fname]
            fdir = xdir / fname
            fdir.mkdir(exist_ok=True)
            bsn_frames = [f.restrict(split.backbone) for f in fnet.frames]
            gsn_frames = [f.restrict(split.general) for f in fnet.frames]
            bsn_parts = community.detect_all(bsn_frames, seed=config.seed)
            gsn_parts = community.detect_all(gsn_frames, seed=config.seed + 500009)
            community.write_partition_csv(fdir / "partitions_bsn.csv", bsn_parts.partitions)
            community.write_partition_csv(fdir / "partitions_gsn.csv", gsn_parts.partitions)
            timelines = {}
            for side, parts in (("bsn", bsn_parts), ("gsn", gsn_parts)):
                timeline = evolution.classify(
                    evolution.timeline_from_partitions(parts.partitions),
                    alpha=config.alpha,
                    beta=config.beta,
                    continue_jaccard=config.continue_jaccard,
                )
                timelines[side] = timeline
                evolution.write_event_csv(fdir / f"events_{side}.csv", timeline.events)
            agraphs = [
                abstraction.abstract(
                    fnet.frames[t],
                    bsn_parts.partitions[t],
                    gsn_parts.partitions[t],
                    split,
                )
                for t in range(fnet.frame_count)
            ]
            abstraction.write_abstract_csv(fdir / "abstract.csv", agraphs)
            metric_rows = [abstraction.frame_metrics(g) for g in agraphs]
            abstraction.write_metrics_csv(fdir / "metrics.csv", metric_rows)
            result.metrics[(x, fname)] = metric_rows
            totals = {"BBE": 0, "GGE": 0, "BGE": 0}
            for agraph in agraphs:
                for cls, weight in agraph.class_edge_weights().items():
                    totals[cls] += weight
            result.edge_totals[(x, fname)] = totals
            frames_with_edges = sum(1 for g in agraphs if g.edge_count)
            weight_sum = sum(totals.values())
            x_summary["filters"][fname] = {
                "bsn": {
                    "average_q": bsn_parts.average_q,
                    "degenerate_frames": bsn_parts.degenerate_frames,
                },
                "gsn": {
                    "average_q": gsn_parts.average_q,
                    "degenerate_frames": gsn_parts.degenerate_frames,
                },
                "event_shares": _shares_by_group(timelines),
                "tier2": {
                    "edge_weight_totals": totals,
                    "edge_weight_shares": (
                        {cls: totals[cls] / weight_sum for cls in sorted(totals)}
                        if weight_sum
                        else None
                    ),
                    "frames_with_edges": frames_with_edges,
                    "mean_density_bc": _mean(r["density_bc"] for r in metric_rows),
                    "mean_density_gc": _mean(r["density_gc"] for r in metric_rows),
                    "mean_betweenness_bc": _mean(
                        r["mean_betweenness_bc"] for r in metric_rows
                    ),
                    "mean_betweenness_gc": _mean(
                        r["mean_betweenness_gc"] for r in metric_rows
                    ),
                },
            }
        summary["x"][str(x)] = x_summary

    config_dump = dataclasses.asdict(config)
    # the manifest lives inside the bundle, so the output path is implied;
    # dropping it keeps bundles byte-identical across destinations
    config_dump.pop("out_dir", None)
    if config.input is not None:
        config_dump["input"] = str(config.input)
    manifest = {
        "tool": "twotier",
        "version": _version(),
        "prng": synth.PRNG_NAME,
        "config": config_dump,
        "artifacts": sorted(
            str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()
        ),
    }
    result.manifest = manifest
    with open(out / "summary.json", "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    manifest["artifacts"] = sorted(
        set(manifest["artifacts"]) | {"summary.json", "manifest.json"}
    )
    with open(out / "manifest.json", "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    result.elapsed_seconds = time.perf_counter() - started
    return result


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _version() -> str:
    from . import __version__

    return __version__


def report_text(summary: dict) -> str:
    """Render the headline tables of a bundle's summary as plain text."""
    lines = []
    net = summary["network"]
    lines.append("network")
    lines.append(
        f"  members={net['members']} frames={net['frames']} teams={net['teams']} "
        f"links={net['links']} activities A/B={net['activities_a']}/{net['activities_b']}"
    )
    shells = summary["shell_statistics"]
    lines.append(
        "  influence levels: dynamic={} (with tiebreak {}), aggregate shells={}".format(
            shells["dynamic"]["distinct_influence"],
            shells["dynamic"]["distinct_rank_keys"],
            shells["aggregate_distinct_shells"],
        )
    )
    lines.append("")
    lines.append("coverage (selection % -> fraction reached)")
    for method in sorted(summary["coverage"]):
        points = summary["coverage"][method]
        keys = sorted(points, key=float)
        shown = "  ".join(f"{k}%:{points[k]:.3f}" for k in keys)
        lines.append(f"  {method:>14}  {shown}")
    for x_key in sorted(summary["x"], key=float):
        block = summary["x"][x_key]
        lines.append("")
        lines.append(f"X = {x_key}%  (backbone size {block['backbone_size']})")
        lines.append(
            "  group  count  degree  closeness  typeA  typeB  frames"
        )
        for group in ("BM", "GM"):
            row = block["profiles"][group]
            if row["count"] == 0:
                lines.append(f"  {group:>5}  empty")
                continue
            lines.append(
                "  {:>5}  {:>5}  {:>6.1f}  {:>9.3f}  {:>5.1f}  {:>5.1f}  {:>6.1f}".format(
                    group,
                    row["count"],
                    row["avg_degree"],
                    row["avg_closeness"],
                    row["avg_type_a"],
                    row["avg_type_b"],
                    row["avg_active_frames"],
                )
            )
        for fname in sorted(block["filters"]):
            fblock = block["filters"][fname]
            shares = fblock["tier2"]["edge_weight_shares"]
            share_text = (
                "no tier-two edges"
                if shares is None
                else "BBE {BBE:.2f} GGE {GGE:.2f} BGE {BGE:.2f}".format(**shares)
            )
            lines.append(
                "  [{}] Q(bsn)={:.3f} Q(gsn)={:.3f}  shares: {}".format(
                    fname,
                    fblock["bsn"]["average_q"],
                    fblock["gsn"]["average_q"],
                    share_text,
                )
            )
            for side in ("bsn", "gsn"):
                rows = fblock["event_shares"].get(side)
                if not rows:
                    continue
                lines.append(
                    "        {} events n={}: V {:.1f}%  S {:.1f}%  none {:.1f}%".format(
                        side,
                        rows["events"],
                        rows["V_share"],
                        rows["S_share"],
                        rows["none_share"],
                    )
                )
    return "\n".join(lines) + "\n"
