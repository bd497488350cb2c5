"""End-to-end pipeline: ingest (or generate), analyse, dump a result bundle.

The bundle is a directory of plain CSV/JSON artifacts.  Every file is
written with sorted rows and keys and no wall-clock timestamps, so running
the same configuration twice produces byte-identical output.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path
from typing import Iterator, Mapping

from . import abstraction, community, evolution, kshell, synth
from .graph import (
    DynamicNetwork,
    aggregate,
    closeness_all,
    mean,
    write_edge_csv,
)
from .ingest import (
    ActivityType,
    expand_teams,
    infer_format,
    load_log,
    spec_for_records,
    team_participations,
    typed_network,
    build_frames,
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
    try:
        return None, timedelta(seconds=seconds)
    except OverflowError:
        raise ValueError(f"window {text!r} is too long") from None


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
        for key in ("x_values", "curve_x"):
            for x in getattr(self, key):
                if not 0 < x <= 100:
                    raise ValueError(f"selection percentage {x} outside (0, 100]")
            values = tuple(_normalize_x(v) for v in getattr(self, key))
            repeated = [v for v in values if values.count(v) > 1]
            if repeated:
                raise ValueError(f"config key {key} lists {repeated[0]} twice")
            setattr(self, key, values)
        if self.format not in (None, "csv", "jsonl"):
            raise ValueError(f"format must be csv or jsonl, got {self.format!r}")
        if self.input is None and self.preset not in synth.PRESETS:
            raise ValueError(
                f"unknown preset {self.preset!r}; choose from {sorted(synth.PRESETS)}"
            )
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
            try:
                loaded = json.load(handle)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ValueError(f"config file {path} is not valid JSON: {exc}") from None
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


def _member_stats(records, table: kshell.InfluenceTable, closeness_values: Mapping):
    """One ``{member: value}`` column per statistic: aggregate degree,
    closeness, type A and type B teams joined, and frames present in."""
    type_a = dict.fromkeys(table.total, 0)
    type_b = dict.fromkeys(table.total, 0)
    for record in records:
        column = type_a if record.activity_type is ActivityType.A else type_b
        for member in record.members:
            column[member] += 1
    return {
        "degree": table.tiebreak_degree,
        "closeness": {m: closeness_values.get(m, 0.0) for m in table.total},
        "type_a": type_a,
        "type_b": type_b,
        "active": table.active,
    }


def member_profiles(
    split: kshell.BackboneSplit, member_stats: Mapping[str, Mapping[str, float]]
) -> dict[str, ProfileRow]:
    """Average degree/closeness/participation/presence per group, from one
    ``{member: value}`` column per statistic."""
    keys = ("degree", "closeness", "type_a", "type_b", "active")
    rows = {}
    for group, members in (("BM", split.backbone), ("GM", split.general)):
        if not members:
            rows[group] = ProfileRow(group, 0, None, None, None, None, None)
            continue
        ordered = sorted(members)
        averages = (mean(member_stats[k][m] for m in ordered) for k in keys)
        rows[group] = ProfileRow(group, len(members), *averages)
    return rows


def write_profiles_csv(path, x: float, rows: Mapping[str, ProfileRow]) -> None:
    """Dump one row per group: ``x``, then the :class:`ProfileRow` fields."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", *(f.name for f in dataclasses.fields(ProfileRow))])
        for group in sorted(rows):
            name, count, *averages = dataclasses.astuple(rows[group])
            writer.writerow(
                [x, name, count, *("" if v is None else f"{v:.10f}" for v in averages)]
            )


def write_backbone_csv(path, split: kshell.BackboneSplit) -> None:
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


class _Bundle:
    """The output directory, remembering every file handed out for writing,
    so the manifest lists exactly the files of this run."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.files: set[str] = set()

    def path(self, name: str) -> Path:
        target = self.root / name
        target.parent.mkdir(parents=True, exist_ok=True)
        self.files.add(name)
        return target

    def remove_previous(self) -> None:
        """Delete the files an earlier run's manifest lists (and directories
        they leave empty), so a rerun leaves the files of a fresh run.
        Nothing the manifest does not list is touched."""
        try:
            manifest = json.loads((self.root / "manifest.json").read_text())
            listed = manifest["artifacts"] if manifest["tool"] == "twotier" else []
        except (OSError, ValueError, KeyError, TypeError, RecursionError):
            return
        root = self.root.resolve()
        emptied = set()
        for name in listed if isinstance(listed, list) else ():
            path = (root / str(name)).resolve()
            if path.is_relative_to(root) and path.is_file():
                path.unlink()
                emptied.update(root / d for d in path.relative_to(root).parents[:-1])
        for directory in sorted(emptied, key=lambda d: len(d.parts), reverse=True):
            if not any(directory.iterdir()):
                directory.rmdir()


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Run the full two-level analysis and write the result bundle.

    The stages follow the paper: acquire the log, build the frame networks,
    tier one on the full network (influence, coverage, member statistics),
    then per backbone percentage X the split and, per activity-type filter,
    tier two (communities, evolution, abstraction).  Tier two's detections
    need only the networks and the splits, so they start as soon as the
    splits are known, before the rest of tier one.
    """
    config.validate()
    started = time.perf_counter()
    bundle = _Bundle(Path(config.out_dir))
    bundle.remove_previous()
    records, spec, source = _acquire(config, bundle)
    networks, network_block = _build_networks(records, spec, config)
    agg = aggregate(networks["full"])
    table = kshell.dynamic_influence(networks["full"], agg)
    splits = {x: kshell.select_backbone(table, x) for x in config.x_values}
    # the workers start here and detect while tier one's rest runs below
    with _detections(config, networks, splits) as detected:
        _write_networks(networks, bundle)
        member_stats, tier_one = _tier_one(
            records, networks["full"], agg, table, config, bundle
        )
        summary = {"source": source, "network": network_block, **tier_one, "x": {}}
        result = PipelineResult(bundle.root, summary, {}, networks["full"])
        for x, split in splits.items():
            xdir = f"x{x}"
            profiles, x_block = _profile_backbone(split, member_stats, bundle, xdir)
            for name, fnet in networks.items():
                fdir = f"{xdir}/{name}"
                block, rows, totals = _analyze_filter(
                    fnet, split, detected, config, bundle, fdir
                )
                x_block["filters"][name] = block
                result.metrics[(x, name)], result.edge_totals[(x, name)] = rows, totals
            result.splits[x], result.profiles[x] = split, profiles
            summary["x"][str(x)] = x_block
    result.manifest = _write_index(bundle, config, summary)
    result.elapsed_seconds = time.perf_counter() - started
    return result


def _acquire(config: PipelineConfig, bundle: _Bundle):
    """The team records, their frame spec and the summary's source block.

    Without an input log, the preset's generated log and ground truth join
    the bundle.
    """
    if config.input is None:
        synth_config = synth.PRESETS[config.preset](config.seed)
        records, truth = synth.generate(synth_config)
        synth.write_log_csv(bundle.path("synth_log.csv"), records)
        synth.write_ground_truth(bundle.path("ground_truth.json"), truth)
        source = {"kind": "synthetic", "preset": config.preset, "seed": config.seed}
        return records, synth_config.frame_spec(), source
    effective_format = config.format or infer_format(config.input)
    records = load_log(config.input, effective_format)
    if not records:
        raise ValueError(f"input log {config.input} holds no records")
    spec = spec_for_records(records, *parse_window(config.window))
    source = {"kind": "file", "path": str(config.input), "format": effective_format}
    return records, spec, source


def _build_networks(records, spec, config: PipelineConfig):
    """Frame networks by filter ("full" first, then the typed ones) and the
    summary's network block."""
    links = expand_teams(records)
    participations = team_participations(records)
    networks = {"full": build_frames(links, spec, participations)}
    for name in config.filters[1:]:
        networks[name] = typed_network(links, spec, name, participations)
    activity_ids = {"A": set(), "B": set()}
    for record in records:
        activity_ids[record.activity_type.value].add(record.activity_id)
    block = {
        "members": len(networks["full"].members),
        "frames": networks["full"].frame_count,
        "teams": len(records),
        "links": len(links),
        "activities_a": len(activity_ids["A"]),
        "activities_b": len(activity_ids["B"]),
        "frame_spec": spec.describe(),
    }
    return networks, block


def _write_networks(networks, bundle: _Bundle) -> None:
    """Each filter network's frame edges, under ``network/``."""
    for name, net in networks.items():
        suffix = "" if name == "full" else f"_{name}"
        write_edge_csv(bundle.path(f"network/frames{suffix}.csv"), net.frames)


def _tier_one(records, network: DynamicNetwork, agg, table: kshell.InfluenceTable,
              config: PipelineConfig, bundle: _Bundle):
    """The rest of tier one on the full network, once its aggregate graph
    ``agg`` and dynamic influence ``table`` are known: the aggregate
    graph's shells, both coverage curves and per-member statistics.

    Returns the member statistics and the summary's ``shell_statistics``
    and ``coverage`` blocks.
    """
    agg_shells = kshell.wks_decompose(agg)
    curves = {
        "dwks": kshell.coverage_curve(network.frames, table.ranking(), config.curve_x),
        "wks_aggregate": kshell.coverage_curve(
            [agg], kshell.aggregate_ranking(agg, agg_shells), config.curve_x
        ),
    }
    member_stats = _member_stats(records, table, closeness_all(agg))
    kshell.write_influence_csv(bundle.path("network/influence.csv"), table)
    kshell.write_coverage_csv(bundle.path("network/coverage.csv"), curves)
    blocks = {
        "shell_statistics": {
            "dynamic": table.shell_statistics(),
            "dynamic_max_total": max(table.total.values(), default=0),
            "aggregate_distinct_shells": len(set(agg_shells.values())),
            "aggregate_max_shell": max(agg_shells.values(), default=0),
        },
        "coverage": {
            method: {str(x): value for x, value in points}
            for method, points in curves.items()
        },
    }
    return member_stats, blocks


def _profile_backbone(split, member_stats, bundle: _Bundle, xdir: str):
    """The member profiles of the backbone split at X and the summary's X
    block, whose ``filters`` tier two fills in."""
    profiles = member_profiles(split, member_stats)
    write_backbone_csv(bundle.path(f"{xdir}/backbone.csv"), split)
    write_profiles_csv(bundle.path(f"{xdir}/profiles.csv"), split.x, profiles)
    block = {
        "backbone_size": len(split.backbone),
        "profiles": {g: dataclasses.asdict(row) for g, row in profiles.items()},
        "filters": {},
    }
    return profiles, block


#: Sides of the backbone split, each with its members' field in
#: ``BackboneSplit`` and the offset of its detection seed from the run's.
_SIDES = (("bsn", "backbone", 0), ("gsn", "general", 500009))

#: Fewest edges, summed over the full network's frames, for which tier two's
#: detections run on worker processes.  Median wall time of 12 alternating
#: runs per input on a shared 2-vCPU host, in-process vs a pool of 2:
#: 0.155 vs 0.175 s at 1,023 edges, 0.252 vs 0.267 s at 2,136, 0.386 vs
#: 0.370 s at 3,248, 0.471 vs 0.436 s at 4,235, 0.780 vs 0.643 s at 6,341
#: and 1.001 vs 0.868 s at 8,507.
_POOL_MIN_EDGES = 3_000


def pool_workers(cpus: int, fork: bool, items: int, edges: int) -> int:
    """How many worker processes run tier two's detections; 0 runs them in
    this process.

    ``items`` counts the work items handed to the pool, one per (X,
    filter, side).  One worker per usable CPU, and never more than there
    are work items.  With one CPU there is nothing to overlap; unless this
    process can ``fork``, the workers could not inherit the frames; below
    ``_POOL_MIN_EDGES`` starting the pool costs more than it saves.
    """
    if cpus <= 1 or not fork or edges < _POOL_MIN_EDGES:
        return 0
    return min(cpus, items)


class _Detector:
    """Tier two's community detections: one task per (X, filter, side,
    frame), in the order ``_analyze_filter`` reads them.

    A task restricts one frame to one side's members and runs
    :func:`community.detect_local` on it with the frame's seed, returning
    only labels, Q and the degenerate flag.  The seeds depend only on the
    run's seed, the side and the frame index, so a task gives the same
    result in any process.
    """

    def __init__(self, config: PipelineConfig, networks, splits) -> None:
        self.seed = config.seed
        self.networks = networks
        self.splits = splits
        self.tasks = [
            (x, name, side, t)
            for x in splits
            for name, fnet in networks.items()
            for side in range(len(_SIDES))
            for t in range(fnet.frame_count)
        ]

    def __call__(self, task) -> tuple[list[int], float, bool]:
        x, name, side, t = task
        _name, field_name, offset = _SIDES[side]
        frame = self.networks[name].frames[t]
        sub = frame.restrict(getattr(self.splits[x], field_name))
        _nodes, rows, strengths = sub.local_form()
        seed = community.frame_seed(self.seed + offset, frame.frame_index)
        return community.detect_local(rows, strengths, sub.total_weight, seed)


#: The detector a worker process inherited from the parent at fork.
_worker_detector: _Detector | None = None


def _install(detector: _Detector) -> None:
    global _worker_detector
    _worker_detector = detector


def _detect_in_worker(task):
    return _worker_detector(task)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextmanager
def _detections(config: PipelineConfig, networks, splits) -> Iterator:
    """An iterator over the results of every tier-two detection task, in
    task order.

    With :func:`pool_workers` above 0, the tasks go to a ``fork`` pool that
    inherits the frame networks and the splits, one work item per (X,
    filter, side): the tasks of one ``community.detect_all`` input.  Only
    task keys and results cross processes, and the workers run ahead while
    this process finishes tier one, classifies, abstracts and writes.
    Otherwise each task runs here when its result is read.  A worker's
    exception is raised when its result is read; a worker that dies
    raises ``BrokenProcessPool``.
    """
    detector = _Detector(config, networks, splits)
    edges = sum(f.edge_count for f in networks["full"].frames)
    # every filter network has the full network's frames, so a work item
    # of this many tasks is exactly one (X, filter, side)
    frames = networks["full"].frame_count
    items = len(detector.tasks) // max(frames, 1)
    # a fork copies no thread but every lock, so a lock that another thread
    # of the caller holds would stay locked in the workers
    fork = hasattr(os, "fork") and threading.active_count() == 1
    workers = pool_workers(_usable_cpus(), fork, items, edges)
    if not workers:
        yield map(detector, detector.tasks)
        return
    # imported only for a pool: the two imports take about 35 ms
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_install,
        initargs=(detector,),
    )
    try:
        yield pool.map(_detect_in_worker, detector.tasks, chunksize=frames)
    finally:
        # after an error, the tasks not yet started are dropped
        pool.shutdown(cancel_futures=True)


def _partitions(frames, members, detected):
    """Each frame's partition of its restriction to ``members``: the next
    detection result's labels, zipped with the restriction's sorted nodes.

    ``zip`` reads a frame before a result, so exactly one result is read
    per frame."""
    for frame, (labels, q, degenerate) in zip(frames, detected):
        nodes = [u for u in frame.nodes if u in members]
        assignment = dict(zip(nodes, labels))
        yield community.Partition(frame.frame_index, assignment, q, degenerate)


def _analyze_filter(
    fnet, split, detected, config: PipelineConfig, bundle: _Bundle, fdir: str
):
    """Tier two for one (X, filter) pair: communities of each side, read
    from ``detected``, their evolution, the community-level abstraction and
    its metrics.

    Returns the pair's summary block, metric rows and edge weight by class.
    """
    block: dict = {}
    partitions, events = {}, {}
    for side, field_name, _offset in _SIDES:
        members = getattr(split, field_name)
        parts = community.detect_all(_partitions(fnet.frames, members, detected))
        community.write_partition_csv(
            bundle.path(f"{fdir}/partitions_{side}.csv"), parts.partitions
        )
        timeline = evolution.classify(
            evolution.timeline_from_partitions(parts.partitions),
            alpha=config.alpha,
            beta=config.beta,
            continue_jaccard=config.continue_jaccard,
        )
        evolution.write_event_csv(
            bundle.path(f"{fdir}/events_{side}.csv"), timeline.events
        )
        partitions[side], events[side] = parts.partitions, timeline.events
        block[side] = {
            "average_q": parts.average_q,
            "degenerate_frames": parts.degenerate_frames,
        }
    agraphs = [
        abstraction.abstract(frame, bsn.assignment, gsn.assignment, split)
        for frame, bsn, gsn in zip(fnet.frames, partitions["bsn"], partitions["gsn"])
    ]
    abstraction.write_abstract_csv(bundle.path(f"{fdir}/abstract.csv"), agraphs)
    rows = [abstraction.frame_metrics(g) for g in agraphs]
    abstraction.write_metrics_csv(bundle.path(f"{fdir}/metrics.csv"), rows)
    totals = {"BBE": 0, "GGE": 0, "BGE": 0}
    for agraph in agraphs:
        for cls, weight in agraph.class_edge_weights().items():
            totals[cls] += weight
    weight_sum = sum(totals.values())
    block["event_shares"] = evolution.event_shares(events)
    block["tier2"] = {
        "edge_weight_totals": totals,
        "edge_weight_shares": (
            {cls: totals[cls] / weight_sum for cls in sorted(totals)}
            if weight_sum
            else None
        ),
        "frames_with_edges": sum(1 for g in agraphs if g.edge_count),
        "mean_density_bc": mean(r["density_bc"] for r in rows),
        "mean_density_gc": mean(r["density_gc"] for r in rows),
        "mean_betweenness_bc": mean(r["mean_betweenness_bc"] for r in rows),
        "mean_betweenness_gc": mean(r["mean_betweenness_gc"] for r in rows),
    }
    return block, rows, totals


def _write_index(bundle: _Bundle, config: PipelineConfig, summary: dict) -> dict:
    """Write ``summary.json`` and ``manifest.json``; the manifest lists
    every file of the bundle, both of these included."""
    config_dump = dataclasses.asdict(config)
    # the manifest lives inside the bundle, so the output path is implied;
    # dropping it keeps bundles byte-identical across destinations
    config_dump.pop("out_dir", None)
    if config.input is not None:
        config_dump["input"] = str(config.input)
    paths = bundle.path("summary.json"), bundle.path("manifest.json")
    manifest = {
        "tool": "twotier",
        "version": _version(),
        "prng": synth.PRNG_NAME,
        "config": config_dump,
        "artifacts": sorted(bundle.files),
    }
    for path, data in zip(paths, (summary, manifest)):
        with open(path, "w") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return manifest


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
