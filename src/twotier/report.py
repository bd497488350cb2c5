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
import threading
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from math import comb
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
from .ingest import ActivityType, build_frames, infer_format, load_log
from .ingest import parse_window, spec_for_records


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
    tier two (communities, evolution, abstraction).  Everything after the
    splits runs through :func:`_worker_pool`: tier one's kernels go first,
    as one step, then tier two's detections, which write the partition
    files, then one step that writes every network file, then each
    (X, filter)'s abstract file and frame metrics once its abstract graphs
    exist.  The metric rows are read last, and each block's tier-two means
    and edge weight totals come from them; the block's other results are
    final as soon as its abstract graphs are built.  Every item's result is
    read before the manifest is written, so a write that fails on a worker
    fails the run.

    The previous bundle in ``out_dir`` is removed only once the log has
    been read and framed, so a log that fails to parse leaves it as it was.
    """
    config.validate()
    started = time.perf_counter()
    bundle = _Bundle(Path(config.out_dir))
    records, spec, source, truth = _acquire(config)
    bundle.remove_previous()
    if truth is not None:
        synth.write_log_csv(bundle.path("synth_log.csv"), records)
        synth.write_ground_truth(bundle.path("ground_truth.json"), truth)
    networks, network_block, teams = _build_networks(records, spec, config)
    del records  # the networks and the team counts hold all that is read later
    with _worker_pool(_Work(config, networks)) as work:
        # a pool starts work in submission order, so tier one, whose result
        # is read first, starts before the detections
        kernels = work.submit("tier_one")
        detections = work.detections(bundle)
        network_files = work.submit("write_networks", [
            bundle.path("network/frames.csv" if name == "full" else f"network/frames_{name}.csv")
            for name in networks
        ])
        member_stats, tier_one = _tier_one(teams, work.table, kernels(), bundle)
        summary = {"source": source, "network": network_block, **tier_one, "x": {}}
        result = PipelineResult(bundle.root, summary, networks["full"])
        pending = []
        for x, split in work.splits.items():
            xdir = f"x{x}"
            profiles, x_block = _profile_backbone(split, member_stats, bundle, xdir)
            for name, fnet in networks.items():
                fdir = _block_dir(x, name)
                # popped, so a block's results are freed once it is analysed
                detected = {side: detections.pop((x, name, side)) for side in _SIDES}
                block, rows = _analyze_filter(
                    fnet, split, detected, work, config, bundle, fdir
                )
                x_block["filters"][name] = block
                pending.append(((x, name), block, rows, fdir))
            result.splits[x], result.profiles[x] = split, profiles
            summary["x"][str(x)] = x_block
        for key, block, rows, fdir in pending:
            result.metrics[key] = _write_metrics(rows(), block, bundle, fdir)
            result.edge_totals[key] = block["tier2"]["edge_weight_totals"]
        network_files()
    _write_index(bundle, config, summary)
    result.elapsed_seconds = time.perf_counter() - started
    return result


def _acquire(config: PipelineConfig):
    """The team records, their frame spec, the summary's source block and,
    without an input log, the preset's ground truth (else ``None``), which
    joins the bundle along with the generated log.
    """
    if config.input is None:
        synth_config = synth.PRESETS[config.preset](config.seed)
        records, truth = synth.generate(synth_config)
        source = {"kind": "synthetic", "preset": config.preset, "seed": config.seed}
        return records, synth_config.frame_spec(), source, truth
    effective_format = config.format or infer_format(config.input)
    records = load_log(config.input, effective_format)
    if not records:
        raise ValueError(f"input log {config.input} holds no records")
    spec = spec_for_records(records, parse_window(config.window))
    source = {"kind": "file", "path": str(config.input), "format": effective_format}
    return records, spec, source, None


def _build_networks(records, spec, config: PipelineConfig):
    """Frame networks by filter ("full" first, then the typed ones), the
    summary's network block, and per activity type each member's count of
    teams, the one thing read from the records after this."""
    networks = build_frames(records, spec, config.filters[1:])
    activity_ids = {kind: set() for kind in ActivityType}
    teams = {kind: Counter() for kind in ActivityType}
    links = 0
    for record in records:
        activity_ids[record.activity_type].add(record.activity_id)
        teams[record.activity_type].update(record.members)
        links += comb(len(record.members), 2)
    block = {
        "members": len(networks["full"].members),
        "frames": networks["full"].frame_count,
        "teams": len(records),
        "links": links,
        "activities_a": len(activity_ids[ActivityType.A]),
        "activities_b": len(activity_ids[ActivityType.B]),
        "frame_spec": spec.describe(),
    }
    return networks, block, teams


def _block_dir(x, name: str) -> str:
    """The bundle directory of one (X, filter) block."""
    return f"x{x}/{name}"


def _tier_one(teams, table: kshell.InfluenceTable, kernels, bundle: _Bundle):
    """The rest of tier one on the full network, once the kernels' results
    are in (see :meth:`_Work.tier_one`): per-member statistics,
    ``influence.csv`` and ``coverage.csv``.

    Returns the member statistics, one ``{member: value}`` column per
    statistic, and the summary's ``shell_statistics`` and ``coverage``
    blocks.
    """
    closeness, shell_counts, curves = kernels
    # ``teams`` holds a ``Counter`` per activity type, which reads 0 for a
    # member without such a team; the closeness values come in the
    # aggregate graph's node order, the key order of the table's columns
    member_stats = {
        "degree": table.tiebreak_degree,
        "closeness": dict(zip(table.total, memoryview(closeness).cast("d"), strict=True)),
        "type_a": teams[ActivityType.A],
        "type_b": teams[ActivityType.B],
        "active": table.active,
    }
    kshell.write_influence_csv(bundle.path("network/influence.csv"), table)
    kshell.write_coverage_csv(bundle.path("network/coverage.csv"), curves)
    blocks = {
        "shell_statistics": {
            "dynamic": table.shell_statistics(),
            "dynamic_max_total": max(table.total.values(), default=0),
            **shell_counts,
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
_SIDES = {"bsn": ("backbone", 0), "gsn": ("general", 500009)}

#: The ``array`` type code of the community labels a detection hands back.
_LABEL = "i"


def _side_members(split: kshell.BackboneSplit, side: str) -> frozenset[str]:
    return getattr(split, _SIDES[side][0])


#: Fewest edges, summed over the full network's frames, for which the steps
#: after the backbone split run on worker processes.  Median wall time of
#: 12 alternating runs per input on a shared 2-vCPU host, in-process vs a
#: pool of 2 running tier two's detections:
#: 0.155 vs 0.175 s at 1,023 edges, 0.252 vs 0.267 s at 2,136, 0.386 vs
#: 0.370 s at 3,248, 0.471 vs 0.436 s at 4,235, 0.780 vs 0.643 s at 6,341
#: and 1.001 vs 0.868 s at 8,507.
_POOL_MIN_EDGES = 3_000


def pool_workers(cpus: int, fork: bool, items: int, edges: int) -> int:
    """How many worker processes run the analysis steps after the backbone
    split; 0 runs them in this process.

    ``items`` counts the work items handed to the pool (see
    :func:`_worker_pool`).  One worker per usable CPU, and never more than
    there are work items.  With one CPU there is nothing to overlap; unless
    this process can ``fork``, the workers could not inherit the frames;
    below ``_POOL_MIN_EDGES`` starting the pool costs more than it saves.
    """
    if cpus <= 1 or not fork or edges < _POOL_MIN_EDGES:
        return 0
    return min(cpus, items)


class _Work:
    """The analysis steps that may run on worker processes, and what they
    read: the frame networks, the aggregate graph, the influence table and
    the backbone splits.  The last three are built here from the full
    network, so that this object alone holds the aggregate graph;
    :meth:`detections` drops it.

    A worker inherits this object at fork, so only step names and each
    item's arguments cross to a worker, and only results come back, none
    of them holding a member name: tier one's closeness values in the
    aggregate's node order (:meth:`tier_one`), a detection's community
    labels in its restriction's node order (:meth:`detect`), a block's
    metric rows.  The arguments (block keys, abstract graphs, bundle
    paths) cross as one pickled ``bytes`` payload, made at submission, so
    an item that waits for a worker holds no graph objects in this
    process.  Every step gives the same result in any process: a
    detection's seed depends only on the run's seed, the side and the
    frame index.
    """

    def __init__(self, config: PipelineConfig, networks) -> None:
        self.seed = config.seed
        self.curve_x = config.curve_x
        self.networks = networks
        self.agg = aggregate(networks["full"])
        self.table = kshell.dynamic_influence(networks["full"], self.agg)
        self.splits = {x: kshell.select_backbone(self.table, x) for x in config.x_values}
        self.pool = None  # set by _worker_pool when the steps run on workers

    def submit(self, step: str, *args):
        """Start the method named ``step`` on ``args``; returns a call that
        gives its result.  Without a pool the step runs here, at once, so
        nothing it reads outlives the call.  On the pool, ``args`` are
        pickled here into the item's one payload."""
        if self.pool is None:
            value = getattr(self, step)(*args)
            return lambda: value
        import pickle  # loaded already with multiprocessing

        return self.pool.submit(_in_worker, step, pickle.dumps(args)).result

    def detections(self, bundle: _Bundle) -> dict:
        """A call per (X, filter, side) that gives what :meth:`detect`
        returns for that block, once it has written the block's partition
        file in ``bundle``; :func:`_partitions` turns it into partitions.

        On the pool, the blocks are submitted here, in key order.  Without
        a pool, a block runs when its call is made, so that its work falls
        inside the ``community.detect_all`` that reads it.

        The tier-one step, the aggregate graph's only reader, is
        submitted before this, so the graph is dropped here.  Every worker
        has forked by now, except on a pool that forks on demand (Python
        3.10); a worker forked later is handed only frame metrics.
        """
        calls = {}
        for x in self.splits:
            for name in self.networks:
                for side in _SIDES:
                    path = bundle.path(f"{_block_dir(x, name)}/partitions_{side}.csv")
                    if self.pool is None:
                        calls[x, name, side] = partial(self.detect, x, name, side, path)
                    else:
                        calls[x, name, side] = self.submit("detect", x, name, side, path)
        self.agg = None
        return calls

    def detect(self, x, name: str, side: str, path) -> list[tuple[bytes, float, bool]]:
        """Detect the communities of each frame of filter ``name``,
        restricted to one side's members, with the frame's seed; write the
        partitions to ``path``.  Returns each frame's labels (packed as
        ``_LABEL`` ints in the restriction's node order), Q and degenerate
        flag, so no member name crosses back from a worker."""
        members = _side_members(self.splits[x], side)
        seed = self.seed + _SIDES[side][1]
        partitions = [
            community.detect(
                frame.restrict(members), community.frame_seed(seed, frame.frame_index)
            )
            for frame in self.networks[name].frames
        ]
        community.write_partition_csv(path, partitions)
        return [
            (array(_LABEL, p.assignment.values()).tobytes(), p.q, p.degenerate)
            for p in partitions
        ]

    def write_networks(self, paths) -> None:
        """Write each filter's frame edges, in filter order, to ``paths``."""
        for fnet, path in zip(self.networks.values(), paths, strict=True):
            write_edge_csv(path, fnet.frames)

    def tier_one(self) -> tuple[bytes, dict, dict]:
        """Tier one's kernels, all reading the aggregate graph: the
        closeness values, packed as doubles in the aggregate's node order
        so that no member name crosses back from a worker; the summary's
        aggregate shell counts; and the frame-aware (``dwks``) and
        frame-free (``wks_aggregate``) coverage curves."""
        agg = self.agg
        closeness = array("d", closeness_all(agg).values()).tobytes()
        shells = kshell.wks_decompose(agg)
        counts = {
            "aggregate_distinct_shells": len(set(shells.values())),
            "aggregate_max_shell": max(shells.values(), default=0),
        }
        ranked = kshell.aggregate_ranking(agg, shells)
        frames = self.networks["full"].frames
        curves = {
            "dwks": kshell.coverage_curve(frames, self.table.ranking(), self.curve_x),
            "wks_aggregate": kshell.coverage_curve([agg], ranked, self.curve_x),
        }
        return closeness, counts, curves

    def frame_rows(self, agraphs, path) -> list[dict]:
        """Write one block's abstract graphs to ``path``; their metric rows."""
        abstraction.write_abstract_csv(path, agraphs)
        return [abstraction.frame_metrics(g) for g in agraphs]


#: The work a worker process inherited from the parent at fork.
_inherited: _Work | None = None


def _install(work: _Work) -> None:
    global _inherited
    _inherited = work


def _in_worker(step: str, payload: bytes):
    import pickle

    return getattr(_inherited, step)(*pickle.loads(payload))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextmanager
def _worker_pool(work: _Work) -> Iterator[_Work]:
    """``work``, the analysis steps after the backbone split, set to run
    them on worker processes or in this process.

    With :func:`pool_workers` above 0, the steps go to a ``fork`` pool
    whose workers inherit the work; the pool takes items in submission
    order, and the workers run ahead while this process classifies and
    abstracts.  A work item is one of four steps: tier one's kernels (one
    item), the detections of one (X, filter, side) with its partition
    file, the network files of every filter (one item), or the abstract
    file and frame metrics of one (X, filter).  Otherwise each step runs
    here.  A worker's exception is raised when its result is read; a
    worker that dies raises ``BrokenProcessPool``.
    """
    edges = sum(f.edge_count for f in work.networks["full"].frames)
    blocks = len(work.splits) * len(work.networks)
    # tier one, the detections, the network files, the frame metrics
    items = 1 + blocks * len(_SIDES) + 1 + blocks
    # a fork copies no thread but every lock, so a lock that another thread
    # of the caller holds would stay locked in the workers
    fork = hasattr(os, "fork") and threading.active_count() == 1
    workers = pool_workers(_usable_cpus(), fork, items, edges)
    if not workers:
        yield work
        return
    # imported only for a pool: the two imports take about 35 ms
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    work.pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_install,
        initargs=(work,),
    )
    try:
        yield work
    finally:
        # after an error, the items not yet started are dropped
        work.pool.shutdown(cancel_futures=True)


def _partitions(detect, fnet: DynamicNetwork, members: frozenset[str]):
    """The partitions of ``fnet``'s frames restricted to ``members``, from
    the labels, Q and flags that ``detect()`` gives (:meth:`_Work.detect`),
    over the frames' own node names.  ``detect()`` is called only once the
    first partition is asked for: without a pool, the detections then run
    inside the ``community.detect_all`` that reads them."""
    for frame, (labels, q, degenerate) in zip(fnet.frames, detect(), strict=True):
        names = map(frame.nodes.__getitem__, frame.kept(members))
        labels = memoryview(labels).cast(_LABEL)
        yield community.Partition.from_labels(frame.frame_index, names, labels, q, degenerate)


def _analyze_filter(
    fnet, split, detected, work: _Work, config: PipelineConfig, bundle: _Bundle,
    fdir: str,
):
    """Tier two for one (X, filter) pair: communities of each side of
    ``split``, rebuilt from what the call ``detected[side]`` gives, their
    evolution, the community-level abstraction and, submitted to ``work``,
    its file and frame metrics.

    Returns the pair's summary block, whose ``tier2`` entry lacks the
    metric means and edge weight totals until :func:`_write_metrics` adds
    them, and the call that gives the metric rows.  The abstract graphs
    are dropped on return.
    """
    block: dict = {"event_shares": {}}
    partitions = {}
    for side in _SIDES:
        members = _side_members(split, side)
        parts = community.detect_all(_partitions(detected[side], fnet, members))
        timeline = evolution.classify(
            evolution.timeline_from_partitions(parts.partitions),
            alpha=config.alpha,
            beta=config.beta,
            continue_jaccard=config.continue_jaccard,
        )
        evolution.write_event_csv(
            bundle.path(f"{fdir}/events_{side}.csv"), timeline.events
        )
        # the side's events end here, before the other side is classified
        block["event_shares"].update(evolution.event_shares({side: timeline.events}))
        del timeline
        partitions[side] = parts.partitions
        block[side] = {
            "average_q": parts.average_q,
            "degenerate_frames": parts.degenerate_frames,
        }
    agraphs = [
        abstraction.abstract(frame, bsn.assignment, gsn.assignment)
        for frame, bsn, gsn in zip(fnet.frames, partitions["bsn"], partitions["gsn"])
    ]
    rows = work.submit("frame_rows", agraphs, bundle.path(f"{fdir}/abstract.csv"))
    block["tier2"] = {"frames_with_edges": sum(1 for g in agraphs if g.edge_count)}
    return block, rows


def _write_metrics(rows, block: dict, bundle: _Bundle, fdir: str) -> list[dict]:
    """Write one (X, filter) pair's frame metric rows and add their means
    and edge weight totals to the pair's ``tier2`` block; returns the rows."""
    abstraction.write_metrics_csv(bundle.path(f"{fdir}/metrics.csv"), rows)
    totals = {"BBE": 0, "GGE": 0, "BGE": 0}
    for row in rows:
        for cls, weight in row["edge_weights"].items():
            totals[cls] += weight
    block["tier2"].update(
        {
            "edge_weight_totals": totals,
            "edge_weight_shares": abstraction.edge_weight_shares(totals),
            "mean_density_bc": mean(r["density_bc"] for r in rows),
            "mean_density_gc": mean(r["density_gc"] for r in rows),
            "mean_betweenness_bc": mean(r["mean_betweenness_bc"] for r in rows),
            "mean_betweenness_gc": mean(r["mean_betweenness_gc"] for r in rows),
        }
    )
    return rows


def _write_index(bundle: _Bundle, config: PipelineConfig, summary: dict) -> None:
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
