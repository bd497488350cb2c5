"""Synthetic team-participation logs with known ground truth.

The main generator plants a three-tier population:

    core members     -- present almost every frame, collaborate in dense
                        same-block and cross-block type-B teams;
    regular members  -- intermittently present, mild type-B lean, organised
                        in blocks whose activity levels are graded so the
                        influence ranking orders them cleanly;
    general members  -- a churning pool, drawn mostly into type-A teams, so
                        most appear in a frame or two and vanish.

All randomness flows through one ``random.Random`` (Mersenne Twister) stream
created from the config seed, and every loop draws in a fixed order, so a
given config always yields byte-identical logs.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import asdict, dataclass
from datetime import timedelta
from typing import Sequence

from .ingest import (
    CSV_HEADER,
    ActivityType,
    FrameSpec,
    TeamRecord,
    add_months,
    parse_timestamp,
)

PRNG_NAME = "python-random-mersenne-twister"


@dataclass
class SynthConfig:
    """Knobs of the planted generator.  Defaults are the full-scale preset:
    24 quarterly frames, a few thousand members and roughly 75k links."""

    seed: int = 42
    frames: int = 24
    window_months: int = 3
    span_start: str = "2015-05-01T00:00:00Z"

    core_blocks: int = 5
    core_block_size: int = 50
    regular_blocks: int = 6
    #: Cumulative sizes are chosen so the default selection cuts fall on
    #: block boundaries rather than through a block's interior.
    regular_block_sizes: tuple[int, ...] = (150, 115, 150, 150, 140, 195)
    general_pool: int = 400
    general_blocks: int = 10
    churn_rate: float = 0.5

    # teams per frame, by composition
    teams_a_core_mixed: int = 75   # 1-2 core members + general members
    teams_a_general: int = 30      # general members from one block
    teams_a_regular: int = 20      # regular members + 1-2 general guests
    teams_b_core: int = 51         # core members from one block
    teams_b_core_cross: int = 36   # core members from two blocks
    teams_b_core_general: int = 13 # core members + a couple of generals
    teams_b_core_regular: int = 6  # 1-2 core members + regular members
    teams_b_regular: int = 55      # regular members from one block

    team_size_min: int = 3
    team_size_max: int = 7
    core_in_mixed_max: int = 2
    general_in_core_b: int = 2
    general_in_regular_a: int = 2
    activities_a: int = 5
    activities_b: int = 28

    #: Relative share of regular-team volume per regular block.  Together
    #: with the block sizes this grades per-member activity, separating the
    #: blocks' influence levels so the ranking stays block-ordered.
    regular_grading: tuple[float, ...] = (2.7, 1.45, 0.65, 0.5, 0.37, 0.33)

    def frame_spec(self) -> FrameSpec:
        """The generated log's frames: ``frames`` windows of
        ``window_months`` calendar months from ``span_start``."""
        start = parse_timestamp(self.span_start)
        end = add_months(start, self.frames * self.window_months)
        return FrameSpec(start, end, window_months=self.window_months)

    def validate(self) -> None:
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if not 0.0 <= self.churn_rate <= 1.0:
            raise ValueError("churn_rate must lie in [0, 1]")
        if self.team_size_min < 2:
            raise ValueError("teams must have at least 2 members to form links")
        if self.team_size_max < self.team_size_min:
            raise ValueError("team_size_max must be >= team_size_min")
        if len(self.regular_block_sizes) != self.regular_blocks:
            raise ValueError("regular_block_sizes needs one entry per regular block")
        if len(self.regular_grading) != self.regular_blocks:
            raise ValueError("regular_grading needs one weight per regular block")
        if any(w <= 0 for w in self.regular_grading):
            raise ValueError("regular_grading weights must be positive")
        per_gm_block = self.general_pool // self.general_blocks
        checks = [
            ("core_block_size", self.core_block_size),
            ("regular block", min(self.regular_block_sizes)),
            ("general block", per_gm_block),
        ]
        for name, capacity in checks:
            if self.team_size_max > capacity:
                raise ValueError(
                    f"team_size_max {self.team_size_max} exceeds {name} capacity {capacity}"
                )
        for count in (
            self.teams_a_core_mixed,
            self.teams_a_general,
            self.teams_a_regular,
            self.teams_b_core,
            self.teams_b_core_cross,
            self.teams_b_core_general,
            self.teams_b_core_regular,
            self.teams_b_regular,
        ):
            if count < 0:
                raise ValueError("team counts must be non-negative")
        if self.teams_b_core_cross and self.core_blocks < 2:
            raise ValueError("cross-block teams need at least two core blocks")
        if self.activities_a < 1 or self.activities_b < 1:
            raise ValueError("need at least one activity id per type")


@dataclass
class GroundTruth:
    """What the generator planted, for verification against analysis output."""

    seed: int
    prng: str
    config: dict
    tiers: dict[str, str]          # member -> core / regular / general
    blocks: dict[str, str]         # member -> planted block label
    core_members: list[str]
    regular_members: list[str]
    frame_general_pool: list[list[str]]  # active general ids per frame
    frame_spec: dict


def _frame_seconds(bounds) -> list[tuple]:
    out = []
    for start, end in bounds:
        out.append((start, max(1, int((end - start).total_seconds()))))
    return out


def generate(config: SynthConfig) -> tuple[list[TeamRecord], GroundTruth]:
    """Produce the synthetic log and its ground truth.

    Record order is frame by frame, then team construction order; pass the
    records straight to the ingestion stage or dump them with the log
    writers.
    """
    config.validate()
    rng = random.Random(config.seed)
    spec = config.frame_spec()
    frame_bounds = _frame_seconds(spec.boundaries())

    cores = [
        [f"core{b}_{i:03d}" for i in range(config.core_block_size)]
        for b in range(config.core_blocks)
    ]
    all_cores = [m for block in cores for m in block]
    regulars = [
        [f"reg{b}_{i:03d}" for i in range(config.regular_block_sizes[b])]
        for b in range(config.regular_blocks)
    ]
    tiers: dict[str, str] = {}
    blocks: dict[str, str] = {}
    for b, block in enumerate(cores):
        for m in block:
            tiers[m] = "core"
            blocks[m] = f"c{b}"
    for b, block in enumerate(regulars):
        for m in block:
            tiers[m] = "regular"
            blocks[m] = f"r{b}"

    minted = 0

    def mint_general(slot: int) -> str:
        nonlocal minted
        member = f"gen{minted:06d}"
        minted += 1
        tiers[member] = "general"
        blocks[member] = f"g{slot % config.general_blocks}"
        return member

    pool = [mint_general(slot) for slot in range(config.general_pool)]
    churn_count = round(config.churn_rate * config.general_pool)

    records: list[TeamRecord] = []
    rosters: list[list[str]] = []
    grading = list(config.regular_grading)
    reg_indices = list(range(config.regular_blocks))

    for t in range(config.frames):
        if t > 0 and churn_count:
            for slot in sorted(rng.sample(range(config.general_pool), churn_count)):
                pool[slot] = mint_general(slot)
        rosters.append(sorted(pool))
        pool_blocks = [
            [pool[slot] for slot in range(config.general_pool)
             if slot % config.general_blocks == b]
            for b in range(config.general_blocks)
        ]
        frame_start, seconds = frame_bounds[t]
        a_ids = [f"f{t:02d}a{j:02d}" for j in range(config.activities_a)]
        b_ids = [f"f{t:02d}b{j:02d}" for j in range(config.activities_b)]
        seq = 0

        def emit(members: list[str], kind: ActivityType, activity_ids: list[str]) -> None:
            nonlocal seq
            stamp = frame_start + timedelta(seconds=rng.randrange(seconds))
            records.append(
                TeamRecord(
                    team_id=f"f{t:02d}t{seq:04d}",
                    activity_id=rng.choice(activity_ids),
                    activity_type=kind,
                    timestamp=stamp,
                    members=tuple(members),
                )
            )
            seq += 1

        def size() -> int:
            return rng.randint(config.team_size_min, config.team_size_max)

        # type A: core/general mixed teams
        for _ in range(config.teams_a_core_mixed):
            n = size()
            n_core = rng.randint(1, min(config.core_in_mixed_max, n - 1))
            team = rng.sample(all_cores, n_core)
            team += rng.sample(pool_blocks[rng.randrange(config.general_blocks)], n - n_core)
            emit(team, ActivityType.A, a_ids)
        # type A: general-only teams inside one block
        for _ in range(config.teams_a_general):
            team = rng.sample(pool_blocks[rng.randrange(config.general_blocks)], size())
            emit(team, ActivityType.A, a_ids)
        # type A: regular teams inside one graded block, plus general guests
        # (the guests keep the regular tier inside the giant component)
        for _ in range(config.teams_a_regular):
            block = rng.choices(reg_indices, weights=grading, k=1)[0]
            n = size()
            cap = min(config.general_in_regular_a, n - 2)
            guests = rng.randint(1, cap) if cap >= 1 else 0
            team = rng.sample(regulars[block], n - guests)
            if guests:
                team += rng.sample(pool_blocks[rng.randrange(config.general_blocks)], guests)
            emit(team, ActivityType.A, a_ids)
        # type B: core teams inside one block
        for _ in range(config.teams_b_core):
            block = rng.randrange(config.core_blocks)
            emit(rng.sample(cores[block], size()), ActivityType.B, b_ids)
        # type B: core teams spanning two blocks
        for _ in range(config.teams_b_core_cross):
            b1, b2 = rng.sample(range(config.core_blocks), 2)
            n = size()
            half = n // 2
            team = rng.sample(cores[b1], half) + rng.sample(cores[b2], n - half)
            emit(team, ActivityType.B, b_ids)
        # type B: core teams with a couple of general guests
        for _ in range(config.teams_b_core_general):
            n = size()
            guests = rng.randint(1, min(config.general_in_core_b, n - 2))
            team = rng.sample(cores[rng.randrange(config.core_blocks)], n - guests)
            team += rng.sample(pool_blocks[rng.randrange(config.general_blocks)], guests)
            emit(team, ActivityType.B, b_ids)
        # type B: a few core members working with one graded regular block
        for _ in range(config.teams_b_core_regular):
            n = size()
            n_core = rng.randint(1, min(config.core_in_mixed_max, n - 1))
            block = rng.choices(reg_indices, weights=grading, k=1)[0]
            team = rng.sample(cores[rng.randrange(config.core_blocks)], n_core)
            team += rng.sample(regulars[block], n - n_core)
            emit(team, ActivityType.B, b_ids)
        # type B: regular teams inside one graded block
        for _ in range(config.teams_b_regular):
            block = rng.choices(reg_indices, weights=grading, k=1)[0]
            emit(rng.sample(regulars[block], size()), ActivityType.B, b_ids)

    truth = GroundTruth(
        seed=config.seed,
        prng=PRNG_NAME,
        config=asdict(config),
        tiers=tiers,
        blocks=blocks,
        core_members=sorted(all_cores),
        regular_members=sorted(m for block in regulars for m in block),
        frame_general_pool=rosters,
        frame_spec=spec.describe(),
    )
    return records, truth


def large_preset(seed: int = 42) -> SynthConfig:
    """The default full-scale configuration (24 frames, ~75k links)."""
    return SynthConfig(seed=seed)


def small_preset(seed: int = 42) -> SynthConfig:
    """A scaled-down variant for quick runs and tests."""
    return SynthConfig(
        seed=seed,
        frames=8,
        core_blocks=2,
        core_block_size=12,
        regular_blocks=2,
        regular_block_sizes=(20, 20),
        general_pool=60,
        general_blocks=5,
        teams_a_core_mixed=8,
        teams_a_general=4,
        teams_a_regular=3,
        teams_b_core=7,
        teams_b_core_cross=4,
        teams_b_core_general=2,
        teams_b_core_regular=1,
        teams_b_regular=6,
        team_size_min=3,
        team_size_max=6,
        activities_a=2,
        activities_b=5,
        regular_grading=(1.3, 0.7),
    )


PRESETS = {"large": large_preset, "small": small_preset}


def _stamp(record: TeamRecord) -> str:
    return record.timestamp.strftime("%Y-%m-%dT%H:%M:%SZ")


def write_log_csv(path, records: Sequence[TeamRecord]) -> None:
    """Write records in the CSV log schema (members joined with ';')."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for record in records:
            writer.writerow(
                [
                    record.team_id,
                    record.activity_id,
                    record.activity_type.value,
                    _stamp(record),
                    ";".join(record.members),
                ]
            )


def write_log_jsonl(path, records: Sequence[TeamRecord]) -> None:
    """Write records in the JSON Lines log schema (members as an array)."""
    with open(path, "w") as handle:
        for record in records:
            handle.write(
                json.dumps(
                    {
                        "team_id": record.team_id,
                        "activity_id": record.activity_id,
                        "activity_type": record.activity_type.value,
                        "timestamp": _stamp(record),
                        "members": list(record.members),
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def write_ground_truth(path, truth: GroundTruth) -> None:
    with open(path, "w") as handle:
        json.dump(asdict(truth), handle, indent=2, sort_keys=True)
        handle.write("\n")
