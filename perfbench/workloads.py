"""Benchmark workloads: which synthetic log each one analyses, and why.

Every workload starts from a ``twotier.synth`` preset and overrides some
``SynthConfig`` knobs; the workload seed replaces the preset's seed, so the
same seed always yields the same log.  The analysis itself always runs with
the default ``PipelineConfig`` (3m window, X = 5, 10, 20, all three filters).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str                  # synth preset the knobs start from
    log_format: str              # csv | jsonl: which parser the run exercises
    knobs: dict = field(default_factory=dict)  # SynthConfig overrides

    def synth_config(self, synth, seed: int):
        """The generator config for ``seed`` (``synth`` is ``twotier.synth``)."""
        return dataclasses.replace(synth.PRESETS[self.preset](seed), **self.knobs)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="large",
            why="default large preset as CSV: the paper-scale reference, "
            "where closeness_all is the largest layer and ingestion is small",
            preset="large",
            log_format="csv",
        ),
        Workload(
            name="long_stable",
            why="96 quarterly low-churn frames as JSONL: many small per-frame "
            "Louvain, evolution and tier-two calls dominate, closeness is small",
            preset="large",
            log_format="jsonl",
            knobs=dict(
                frames=96,
                core_blocks=4,
                core_block_size=40,
                regular_block_sizes=(60, 45, 60, 60, 55, 75),
                general_pool=200,
                churn_rate=0.04,
                teams_a_core_mixed=16,
                teams_a_general=6,
                teams_a_regular=4,
                teams_b_core=11,
                teams_b_core_cross=8,
                teams_b_core_general=3,
                teams_b_core_regular=1,
                teams_b_regular=12,
            ),
        ),
    )
}

#: Not a benchmark workload: the ``small`` preset, for the harness self-check.
SELF_CHECK = Workload(
    name="small",
    why="small preset: checks the harness itself in seconds",
    preset="small",
    log_format="csv",
)
