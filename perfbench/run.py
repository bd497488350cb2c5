"""twotier benchmark: one workload and seed, end-to-end or traced metrics.

Run from the root of a checkout (it analyses the code under ``src/``):

    python3 perfbench/run.py --workload large --seed 1 --seconds 55 --trace 0

The harness generates the workload's log from ``--seed`` with the public
``twotier.synth`` API, then runs ``run_pipeline`` on it in a fresh
interpreter per run (``worker.py``), one run at a time, until the next run
would overshoot ``--seconds``.  Every bundle is checked (see ``check.py``);
a run fails if it raises, if its check fails, or if its bundle digest or
exact counts differ from the first run's.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, the mean
``run_pipeline`` time over the runs (seconds per analysis, the inverse of
throughput), the median ``peak_rss_mb`` over the runs, and the median
``setup_s`` of interpreter launches up to ``import twotier.report``, four
before each run.  The mean, not the median: on a shared host the CPU speed
switches between states lasting seconds, so the median of two or three
runs flips between states while the mean averages them over the window.
``--trace 1`` adds one traced run (``tracing.py``) and reports the
per-layer metrics.  The metric names and units are those of
``BENCHMARK.json``.

Standard output ends with one JSON line holding ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record before it (input knobs and
sha256, machine, every run, spans by function) is also kept under
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import (  # noqa: E402
    TRACED_EQUIVALENT,
    bundle_counts,
    bundle_digest,
    file_sha256,
    summary_problems,
)
from tracing import COUNT_METRICS, layer_metrics, self_times  # noqa: E402
from workloads import SELF_CHECK, WORKLOADS  # noqa: E402

WORK_DIR = ".perfbench_work"
SETUP_PROBES_PER_RUN = 4
DEADLINE_S = 170.0          # the whole invocation must end within 180 s
TRACE_SLOWDOWN = 1.2        # budget for a traced run, relative to untraced
PROBE = "import time, twotier, twotier.report; print(repr(time.monotonic()))"
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, SELF_CHECK.name]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Harness:
    """One invocation: input, set-up probes, pipeline runs, checks."""

    def __init__(self, root: Path, workload, seed: int) -> None:
        self.root = root
        self.src = root / "src"
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        # relative and free of pid or trace flag: summary.json records the
        # log path, so bundles of one seed stay comparable across checkouts
        self.work = Path(WORK_DIR) / f"{workload.name}-seed{seed}"
        self.log = self.work / f"log.{workload.log_format}"
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.env.update(dict.fromkeys(SINGLE_THREAD, "1"))
        self.runs: list[dict] = []
        self.setup: list[float] = []   # setup_seconds() samples

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def make_input(self) -> dict:
        from twotier import synth

        config = self.workload.synth_config(synth, self.seed)
        records, _truth = synth.generate(config)
        writer = {"csv": synth.write_log_csv, "jsonl": synth.write_log_jsonl}
        writer[self.workload.log_format](self.root / self.log, records)
        return {
            "format": self.workload.log_format,
            "preset": self.workload.preset,
            "knobs": dataclasses.asdict(config),
            "sha256": file_sha256(self.root / self.log),
            "bytes": (self.root / self.log).stat().st_size,
            "teams": len(records),
            "links": sum(len(r.members) * (len(r.members) - 1) // 2 for r in records),
            "members": len({m for r in records for m in r.members}),
        }

    def setup_seconds(self) -> float:
        """Launch of a fresh interpreter until twotier.report is imported."""
        launched = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", PROBE],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=max(1.0, self.remaining()),
            check=True,
        )
        return float(proc.stdout.strip()) - launched

    def pipeline_run(self, trace: bool) -> dict:
        index = len(self.runs)
        out_dir = self.work / f"bundle{index}"
        result_file = self.work / f"run{index}.json"
        command = [
            sys.executable,
            str(HERE / "worker.py"),
            "--log", str(self.log),
            "--out-dir", str(out_dir),
            "--result", str(result_file),
            "--src", str(self.src),
        ]
        if trace:
            command.append("--trace")
        run: dict = {"index": index, "traced": trace}
        launched = time.monotonic()
        try:
            proc = subprocess.run(
                command,
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(1.0, self.remaining()),
            )
        except subprocess.TimeoutExpired:
            run["error"] = "timed out"
        else:
            if proc.returncode != 0:
                run["error"] = proc.stderr.strip().splitlines()[-5:]
            else:
                run.update(json.loads((self.root / result_file).read_text()))
                bundle = self.root / out_dir
                run["digest"] = bundle_digest(bundle)
                run["problems"] = summary_problems(bundle, *self.expected_keys())
                run["bundle_counts"] = bundle_counts(bundle)
        run["elapsed_s"] = time.monotonic() - launched
        shutil.rmtree(self.root / out_dir, ignore_errors=True)
        self.runs.append(run)
        print(
            f"run {index} traced={int(trace)} wall_s={run.get('wall_s')} "
            f"error={run.get('error')}",
            file=sys.stderr,
        )
        return run

    @staticmethod
    def expected_keys():
        from twotier.report import PipelineConfig

        config = PipelineConfig()
        return config.x_values, config.filters

    def measure(self, seconds: float, trace: bool) -> None:
        """Untraced runs until the next would overshoot ``seconds``; with
        ``trace``, room is kept for one traced run at the end.

        Untraced, set-up probes precede every run: spread over the window
        they sample the host's speed states, where a burst would catch one.
        """
        if not trace:
            self.setup_seconds()  # the first launch may compile bytecode
        began = time.monotonic()
        longest = 0.0
        while True:
            step = time.monotonic()
            if not trace:
                self.setup += [self.setup_seconds() for _ in range(SETUP_PROBES_PER_RUN)]
            run = self.pipeline_run(trace=False)
            longest = max(longest, time.monotonic() - step)
            reserve = longest * (1 + (TRACE_SLOWDOWN if trace else 0))
            spent = time.monotonic() - began
            if "error" in run or spent + reserve > seconds or reserve > self.remaining():
                break
        if trace:
            self.pipeline_run(trace=True)

    def completed(self, traced: bool) -> list[dict]:
        """Runs of one kind that ran to the end (their checks may still fail)."""
        return [r for r in self.runs if r["traced"] == traced and "error" not in r]

    def judge(self, input_info: dict) -> None:
        """Attach the reasons each run failed, if any."""
        good = [r for r in self.runs if "error" not in r]
        reference = good[0] if good else None
        for run in self.runs:
            reasons = []
            if "error" in run:
                reasons.append(f"raised: {run['error']}")
            else:
                reasons.extend(run["problems"])
                if run["digest"] != reference["digest"]:
                    reasons.append(f"bundle digest differs from run {reference['index']}")
                if run["bundle_counts"] != reference["bundle_counts"]:
                    reasons.append(f"bundle counts differ from run {reference['index']}")
                for key in ("teams", "links", "members"):
                    if run["bundle_counts"][key] != input_info[key]:
                        reasons.append(f"summary {key} differs from the input log")
                if run["traced"]:
                    for key, counter in TRACED_EQUIVALENT.items():
                        if run["counts"][counter] != run["bundle_counts"][key]:
                            reasons.append(f"traced {counter} differs from bundle {key}")
            run["failures"] = reasons


def end_to_end(harness: Harness) -> dict:
    plain = harness.completed(traced=False)
    return {
        "wall_s": statistics.fmean(r["wall_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "setup_s": statistics.median(harness.setup),
    }


def per_layer(harness: Harness) -> tuple[dict, dict]:
    traced = harness.completed(traced=True)[0]
    by_name = self_times(traced["spans"])
    values: dict = layer_metrics(by_name)
    covered = sum(row["self_s"] for row in by_name.values())
    wall = traced["wall_s"]
    values["report.glue_s"] = wall - covered
    values["trace.coverage"] = covered / wall
    values["trace.overhead_s"] = wall - statistics.fmean(
        r["wall_s"] for r in harness.completed(traced=False)
    )
    values["ingest.rss_mb"] = traced["ingest_rss_mb"]
    values.update({name: traced["counts"][name] for name in COUNT_METRICS})
    return values, by_name


def machine() -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "twotier" / "__init__.py").is_file():
        print(f"no twotier source under {root / 'src'}: run from a checkout root",
              file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS.get(args.workload, SELF_CHECK)
    harness = Harness(root, workload, args.seed)

    shutil.rmtree(root / harness.work, ignore_errors=True)
    (root / harness.work).mkdir(parents=True)
    try:
        input_info = harness.make_input()
        harness.measure(args.seconds, trace=bool(args.trace))
    finally:
        shutil.rmtree(root / harness.work, ignore_errors=True)
    harness.judge(input_info)
    input_info["frames"] = next(
        (r["bundle_counts"]["frames"] for r in harness.runs if "error" not in r), None
    )

    attempted = len(harness.runs)
    failed = sum(1 for r in harness.runs if r["failures"])
    by_name = None
    try:
        if args.trace:
            values, by_name = per_layer(harness)
        else:
            values = end_to_end(harness)
    except (IndexError, statistics.StatisticsError):
        print("no run passed its checks: nothing to report", file=sys.stderr)
        for run in harness.runs:
            print(f"run {run['index']}: {run['failures']}", file=sys.stderr)
        return 1
    listed = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input": input_info,
        "machine": machine(),
        "runs": [
            {k: v for k, v in run.items() if k not in ("spans", "problems")}
            for run in harness.runs
        ],
        "setup_samples_s": harness.setup,
        "fail_ratio": failed / attempted,
        "spans_by_function": by_name,
        "metrics": metrics,
    }
    results = root / WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans = harness.completed(traced=True)[0]["spans"]
        (results / f"{stem}-spans.json").write_text(json.dumps(spans))

    print(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
