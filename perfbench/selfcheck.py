"""Fast self-check of the benchmark harness on the ``small`` preset.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

It checks, in a few seconds, that ``BENCHMARK.json`` names the harness's
workloads and metrics, that ``run.py`` prints a well-formed result line in
both modes, that the traced run restores what it wraps and covers the
wall, that the output check catches damaged bundles, and that the harness
refuses to run where there is no source to build.  Exits non-zero on the
first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import bundle_counts, bundle_digest, summary_problems  # noqa: E402
from run import WORK_DIR  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import SELF_CHECK, WORKLOADS  # noqa: E402

ROOT = Path.cwd()
SCRATCH = ROOT / WORK_DIR / "selfcheck"


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"self-check failed: {message}")
    print(f"ok  {message}")


def check_benchmark_file(bench: dict) -> None:
    expect(
        set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        "BENCHMARK.json has exactly the contract's keys",
    )
    expect([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json lists the harness's workloads")
    expect(all(w["why"] == WORKLOADS[w["name"]].why for w in bench["workloads"]),
           "workload reasons match workloads.py")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
           "setup_s is listed and has the largest bound")
    expect(all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"]), "bounds lie in (0, 0.25]")
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    expect(len(names) == len(set(names)), "metric names are unique")


def run_harness(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", SELF_CHECK.name,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def check_result_line(bench: dict, trace: int) -> dict:
    proc = run_harness(trace)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
    expect(proc.returncode == 0, f"run.py --trace {trace} exits 0")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"--trace {trace} result line has exactly the contract's keys")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"--trace {trace} runs pass their output checks")
    listed = bench["per_layer" if trace else "end_to_end"]
    expect(
        result["metrics"] == {
            m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in listed
        } and all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
        f"--trace {trace} reports every listed metric with its unit",
    )
    return {name: v["value"] for name, v in result["metrics"].items()}


def check_trace_restores() -> None:
    import twotier.graph
    import twotier.report

    before = (twotier.report.build_frames, twotier.graph.FrameGraph.restrict)
    with Tracer():
        wrapped = (twotier.report.build_frames, twotier.graph.FrameGraph.restrict)
    after = (twotier.report.build_frames, twotier.graph.FrameGraph.restrict)
    expect(all(w is not b for w, b in zip(wrapped, before)) and after == before,
           "the tracer wraps report's imported names and methods, then restores them")


def check_output_check() -> None:
    from twotier import synth
    from twotier.report import PipelineConfig, run_pipeline

    log = SCRATCH / "log.csv"
    records, _ = synth.generate(SELF_CHECK.synth_config(synth, 3))
    synth.write_log_csv(log, records)
    config = PipelineConfig(input=str(log), out_dir=str(SCRATCH / "bundle"))
    run_pipeline(config)
    bundle = Path(config.out_dir)
    keys = (config.x_values, config.filters)
    expect(summary_problems(bundle, *keys) == [], "a fresh bundle passes the summary check")
    digest, counts = bundle_digest(bundle), bundle_counts(bundle)
    expect(counts["links"] == sum(len(r.members) * (len(r.members) - 1) // 2 for r in records),
           "bundle links equal the log's team pairs")

    summary_path = bundle / "summary.json"
    summary = json.loads(summary_path.read_text())
    first_x = str(config.x_values[0])
    shares = summary["x"][first_x]["filters"]["full"]["tier2"]["edge_weight_shares"]
    shares["BBE"] += 1e-6
    del summary["x"][str(config.x_values[-1])]
    summary_path.write_text(json.dumps(summary))
    problems = summary_problems(bundle, *keys)
    expect(any("sum to" in p for p in problems) and any("lacks X" in p for p in problems),
           "the summary check catches bad shares and a missing X")
    expect(bundle_digest(bundle) != digest, "the digest changes when a file changes")
    (bundle / "network" / "coverage.csv").unlink()
    expect(any("manifest" in p for p in summary_problems(bundle, *keys)),
           "the summary check catches a file missing from the bundle")


def check_refuses_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_harness(0, cwd=bare)
    expect(proc.returncode != 0 and proc.stdout == "",
           "without src/ the harness exits non-zero and prints no result")


def main() -> None:
    if not (ROOT / "src" / "twotier").is_dir():
        raise SystemExit("run from the root of a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        check_benchmark_file(bench)
        check_result_line(bench, 0)
        layers = check_result_line(bench, 1)
        expect(layers["trace.coverage"] >= 0.9, "layer spans cover at least 90% of the wall")
        check_trace_restores()
        check_output_check()
        check_refuses_bare_directory()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("self-check passed")


if __name__ == "__main__":
    main()
