"""One pipeline run in a fresh interpreter.

Usage (from run.py, with ``src`` on PYTHONPATH):

    python3 perfbench/worker.py --log LOG --out-dir DIR --result FILE [--trace]

Imports ``twotier``, then times one ``run_pipeline`` call on LOG with the
default analysis config.  Interpreter start and imports are outside the
timed region; numpy/scipy, which ``closeness_all`` imports on first use,
are inside it.  Writes wall and CPU time, ``ru_maxrss`` and, with
``--trace``, the spans and counts of the traced run to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path


def timed(call, *args) -> dict:
    """Wall and CPU seconds of ``call(*args)``; its result is freed after."""
    started, cpu = time.perf_counter(), time.process_time()
    returned = call(*args)  # noqa: F841 -- freeing it is not part of the call
    return {
        "wall_s": time.perf_counter() - started,
        "cpu_s": time.process_time() - cpu,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--log", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--src", required=True, help="directory holding twotier")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import twotier
    import twotier.report as report

    src = Path(args.src).resolve()
    if src not in Path(twotier.__file__).resolve().parents:
        raise SystemExit(f"imported twotier from {twotier.__file__}, not from {src}")

    config = report.PipelineConfig(input=args.log, out_dir=args.out_dir)
    if args.trace:
        from tracing import Tracer

        with Tracer() as tracer:
            result = timed(report.run_pipeline, config)
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
        result["ingest_rss_mb"] = tracer.ingest_rss_mb
    else:
        result = timed(report.run_pipeline, config)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
