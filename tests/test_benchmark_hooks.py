"""The traced benchmark run patches twotier functions by name; keep them there."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_benchmark_hooks_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, attribute, _metric in tracing.SPANS:
        owner = importlib.import_module(f"twotier.{module_name}")
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"twotier.{module_name}.{attribute}")
    assert not missing, f"traced benchmark hooks no longer resolve: {missing}"


def test_report_calls_ingest_build_frames_by_its_imported_name():
    """The harness self-check checks that the tracer wraps and restores
    ``twotier.report.build_frames``, the name the pipeline calls; that name
    must stay bound to ingest's function."""
    import twotier.ingest
    import twotier.report

    assert twotier.report.build_frames is twotier.ingest.build_frames
