"""The traced benchmark run patches twotier functions by name; keep them there."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from twotier.report import PipelineConfig, run_pipeline

from .test_tier_two_pool import _force_pool, needs_fork

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """The harness module ``perfbench/<name>.py``, loaded by path."""
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_benchmark_hooks_resolve():
    tracing = _load("tracing")
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


@pytest.mark.parametrize("pooled", [False, pytest.param(True, marks=needs_fork)])
def test_traced_counts_equal_the_bundle_counts(tmp_path, monkeypatch, pooled):
    """A traced benchmark run is correct only if each exact count it takes
    from the calls equals the same count read back from the bundle; the
    calls it counts must stay in this process, pool or no pool."""
    tracing, check = _load("tracing"), _load("check")
    chosen = _force_pool(monkeypatch) if pooled else []
    with tracing.Tracer() as tracer:
        run_pipeline(PipelineConfig(preset="small", out_dir=str(tmp_path)))
    assert chosen == ([2] if pooled else [])
    bundle = check.bundle_counts(tmp_path)
    equivalent = check.TRACED_EQUIVALENT
    traced = {key: tracer.counts[counter] for key, counter in equivalent.items()}
    assert traced == {key: bundle[key] for key in equivalent}
    assert all(traced.values())
