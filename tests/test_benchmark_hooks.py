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
