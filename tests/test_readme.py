"""The README's code examples run against the current API."""

import re
from pathlib import Path

from twotier import synth

README = Path(__file__).resolve().parents[1] / "README.md"


def _section_code(heading: str) -> str:
    """The first ``python`` block under the level-2 ``heading``."""
    text = README.read_text()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    found = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert found, f"no python block under ## {heading}"
    return found.group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    code = _section_code("Library")
    (tmp_path / "data").mkdir()
    records, _truth = synth.generate(synth.PRESETS["small"](42))
    synth.write_log_csv(tmp_path / "data" / "log.csv", records)
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(code, f"{README}:Library", "exec"), namespace)
    assert namespace["split"].backbone
    assert len(namespace["bsn"].partitions) == namespace["net"].frame_count
    assert namespace["timeline"].events
