"""Output checks on one result bundle: digest, completeness, exact counts."""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

SHARE_TOLERANCE = 1e-9


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def bundle_digest(out_dir) -> str:
    """sha256 over the sorted relative paths and the sha256 of each file."""
    root = Path(out_dir)
    files = sorted(
        (p.relative_to(root).as_posix(), p) for p in root.rglob("*") if p.is_file()
    )
    digest = hashlib.sha256()
    for rel, path in files:
        digest.update(f"{rel}\t{file_sha256(path)}\n".encode())
    return digest.hexdigest()


def summary_problems(out_dir, x_values, filters) -> list[str]:
    """What is missing or inconsistent in ``summary.json`` and the manifest.

    Every X and filter must be present, every non-null tier-two
    ``edge_weight_shares`` must sum to 1, and the manifest must list exactly
    the files of the bundle.
    """
    root = Path(out_dir)
    problems = []
    summary = json.loads((root / "summary.json").read_text())
    for x in x_values:
        block = summary["x"].get(str(x))
        if block is None:
            problems.append(f"summary lacks X={x}")
            continue
        for name in filters:
            fblock = block["filters"].get(name)
            if fblock is None:
                problems.append(f"summary lacks filter {name} at X={x}")
                continue
            shares = fblock["tier2"]["edge_weight_shares"]
            if shares is not None and not abs(sum(shares.values()) - 1.0) <= SHARE_TOLERANCE:
                problems.append(
                    f"edge_weight_shares at X={x}/{name} sum to {sum(shares.values())!r}"
                )
    manifest = json.loads((root / "manifest.json").read_text())
    files = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
    if manifest["artifacts"] != files:
        problems.append("manifest artifacts differ from the bundle's files")
    return problems


def _csv_rows(path):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        yield from reader


def bundle_counts(out_dir) -> dict[str, int]:
    """Exact counts read back from the bundle.

    ``links``, ``communities``, ``events`` and ``abstract_edges`` must equal
    the traced run's ``ingest.links``, ``community.communities``,
    ``evolution.events`` and ``abstraction.edges``.
    """
    root = Path(out_dir)
    network = json.loads((root / "summary.json").read_text())["network"]
    counts = {key: network[key] for key in ("teams", "links", "members", "frames")}
    counts["communities"] = sum(
        len({(row[0], row[2]) for row in _csv_rows(path)})
        for path in root.glob("x*/*/partitions_*.csv")
    )
    counts["events"] = sum(
        sum(1 for _ in _csv_rows(path)) for path in root.glob("x*/*/events_*.csv")
    )
    counts["abstract_edges"] = sum(
        sum(1 for _ in _csv_rows(path)) for path in root.glob("x*/*/abstract.csv")
    )
    return counts


# bundle count -> the traced counter that must equal it
TRACED_EQUIVALENT = {
    "links": "ingest.links",
    "communities": "community.communities",
    "events": "evolution.events",
    "abstract_edges": "abstraction.edges",
}
