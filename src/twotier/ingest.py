"""Activity-log ingestion: records, pairwise link expansion and time framing.

The input is a flat log of team participations.  Every row names one team,
the activity it belongs to, the activity type (A = rewarding,
B = non-rewarding), an RFC 3339 timestamp and the member list.  Supported
encodings are CSV (members joined with ``;`` in one quoted column) and JSON
Lines (members as an array).
"""

from __future__ import annotations

import csv
import json
import re
import reprlib
from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from itertools import combinations
from typing import IO, Iterable, Iterator, Sequence

from .graph import DynamicNetwork, FrameGraph

CSV_HEADER = ["team_id", "activity_id", "activity_type", "timestamp", "members"]

#: The repr of a value read from a log, in an error message: a long string
#: keeps its two ends, a container its first items, each at most 60
#: characters, so a message stays under 300 characters whatever the input.
_SHORT = reprlib.Repr()
_SHORT.maxlevel = 1
_SHORT.maxstring = _SHORT.maxother = 60
_SHORT.maxlist = _SHORT.maxtuple = _SHORT.maxset = _SHORT.maxfrozenset = 3
_SHORT.maxdict = 1


class ActivityType(str, Enum):
    A = "A"  # rewarding
    B = "B"  # non-rewarding


class LogParseError(ValueError):
    """Malformed input row.  Carries the 1-based line number and field name."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        detail = message
        if field is not None:
            detail = f"{detail} (field {field!r})"
        if line is not None:
            detail = f"line {line}: {detail}"
        super().__init__(detail)
        self.line = line
        self.field = field


def parse_timestamp(text: str) -> datetime:
    """Parse an RFC 3339 timestamp to an aware UTC datetime.

    Accepts the ``Z`` suffix (Python 3.10's ``fromisoformat`` does not) and
    treats a missing offset as UTC.
    """
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


@dataclass(frozen=True)
class TeamRecord:
    """One team participation event.

    ``members`` is stored as a sorted tuple so downstream expansion is
    independent of input ordering.  Singleton teams are legal: they produce
    no links but still register the member as a participant.
    """

    team_id: str
    activity_id: str
    activity_type: ActivityType
    timestamp: datetime
    members: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError(f"team {_SHORT.repr(self.team_id)} has no members")
        ordered = tuple(sorted(self.members))
        if len(set(ordered)) != len(ordered):
            raise ValueError(f"team {_SHORT.repr(self.team_id)} lists a member twice")
        object.__setattr__(self, "members", ordered)
        object.__setattr__(self, "activity_type", ActivityType(self.activity_type))
        if self.timestamp.tzinfo is None:
            raise ValueError(f"team {_SHORT.repr(self.team_id)} has a naive timestamp")


def parse_log(source: IO[str], format: str = "csv") -> list[TeamRecord]:
    """Parse an activity log from an open text stream.

    Args:
        source: an open text file object (or any iterable of lines).
        format: ``"csv"`` or ``"jsonl"``.

    Raises:
        LogParseError: on any malformed row, quoting line and field.
    """
    if format == "csv":
        return _parse_csv(source)
    if format == "jsonl":
        return _parse_jsonl(source)
    raise ValueError(f"unknown log format {format!r}")


def infer_format(path) -> str:
    """Log encoding implied by the file suffix, in any case: jsonl-ish or csv."""
    suffixes = (".jsonl", ".ndjson", ".json")
    return "jsonl" if str(path).lower().endswith(suffixes) else "csv"


def load_log(path, format: str | None = None) -> list[TeamRecord]:
    """Read a log file; infers the format from the suffix unless given.

    A leading UTF-8 byte-order mark, as spreadsheet exports write, is skipped.
    """
    if format is None:
        format = infer_format(path)
    with open(str(path), encoding="utf-8-sig") as handle:
        return parse_log(handle, format)


def _checked(value, kind: type, blank: str, line: int, field: str):
    """``value`` if it is a non-blank ``kind``.  An absent value, an empty
    list or an all-blank string raises ``blank``; a value of another type
    raises an error naming the type expected and the value found."""
    if value is None or value == [] or isinstance(value, str) and not value.strip():
        raise LogParseError(blank, line=line, field=field)
    if not isinstance(value, kind):
        expected = "a list of strings" if kind is list else "a string"
        raise LogParseError(
            f"expected {expected}, got {_SHORT.repr(value)}", line=line, field=field
        )
    return value


def _record(fields: dict, line: int, names: dict[str, str]) -> TeamRecord:
    """One checked record from a row's fields.  ``names`` is the parse's
    member name table: every record of one parse holds the same ``str``
    object for a given name."""
    for key in ("team_id", "activity_id", "activity_type", "timestamp"):
        _checked(fields.get(key), str, "missing or empty value", line, key)
    try:
        kind = ActivityType(fields["activity_type"].strip())
    except ValueError:
        raise LogParseError(
            f"activity type must be A or B, got {_SHORT.repr(fields['activity_type'])}",
            line=line,
            field="activity_type",
        ) from None
    try:
        ts = parse_timestamp(fields["timestamp"])
    except ValueError as exc:
        reason = str(exc)
        if len(reason) > 100:  # fromisoformat's message repeats the whole value
            reason = f"invalid timestamp {_SHORT.repr(fields['timestamp'])}"
        raise LogParseError(reason, line=line, field="timestamp") from None
    members = _checked(
        fields.get("members"), list, "missing or empty member list", line, "members"
    )
    cleaned = []
    for item in members:
        name = _checked(item, str, "blank member id", line, "members").strip()
        cleaned.append(names.setdefault(name, name))
    try:
        return TeamRecord(
            team_id=fields["team_id"].strip(),
            activity_id=fields["activity_id"].strip(),
            activity_type=kind,
            timestamp=ts,
            members=tuple(cleaned),
        )
    except ValueError as exc:
        raise LogParseError(str(exc), line=line, field="members") from None


def _csv_rows(reader) -> Iterator[list[str]]:
    """The rows of ``reader``; a ``csv.Error`` (such as a field over the
    module's size limit) becomes a ``LogParseError`` naming its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise LogParseError(str(exc), line=reader.line_num) from None


def _parse_csv(lines: Iterable[str]) -> list[TeamRecord]:
    """Every error names the physical line on which its record ends,
    ``reader.line_num``, also when a quoted field holds a newline."""
    reader = csv.reader(lines)
    rows = _csv_rows(reader)
    records = []
    names: dict[str, str] = {}
    header = next(rows, None)
    if header is None:
        return records
    if [h.strip() for h in header] != CSV_HEADER:
        raise LogParseError(
            f"expected header {','.join(CSV_HEADER)!r}, "
            f"got {_SHORT.repr(','.join(header))}",
            line=reader.line_num,
        )
    for row in rows:
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise LogParseError(
                f"expected {len(CSV_HEADER)} columns, got {len(row)}",
                line=reader.line_num,
            )
        fields = dict(zip(CSV_HEADER, row))
        fields["members"] = [m for m in fields["members"].split(";")]
        records.append(_record(fields, reader.line_num, names))
    return records


def _parse_jsonl(lines: Iterable[str]) -> list[TeamRecord]:
    records = []
    names: dict[str, str] = {}
    for number, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # a JSONDecodeError, or an integer over the interpreter's digit limit
            raise LogParseError(f"invalid JSON: {exc}", line=number) from None
        if not isinstance(payload, dict):
            raise LogParseError("row is not a JSON object", line=number)
        records.append(_record(payload, number, names))
    return records


def expand_teams(records: Iterable[TeamRecord]) -> list[tuple[str, str, TeamRecord]]:
    """Expand each team into one ``(member_a, member_b, team)`` link per
    unordered member pair.

    A team of m members yields m*(m-1)/2 links with ``member_a < member_b``;
    ``team`` is the input record itself, which carries the link's activity
    fields and timestamp.  The output order does not depend on how members
    were listed in the input.
    """
    links = []
    for record in records:
        for a, b in combinations(record.members, 2):
            links.append((a, b, record))
    return links


def team_participations(records: Iterable[TeamRecord]) -> list[tuple[str, TeamRecord]]:
    """One ``(member, team)`` participation per team member, singleton teams
    included; ``team`` is the input record itself."""
    rows = []
    for record in records:
        for member in record.members:
            rows.append((member, record))
    return rows


def add_months(moment: datetime, months: int) -> datetime:
    """Shift a datetime by whole calendar months, clamping the day."""
    month = moment.month - 1 + months
    year = moment.year + month // 12
    month = month % 12 + 1
    # clamp day to the target month's length
    day = moment.day
    while day > 28:
        try:
            return moment.replace(year=year, month=month, day=day)
        except ValueError:
            day -= 1
    return moment.replace(year=year, month=month, day=day)


_WINDOW_RE = re.compile(r"^(\d+)([mdhs])$")


def parse_window(text: str) -> int | timedelta:
    """The frame window a text names: ``'3m'`` -> 3 calendar months (an
    ``int``); ``'90d'``, ``'12h'``, ``'3600s'`` -> a fixed duration (a
    ``timedelta``).  :meth:`FrameSpec.describe` renders it back."""
    matched = _WINDOW_RE.match(text.strip())
    if not matched:
        raise ValueError(
            f"window {text!r} must look like 3m (months), 90d, 12h or 3600s"
        )
    amount, unit = int(matched.group(1)), matched.group(2)
    if amount < 1:
        raise ValueError("window must be positive")
    if unit == "m":
        return amount
    seconds = {"d": 86400, "h": 3600, "s": 1}[unit] * amount
    try:
        return timedelta(seconds=seconds)
    except OverflowError:
        raise ValueError(f"window {text!r} is too long") from None


class FrameSpec:
    """Partition of an observation span into consecutive equal-length frames.

    Frames are half-open ``[start, next_start)``.  The window, as
    :func:`parse_window` gives it, is either a whole number of calendar
    months (an ``int``) or a fixed duration (a ``timedelta``).  When the
    span does not divide evenly, the trailing remainder is absorbed into the
    last frame, so the final frame may be longer than the window.
    """

    def __init__(
        self, span_start: datetime, span_end: datetime, window: int | timedelta
    ) -> None:
        if window <= (timedelta(0) if isinstance(window, timedelta) else 0):
            raise ValueError(f"window must be positive, got {window!r}")
        if span_start.tzinfo is None or span_end.tzinfo is None:
            raise ValueError("span boundaries must be timezone-aware")
        if span_start >= span_end:
            raise ValueError("span_start must precede span_end")
        self.span_start = span_start.astimezone(timezone.utc)
        self.span_end = span_end.astimezone(timezone.utc)
        self.window = window
        self._starts = self._build_starts()

    def _start(self, k: int) -> datetime:
        """Start of window k, counted from the span start, so a day clamped
        at one month's end does not carry into later windows."""
        try:
            if isinstance(self.window, timedelta):
                return self.span_start + k * self.window
            return add_months(self.span_start, k * self.window)
        except (OverflowError, ValueError):
            raise ValueError(
                f"{k} windows after {self.span_start.isoformat()} is past year 9999"
            ) from None

    def _build_starts(self) -> list[datetime]:
        starts = [self.span_start]
        while (nxt := self._start(len(starts))) < self.span_end:
            starts.append(nxt)
        # a trailing partial window is merged into the previous frame
        if len(starts) > 1 and nxt > self.span_end:
            starts.pop()
        return starts

    @property
    def frame_count(self) -> int:
        return len(self._starts)

    def boundaries(self) -> list[tuple[datetime, datetime]]:
        """The ``[start, end)`` interval of every frame."""
        out = []
        for i, start in enumerate(self._starts):
            end = self._starts[i + 1] if i + 1 < len(self._starts) else self.span_end
            out.append((start, end))
        return out

    def frame_of(self, moment: datetime) -> int:
        """Frame index containing ``moment``; raises outside the span."""
        if moment.tzinfo is None:
            raise ValueError("timestamp must be timezone-aware")
        moment = moment.astimezone(timezone.utc)
        if moment < self.span_start or moment >= self.span_end:
            raise ValueError(
                f"timestamp {moment.isoformat()} outside span "
                f"[{self.span_start.isoformat()}, {self.span_end.isoformat()})"
            )
        return bisect_right(self._starts, moment) - 1

    def describe(self) -> dict:
        spec = {
            "span_start": self.span_start.isoformat(),
            "span_end": self.span_end.isoformat(),
            "frame_count": self.frame_count,
        }
        if isinstance(self.window, timedelta):
            spec["window"] = f"{int(self.window.total_seconds())}s"
        else:
            spec["window"] = f"{self.window}m"
        return spec


def spec_for_records(
    records: Sequence[TeamRecord], window: int | timedelta
) -> FrameSpec:
    """Derive a FrameSpec of ``window`` (see :class:`FrameSpec`) spanning
    the records' timestamps.

    The span starts at the earliest timestamp and ends one second past the
    latest, so every record lands inside a frame.
    """
    if not records:
        raise ValueError("cannot derive a frame spec from an empty log")
    stamps = [r.timestamp for r in records]
    latest = max(stamps)
    try:
        span_end = latest + timedelta(seconds=1)
    except OverflowError:
        raise ValueError(
            f"timestamp {latest.isoformat()} leaves no second before year 10000 "
            "to end the span"
        ) from None
    return FrameSpec(min(stamps), span_end, window)


def build_frames(
    records: Iterable[TeamRecord],
    spec: FrameSpec,
    kinds: Iterable[ActivityType | str] = (),
) -> dict[str, DynamicNetwork]:
    """The dynamic networks of the team records, by filter name: ``"full"``
    over every team, then one per activity type in ``kinds``, keyed by the
    type's value (``"A"``, ``"B"``), over that type's teams only.

    The teams are grouped by the frame of their timestamp, one
    ``spec.frame_of`` per team.  Each frame's teams are then expanded
    (``expand_teams``, ``team_participations``) and dropped, so no list of
    links outlives its frame.  Each link ``(member_a, member_b, team)`` adds
    ``(member_a, member_b, 1)`` to its frame, and ``FrameGraph.from_edges``
    builds each frame from those triples, so pair weights count links
    between the pair inside the frame.  Every participant is registered in
    the frame of their team, even without links.  The result is invariant
    under input reordering.

    Raises:
        ValueError: if any timestamp falls outside the spec's span; the
            message names the offending team.
    """
    kinds = [ActivityType(kind) for kind in kinds]
    by_frame: list[list[TeamRecord]] = [[] for _ in range(spec.frame_count)]
    for team in records:
        try:
            by_frame[spec.frame_of(team.timestamp)].append(team)
        except ValueError as exc:
            raise ValueError(f"team {_SHORT.repr(team.team_id)}: {exc}") from None
    frames: dict[str, list[FrameGraph]] = {"full": []}
    frames.update((kind.value, []) for kind in kinds)
    for t, teams in enumerate(by_frame):
        links = expand_teams(teams)
        participants = team_participations(teams)
        frames["full"].append(FrameGraph.from_edges(
            t, ((a, b, 1) for a, b, _ in links), (m for m, _ in participants)
        ))
        for kind in kinds:
            frames[kind.value].append(FrameGraph.from_edges(
                t,
                ((a, b, 1) for a, b, team in links if team.activity_type is kind),
                (m for m, team in participants if team.activity_type is kind),
            ))
    return {name: DynamicNetwork(net) for name, net in frames.items()}


def typed_network(
    records: Iterable[TeamRecord], spec: FrameSpec, activity_type: ActivityType | str
) -> DynamicNetwork:
    """The network of the teams with one activity type; see
    :func:`build_frames`.  The A and B networks partition the full
    network's links exactly: every team carries one of the two types."""
    kind = ActivityType(activity_type)
    return build_frames(records, spec, (kind,))[kind.value]
