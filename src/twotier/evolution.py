"""Community evolution across frames: matching, nine event kinds, tracks.

Communities of consecutive frames are matched by an inclusion test: a
predecessor P and successor N match when the overlap covers at least the
``alpha`` fraction of P or the ``beta`` fraction of N.  On top of the match
structure, each transition is classified into the event taxonomy:

    Form, ReEmerge, Suspend, Dissolve   -> existence changes (attribute V)
    Grow, Split, Merge, Shrink          -> size changes (attribute S)
    Continue                            -> no change (no attribute)

Communities are threaded through time into tracks (mutual best-overlap
matches continue a track), which is what lets a later re-appearance be told
apart from a brand-new formation.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from operator import attrgetter
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence


class EventKind(Enum):
    FORM = "Form"
    DISSOLVE = "Dissolve"
    GROW = "Grow"
    SHRINK = "Shrink"
    CONTINUE = "Continue"
    SUSPEND = "Suspend"
    REEMERGE = "ReEmerge"
    SPLIT = "Split"
    MERGE = "Merge"


#: Which community attribute an event kind changes: existence (V), size (S)
#: or nothing (-).
ATTRIBUTE = {
    EventKind.FORM: "V",
    EventKind.REEMERGE: "V",
    EventKind.SUSPEND: "V",
    EventKind.DISSOLVE: "V",
    EventKind.GROW: "S",
    EventKind.SPLIT: "S",
    EventKind.MERGE: "S",
    EventKind.SHRINK: "S",
    EventKind.CONTINUE: "-",
}

_KIND_ORDER = {kind: i for i, kind in enumerate(EventKind)}


class CommunityRef(NamedTuple):
    """Pointer to one community occurrence: (frame index, community id)."""

    frame: int
    community: int

    def __str__(self) -> str:
        return f"{self.frame}:{self.community}"

    @classmethod
    def parse(cls, text: str) -> "CommunityRef":
        frame, community = text.split(":")
        return cls(int(frame), int(community))


class EvolutionEvent(NamedTuple):
    kind: EventKind
    frame: int
    track_id: int
    predecessors: tuple[CommunityRef, ...]
    successors: tuple[CommunityRef, ...]
    size_before: int | None
    size_after: int | None

    @property
    def attribute(self) -> str:
        return ATTRIBUTE[self.kind]


def _sizes(assignment: Mapping[str, int], label: str) -> list[int]:
    """Each community's member count, by id; the ids must run 0..C-1."""
    counts = Counter(assignment.values())
    sizes = [counts[c] for c in range(len(counts))]
    if 0 in sizes:
        raise ValueError(f"{label}: community {sizes.index(0)} is empty")
    return sizes


def _members(assignment: Mapping[str, int], ids: Iterable[int]) -> dict[int, list[str]]:
    """The members of the communities ``ids``, keyed by id."""
    groups: dict[int, list[str]] = {c: [] for c in ids}
    if groups:
        for member, c in assignment.items():
            group = groups.get(c)
            if group is not None:
                group.append(member)
    return groups


def _match(
    prev: Mapping[str, int],
    prev_sizes: Sequence[int],
    nxt: Mapping[str, int],
    nxt_sizes: Sequence[int],
    alpha: float,
    beta: float,
) -> tuple[list[list[int]], list[list[int]], dict[tuple[int, int], int]]:
    """Match communities of one frame to the next by fractional inclusion.

    P matches N when |P & N| / |P| >= alpha or |P & N| / |N| >= beta.  Each
    frame is given by each member's community id and each community's
    size.  Returns ``(succs, preds, overlap)``: ``succs[i]`` lists the
    matched successor ids of predecessor i, ``preds[j]`` the matched
    predecessor ids of successor j, both ascending, and ``overlap[(i, j)]``
    the shared member count of every matched pair.  A community may match
    several on the other side; the caller interprets the multiplicity.
    """
    succs: list[list[int]] = [[] for _ in prev_sizes]
    preds: list[list[int]] = [[] for _ in nxt_sizes]
    overlap: dict[tuple[int, int], int] = {}
    common = prev.keys() & nxt.keys()
    tally = Counter(zip(map(prev.__getitem__, common), map(nxt.__getitem__, common)))
    for i, j in sorted(tally):
        shared = tally[i, j]
        if shared / prev_sizes[i] >= alpha or shared / nxt_sizes[j] >= beta:
            succs[i].append(j)
            preds[j].append(i)
            overlap[i, j] = shared
    return succs, preds, overlap


@dataclass
class Timeline:
    """Full evolution history of one sub-network.

    ``track_of`` maps each occurrence to its track id; occurrences sharing a
    track are one community identity over time.  ``events`` is sorted by
    frame, then kind (in :class:`EventKind` order), then successors, then
    predecessors.
    """

    events: list[EvolutionEvent]
    track_of: dict[CommunityRef, int]


def classify(
    assignments: Iterable[Mapping[str, int]],
    alpha: float = 0.5,
    beta: float = 0.5,
    continue_jaccard: float = 0.5,
) -> Timeline:
    """Classify every transition of a community sequence into events.

    Args:
        assignments: for each frame, each member's community id, as
            ``Partition.assignment`` gives it: the ids run 0..C-1 and each
            has a member, else ``ValueError`` names the frame.  Read once,
            in order.
        alpha, beta: inclusion thresholds of the matcher, each in (0, 1].
        continue_jaccard: an exclusive one-to-one match of unchanged size
            whose Jaccard similarity falls below this is not a Continue;
            the pair is treated as unmatched (the old community ends, the
            new one forms).  It must lie in (0, 1].

    Tracks: a matched successor carries on the track of its best
    predecessor (most shared members, then smallest id) when it is that
    predecessor's best successor too; any other matched successor starts a
    new track.  An unmatched successor resumes a suspended track whose last
    occurrence passes the inclusion test against it (ReEmerge); pairs are
    taken by most shared members, then smallest successor id, then latest
    last frame, then smallest track, each side at most once.  Every other
    unmatched successor forms a new track.  New track ids count up from 0:
    in each frame, first for the matched successors that start a track,
    then for the formed ones, each by id.  A predecessor with no successor
    suspends its track once the frame's re-emergences are taken, so a
    track resumes two frames after its last occurrence at the earliest.

    Event frame conventions: transition events (Continue/Grow/Shrink/
    Split/Merge) are stamped with the successor frame; Form/ReEmerge with
    the frame of appearance; Suspend/Dissolve with the last frame the
    community was present.  Occurrences in the final frame carry no
    exit-side event (their future is unobserved).  Every event's
    ``size_before`` and ``size_after`` are the summed member counts of its
    predecessors and successors, or None when it has none.

    Across frames only the previous frame's assignment, sizes, references
    and tracks are kept, plus the last occurrence and members of each
    suspended track.
    """
    if not 0 < alpha <= 1 or not 0 < beta <= 1:
        raise ValueError(f"alpha and beta must lie in (0, 1], got {alpha}, {beta}")
    if not 0 < continue_jaccard <= 1:
        raise ValueError(f"continue_jaccard must lie in (0, 1], got {continue_jaccard}")
    prev: Mapping[str, int] = {}
    prev_sizes: list[int] = []
    prev_refs: list[CommunityRef] = []
    prev_tracks: list[int] = []
    events: list[EvolutionEvent] = []
    track_of: dict[CommunityRef, int] = {}
    # track -> its last occurrence and that occurrence's members
    pending: dict[int, tuple[CommunityRef, list[str]]] = {}
    waiting: dict[str, set[int]] = {}  # member -> pending tracks holding it
    next_track = 0

    # Frame 0 follows an empty frame, so every community of it forms.
    for u, nxt in enumerate(assignments):
        nxt_sizes = _sizes(nxt, f"frame {u}")
        nxt_refs = [CommunityRef(u, j) for j in range(len(nxt_sizes))]
        nxt_tracks = [-1] * len(nxt_sizes)
        succs, preds, overlap = _match(prev, prev_sizes, nxt, nxt_sizes, alpha, beta)

        # An exclusive one-to-one match of unchanged size that kept too few
        # members is no continuation; drop the match entirely.
        for i, js in enumerate(succs):
            if len(js) != 1:
                continue
            j = js[0]
            size = prev_sizes[i]
            if len(preds[j]) != 1 or size != nxt_sizes[j]:
                continue
            shared = overlap[(i, j)]
            if shared / (size + size - shared) < continue_jaccard:
                succs[i] = []
                preds[j] = []
                del overlap[(i, j)]

        # Thread tracks along mutual best-overlap matches.
        for j, is_ in enumerate(preds):
            if not is_:
                continue
            # the most shared members, then the smallest id
            i = min(is_, key=lambda i: (-overlap[(i, j)], i))
            if min(succs[i], key=lambda j: (-overlap[(i, j)], j)) == j:
                nxt_tracks[j] = prev_tracks[i]
            else:
                # matched, but another successor carries the old identity on
                nxt_tracks[j] = next_track
                next_track += 1

        # Re-emergence test for unmatched successors against suspended tracks.
        unmatched = [j for j, is_ in enumerate(preds) if not is_]
        groups = _members(nxt, unmatched) if pending else {}
        candidates = _reemergence_candidates(groups, pending, waiting, alpha, beta)
        resumed: dict[int, int] = {}  # successor j -> track
        used_tracks: set[int] = set()
        for _, j, _, track in sorted(candidates):
            if j in resumed or track in used_tracks:
                continue
            resumed[j] = track
            used_tracks.add(track)

        for j in unmatched:
            ref = nxt_refs[j]
            track = resumed.get(j)
            if track is None:
                nxt_tracks[j] = next_track
                events.append(EvolutionEvent(
                    EventKind.FORM, u, next_track, (), (ref,), None, nxt_sizes[j]
                ))
                next_track += 1
                continue
            old_ref, old_members = pending.pop(track)
            for member in old_members:
                held = waiting[member]
                held.discard(track)
                if not held:
                    del waiting[member]
            nxt_tracks[j] = track
            old = (old_ref,)
            old_size = len(old_members)
            events.append(EvolutionEvent(
                EventKind.SUSPEND, old_ref.frame, track, old, (), old_size, None
            ))
            events.append(EvolutionEvent(
                EventKind.REEMERGE, u, track, old, (ref,), old_size, nxt_sizes[j]
            ))

        # Size/identity events of the transition itself.
        for j, ps in enumerate(preds):
            if not ps:
                continue
            size = nxt_sizes[j]
            if len(ps) >= 2:
                events.append(EvolutionEvent(
                    EventKind.MERGE, u, nxt_tracks[j],
                    tuple(prev_refs[i] for i in ps), (nxt_refs[j],),
                    sum(prev_sizes[i] for i in ps), size,
                ))
                continue
            i = ps[0]
            if len(succs[i]) != 1:
                continue  # recorded as the predecessor's Split below
            before = prev_sizes[i]
            kind = EventKind.CONTINUE
            if size > before:
                kind = EventKind.GROW
            elif size < before:
                kind = EventKind.SHRINK
            events.append(EvolutionEvent(
                kind, u, nxt_tracks[j], (prev_refs[i],), (nxt_refs[j],), before, size
            ))
        for i, js in enumerate(succs):
            if len(js) >= 2:
                events.append(EvolutionEvent(
                    EventKind.SPLIT, u, prev_tracks[i],
                    (prev_refs[i],), tuple(nxt_refs[j] for j in js),
                    prev_sizes[i], sum(nxt_sizes[j] for j in js),
                ))
        ended = _members(prev, [i for i, js in enumerate(succs) if not js])
        for i, members in ended.items():
            track = prev_tracks[i]
            pending[track] = (prev_refs[i], members)
            for member in members:
                held = waiting.get(member)
                if held is None:
                    waiting[member] = {track}
                else:
                    held.add(track)

        track_of.update(zip(nxt_refs, nxt_tracks))
        prev, prev_sizes, prev_refs, prev_tracks = nxt, nxt_sizes, nxt_refs, nxt_tracks

    # Tracks that broke off and never came back dissolved at their last
    # frame.  Only frames before the last suspend, so none is in the last.
    for track, (ref, members) in sorted(pending.items()):
        events.append(EvolutionEvent(
            EventKind.DISSOLVE, ref.frame, track, (ref,), (), len(members), None
        ))

    events.sort(
        key=lambda e: (e.frame, _KIND_ORDER[e.kind], e.successors, e.predecessors)
    )
    return Timeline(events, track_of)


def _reemergence_candidates(
    groups: Mapping[int, Collection[str]],
    pending: Mapping[int, tuple[CommunityRef, Collection[str]]],
    waiting: Mapping[str, Collection[int]],
    alpha: float,
    beta: float,
) -> list[tuple[int, int, int, int]]:
    """Pending tracks that an unmatched community may resume.

    ``groups`` maps each unmatched community's id to its members.  A track
    qualifies when its last occurrence passes the inclusion test against
    the community.  Each candidate is ``(-shared, j, -last frame, track)``;
    their order is left to the caller.  Only tracks sharing a member with
    community j can pass, and ``waiting`` (member -> pending tracks holding
    it) yields exactly those, with the shared member count, without
    scanning every pending track.
    """
    candidates = []
    for j, group in groups.items():
        shared_with: dict[int, int] = {}
        for member in group:
            for track in waiting.get(member, ()):
                shared_with[track] = shared_with.get(track, 0) + 1
        for track, shared in shared_with.items():
            old_ref, old_members = pending[track]
            if shared / len(old_members) >= alpha or shared / len(group) >= beta:
                candidates.append((-shared, j, -old_ref.frame, track))
    return candidates


def timeline_from_partitions(partitions) -> list[dict[str, int]]:
    """Adapter: per-frame detection results -> classify() input, each
    partition's own assignment."""
    return [part.assignment for part in partitions]


def event_shares(
    events_by_group: Mapping[str, Sequence[EvolutionEvent]],
) -> dict[str, dict]:
    """Percentage of each event kind (and V/S/none class), keyed by group.

    Groups without events are omitted; within a row the nine kind shares sum
    to 100, as do the three attribute shares.
    """
    rows = {}
    for group in sorted(events_by_group):
        events = events_by_group[group]
        total = len(events)
        if total == 0:
            continue
        row: dict = {"events": total}
        by_attr = {"V": 0, "S": 0, "-": 0}
        counts = Counter(e.kind for e in events)
        for kind in EventKind:
            row[kind.value] = 100.0 * counts[kind] / total
            by_attr[ATTRIBUTE[kind]] += counts[kind]
        row["V_share"] = 100.0 * by_attr["V"] / total
        row["S_share"] = 100.0 * by_attr["S"] / total
        row["none_share"] = 100.0 * by_attr["-"] / total
        rows[group] = row
    return rows


EVENT_COLUMNS = [
    "frame",
    "kind",
    "attribute",
    "track_id",
    "predecessors",
    "successors",
    "size_before",
    "size_after",
]


def _refs_field(refs: Sequence[CommunityRef]) -> str:
    if len(refs) == 1:  # most events have one community on a side
        frame, community = refs[0]
        return f"{frame}:{community}"
    return ";".join([f"{frame}:{community}" for frame, community in refs])


def write_event_csv(path, events: Iterable[EvolutionEvent]) -> None:
    """Dump events: frame,kind,attribute,track_id,predecessors,successors,sizes.

    The bytes are those of one ``csv.writer`` row per event: no field
    needs quoting, and an absent size is an empty field.  Each frame's rows
    are joined into one write.
    """
    kinds = {kind: f"{kind.value},{ATTRIBUTE[kind]}" for kind in EventKind}
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(EVENT_COLUMNS)
        for _frame, rows in groupby(events, key=attrgetter("frame")):
            handle.write("".join(
                f"{frame},{kinds[kind]},{track},{_refs_field(preds)},"
                f"{_refs_field(succs)},{'' if before is None else before},"
                f"{'' if after is None else after}\r\n"
                for kind, frame, track, preds, succs, before, after in rows
            ))


def read_event_csv(path) -> list[EvolutionEvent]:
    """Rebuild events from a :func:`write_event_csv` dump."""
    events = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != EVENT_COLUMNS:
            raise ValueError(f"unexpected header {header!r} in {path}")
        for row in reader:
            frame, kind, _attr, track, preds, succs, before, after = row
            events.append(
                EvolutionEvent(
                    kind=EventKind(kind),
                    frame=int(frame),
                    track_id=int(track),
                    predecessors=tuple(
                        CommunityRef.parse(r) for r in preds.split(";") if r
                    ),
                    successors=tuple(
                        CommunityRef.parse(r) for r in succs.split(";") if r
                    ),
                    size_before=int(before) if before else None,
                    size_after=int(after) if after else None,
                )
            )
    return events
