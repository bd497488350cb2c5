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


def _as_sets(
    communities: Sequence[Collection[str]], label: str
) -> tuple[list[frozenset[str]], dict[str, int]]:
    """The communities as frozensets, and each member's community index."""
    out = []
    seen: dict[str, int] = {}
    for idx, members in enumerate(communities):
        group = frozenset(members)
        if not group:
            raise ValueError(f"{label}: community {idx} is empty")
        for member in group:
            if member in seen:
                raise ValueError(
                    f"{label}: member {member!r} appears in communities "
                    f"{seen[member]} and {idx}"
                )
            seen[member] = idx
        out.append(group)
    return out, seen


def _match(
    prev_sets: Sequence[frozenset[str]],
    prev_sizes: Sequence[int],
    member_to_next: Mapping[str, int],
    nxt_sizes: Sequence[int],
    alpha: float,
    beta: float,
) -> tuple[list[list[int]], list[list[int]], dict[tuple[int, int], int]]:
    """Match communities of one frame to the next by fractional inclusion.

    P matches N when |P & N| / |P| >= alpha or |P & N| / |N| >= beta.  The
    next frame is given by each member's community index and each
    community's size.  Returns ``(succs, preds, overlap)``: ``succs[i]``
    lists the matched successor ids of predecessor i, ``preds[j]`` the
    matched predecessor ids of successor j, both ascending, and
    ``overlap[(i, j)]`` the shared member count of every matched pair.  A
    community may match several on the other side; the caller interprets
    the multiplicity.
    """
    succs: list[list[int]] = [[] for _ in prev_sets]
    preds: list[list[int]] = [[] for _ in nxt_sizes]
    overlap: dict[tuple[int, int], int] = {}
    for i, group in enumerate(prev_sets):
        size = prev_sizes[i]
        tally: dict[int, int] = {}
        for member in group:
            j = member_to_next.get(member)
            if j is not None:
                tally[j] = tally.get(j, 0) + 1
        for j in sorted(tally):
            shared = tally[j]
            if shared / size >= alpha or shared / nxt_sizes[j] >= beta:
                succs[i].append(j)
                preds[j].append(i)
                overlap[i, j] = shared
    return succs, preds, overlap


@dataclass
class Timeline:
    """Full evolution history of one sub-network.

    ``track_of`` maps each occurrence to its track id; occurrences sharing a
    track are one community identity over time.  ``events`` is sorted by
    frame, then kind.
    """

    events: list[EvolutionEvent]
    track_of: dict[CommunityRef, int]


def classify(
    communities_by_frame: Sequence[Sequence[Collection[str]]],
    alpha: float = 0.5,
    beta: float = 0.5,
    continue_jaccard: float = 0.5,
) -> Timeline:
    """Classify every transition of a community sequence into events.

    Args:
        communities_by_frame: for each frame, the list of member sets
            (index in the list is the community id within the frame).
        alpha, beta: inclusion thresholds of the matcher, each in (0, 1].
        continue_jaccard: an exclusive one-to-one match of unchanged size
            whose Jaccard similarity falls below this is not a Continue;
            the pair is treated as unmatched (the old community ends, the
            new one forms).  It must lie in (0, 1].

    Event frame conventions: transition events (Continue/Grow/Shrink/
    Split/Merge) are stamped with the successor frame; Form/ReEmerge with
    the frame of appearance; Suspend/Dissolve with the last frame the
    community was present.  Occurrences in the final frame carry no
    exit-side event (their future is unobserved).  Every event's
    ``size_before`` and ``size_after`` are the summed member counts of its
    predecessors and successors, or None when it has none.

    Each occurrence's size, reference and track live in per-frame lists
    indexed by community id, built as the frame is reached.
    """
    if not 0 < alpha <= 1 or not 0 < beta <= 1:
        raise ValueError(f"alpha and beta must lie in (0, 1], got {alpha}, {beta}")
    if not 0 < continue_jaccard <= 1:
        raise ValueError(f"continue_jaccard must lie in (0, 1], got {continue_jaccard}")
    frames: list[list[frozenset[str]]] = []
    sizes: list[list[int]] = []
    refs: list[list[CommunityRef]] = []
    tracks: list[list[int]] = []
    events: list[EvolutionEvent] = []
    pending: dict[int, CommunityRef] = {}  # track -> occurrence awaiting its fate
    waiting: dict[str, set[int]] = {}  # member -> pending tracks holding it
    next_track = 0

    # Frame 0 follows an empty frame, so every community of it forms.
    for u, frame_comms in enumerate(communities_by_frame):
        t = u - 1
        nxt, member_to_next = _as_sets(frame_comms, f"frame {u}")
        frames.append(nxt)
        sizes.append([len(group) for group in nxt])
        refs.append([CommunityRef(u, j) for j in range(len(nxt))])
        tracks.append([-1] * len(nxt))
        prev = frames[t] if t >= 0 else []
        prev_sizes, nxt_sizes = sizes[t] if t >= 0 else [], sizes[u]
        prev_tracks, nxt_tracks = tracks[t], tracks[u]
        prev_refs, nxt_refs = refs[t], refs[u]
        succs, preds, overlap = _match(
            prev, prev_sizes, member_to_next, nxt_sizes, alpha, beta
        )

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
        candidates = _reemergence_candidates(
            frames, u, unmatched, pending, waiting, alpha, beta
        )
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
            old_ref = pending.pop(track)
            for member in frames[old_ref.frame][old_ref.community]:
                waiting[member].discard(track)
            nxt_tracks[j] = track
            old = (old_ref,)
            old_size = sizes[old_ref.frame][old_ref.community]
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
            ref = prev_refs[i]
            if len(js) >= 2:
                events.append(EvolutionEvent(
                    EventKind.SPLIT, u, prev_tracks[i],
                    (ref,), tuple(nxt_refs[j] for j in js),
                    prev_sizes[i], sum(nxt_sizes[j] for j in js),
                ))
            elif not js:
                track = prev_tracks[i]
                pending[track] = ref
                for member in prev[i]:
                    held = waiting.get(member)
                    if held is None:
                        waiting[member] = {track}
                    else:
                        held.add(track)

    # Tracks that broke off and never came back dissolved at their last
    # frame.  Only frames before the last suspend, so none is in the last.
    for track, ref in sorted(pending.items()):
        events.append(EvolutionEvent(
            EventKind.DISSOLVE, ref.frame, track, (ref,), (),
            sizes[ref.frame][ref.community], None,
        ))

    events.sort(
        key=lambda e: (e.frame, _KIND_ORDER[e.kind], e.successors, e.predecessors)
    )
    track_of = {
        ref: track
        for frame_refs, frame_tracks in zip(refs, tracks)
        for ref, track in zip(frame_refs, frame_tracks)
    }
    return Timeline(events, track_of)


def _reemergence_candidates(
    frames: Sequence[Sequence[frozenset[str]]],
    t: int,
    unmatched: Sequence[int],
    pending: Mapping[int, CommunityRef],
    waiting: Mapping[str, Collection[int]],
    alpha: float,
    beta: float,
) -> list[tuple[int, int, int, int]]:
    """Pending tracks that an unmatched community of frame ``t`` may resume.

    A track qualifies when its last occurrence passes the inclusion test
    against the community.  That occurrence always lies at least two frames
    back: :func:`classify` suspends frame t-1's unmatched communities only
    after it has taken frame t's candidates.  Each candidate is
    ``(-shared, j, -last frame, track)``; their order is left to the caller.
    Only tracks sharing a member with community j can pass, and ``waiting``
    (member -> pending tracks holding it) yields exactly those, with the
    shared member count, without scanning every pending track.
    """
    candidates = []
    for j in unmatched:
        group = frames[t][j]
        shared_with: dict[int, int] = {}
        for member in group:
            for track in waiting.get(member, ()):
                shared_with[track] = shared_with.get(track, 0) + 1
        for track, shared in shared_with.items():
            old_ref = pending[track]
            old_size = len(frames[old_ref.frame][old_ref.community])
            if shared / old_size >= alpha or shared / len(group) >= beta:
                candidates.append((-shared, j, -old_ref.frame, track))
    return candidates


def timeline_from_partitions(partitions) -> list[list[frozenset[str]]]:
    """Adapter: per-frame detection results -> classify() input."""
    return [part.communities() for part in partitions]


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
