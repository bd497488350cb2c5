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
from dataclasses import dataclass
from enum import Enum
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


@dataclass(frozen=True)
class EvolutionEvent:
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


@dataclass
class MatchResult:
    """Bipartite inclusion matches between two consecutive frames.

    ``succs[i]`` lists matched successor ids of predecessor i, ``preds[j]``
    the matched predecessor ids of successor j, and ``overlap[(i, j)]`` the
    shared member count of every matched pair.
    """

    succs: dict[int, list[int]]
    preds: dict[int, list[int]]
    overlap: dict[tuple[int, int], int]


def _as_sets(communities: Sequence[Collection[str]], label: str) -> list[frozenset[str]]:
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
    return out


def match(
    prev: Sequence[Collection[str]],
    nxt: Sequence[Collection[str]],
    alpha: float = 0.5,
    beta: float = 0.5,
) -> MatchResult:
    """Match communities of one frame to the next by fractional inclusion.

    P matches N when |P & N| / |P| >= alpha or |P & N| / |N| >= beta.  Both
    thresholds must lie in (0, 1].  A community may match several on the
    other side; the caller interprets the multiplicity.
    """
    _check_thresholds(alpha, beta)
    prev_sets = _as_sets(prev, "predecessor frame")
    return _match(prev_sets, _as_sets(nxt, "successor frame"), alpha, beta)


def _check_thresholds(alpha: float, beta: float) -> None:
    if not 0 < alpha <= 1 or not 0 < beta <= 1:
        raise ValueError(f"alpha and beta must lie in (0, 1], got {alpha}, {beta}")


def _match(
    prev_sets: Sequence[frozenset[str]],
    nxt_sets: Sequence[frozenset[str]],
    alpha: float,
    beta: float,
) -> MatchResult:
    """:func:`match` on member sets :func:`_as_sets` has already checked."""
    member_to_next: dict[str, int] = {}
    for j, group in enumerate(nxt_sets):
        for member in group:
            member_to_next[member] = j
    succs: dict[int, list[int]] = {i: [] for i in range(len(prev_sets))}
    preds: dict[int, list[int]] = {j: [] for j in range(len(nxt_sets))}
    overlap: dict[tuple[int, int], int] = {}
    for i, group in enumerate(prev_sets):
        tally: dict[int, int] = {}
        for member in group:
            j = member_to_next.get(member)
            if j is not None:
                tally[j] = tally.get(j, 0) + 1
        for j in sorted(tally):
            shared = tally[j]
            if shared / len(group) >= alpha or shared / len(nxt_sets[j]) >= beta:
                succs[i].append(j)
                preds[j].append(i)
                overlap[(i, j)] = shared
    return MatchResult(succs=succs, preds=preds, overlap=overlap)


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
        alpha, beta: inclusion thresholds of the matcher.
        continue_jaccard: an exclusive one-to-one match of unchanged size
            whose Jaccard similarity falls below this is not a Continue;
            the pair is treated as unmatched (the old community ends, the
            new one forms).

    Event frame conventions: transition events (Continue/Grow/Shrink/
    Split/Merge) are stamped with the successor frame; Form/ReEmerge with
    the frame of appearance; Suspend/Dissolve with the last frame the
    community was present.  Occurrences in the final frame carry no
    exit-side event (their future is unobserved).
    """
    frames = [
        _as_sets(frame_comms, f"frame {t}")
        for t, frame_comms in enumerate(communities_by_frame)
    ]
    last = len(frames) - 1
    events: list[EvolutionEvent] = []
    track_of: dict[CommunityRef, int] = {}
    pending: dict[int, CommunityRef] = {}  # track -> occurrence awaiting its fate
    waiting: dict[str, set[int]] = {}  # member -> pending tracks holding it
    next_track = 0

    def start_track(ref: CommunityRef) -> int:
        nonlocal next_track
        track = next_track
        next_track += 1
        track_of[ref] = track
        return track

    def suspend(track: int, ref: CommunityRef) -> None:
        pending[track] = ref
        for member in frames[ref.frame][ref.community]:
            waiting.setdefault(member, set()).add(track)

    def resume(track: int) -> CommunityRef:
        ref = pending.pop(track)
        for member in frames[ref.frame][ref.community]:
            waiting[member].discard(track)
        return ref

    if frames:
        for j, group in enumerate(frames[0]):
            ref = CommunityRef(0, j)
            track = start_track(ref)
            events.append(
                EvolutionEvent(
                    EventKind.FORM, 0, track, (), (ref,), None, len(group)
                )
            )

    if len(frames) > 1:
        _check_thresholds(alpha, beta)
    for t in range(len(frames) - 1):
        prev, nxt = frames[t], frames[t + 1]
        result = _match(prev, nxt, alpha, beta)
        succs, preds, overlap = result.succs, result.preds, result.overlap

        # An exclusive one-to-one match of unchanged size that kept too few
        # members is no continuation; drop the match entirely.
        for i in range(len(prev)):
            if len(succs[i]) != 1:
                continue
            j = succs[i][0]
            if preds[j] != [i] or len(prev[i]) != len(nxt[j]):
                continue
            shared = overlap[(i, j)]
            union = len(prev[i]) + len(nxt[j]) - shared
            if shared / union < continue_jaccard:
                succs[i] = []
                preds[j] = []
                del overlap[(i, j)]

        # Thread tracks along mutual best-overlap matches.
        best_succ = {
            i: min(js, key=lambda j: (-overlap[(i, j)], j))
            for i, js in succs.items()
            if js
        }
        best_pred = {
            j: min(is_, key=lambda i: (-overlap[(i, j)], i))
            for j, is_ in preds.items()
            if is_
        }
        for j in range(len(nxt)):
            ref = CommunityRef(t + 1, j)
            i = best_pred.get(j)
            if i is not None and best_succ.get(i) == j:
                track_of[ref] = track_of[CommunityRef(t, i)]
            elif preds[j]:
                # matched, but another successor carries the old identity on
                start_track(ref)

        # Re-emergence test for unmatched successors against suspended tracks.
        unmatched = [j for j in range(len(nxt)) if not preds[j]]
        candidates = _reemergence_candidates(
            frames, t + 1, unmatched, pending, waiting, alpha, beta
        )
        resumed: dict[int, int] = {}  # successor j -> track
        used_tracks: set[int] = set()
        for neg_shared, j, neg_frame, track in sorted(candidates):
            if j in resumed or track in used_tracks:
                continue
            resumed[j] = track
            used_tracks.add(track)

        for j in unmatched:
            ref = CommunityRef(t + 1, j)
            if j in resumed:
                track = resumed[j]
                old_ref = resume(track)
                track_of[ref] = track
                events.append(
                    EvolutionEvent(
                        EventKind.SUSPEND,
                        old_ref.frame,
                        track,
                        (old_ref,),
                        (),
                        len(frames[old_ref.frame][old_ref.community]),
                        None,
                    )
                )
                events.append(
                    EvolutionEvent(
                        EventKind.REEMERGE,
                        t + 1,
                        track,
                        (old_ref,),
                        (ref,),
                        len(frames[old_ref.frame][old_ref.community]),
                        len(nxt[j]),
                    )
                )
            else:
                track = start_track(ref)
                events.append(
                    EvolutionEvent(
                        EventKind.FORM, t + 1, track, (), (ref,), None, len(nxt[j])
                    )
                )

        # Size/identity events of the transition itself.
        for j in range(len(nxt)):
            ps = preds[j]
            ref = CommunityRef(t + 1, j)
            if len(ps) >= 2:
                refs = tuple(CommunityRef(t, i) for i in ps)
                events.append(
                    EvolutionEvent(
                        EventKind.MERGE,
                        t + 1,
                        track_of[ref],
                        refs,
                        (ref,),
                        sum(len(prev[i]) for i in ps),
                        len(nxt[j]),
                    )
                )
            elif len(ps) == 1:
                i = ps[0]
                if len(succs[i]) != 1:
                    continue  # recorded as the predecessor's Split below
                kind = EventKind.CONTINUE
                if len(nxt[j]) > len(prev[i]):
                    kind = EventKind.GROW
                elif len(nxt[j]) < len(prev[i]):
                    kind = EventKind.SHRINK
                events.append(
                    EvolutionEvent(
                        kind,
                        t + 1,
                        track_of[ref],
                        (CommunityRef(t, i),),
                        (ref,),
                        len(prev[i]),
                        len(nxt[j]),
                    )
                )
        for i in range(len(prev)):
            ref = CommunityRef(t, i)
            if len(succs[i]) >= 2:
                refs = tuple(CommunityRef(t + 1, j) for j in succs[i])
                events.append(
                    EvolutionEvent(
                        EventKind.SPLIT,
                        t + 1,
                        track_of[ref],
                        (ref,),
                        refs,
                        len(prev[i]),
                        sum(len(nxt[j]) for j in succs[i]),
                    )
                )
            elif not succs[i]:
                suspend(track_of[ref], ref)

    # Tracks that broke off and never came back dissolved at their last frame.
    for track, ref in sorted(pending.items()):
        if ref.frame < last:
            events.append(
                EvolutionEvent(
                    EventKind.DISSOLVE,
                    ref.frame,
                    track,
                    (ref,),
                    (),
                    len(frames[ref.frame][ref.community]),
                    None,
                )
            )

    events.sort(
        key=lambda e: (e.frame, _KIND_ORDER[e.kind], e.successors, e.predecessors)
    )
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

    A track qualifies when its last occurrence lies at least two frames back
    and passes the inclusion test against the community.  Each candidate is
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
            if t - old_ref.frame < 2:
                continue
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
        for kind in EventKind:
            count = sum(1 for e in events if e.kind is kind)
            row[kind.value] = 100.0 * count / total
            by_attr[ATTRIBUTE[kind]] += count
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


def write_event_csv(path, events: Iterable[EvolutionEvent]) -> None:
    """Dump events: frame,kind,attribute,track_id,predecessors,successors,sizes."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(EVENT_COLUMNS)
        for event in events:
            writer.writerow(
                [
                    event.frame,
                    event.kind.value,
                    event.attribute,
                    event.track_id,
                    ";".join(str(r) for r in event.predecessors),
                    ";".join(str(r) for r in event.successors),
                    "" if event.size_before is None else event.size_before,
                    "" if event.size_after is None else event.size_after,
                ]
            )


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
