import io
import json
import random
from datetime import datetime, timedelta, timezone

import pytest

from twotier.ingest import (
    ActivityType,
    FrameSpec,
    LogParseError,
    TeamRecord,
    add_months,
    build_frames,
    expand_teams,
    infer_format,
    load_log,
    parse_log,
    parse_timestamp,
    spec_for_records,
    team_participations,
    typed_network,
)

UTC = timezone.utc


def _team(team_id, members, ts="2021-03-05T10:00:00Z", kind="B"):
    return TeamRecord(
        team_id=team_id,
        activity_id="act1",
        activity_type=kind,
        timestamp=parse_timestamp(ts),
        members=tuple(members),
    )


# --- timestamps -----------------------------------------------------------

def test_parse_timestamp_accepts_zulu_and_offset():
    a = parse_timestamp("2021-06-01T12:00:00Z")
    b = parse_timestamp("2021-06-01T12:00:00+00:00")
    assert a == b
    assert a.tzinfo is not None


def test_parse_timestamp_naive_becomes_utc():
    t = parse_timestamp("2021-06-01T12:00:00")
    assert t.utcoffset() == timedelta(0)


def test_parse_timestamp_rejects_garbage():
    with pytest.raises(ValueError):
        parse_timestamp("last tuesday")


def test_add_months_clamps_day():
    t = datetime(2021, 1, 31, tzinfo=UTC)
    assert add_months(t, 1) == datetime(2021, 2, 28, tzinfo=UTC)
    assert add_months(datetime(2020, 1, 31, tzinfo=UTC), 1) == datetime(2020, 2, 29, tzinfo=UTC)
    assert add_months(t, 13) == datetime(2022, 2, 28, tzinfo=UTC)


# --- records --------------------------------------------------------------

def test_team_record_sorts_members_and_rejects_duplicates():
    r = _team("t1", ["c", "a", "b"])
    assert r.members == ("a", "b", "c")
    with pytest.raises(ValueError):
        _team("t2", ["a", "a", "b"])
    with pytest.raises(ValueError):
        _team("t3", [])


def test_expand_teams_makes_all_pairs():
    links = expand_teams([_team("t1", ["a", "b", "c", "d"])])
    assert len(links) == 6  # C(4, 2)
    pairs = {(a, b) for a, b, _ in links}
    assert ("a", "d") in pairs and ("c", "d") in pairs
    # members listed out of order still give canonical pairs, and every
    # triple carries the input record itself
    team = _team("t2", ["z", "b", "m"])
    links = expand_teams([team])
    assert [(a, b) for a, b, _ in links] == [("b", "m"), ("b", "z"), ("m", "z")]
    assert all(a < b and record is team for a, b, record in links)


def test_team_participations_counts_by_type():
    parts = team_participations([_team("t1", ["a", "b"], kind="A"),
                                 _team("t2", ["a", "b"], kind="B")])
    mine = [team for member, team in parts if member == "a"]
    assert len(mine) == 2
    assert {team.activity_type for team in mine} == {ActivityType.A, ActivityType.B}


# --- log parsing ----------------------------------------------------------

CSV_OK = """team_id,activity_id,activity_type,timestamp,members
t1,act9,A,2021-01-04T09:00:00Z,ann;bob
t2,act3,B,2021-01-20T10:30:00Z,bob;cat;dan
"""


def test_parse_log_csv(tmp_path):
    records = parse_log(io.StringIO(CSV_OK), format="csv")
    assert len(records) == 2
    assert records[0].members == ("ann", "bob")
    assert records[1].activity_type is ActivityType.B
    # spreadsheet exports start with a UTF-8 byte-order mark
    path = tmp_path / "bom.csv"
    path.write_text("\ufeff" + CSV_OK, encoding="utf-8")
    assert load_log(path) == records


def test_parse_log_csv_reports_line_numbers():
    bad = CSV_OK + "t3,act1,C,2021-01-21T00:00:00Z,eve;fay\n"
    with pytest.raises(LogParseError) as err:
        parse_log(io.StringIO(bad), format="csv")
    assert err.value.line == 4
    # a field over the csv module's 131,072-character limit names its line
    huge = CSV_OK.splitlines()[0] + "\nt1,act9,A,2021-01-04T09:00:00Z,ann;" + "b" * 200_000
    with pytest.raises(LogParseError) as err:
        parse_log(io.StringIO(huge + "\n"), format="csv")
    assert err.value.line == 2
    assert str(err.value) == "line 2: field larger than field limit (131072)"
    # and in the header too
    with pytest.raises(LogParseError) as err:
        parse_log(io.StringIO("x" * 200_000 + "\n" + CSV_OK), format="csv")
    assert err.value.line == 1
    # a quoted field holding a newline spans two physical lines, and later
    # errors name the physical line
    spanning = CSV_OK.replace("act3", '"act\n3"')
    assert [r.activity_id for r in parse_log(io.StringIO(spanning), format="csv")] == [
        "act9", "act\n3"]
    with pytest.raises(LogParseError) as err:
        parse_log(io.StringIO(spanning + "t3,act1,C,2021-01-21T00:00:00Z,eve;fay\n"),
                  format="csv")
    assert err.value.line == 5
    with pytest.raises(LogParseError) as err:
        parse_log(io.StringIO(spanning + "t3,act1\n"), format="csv")
    assert err.value.line == 5


def test_parse_log_jsonl(tmp_path):
    text = (
        '{"team_id": "t1", "activity_id": "a", "activity_type": "A", '
        '"timestamp": "2021-01-04T09:00:00Z", "members": ["x", "y"]}\n'
    )
    records = parse_log(io.StringIO(text), format="jsonl")
    assert records[0].members == ("x", "y")
    path = tmp_path / "bom.jsonl"
    path.write_text("\ufeff" + text, encoding="utf-8")
    assert load_log(path) == records


def test_infer_format_ignores_suffix_case():
    for name in ("log.jsonl", "LOG.JSONL", "log.NDJSON", "log.Json", "dir.csv/log.jsonl"):
        assert infer_format(name) == "jsonl"
    for name in ("log.csv", "LOG.CSV", "log.txt", "log", "log.jsonl.csv"):
        assert infer_format(name) == "csv"


def test_parse_log_shares_one_string_per_member_name():
    # members in several teams, and names that sort apart or differ only in
    # case or script; " m1 " strips to "m1"
    teams = [
        ("t1", "A", ["m9", "m10", "M1"]),
        ("t2", "B", ["m1", "m10", "é2"]),
        ("t3", "A", ["é2", "m9", " m1 ", "M1"]),
    ]
    stamp = "2021-01-04T09:00:00Z"
    csv_text = "team_id,activity_id,activity_type,timestamp,members\n" + "".join(
        f"{team},act1,{kind},{stamp},{';'.join(members)}\n" for team, kind, members in teams
    )
    jsonl_text = "".join(
        json.dumps({"team_id": team, "activity_id": "act1", "activity_type": kind,
                    "timestamp": stamp, "members": members}) + "\n"
        for team, kind, members in teams
    )
    # each member name built afresh, so no string is shared between records
    expected = [
        TeamRecord(team, "act1", kind, parse_timestamp(stamp),
                   tuple("".join(list(m.strip())) for m in members))
        for team, kind, members in teams
    ]
    for text, fmt in ((csv_text, "csv"), (jsonl_text, "jsonl")):
        records = parse_log(io.StringIO(text), format=fmt)
        assert records == expected
        names = [m for record in records for m in record.members]
        one = {}
        assert all(one.setdefault(m, m) is m for m in names)
        assert sorted(one) == ["M1", "m1", "m10", "m9", "é2"]
        assert len({id(m) for m in names}) == 5


def test_parse_log_jsonl_bad_members():
    head = '{"team_id": "t1", "activity_id": "a", "activity_type": "A", ' \
           '"timestamp": "2021-01-04T09:00:00Z"'
    for text in (head + ', "members": "xy"}\n', head + "}\n"):
        with pytest.raises(LogParseError) as err:
            parse_log(io.StringIO(text), format="jsonl")
        assert err.value.line == 1
        assert err.value.field == "members"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("team_id", 7, "expected a string, got 7"),
        ("timestamp", 1609459200, "expected a string, got 1609459200"),
        ("members", "x;y", "expected a list of strings, got 'x;y'"),
        ("members", ["x", 5], "expected a string, got 5"),
    ],
)
def test_parse_log_jsonl_names_a_value_of_the_wrong_type(field, value, message):
    row = {"team_id": "t1", "activity_id": "a", "activity_type": "A",
           "timestamp": "2021-01-04T09:00:00Z", "members": ["x", "y"], field: value}
    with pytest.raises(LogParseError) as err:
        parse_log(io.StringIO(json.dumps(row) + "\n"), format="jsonl")
    assert str(err.value) == f"line 1: {message} (field {field!r})"
    # an absent or blank value still reads as missing
    for blank in (None, "", " ", []):
        row[field] = blank
        with pytest.raises(LogParseError, match="missing or empty") as err:
            parse_log(io.StringIO(json.dumps(row) + "\n"), format="jsonl")
        assert err.value.field == field


def test_parse_log_jsonl_rejects_deep_nesting():
    # nesting past the decoder's recursion limit is a parse error naming the line
    text = "\n" + "[" * 200000 + "]" * 200000 + "\n"
    with pytest.raises(LogParseError) as err:
        parse_log(io.StringIO(text), format="jsonl")
    assert err.value.line == 2


def _jsonl_row(**fields):
    row = {"team_id": "t1", "activity_id": "a", "activity_type": "A",
           "timestamp": "2021-01-04T09:00:00Z", "members": ["x", "y"], **fields}
    return json.dumps(row) + "\n"


@pytest.mark.parametrize(
    "text, fmt, field, shown",
    [
        # a value of the wrong type
        (_jsonl_row(team_id=["m"] * 10**5), "jsonl", "team_id", "['m', 'm', 'm', ...]"),
        # an activity type that is neither A nor B
        (_jsonl_row(activity_type="C" * 10**6), "jsonl", "activity_type", "'CCC"),
        # a timestamp the parser rejects
        (_jsonl_row(timestamp="x" * 10**5), "jsonl", "timestamp", "'xxx"),
        # the team id in the record's own checks
        (_jsonl_row(team_id="t" * 10**5, members=["x", "x"]), "jsonl", "members", "'ttt"),
        # the CSV header
        ("h" * 10**5 + "\n", "csv", None, "'hhh"),
    ],
)
def test_parse_errors_show_a_long_value_cut_short(text, fmt, field, shown):
    with pytest.raises(LogParseError) as err:
        parse_log(io.StringIO(text), format=fmt)
    message = str(err.value)
    assert len(message) < 300
    assert shown in message and "..." in message
    assert err.value.field == field
    if field is not None:
        assert message.endswith(f"(field {field!r})")
    else:
        assert "expected header 'team_id,activity_id," in message


def test_parse_log_jsonl_names_the_line_of_a_huge_number():
    # past the interpreter's integer digit limit the decoder itself fails;
    # without the limit the number is the wrong type; both name the line
    text = _jsonl_row() + '{"team_id": ' + "1" * 5000 + "}\n"
    with pytest.raises(LogParseError) as err:
        parse_log(io.StringIO(text), format="jsonl")
    assert err.value.line == 2
    assert len(str(err.value)) < 300


def test_parse_errors_show_a_short_value_whole():
    # a short timestamp keeps the parser's own message
    for stamp in ("2021-01-04T09:00:00Zx", "2021-13-01T00:00:00Z"):
        with pytest.raises(ValueError) as parsed:
            parse_timestamp(stamp)
        with pytest.raises(LogParseError) as err:
            parse_log(io.StringIO(_jsonl_row(timestamp=stamp)), "jsonl")
        assert str(err.value) == f"line 1: {parsed.value} (field 'timestamp')"
    with pytest.raises(LogParseError) as err:
        parse_log(io.StringIO(_jsonl_row(team_id="t7", members=["x", "x"])), "jsonl")
    assert str(err.value) == "line 1: team 't7' lists a member twice (field 'members')"
    with pytest.raises(LogParseError) as err:
        parse_log(io.StringIO("team_id,activity_id\n"), "csv")
    assert str(err.value) == (
        "line 1: expected header 'team_id,activity_id,activity_type,timestamp,members', "
        "got 'team_id,activity_id'"
    )


# --- frame spec -----------------------------------------------------------

def test_frame_spec_rejects_non_positive_window():
    start = parse_timestamp("2021-01-01T00:00:00Z")
    end = parse_timestamp("2022-01-01T00:00:00Z")
    for window in (0, -1, timedelta(0), timedelta(days=-1)):
        with pytest.raises(ValueError, match="window must be positive"):
            FrameSpec(start, end, window)


def test_frame_spec_last_frame_absorbs_remainder():
    # 73 months at a 3-month window: 24 frames, the last one a month longer.
    start = parse_timestamp("2015-05-01T00:00:00Z")
    end = add_months(start, 73)
    spec = FrameSpec(start, end, 3)
    assert spec.frame_count == 24
    bounds = spec.boundaries()
    assert bounds[0][0] == start
    assert bounds[-1][1] == end
    assert bounds[-1][1] - bounds[-1][0] > bounds[0][1] - bounds[0][0]
    # frames tile the span without gaps
    for (a, b), (c, d) in zip(bounds, bounds[1:]):
        assert b == c


def test_frame_of_boundaries():
    start = parse_timestamp("2021-01-01T00:00:00Z")
    spec = FrameSpec(start, add_months(start, 4), 2)
    assert spec.frame_count == 2
    assert spec.frame_of(start) == 0
    assert spec.frame_of(add_months(start, 2)) == 1  # boundary opens next frame
    assert spec.frame_of(add_months(start, 4) - timedelta(seconds=1)) == 1
    with pytest.raises(ValueError):
        spec.frame_of(start - timedelta(seconds=1))
    with pytest.raises(ValueError):
        spec.frame_of(add_months(start, 4))


def test_month_windows_count_from_the_span_start():
    # the day clamped at February's end does not carry into later frames
    start = parse_timestamp("2021-01-31T00:00:00Z")
    spec = FrameSpec(start, add_months(start, 4), 1)
    assert [s for s, _e in spec.boundaries()] == [
        parse_timestamp(f"2021-{day}T00:00:00Z")
        for day in ("01-31", "02-28", "03-31", "04-30")
    ]


def test_timedelta_window():
    start = parse_timestamp("2021-01-01T00:00:00Z")
    spec = FrameSpec(start, start + timedelta(days=10), timedelta(days=3))
    assert spec.frame_count == 3  # 3+3+4 days
    assert spec.frame_of(start + timedelta(days=9, hours=23)) == 2


def test_spec_for_records_covers_everything():
    records = [_team("t1", ["a", "b"], ts="2021-01-15T00:00:00Z"),
               _team("t2", ["a", "b"], ts="2021-07-02T13:00:00Z")]
    spec = spec_for_records(records, 3)
    for r in records:
        spec.frame_of(r.timestamp)


# --- network building -----------------------------------------------------

def test_build_frames_places_links_and_counts_weights():
    records = [
        _team("t1", ["a", "b"], ts="2021-01-10T00:00:00Z"),
        _team("t2", ["a", "b"], ts="2021-01-20T00:00:00Z"),
        _team("t3", ["a", "c"], ts="2021-02-10T00:00:00Z"),
    ]
    start = parse_timestamp("2021-01-01T00:00:00Z")
    spec = FrameSpec(start, add_months(start, 2), 1)
    net = build_frames(records, spec)["full"]
    assert net.frame_count == 2
    assert net.frames[0].neighbors("a").get("b", 0) == 2
    assert net.frames[1].neighbors("a").get("c", 0) == 1
    assert net.members == frozenset({"a", "b", "c"})


def test_build_frames_is_invariant_under_reordering():
    rng = random.Random(2024)
    names = [f"m{i:02d}" for i in range(12)]
    records = [
        _team(f"t{i}", rng.sample(names, rng.randint(1, 5)),
              ts=f"2021-{rng.randint(1, 6):02d}-{rng.randint(1, 28):02d}T00:00:00Z",
              kind=rng.choice("AB"))
        for i in range(40)
    ]
    spec = spec_for_records(records, 1)
    want = build_frames(records, spec, ("A", "B"))
    for _ in range(5):
        got = build_frames(rng.sample(records, len(records)), spec, ("A", "B"))
        for name in ("full", "A", "B"):
            assert got[name].frames == want[name].frames
            assert got[name].members == want[name].members


def test_build_frames_rejects_outside_span():
    records = [_team("t1", ["a", "b"], ts="2021-01-10T00:00:00Z")]
    start = parse_timestamp("2022-01-01T00:00:00Z")
    spec = FrameSpec(start, add_months(start, 1), 1)
    outside = "timestamp 2021-01-10T00:00:00+00:00 outside span"
    with pytest.raises(ValueError) as err:
        build_frames(records, spec)
    assert str(err.value).startswith(f"team 't1': {outside}")
    # a singleton team has no links; it is named all the same
    solo = [_team("t9", ["c"], ts="2021-01-10T00:00:00Z")]
    with pytest.raises(ValueError) as err:
        build_frames(solo, spec)
    assert str(err.value).startswith(f"team 't9': {outside}")


def test_typed_network_filters_one_activity_type():
    records = [
        _team("t1", ["a", "b"], ts="2021-01-10T00:00:00Z", kind="A"),
        _team("t2", ["b", "c"], ts="2021-01-12T00:00:00Z", kind="B"),
    ]
    spec = spec_for_records(records, 1)
    net_a = typed_network(records, spec, "A")
    assert net_a.frames[0].neighbors("a").get("b", 0) == 1
    assert net_a.frames[0].neighbors("b").get("c", 0) == 0
    assert build_frames(records, spec, "A")["A"].frames == net_a.frames
