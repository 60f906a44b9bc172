"""The columnar event trace: its row views, its replay, its CSV reader and
writer, and the readers of its columns.

replay_check, read_trace_csv and the lifetimes the presence and hindsight
readers use all run on whole columns. Each is checked here against a walk
over event objects in tests/oracles.py, on hand-forged traces with one
violation each and on seeded mutations of real runs.
"""

import json
import os
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynmatch.simulate as sim
from dynmatch import (
    AgentId,
    PolicyConfig,
    PolicyKind,
    build_compatibility_graph,
    estimate_rates,
    read_trace_csv,
    replay_check,
    run_simulation,
    solve_upper_bound,
    write_trace_csv,
)
from dynmatch.simulate import ArrivalEvent, DepartureEvent, MatchEvent

from helpers import make_instance, random_instance, trace_of_events
from oracles import lifetimes_by_walk, read_trace_by_line, replay_check_by_walk

POLICIES = [
    PolicyConfig(kind=PolicyKind.ONLINE_MATCH, gamma=0.5),
    PolicyConfig(kind=PolicyKind.GREEDY),
    PolicyConfig(kind=PolicyKind.PERIODIC_CLEAR, clear_period=2.0),
    PolicyConfig(kind=PolicyKind.NO_OP),
]
GOLDEN_RUNS = os.path.join(os.path.dirname(__file__), "golden", "runs.json")


def run(inst, pol, horizon, seed):
    sol = solve_upper_bound(inst) if pol.kind is PolicyKind.ONLINE_MATCH else None
    trace, _ = run_simulation(inst, pol, sol, horizon=horizon, seed=seed)
    return trace


def two_types():
    return make_instance([("a", 1.0, 1.0), ("b", 1.0, None)], {(0, 0): 1.0, (0, 1): 0.5})


A0, A1, A2 = AgentId(0, 0), AgentId(0, 1), AgentId(0, 2)


def arrive(t, agent):
    return ArrivalEvent(t, agent)


def depart(t, agent, matched=False):
    return DepartureEvent(t, agent, matched)


def match(t, a, b, v=1.0):
    return MatchEvent(t, a, b, v)


# one forged trace per violation kind, with the message it must produce
FORGED = {
    "arrives twice": ([arrive(1.0, A0), arrive(2.0, A0)], "0:0 arrives twice"),
    "departs twice": (
        [arrive(1.0, A0), depart(2.0, A0), depart(3.0, A0)], "0:0 departs twice"
    ),
    "out of order": (
        [arrive(2.0, A0), arrive(1.0, A1)], "events out of order at t=1.0"
    ),
    "value disagrees": (
        [arrive(1.0, A0), arrive(2.0, A1), match(2.0, A0, A1, 0.7)],
        "match value 0.7 disagrees with the instance (1.0)",
    ),
    "matched before arriving": (
        [arrive(1.0, A0), match(2.0, A0, A1), arrive(3.0, A1)],
        "0:1 matched before arriving",
    ),
    "matched after departing": (
        [arrive(1.0, A0), arrive(2.0, A1), depart(3.0, A0), match(4.0, A0, A1)],
        "0:0 matched after departing",
    ),
    "matched twice": (
        [arrive(1.0, A0), arrive(2.0, A1), arrive(3.0, A2),
         match(3.0, A0, A1), match(4.0, A0, A2)],
        "0:0 matched twice",
    ),
    "departs without arriving": ([depart(1.0, A0)], "0:0 departs without arriving"),
    # the only departure row comes before the later-timed arrival, so the
    # trace is also out of order
    "departs before arriving": (
        [arrive(2.0, A0), depart(1.0, A0)], "0:0 departs before arriving"
    ),
    "wrong matched flag": (
        [arrive(1.0, A0), depart(2.0, A0, matched=True)], "0:0 has a wrong matched flag"
    ),
    # edge cases of the same checks: windows are half-open, and the walk
    # starts its clock at zero
    "matched at its departure instant": (
        [arrive(1.0, A0), arrive(2.0, A1), match(3.0, A0, A1), depart(3.0, A0, matched=True)],
        "0:0 matched after departing",
    ),
    "first row before zero": ([arrive(-1.0, A0)], "events out of order at t=-1.0"),
    # a type outside the instance: every pair with it is worth 0
    "value of a pair outside the instance": (
        [arrive(1.0, A0), arrive(1.0, AgentId(-1, 0)), arrive(2.0, A1), arrive(2.0, AgentId(5, 0)),
         match(2.0, A0, AgentId(-1, 0), 1.0), match(2.0, A1, AgentId(5, 0), 1.0)],
        "match value 1.0 disagrees with the instance (0.0)",
    ),
}


class TestForgedTraces:
    @pytest.mark.parametrize("name", sorted(FORGED))
    def test_same_message_as_the_walk(self, name):
        events, message = FORGED[name]
        inst = two_types()
        got = replay_check(trace_of_events(events, horizon=10.0), inst)
        assert message in got
        assert got == replay_check_by_walk(events, inst)

    def test_clean_forged_trace_replays_clean(self):
        events = [arrive(1.0, A0), arrive(2.0, A1), match(2.0, A0, A1),
                  depart(3.0, A0, matched=True)]
        assert replay_check(trace_of_events(events, horizon=10.0), two_types()) == []

    def test_empty_trace_replays_clean(self):
        assert replay_check(trace_of_events([], horizon=10.0), two_types()) == []


def mutate(events, rng):
    """One seeded corruption of an event list: a duplicated, dropped,
    swapped or perturbed row."""
    out = list(events)
    i = rng.randrange(len(out))
    e = out[i]
    op = rng.choice(["duplicate", "drop", "swap", "swap_near", "time", "agent",
                     "flag", "value", "kind"])
    if op == "duplicate":
        out.insert(rng.randrange(len(out) + 1), e)
    elif op == "drop":
        del out[i]
    elif op in ("swap", "swap_near"):
        j = rng.randrange(len(out)) if op == "swap" else min(i + 1, len(out) - 1)
        out[i], out[j] = out[j], out[i]
    elif op == "time":
        t = rng.choice([e.time + rng.uniform(-1.0, 1.0), rng.choice(out).time])
        out[i] = replace(e, time=t)
    elif op == "agent":
        other = rng.choice(out)
        agent = other.agent_b if isinstance(other, MatchEvent) else other.agent
        slot = "agent" if not isinstance(e, MatchEvent) else rng.choice(["agent_a", "agent_b"])
        out[i] = replace(e, **{slot: agent})
    elif op == "flag" and isinstance(e, DepartureEvent):
        out[i] = replace(e, matched_before_departure=not e.matched_before_departure)
    elif op == "value" and isinstance(e, MatchEvent):
        out[i] = replace(e, value=e.value + 0.25)
    elif op == "kind" and isinstance(e, ArrivalEvent):
        out[i] = DepartureEvent(e.time, e.agent, False)
    elif op == "kind" and isinstance(e, DepartureEvent):
        out[i] = ArrivalEvent(e.time, e.agent)
    return out


@pytest.mark.parametrize("seed", range(30))
def test_mutated_traces_replay_like_the_walk(seed):
    """60 mutations of each of 30 random runs: the column replay reports
    exactly what the walk reports, and lifetimes and rates agree too."""
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 4), allow_impatient=True)
    trace = run(inst, POLICIES[seed % 4], 25.0, seed)
    events = list(trace.events)
    if not events:
        pytest.skip("empty run")
    caught = 0
    for _ in range(60):
        forged = mutate(events, rng)
        got = trace_of_events(forged, trace.horizon, trace.burn_in, trace.seed)
        expected = replay_check_by_walk(forged, inst)
        assert replay_check(got, inst) == expected
        caught += expected != []
        windows, orphans = lifetimes_by_walk(forged)
        types, serials, arrivals, departures, orphan_rows = got.lifetimes()
        agents = [AgentId(x, s) for x, s in zip(types.tolist(), serials.tolist())]
        assert agents == sorted(windows)
        assert list(zip(arrivals.tolist(), departures.tolist())) == [
            windows[a] for a in agents
        ]
        orphan_agents = map(AgentId, got.a_type[orphan_rows].tolist(),
                            got.a_serial[orphan_rows].tolist())
        assert list(dict.fromkeys(orphan_agents)) == orphans
        rates = np.zeros((inst.n_types, inst.n_types))
        for e in forged:
            if isinstance(e, MatchEvent) and e.time > trace.burn_in:
                rates[e.agent_a.type_id, e.agent_b.type_id] += 1.0
        window = trace.horizon - trace.burn_in
        np.testing.assert_array_equal(estimate_rates(got, inst), rates / window)
    assert caught > 0, "no mutation was caught"


class TestRowViews:
    def test_len_builds_no_events(self, monkeypatch):
        trace = run(two_types(), POLICIES[1], 50.0, 3)

        def refuse(*row):
            raise AssertionError("an event was built")

        monkeypatch.setattr(sim, "_event", refuse)
        assert len(trace.events) == len(trace.time) > 0

    def test_rows_view_as_events(self):
        trace = run(two_types(), POLICIES[0], 50.0, 4)
        events = list(trace)
        assert trace.events[0] == events[0] and trace.events[-1] == events[-1]
        assert trace.events[2:5] == events[2:5]
        assert trace.matches() == [e for e in events if isinstance(e, MatchEvent)]
        with pytest.raises(IndexError):
            trace.events[len(events)]

class TestCsvRefusals:
    HEADER = "# dynmatch-trace v1 seed=1 policy=greedy horizon=10.0 burn_in=0.1\n"
    COLUMNS = "time,event,agent_a,agent_b,value\n"

    def read(self, tmp_path, text):
        p = tmp_path / "t.csv"
        p.write_text(text)
        return read_trace_csv(p)

    def test_reads_a_good_file(self, tmp_path):
        trace, meta = self.read(
            tmp_path, self.HEADER + self.COLUMNS + "1.0,arrival,0:0,,\n2.0,departure,0:0,,\n"
        )
        assert len(trace.events) == 2 and meta["policy"] == "greedy"

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["CRLF", "CR"])
    def test_reads_other_line_ends_as_text_mode_does(self, tmp_path, end):
        text = self.HEADER + self.COLUMNS + (
            "1.0,arrival,0:0,,\n1.5,arrival,0:1,,\n1.5,match,0:0,0:1,2.5\n2.0,departure,0:0,,\n"
        )
        trace, meta = self.read(tmp_path, text)
        other, other_meta = self.read(tmp_path, text.replace("\n", end))
        assert other.events == trace.events and other_meta == meta
        assert [e.matched_before_departure for e in other.events if isinstance(e, DepartureEvent)] == [True]

    @pytest.mark.parametrize("text", [
        "# dynmatch-trace v2 seed=1 policy= horizon=1.0 burn_in=0.0\n" + COLUMNS,
        "time,event,agent_a,agent_b,value\n",
        "",
    ], ids=["other version", "no schema line", "empty file"])
    def test_wrong_schema_line(self, tmp_path, text):
        with pytest.raises(ValueError, match="not a dynmatch-trace v1 file"):
            self.read(tmp_path, text)

    @pytest.mark.parametrize("columns", ["time,event,agent_a,agent_b\n", "\n", ""])
    def test_wrong_column_header(self, tmp_path, columns):
        with pytest.raises(ValueError, match="unexpected column header"):
            self.read(tmp_path, self.HEADER + columns)

    @pytest.mark.parametrize("row", [
        "1.0,arrival,0:0,\n", "1.0,arrival,0:0,,,\n", "\n", "1.0\n",
    ], ids=["4 fields", "6 fields", "blank line", "1 field"])
    def test_row_without_five_fields(self, tmp_path, row):
        good = "0.5,arrival,0:1,,\n"
        with pytest.raises(ValueError, match="malformed trace row"):
            self.read(tmp_path, self.HEADER + self.COLUMNS + good + row + good)

    @pytest.mark.parametrize("rows", [
        "1.0,arrival,0:0,\n2.0,arrival,0:1,,,\n", "1.0,arrival,0:0,,,\n2.0,arrival,0:1,\n",
    ], ids=["4 then 6 fields", "6 then 4 fields"])
    def test_rows_trading_a_field(self, tmp_path, rows):
        with pytest.raises(ValueError, match="malformed trace row: '1.0,arrival,0:0,,?,?'"):
            self.read(tmp_path, self.HEADER + self.COLUMNS + rows)

    def test_departure_flags_read_only_earlier_matches(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(self.HEADER + self.COLUMNS + "1.0,arrival,0:0,,\n1.5,arrival,0:1,,\n"
                     "2.0,departure,0:0,,\n3.0,match,0:0,0:1,1.0\n4.0,departure,0:1,,\n")
        trace, _ = read_trace_csv(p)
        assert trace.matched.tolist() == [False, False, False, False, True]
        assert list(trace.events) == read_trace_by_line(p)

    def test_unknown_event_kind(self, tmp_path):
        with pytest.raises(ValueError, match="unknown event kind 'leave'"):
            self.read(tmp_path, self.HEADER + self.COLUMNS + "1.0,arrival,0:0,,\n1.5,leave,0:0,,\n")

    @pytest.mark.parametrize("agent", ["0", "0:1:2", "", "a:1"])
    def test_malformed_agent(self, tmp_path, agent):
        with pytest.raises(ValueError):
            self.read(tmp_path, self.HEADER + self.COLUMNS
                      + f"1.0,arrival,{agent},,\n2.0,arrival,3:4,,\n")

    @pytest.mark.parametrize("name", ["departures", "arrivalx", "matc", "Match", "departurE", ""])
    def test_kind_names_match_in_full(self, tmp_path, name):
        with pytest.raises(ValueError, match=re.escape(f"unknown event kind {name!r}")):
            self.read(tmp_path, self.HEADER + self.COLUMNS + f"1.0,{name},0:0,,\n")

    # where the byte reader and int() part: an agent id is two runs of at
    # most 18 ASCII digits around one colon
    @pytest.mark.parametrize("agent", [
        "+1:0", "1:-0", " 1:0", "1: 0", "1 :0", "1_0:0", "1:0000000000000000001",
    ])
    def test_refuses_agent_ids_int_would_take(self, tmp_path, agent):
        assert all(isinstance(int(part), int) for part in agent.split(":"))
        with pytest.raises(ValueError, match=re.escape(f"malformed agent id: {agent!r}")):
            self.read(tmp_path, self.HEADER + self.COLUMNS + f"1.0,arrival,{agent},,\n")

    def test_reads_agent_ids_of_18_digits(self, tmp_path):
        trace, _ = self.read(tmp_path, self.HEADER + self.COLUMNS
                             + "1.0,arrival,000000000000000012:999999999999999999,,\n")
        assert (trace.a_type.tolist(), trace.a_serial.tolist()) == ([12], [10**18 - 1])

    # where the byte reader and the text reader part: a row holding a NUL
    # or non-ASCII byte is refused, even in a field the reader ignores
    @pytest.mark.parametrize("row", [
        "1.0,arrival,0:0,\0,", "1.0,arrival,0:0,,\u00e9", "\uff11.0,arrival,0:0,,",
        "1.0,arrival,\uff10:0,,",
    ], ids=["NUL in an ignored field", "non-ASCII in an ignored field",
            "full-width digit in a time", "full-width digit in an agent id"])
    def test_refuses_nul_and_non_ascii_bytes(self, tmp_path, row):
        with pytest.raises(ValueError, match="malformed trace row"):
            self.read(tmp_path, self.HEADER + self.COLUMNS + "0.5,arrival,0:1,,\n" + row + "\n")

    @pytest.mark.parametrize("text", [
        " 1.5", "1.5\t", "+2.5", "1_0", "1e400", "-inf", "nan", "-0.0", "1E-5",
        "0.1000000000000000055511151231257827021181583404541015625", "1" * 40,
    ])
    def test_float_fields_parse_as_float_does(self, tmp_path, text):
        trace, _ = self.read(tmp_path, self.HEADER + self.COLUMNS
                             + f"{text},arrival,0:0,,\n0.5,match,0:0,0:1,{text}\n")
        want = float(text)
        got = np.array([trace.time[0], trace.value[1]])  # the arrival's time, the match's value
        np.testing.assert_array_equal(got, [want, want])
        assert np.signbit(got).tolist() == [np.signbit(want)] * 2

    @pytest.mark.parametrize("text", ["", " ", "1.5.", "0x1", "1__0", "1.a", "in f"])
    def test_float_fields_float_refuses(self, tmp_path, text):
        with pytest.raises(ValueError):
            float(text)
        with pytest.raises(ValueError, match="could not convert"):
            self.read(tmp_path, self.HEADER + self.COLUMNS + f"{text},arrival,0:0,,\n")
        with pytest.raises(ValueError, match="could not convert"):
            self.read(tmp_path, self.HEADER + self.COLUMNS + f"1.0,match,0:0,0:1,{text}\n")


def rewrite_is_identical(trace, tmp_path, policy):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_trace_csv(trace, first, policy=policy)
    back, meta = read_trace_csv(first)
    write_trace_csv(back, second, policy=meta["policy"])
    assert first.read_bytes() == second.read_bytes()
    assert back.events == trace.events
    return first


class TestCsvRoundTrip:
    def test_horizon_zero_trace(self, tmp_path):
        trace = run(two_types(), POLICIES[1], 0.0, 9)
        assert len(trace.events) == 0
        path = rewrite_is_identical(trace, tmp_path, "greedy")
        assert path.read_text().count("\n") == 2

    def test_golden_traces_read_back_the_same_rows(self, tmp_path):
        """Trace CSVs written by the engine before traces became columns
        read back to the rows the line reader finds, and rewrite to the
        same bytes."""
        with open(GOLDEN_RUNS) as fh:
            cases = json.load(fh)["cases"]
        for k, case in enumerate(cases):
            old = tmp_path / f"old{k}.csv"
            old.write_text(case["trace_csv"])
            back, meta = read_trace_csv(old)
            assert list(back.events) == read_trace_by_line(old)
            new = tmp_path / f"new{k}.csv"
            write_trace_csv(back, new, policy=meta["policy"])
            assert new.read_text() == case["trace_csv"]
            crlf = tmp_path / f"crlf{k}.csv"
            crlf.write_bytes(case["trace_csv"].replace("\n", "\r\n").encode())
            again, again_meta = read_trace_csv(crlf)
            assert again_meta == meta
            for name, dtype in COLUMN_DTYPES.items():
                assert getattr(again, name).dtype == dtype
                np.testing.assert_array_equal(getattr(again, name), getattr(back, name))

    def test_signed_zeros_keep_their_texts(self, tmp_path):
        events = [arrive(-0.0, A0), arrive(0.0, A1), match(0.0, A0, A1, -0.0),
                  match(0.0, A0, A1, 0.0)]
        p = tmp_path / "t.csv"
        write_trace_csv(trace_of_events(events, horizon=1.0), p)
        assert p.read_text().splitlines()[2:] == [
            "-0.0,arrival,0:0,,", "0.0,arrival,0:1,,", "0.0,match,0:0,0:1,-0.0",
            "0.0,match,0:0,0:1,0.0",
        ]
        back, _ = read_trace_csv(p)
        assert np.signbit(back.time).tolist() == [True, False, False, False]
        assert np.signbit(back.value).tolist() == [False, False, True, False]


COLUMN_DTYPES = {"time": np.float64, "kind": np.int8, "a_type": np.int64,
                 "a_serial": np.int64, "b_type": np.int64, "b_serial": np.int64,
                 "value": np.float64, "matched": np.bool_}


def mutate_csv(text, rng):
    """One to three seeded corruptions of a trace file's body: a comma or
    colon dropped or doubled, a digit turned into a letter, the line ends
    turned to CR LF, or a copy of a row appended without its newline."""
    cut = text.index("\n", text.index("\n") + 1) + 1
    head, body = text[:cut], text[cut:]
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(["drop", "double", "letter", "crlf", "tail"])
        if op in ("drop", "double"):
            spots = [i for i, c in enumerate(body) if c in ",:"]
            if spots:
                i = rng.choice(spots)
                copies = 2 if op == "double" else 0
                body = body[:i] + body[i] * copies + body[i + 1:]
        elif op == "letter":
            spots = [i for i, c in enumerate(body) if c.isdigit()]
            if spots:
                i = rng.choice(spots)
                body = body[:i] + rng.choice("abefinxz") + body[i + 1:]
        elif op == "crlf":
            head, body = head.replace("\n", "\r\n"), body.replace("\n", "\r\n")
        elif body:
            body += rng.choice(body.splitlines())
    return head + body


def test_mutated_files_read_like_the_line_reader(tmp_path):
    """Seeded corruptions of traces of all four policies: the byte reader
    returns the rows the line reader returns, or both raise ValueError."""
    rng = random.Random(2310)
    texts = []
    for k, pol in enumerate(POLICIES):
        inst = random_instance(random.Random(k), 3, allow_impatient=True)
        p = tmp_path / f"{k}.csv"
        write_trace_csv(run(inst, pol, 12.0, 40 + k), p, policy=pol.file_token())
        texts.append(p.read_text())
    outcomes = {"same rows": 0, "both refuse": 0}
    p = tmp_path / "mutated.csv"
    for _ in range(400):
        p.write_bytes(mutate_csv(rng.choice(texts), rng).encode())
        try:
            want = read_trace_by_line(p)
        except ValueError:
            with pytest.raises(ValueError):
                read_trace_csv(p)
            outcomes["both refuse"] += 1
            continue
        assert list(read_trace_csv(p)[0].events) == want
        outcomes["same rows"] += 1
    assert min(outcomes.values()) >= 50, outcomes


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(range(len(POLICIES))))
def test_every_policy_round_trips(tmp_path_factory, seed, k):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 4), allow_impatient=True)
    trace = run(inst, POLICIES[k], 40.0, seed)
    rewrite_is_identical(trace, tmp_path_factory.mktemp("rt"), POLICIES[k].file_token())


class TestColumnReaders:
    def test_graph_refuses_a_departure_that_never_arrives(self):
        events = [arrive(1.0, A0), depart(1.5, A2), depart(2.0, A1), depart(3.0, A0)]
        with pytest.raises(ValueError, match="0:2 never arrives"):
            build_compatibility_graph(trace_of_events(events, horizon=5.0), two_types())
