import csv
import io
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from speedtrim.core import (
    CUMULATIVE_FIELDS,
    F_CUM_AVG,
    F_CWND_MEAN,
    F_CWND_STD,
    F_PIPE_FULL,
    F_TPUT,
    MAX_TEST_US,
    N_FEATURES,
    SNAPSHOT_FIELDS,
    STD_CHANNELS,
    Trace,
    ValidationError,
)
from speedtrim.engine import Policy, Session
from speedtrim.traceio import (
    CLASSIFIER_ARITY,
    REGRESSOR_ARITY,
    REGRESSOR_WINDOWS,
    WINDOW_MS,
    ParseError,
    classifier_input,
    dump_trace,
    parse_trace,
    read_corpus,
    regressor_input,
    resample,
    write_corpus,
)

import util
from test_engine import timings


def jsonl(objs) -> io.BytesIO:
    return io.BytesIO(("\n".join(json.dumps(o) for o in objs) + "\n").encode())


def snap_obj(t_us, bytes_acked, **kw):
    d = dict(t_us=t_us, bytes_acked=bytes_acked, cwnd_bytes=1000,
             bytes_in_flight=500, rtt_us=20000, retrans=0, dup_acks=0, pipe_full=0)
    d.update(kw)
    return d


class TestParseTrace:
    def test_three_line_file(self):
        tr = parse_trace(jsonl([snap_obj(0, 0), snap_obj(10000, 12500),
                                snap_obj(20000, 25000)]))
        assert len(tr) == 3
        assert tr.summarize().y_true_mbps == pytest.approx(10.0)

    def test_empty_file(self):
        with pytest.raises(ParseError, match="no snapshots"):
            parse_trace(io.BytesIO(b""))

    def test_decreasing_bytes_rejected(self):
        # a dip that never recovers is not a repairable glitch
        objs = [snap_obj(0, 0), snap_obj(10000, 5000), snap_obj(20000, 3000),
                snap_obj(30000, 4000)]
        with pytest.raises(ValidationError, match="bytes_acked decreases"):
            parse_trace(jsonl(objs))

    def test_single_glitch_repaired(self):
        objs = [snap_obj(0, 0), snap_obj(10000, 5000), snap_obj(20000, 4000),
                snap_obj(30000, 6000)]
        tr = parse_trace(jsonl(objs))
        np.testing.assert_array_equal(tr.bytes_acked, [0, 5000, 5000, 6000])

    def test_malformed_line_number(self):
        first = json.dumps(snap_obj(0, 0)).encode()
        data = io.BytesIO(first + b"\n{not json\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_trace(data)

    def test_file_error_names_the_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        content = json.dumps(snap_obj(0, 0)).encode() + b"\n{not json\n"
        path.write_bytes(content)
        message = "line 2: malformed JSON (Expecting property name enclosed in double quotes)"
        for arg in (path, str(path)):
            with pytest.raises(ParseError) as exc:
                parse_trace(arg)
            assert str(exc.value) == f"{path}: {message}"
        with pytest.raises(ParseError) as exc:  # a stream has no name to give
            parse_trace(io.BytesIO(content))
        assert str(exc.value) == message
        path.write_bytes(jsonl([snap_obj(0, 0), snap_obj(0, 5)]).getvalue())
        with pytest.raises(ValidationError) as exc:
            parse_trace(path)
        assert str(exc.value) == f"{path}: trace 'trace': nonmonotonic timestamps"

    def test_missing_keys(self):
        with pytest.raises(ParseError, match="missing keys"):
            parse_trace(jsonl([{"t_us": 0, "bytes_acked": 0}, snap_obj(1, 1)]))

    def test_header_line(self):
        objs = [{"id": "abc", "duration_us": 30000}, snap_obj(0, 0), snap_obj(10000, 100)]
        tr = parse_trace(jsonl(objs))
        assert tr.id == "abc"
        assert tr.duration_us == 30000

    def test_out_of_order_lines_sorted(self):
        tr = parse_trace(jsonl([snap_obj(10000, 100), snap_obj(0, 0)]))
        np.testing.assert_array_equal(tr.t_us, [0, 10000])

    def test_duplicate_timestamps_rejected(self):
        with pytest.raises(ValidationError, match="nonmonotonic"):
            parse_trace(jsonl([snap_obj(0, 0), snap_obj(0, 5), snap_obj(10, 9)]))

    @pytest.mark.parametrize("value", [2 ** 70, -(2 ** 70), 2 ** 63],
                             ids=["2**70", "-2**70", "2**63"])
    def test_int64_overflow_names_the_line(self, value):
        # the header and the blank line count, as in every line number
        head = jsonl([{"id": "big"}, snap_obj(0, 0)]).getvalue()
        tail = jsonl([snap_obj(10000, 100), snap_obj(20000, value)]).getvalue()
        with pytest.raises(ParseError, match="line 5: value outside the 64-bit integer range"):
            parse_trace(io.BytesIO(head + b"\n" + tail))

    def test_int64_extremes_accepted(self):
        tr = parse_trace(jsonl([snap_obj(0, 0, dup_acks=-(2 ** 63)),
                                snap_obj(10000, 2 ** 63 - 1, dup_acks=-(2 ** 63))]))
        assert tr.bytes_acked[-1] == 2 ** 63 - 1

    def test_non_finite_and_bad_header_duration(self):
        inf = b'{"t_us": Infinity, "bytes_acked": 1, "cwnd_bytes": 1, "bytes_in_flight": 1, ' \
              b'"rtt_us": 1, "retrans": 0, "dup_acks": 0, "pipe_full": 0}\n'
        with pytest.raises(ParseError, match="line 1: non-integer field"):
            parse_trace(io.BytesIO(inf))
        for duration in (None, "soon", 1e400):
            objs = [{"id": "h", "duration_us": duration}, snap_obj(0, 0), snap_obj(10000, 100)]
            with pytest.raises(ParseError, match="line 1: non-integer duration_us"):
                parse_trace(jsonl(objs))

    @pytest.mark.parametrize("value", [1.9, 7.0, True, "7", None],
                             ids=["float", "whole-float", "true", "string", "null"])
    def test_non_integer_value_names_the_line(self, value):
        objs = [{"id": "x"}, snap_obj(0, 0), snap_obj(10000, 100, retrans=value)]
        with pytest.raises(ParseError, match="line 3: non-integer field retrans"):
            parse_trace(jsonl(objs))
        header = [{"id": "x", "duration_us": value}, snap_obj(0, 0), snap_obj(10000, 100)]
        with pytest.raises(ParseError, match="line 1: non-integer duration_us"):
            parse_trace(jsonl(header))

    @pytest.mark.parametrize("value", [2 ** 70, -(2 ** 70), 2 ** 63, -(2 ** 63) - 1],
                             ids=["2**70", "-2**70", "2**63", "-2**63-1"])
    def test_header_duration_outside_int64_names_line_1(self, value):
        objs = [{"id": "h", "duration_us": value}, snap_obj(0, 0), snap_obj(10000, 100)]
        message = "line 1: duration_us outside the 64-bit integer range"
        with pytest.raises(ParseError, match=message):
            parse_trace(jsonl(objs))

    def test_header_duration_int64_max_accepted(self):
        objs = [{"id": "h", "duration_us": 2 ** 63 - 1}, snap_obj(0, 0), snap_obj(10000, 100)]
        assert parse_trace(jsonl(objs)).duration_us == 2 ** 63 - 1

    def test_nesting_too_deep_names_the_line(self):
        deep = b"[" * 200000 + b"]" * 200000
        for data in (jsonl([snap_obj(0, 0)]).getvalue() + deep + b"\n",
                     b'{"id": "x"}\n' + b'{"t_us": ' + deep + b"}\n"):
            with pytest.raises(ParseError, match=r"line 2: malformed JSON \(nesting too deep\)"):
                parse_trace(io.BytesIO(data))

    def test_invalid_utf8_names_the_line(self):
        good = jsonl([{"id": "u"}, snap_obj(0, 0)]).getvalue()
        with pytest.raises(ParseError, match=r"line 3: invalid UTF-8 \(invalid start byte\)"):
            parse_trace(io.BytesIO(good + b'{"t_us": "\xff"}\n'))
        # lines end where every other error counts them: at \r too
        with pytest.raises(ParseError, match="line 3: invalid UTF-8"):
            parse_trace(io.BytesIO(good.replace(b"\n", b"\r") + b"\xc3("))

    def test_integer_past_the_digit_limit_names_the_line(self):
        # json refuses to convert a literal this long, with a plain ValueError
        line = json.dumps(snap_obj(10000, 0)).replace(": 0,", ": " + "9" * 5000 + ",", 1)
        with pytest.raises(ParseError, match="line 2: value outside the 64-bit integer range"):
            parse_trace(io.BytesIO(json.dumps(snap_obj(0, 0)).encode() + b"\n" + line.encode()))

    def test_first_bad_line_in_file_order(self):
        big = snap_obj(10000, 2 ** 64)
        late = snap_obj(20000, 100, retrans=1.5)
        with pytest.raises(ParseError, match="line 2: value outside the 64-bit integer range"):
            parse_trace(jsonl([snap_obj(0, 0), big, late]))
        with pytest.raises(ParseError, match="line 2: non-integer field retrans=1.5"):
            parse_trace(jsonl([snap_obj(0, 0), late, big]))

    def test_padded_blank_and_headerless_lines_parse(self):
        lines = [json.dumps(snap_obj(0, 0)), "  \t", "",
                 " \t" + json.dumps(snap_obj(10000, 100)) + "  ", "\xa0"]
        tr = parse_trace(io.BytesIO("\r\n".join(lines).encode()), default_id="d")
        assert tr.id == "d" and tr.duration_us == 10000
        np.testing.assert_array_equal(tr.bytes_acked, [0, 100])

    def test_negative_timestamp_rejected_like_the_session(self):
        objs = [{"id": "early"}, snap_obj(10000, 100), snap_obj(-5, 0)]
        with pytest.raises(ValidationError, match="trace 'early': negative t_us -5"):
            parse_trace(jsonl(objs))
        policy = Policy(util.constant_regressor(50.0), util.constant_classifier(0.0), 15.0)
        with pytest.raises(ValidationError, match="t_us must be >= 0"):
            Session(policy).feed(util.snapshot(-5, 0))

    def test_test_length_cap_like_the_session(self):
        policy = Policy(util.constant_regressor(50.0), util.constant_classifier(0.0), 15.0)
        for last, accepted in ((MAX_TEST_US, True), (MAX_TEST_US + 1, False)):
            snaps = [util.snapshot(0, 0), util.snapshot(100_000, 10), util.snapshot(last, 20)]
            objs = [{"id": "long"}] + [s._asdict() for s in snaps]
            session = Session(policy)
            for snap in snaps[:2]:
                session.feed(snap)
            if accepted:
                assert parse_trace(jsonl(objs)).t_us[-1] == last
                session.feed(snaps[2])
                session.end_of_trace()
                assert session.finalize().ran_to_completion
                continue
            with pytest.raises(ValidationError, match=f"trace 'long': last t_us {last} exceeds "
                                                      f"the test-length cap of {MAX_TEST_US}"):
                parse_trace(jsonl(objs))
            with pytest.raises(ValidationError, match=f"t_us {last} exceeds the test-length "
                                                      f"cap of {MAX_TEST_US}"):
                session.feed(snaps[2])
            assert not session.terminal


INT64 = range(-(2 ** 63), 2 ** 63)
# values a snapshot or header field must not hold, 2**63 among them
BAD_VALUES = st.sampled_from([True, False, 1.5, 7.0, "7", None, [1], 2 ** 63,
                              -(2 ** 63) - 1, 2 ** 70])
NOT_OBJECTS = st.sampled_from(["{not json", '{"t_us": 1', "[1, 2]", "3", '"x"', "null",
                               '{"a": 1} {"b": 2}', '{"a": 1,', "\ufeff{}"])


@st.composite
def near_miss_files(draw) -> bytes:
    """A valid trace's JSON lines made into a near miss: a header or none,
    a BOM, blank and whitespace-padded lines, other line ends, and bad
    lines (a bad value, a missing key, no JSON object, or a snapshot with
    more after it), two or more of them in either order."""
    n = draw(st.integers(2, 5))
    cols = {"t_us": sorted(draw(st.sets(st.integers(0, 10 ** 7), min_size=n, max_size=n)))}
    for name in SNAPSHOT_FIELDS[1:]:
        values = draw(st.lists(st.integers(1, 2 ** 62), min_size=n, max_size=n))
        cols[name] = list(itertools.accumulate(values)) if name in CUMULATIVE_FIELDS else values
    objs = [dict(zip(cols, row)) for row in zip(*cols.values())]
    texts = []
    for obj in objs:
        kind = draw(st.sampled_from(["ok"] * 6 + ["value", "missing", "line", "extra"]))
        if kind == "value":
            obj[draw(st.sampled_from(SNAPSHOT_FIELDS))] = draw(BAD_VALUES)
        elif kind == "missing":
            del obj[draw(st.sampled_from(SNAPSHOT_FIELDS))]
        text = draw(NOT_OBJECTS) if kind == "line" else json.dumps(obj)
        if kind == "extra":     # a whole snapshot, then more on its line
            text += draw(st.sampled_from([" " + text, text, "}", " x", ",", "\ufeff"]))
        texts.append(text)
    if draw(st.booleans()):
        duration = st.one_of(st.integers(0, 2 * 10 ** 7), st.integers(-(2 ** 63), 2 ** 63 - 1),
                             BAD_VALUES)
        header = draw(st.fixed_dictionaries({}, optional={"id": st.text(max_size=4),
                                                          "duration_us": duration}))
        texts.insert(0, json.dumps(header))
    pad = st.sampled_from(["", "", " ", "\t", " \t "])
    texts = [draw(pad) + text + draw(pad) for text in texts]
    blank = st.sampled_from(["", " ", "\t", "\xa0"])
    for _ in range(draw(st.integers(0, 3))):
        texts.insert(draw(st.integers(0, len(texts))), draw(blank))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = draw(ends).join(texts) + draw(st.sampled_from(["", "\n"]))
    return (("\ufeff" if draw(st.integers(0, 5)) == 0 else "") + text).encode()


def outcome(parse, data: bytes):
    """(id, duration_us, columns) of the parsed trace, or (type, message)
    of the error."""
    try:
        trace = parse(io.BytesIO(data))
    except ValueError as exc:
        return type(exc), str(exc)
    return trace.id, trace.duration_us, [getattr(trace, k).tolist() for k in SNAPSHOT_FIELDS]


def reference_outcome(data: bytes):
    """The reference parser's outcome with the two later fixes: the first
    bad line in file order is reported, which is the reference's line
    error on the shortest prefix it rejects with one, and a header
    duration_us outside int64 is a line 1 error."""
    lines = data.decode().splitlines(keepends=True)
    try:
        head = json.loads(lines[0])
    except (IndexError, ValueError):
        head = None
    if (type(head) is dict and "t_us" not in head and type(head.get("duration_us")) is int
            and head["duration_us"] not in INT64):
        return ParseError, "line 1: duration_us outside the 64-bit integer range"
    for k in range(1, len(lines) + 1):
        out = outcome(util.reference_parse_trace, "".join(lines[:k]).encode())
        if out[0] is ParseError and out[1].startswith("line "):
            return out
    return outcome(util.reference_parse_trace, data)


def reference_dump(trace: Trace) -> bytes:
    """dump_trace as it was, with one json.dumps per snapshot."""
    out = [json.dumps({"id": trace.id, "duration_us": trace.duration_us})]
    for i in range(len(trace)):
        out.append(json.dumps({name: int(getattr(trace, name)[i]) for name in SNAPSHOT_FIELDS}))
    return ("\n".join(out) + "\n").encode("utf-8")


@st.composite
def int64_traces(draw) -> Trace:
    """Valid traces whose values reach both ends of int64: cumulative
    counters may rise by more than 2**63, which an int64 difference wraps.
    Timestamps reach the test-length cap."""
    n = draw(st.integers(2, 8))
    top = 2 ** 63 - 1
    natural = st.one_of(st.integers(0, top), st.sampled_from([0, 1, top]))
    whole = st.one_of(st.integers(-(2 ** 63), top), st.sampled_from([-(2 ** 63), 0, top]))
    times = st.one_of(st.integers(0, MAX_TEST_US), st.sampled_from([0, 1, MAX_TEST_US]))
    t_us = sorted(draw(st.sets(times, min_size=n, max_size=n)))
    cols = {"t_us": t_us,
            "cwnd_bytes": draw(st.lists(whole, min_size=n, max_size=n)),
            "bytes_in_flight": draw(st.lists(natural, min_size=n, max_size=n)),
            "rtt_us": draw(st.lists(st.integers(1, top), min_size=n, max_size=n))}
    for name in CUMULATIVE_FIELDS:
        cols[name] = sorted(draw(st.lists(whole, min_size=n, max_size=n)))
    return Trace(draw(st.text(max_size=6)), draw(st.integers(t_us[-1], top)), cols)


class TestBulkCodecMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(data=near_miss_files())
    def test_parse_agrees_with_the_line_parser(self, data):
        assert outcome(parse_trace, data) == reference_outcome(data)

    @settings(max_examples=200, deadline=None)
    @given(trace=int64_traces())
    def test_dump_equals_json_dumps_per_line(self, trace):
        assert dump_trace(trace) == reference_dump(trace)

    def test_dump_of_a_synthetic_trace(self, small_corpus):
        trace = small_corpus.load(small_corpus.ids[0])
        blob = dump_trace(trace)
        assert blob == reference_dump(trace)
        assert outcome(parse_trace, blob) == outcome(util.reference_parse_trace, blob)


class TestResample:
    def test_constant_trace_100_frames(self):
        ws = resample(util.constant_rate_trace(100.0))
        assert len(ws) == 100
        np.testing.assert_allclose(ws[:, F_TPUT], 100.0, rtol=1e-5)
        np.testing.assert_allclose(ws[:, F_CUM_AVG], 100.0, rtol=1e-5)
        assert np.all(ws[:, list(STD_CHANNELS)] == 0.0)

    def test_gap_carries_forward(self):
        # snapshots at 0..100 ms then nothing until 400 ms
        t = np.concatenate([np.arange(0, 110, 10), [400, 410, 420]]) * 1000
        b = (100.0 * t / 8).astype(np.int64)
        ws = resample(util.make_trace(t, b))
        # the 100 ms snapshot lands in window 1, so 2 and 3 are the gap
        expect = ws[1].copy()
        expect[list(STD_CHANNELS)] = 0.0
        np.testing.assert_allclose(ws[2], expect)
        np.testing.assert_allclose(ws[3], expect)

    def test_late_start_gap_and_trailing_boundary(self):
        # snapshots in windows 2, 5 and 7, the last exactly at 800 ms
        t = np.array([250, 260, 280, 550, 750, 800]) * 1000
        cwnd = [1000, 3000, 2000, 4000, 5000, 9000]
        tr = util.make_trace(t, [0, 10, 30, 90, 200, 400], cwnd_bytes=cwnd, pipe_full=[0] * 5 + [3])
        ws = resample(tr)
        assert len(ws) == 8                 # the 800 ms snapshot joins window 7
        assert np.all(ws[:2] == 0.0)        # nothing before the first snapshot
        assert ws[2, F_CWND_MEAN] == 2000.0 and ws[2, F_CWND_STD] > 0.0
        expect = ws[2].copy()
        expect[list(STD_CHANNELS)] = 0.0
        for w in (3, 4):                    # the gap carries window 2 forward
            assert ws[w].tobytes() == expect.tobytes()
        assert ws[6].tobytes() == ws[5].tobytes()   # one snapshot: std already 0
        assert ws[7, F_CWND_MEAN] == 7000.0
        assert ws[7, F_CUM_AVG] == 8.0 * 400 / 800_000
        assert ws[7, F_PIPE_FULL] == 3.0

    def test_two_rate_trace_final_cum_avg(self):
        tr = util.rate_profile_trace([50.0, 150.0], seg_s=5.0)
        ws = resample(tr)
        # brute force over raw snapshots
        expect = 8.0 * tr.bytes_acked[-1] / tr.t_us[-1]
        assert ws[-1, F_CUM_AVG] == pytest.approx(expect, rel=1e-9)
        assert expect == pytest.approx(100.0, rel=1e-3)

    def test_pipe_full_is_window_max(self):
        tr = util.make_trace([0, 50000, 60000, 150000],
                             [0, 100, 200, 300], pipe_full=[0, 1, 2, 2])
        ws = resample(tr)
        assert ws[0, 2] == 2.0
        assert ws[1, 2] == 2.0

    def test_throughput_integral_close_to_y_true(self, small_corpus):
        # sum(inst mean * window) tracks total bytes within quantization
        for tid in small_corpus.ids[:6]:
            tr = small_corpus.load(tid)
            ws = resample(tr)
            total = np.sum(ws[:, F_TPUT]) * WINDOW_MS / 1000.0  # Mbit
            expect = 8.0 * tr.bytes_acked[-1] / 1e6
            assert total == pytest.approx(expect, rel=0.02)

    def test_deterministic(self, small_corpus):
        tr = small_corpus.load(small_corpus.ids[0])
        a, b = resample(tr), resample(tr)
        np.testing.assert_array_equal(a, b)

    @settings(max_examples=300, deadline=None)
    @given(trace=st.one_of(int64_traces(), timings()))
    def test_frames_finite_and_read_only(self, trace):
        # values at both ends of int64 and gaps that span strides included
        frames = resample(trace)
        assert frames.dtype == np.float64
        assert frames.ndim == 2 and len(frames) >= 1 and frames.shape[1] == N_FEATURES
        assert np.all(np.isfinite(frames))
        with pytest.raises(ValueError, match="read-only"):
            frames[0, 0] = 1.0


@pytest.fixture(scope="module")
def ramp_ws():
    return resample(util.rate_profile_trace([60, 80, 100, 120, 140], seg_s=2.0))


@pytest.fixture(scope="module")
def const_ws():
    return resample(util.constant_rate_trace(80.0))


class TestRegressorInput:

    def test_padding_at_500ms(self, ramp_ws):
        ri = regressor_input(ramp_ws, 500)
        assert ri.shape == (REGRESSOR_ARITY,) and ri.dtype == np.float64
        block = ri[:-1].reshape(REGRESSOR_WINDOWS, -1)
        for i in range(15):
            np.testing.assert_array_equal(block[i], ramp_ws[0])
        np.testing.assert_array_equal(block[15:], ramp_ws[0:5])
        assert ri[-1] == 500.0

    def test_exact_fit_at_2000ms(self, ramp_ws):
        ri = regressor_input(ramp_ws, 2000)
        np.testing.assert_array_equal(
            ri[:-1].reshape(REGRESSOR_WINDOWS, -1), ramp_ws[0:20])

    def test_tail_window_at_10s(self, ramp_ws):
        ri = regressor_input(ramp_ws, 10000)
        np.testing.assert_array_equal(
            ri[:-1].reshape(REGRESSOR_WINDOWS, -1), ramp_ws[80:100])

    def test_padded_frame_count_property(self, ramp_ws):
        # the leading 20 - t/100 rows repeat frame 0; the rest are the
        # series' own frames up to t
        for t in range(100, 2100, 100):
            n_padded = max(0, 20 - t // 100)
            rows = regressor_input(ramp_ws, t)[:-1].reshape(REGRESSOR_WINDOWS, -1)
            np.testing.assert_array_equal(rows[:n_padded],
                                          np.repeat(ramp_ws[:1], n_padded, axis=0))
            np.testing.assert_array_equal(rows[n_padded:], ramp_ws[:t // 100])

    def test_beyond_end_rejected(self, ramp_ws):
        with pytest.raises(ValueError, match="beyond end"):
            regressor_input(ramp_ws, 10500)

    @pytest.mark.parametrize("t_ms, message", [(0, "must be >= 100"), (250, "multiple of 100"),
                                               (10500, "beyond end")])
    def test_bad_t_ms_rejected_by_both_views(self, ramp_ws, t_ms, message):
        for view in (regressor_input, classifier_input):
            with pytest.raises(ValueError, match=message):
                view(ramp_ws, t_ms)


class TestClassifierInput:

    def test_mask_at_1000ms(self, const_ws):
        # rows of the first 10 windows hold frames, the other 90 are zero
        ci = classifier_input(const_ws, 1000)
        assert ci.shape == (CLASSIFIER_ARITY,) and ci.dtype == np.float64
        rows = ci[:-1].reshape(100, -1)
        assert np.all(rows[:10].any(axis=1))
        assert not rows[10:].any()

    def test_full_mask_at_10s(self, const_ws):
        rows = classifier_input(const_ws, 10000)[:-1].reshape(100, -1)
        np.testing.assert_array_equal(rows, const_ws)
        assert np.all(rows.any(axis=1))

    def test_masked_region_zero(self, const_ws):
        ci = classifier_input(const_ws, 1500)
        block = ci[:-1].reshape(100, -1)
        assert np.all(block[15:] == 0.0)
        np.testing.assert_array_equal(block[:15], const_ws[:15])
        assert ci[-1] == 1500.0


class TestCorpusRoundTrip:
    def test_write_read(self, tmp_path):
        traces = [util.constant_rate_trace(50, id="a"),
                  util.constant_rate_trace(150, id="b")]
        write_corpus(str(tmp_path / "c"), ((t, "test") for t in traces))
        corpus = read_corpus(str(tmp_path / "c"))
        assert corpus.ids == ["a", "b"]
        assert corpus.summary("a").y_true_mbps == pytest.approx(50.0, rel=1e-4)
        assert corpus.summary("b") == traces[1].summarize()
        with open(tmp_path / "c" / "manifest.csv", newline="") as fh:
            assert [row["preset"] for row in csv.DictReader(fh)] == ["test", "test"]

    def test_missing_index(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_corpus(str(tmp_path / "nothing"))


def drop_column(name):
    def edit(rows):
        i = rows[0].index(name)
        for row in rows:
            del row[i]
    return edit


def keep_header(rows):
    del rows[1:]


def set_cell(line, name, value):
    def edit(rows):
        rows[line - 1][rows[0].index(name)] = value
    return edit


class TestCorpusFileErrors:
    """A bad index.csv or manifest.csv exits 3 naming the file, and the
    column or the line."""

    @pytest.mark.parametrize("name, edit, message", [
        ("manifest.csv", drop_column("tier"), "manifest.csv: no column tier"),
        ("index.csv", drop_column("file"), "index.csv: no column file"),
        ("manifest.csv", set_cell(3, "tier", "x"),
         "manifest.csv line 3: invalid literal for int() with base 10: 'x'"),
        ("manifest.csv", drop_column("duration_ms"), "manifest.csv: no column duration_ms"),
        ("index.csv", lambda rows: rows[2].pop(), "index.csv line 3: fewer cells than the header"),
        ("index.csv", keep_header, "index.csv: lists no trace"),
        ("index.csv", lambda rows: rows.append(rows[1]),
         "index.csv line 4: trace id 'a' is listed twice"),
        ("b.jsonl", lambda text: text.replace('"id": "b"', '"id": "other"', 1),
         "b.jsonl: header id 'other' is not the index id 'b'"),
        ("b.jsonl", lambda text: text.replace('"t_us": 0,', '"t_us": "0",', 1),
         "b.jsonl: line 2: non-integer field t_us='0'"),
    ], ids=["manifest-no-tier", "index-no-file", "manifest-bad-tier",
            "manifest-no-duration", "index-short-row", "index-empty", "index-repeated-id",
            "trace-header-id", "trace-bad-line"])
    def test_exits_3_naming_file_and_place(self, tmp_path, capsys, name, edit, message):
        from speedtrim.cli import EXIT_DATA, main
        root = tmp_path / "c"
        traces = [util.constant_rate_trace(rate, duration_s=1, id=tid)
                  for rate, tid in ((50, "a"), (150, "b"))]
        write_corpus(str(root), ((t, "test") for t in traces))
        path = root / name
        if name.endswith(".csv"):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            edit(rows)
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
        else:                           # a trace file: edit its text
            path.write_text(edit(path.read_text()))
        with pytest.raises(ValueError) as exc:
            list(read_corpus(str(root)).traces())
        assert message in str(exc.value)
        capsys.readouterr()
        assert main(["sweep", "--corpus", str(root), "--method", "bbr", "--params", "3",
                     "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert message in capsys.readouterr().err
