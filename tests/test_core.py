import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from speedtrim.core import (
    CONTINUE,
    F_CUM_AVG,
    SNAPSHOT_FIELDS,
    Snapshot,
    StopDecision,
    ValidationError,
    assign_bins,
    rel_error,
)
from speedtrim.traceio import dump_trace, parse_trace, resample

import util


class TestRelError:
    def test_underestimate(self):
        assert rel_error(100, 80) == pytest.approx(0.20)

    def test_identity(self):
        assert rel_error(250, 250) == 0.0

    def test_overestimate(self):
        assert rel_error(50, 65) == pytest.approx(0.30)

    def test_nonpositive_truth_rejected(self):
        with pytest.raises(ValueError):
            rel_error(0, 10)
        with pytest.raises(ValueError):
            rel_error(-5, 10)

    @given(st.floats(0.001, 1e6), st.floats(0, 1e6))
    def test_nonnegative(self, t, e):
        assert rel_error(t, e) >= 0.0


class TestAssignBins:
    def test_paper_edges(self):
        assert assign_bins(30, 10) == (1, 0)

    def test_boundary_belongs_to_upper(self):
        assert assign_bins(400, 234) == (4, 4)

    def test_just_below_first_edge(self):
        assert assign_bins(24.999, 23.999) == (0, 0)

    @given(st.floats(0, 5000), st.floats(0.001, 5000))
    def test_total(self, tput, rtt):
        tier, rbin = assign_bins(tput, rtt)
        assert 0 <= tier <= 4 and 0 <= rbin <= 4

    def test_negative_throughput_rejected(self):
        with pytest.raises(ValueError):
            assign_bins(-1, 10)


INT64_END = 1 << 63
# Python ints at and past both int64 ends and at the range rules' edges
# (t_us -1, rtt_us 0, bytes_in_flight -1)
EDGES = [-INT64_END - 1, -INT64_END, -1, 0, 1, INT64_END - 1, INT64_END]
# a field's value: the edges, Python ints inside and past int64, bools,
# NumPy integer scalars, floats, a string and None
FIELD_VALUES = st.one_of(
    st.sampled_from(EDGES),
    st.integers(-(1 << 70), 1 << 70),
    st.booleans(),
    st.integers(-128, 127).map(np.int8),
    st.integers(-INT64_END, INT64_END - 1).map(np.int64),
    st.integers(0, (1 << 64) - 1).map(np.uint64),
    st.floats(),
    st.text(max_size=3),
    st.none(),
)


def outcome(check):
    """None when ``check()`` passes, else the class and message it raised."""
    try:
        check()
    except Exception as exc:
        return type(exc), str(exc)
    return None


class TestSnapshot:
    def test_valid(self):
        util.snapshot(0, 0).validate()

    def test_bad_rtt(self):
        with pytest.raises(ValidationError):
            util.snapshot(0, 0, rtt_us=0).validate()

    def test_negative_inflight(self):
        with pytest.raises(ValidationError):
            util.snapshot(0, 0, bytes_in_flight=-1).validate()

    @pytest.mark.parametrize("value", [1.0, True, np.float64(2.0), np.bool_(True), "7"],
                             ids=["float", "bool", "np-float", "np-bool", "string"])
    def test_non_integer_rejected(self, value):
        # the session takes what the trace parser takes: integers only
        with pytest.raises(ValidationError, match="retrans must be an integer"):
            util.snapshot(0, 0, retrans=value).validate()

    def test_numpy_integers_accepted(self):
        util.snapshot(np.int64(0), np.int64(5), rtt_us=np.int32(1)).validate()

    @settings(max_examples=600, deadline=None)
    @given(base=st.lists(st.integers(1, INT64_END - 1), min_size=8, max_size=8),
           changes=st.lists(st.tuples(st.integers(0, 7), FIELD_VALUES), max_size=3))
    def test_validate_agrees_with_the_reference_loop(self, base, changes):
        # a valid snapshot of Python ints with up to three fields redrawn:
        # validate passes exactly when the loop does, and otherwise raises
        # the loop's class with the loop's message, naming the first fault
        values = list(base)
        for i, value in changes:
            values[i] = value
        snap = Snapshot(*values)
        assert outcome(snap.validate) == outcome(lambda: util.reference_validate(snap))

    @pytest.mark.parametrize("field", range(8))
    def test_each_edge_of_each_field_agrees_with_the_reference_loop(self, field):
        for value in EDGES + [True, np.int64(-1), np.uint64(INT64_END), 0.0]:
            snap = util.snapshot(1, 1)._replace(**{SNAPSHOT_FIELDS[field]: value})
            assert outcome(snap.validate) == outcome(lambda: util.reference_validate(snap))


class TestStopDecision:
    def test_stopping_is_stored_from_the_reason(self):
        assert CONTINUE.stopping is False
        assert StopDecision("classifier").stopping is True

    def test_equality_hash_and_repr_see_only_the_reason(self):
        stop = StopDecision("end-of-trace")
        assert repr(stop) == "StopDecision(reason='end-of-trace')"
        assert stop == StopDecision("end-of-trace") != CONTINUE
        assert hash(stop) == hash(("end-of-trace",)) and CONTINUE == StopDecision()


class TestTrace:
    def test_needs_two_snapshots(self):
        with pytest.raises(ValidationError):
            util.make_trace([0], [0])

    def test_timestamps_strictly_increasing(self):
        with pytest.raises(ValidationError):
            util.make_trace([0, 10, 10], [0, 1, 2])

    def test_negative_t_us_rejected(self):
        # as parse_trace rejects it, with its message
        with pytest.raises(ValidationError, match="trace 'neg': negative t_us -150000"):
            util.make_trace([-150000, 50000, 250000], [0, 10, 20], id="neg")

    def test_cumulative_decrease_rejected(self):
        with pytest.raises(ValidationError):
            util.make_trace([0, 10, 20], [0, 5, 3])

    def test_last_t_within_duration(self):
        with pytest.raises(ValidationError):
            util.make_trace([0, 10], [0, 1], duration_us=5)

    def test_columns_read_only(self):
        tr = util.make_trace([0, 10], [0, 1])
        with pytest.raises(ValueError):
            tr.bytes_acked[0] = 99


class TestSummarize:
    def test_y_true_is_mean_throughput(self):
        # 25000 B over 20 ms: 8*25000/20000 us = 10 Mbps
        tr = util.make_trace([0, 10000, 20000], [0, 12500, 25000])
        s = tr.summarize()
        assert s.y_true_mbps == pytest.approx(10.0)
        assert s.total_bytes == 25000

    def test_min_rtt(self):
        tr = util.make_trace([0, 10000], [0, 100], rtt_us=[30000, 25000])
        assert tr.summarize().min_rtt_ms == pytest.approx(25.0)

    def test_y_true_matches_final_cum_avg_channel(self, small_corpus):
        # cross-module invariant, checked on generated traces
        for tid in small_corpus.ids[:8]:
            trace = small_corpus.load(tid)
            ws = resample(trace)
            y = trace.summarize().y_true_mbps
            assert ws[-1, F_CUM_AVG] == pytest.approx(y, rel=1e-6)


class TestTraceSerialization:
    def test_round_trip_identity(self, small_corpus):
        trace = small_corpus.load(small_corpus.ids[0])
        blob = dump_trace(trace)
        back = parse_trace(__import__("io").BytesIO(blob))
        assert back.id == trace.id
        assert back.duration_us == trace.duration_us
        for name in ("t_us", "bytes_acked", "rtt_us", "pipe_full"):
            np.testing.assert_array_equal(getattr(back, name), getattr(trace, name))
        assert dump_trace(back) == blob
