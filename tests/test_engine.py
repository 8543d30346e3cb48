import dataclasses
import io
import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from speedtrim import engine, label, synth, traceio
from speedtrim.core import (
    CUMULATIVE_FIELDS,
    F_DUPACK_MEAN,
    F_TPUT,
    N_FEATURES,
    SNAPSHOT_FIELDS,
    WINDOW_MS,
    Snapshot,
    ValidationError,
)
from speedtrim.engine import (
    Policy,
    Session,
    SessionError,
    run_trace,
    variability_guard,
)
from speedtrim.mlp import MlpParams, train_mlp
from speedtrim.traceio import parse_trace, resample

import util


def make_policy(p_stop, estimate=100.0):
    return Policy(util.constant_regressor(estimate),
                  util.constant_classifier(p_stop), 15.0)


def spiky_trace():
    """400 Mbps spike then nine 2 Mbps segments, repeating each second."""
    return util.rate_profile_trace(([400.0] + [2.0] * 9) * 10, seg_s=0.1)


class TestVariabilityGuard:
    def test_constant_passes(self):
        ws = resample(util.constant_rate_trace(100.0))
        assert variability_guard(ws, 2000)

    def test_spiky_suppresses(self):
        seq = np.array([400.0] + [2.0] * 9)
        cov = seq.std() / seq.mean()
        assert cov > 0.8  # oracle for the chosen levels
        ws = resample(spiky_trace())
        assert not variability_guard(ws, 2500)

    @settings(max_examples=300, deadline=None)
    @given(values=st.one_of(
        st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=20),
        st.tuples(st.floats(-1e12, 1e12), st.integers(1, 20)).map(lambda vn: [vn[0]] * vn[1]),
        st.integers(1, 20).map(lambda n: [0.0] * n),
    ))
    def test_mean_std_are_numpys_bit_for_bit(self, values):
        frames = np.zeros((len(values), N_FEATURES))
        frames[:, F_TPUT] = values
        window = frames[:, F_TPUT]      # a column view, as the guard reads it
        mean, std = engine._mean_std(window)
        assert mean.hex() == float(window.mean()).hex()
        assert std.hex() == float(window.std()).hex()


class TestIntake:
    """NumPy integer snapshots window as the same values as Python ints do;
    a value outside int64 is named by Snapshot.validate and so never
    reaches a window."""

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint64],
                             ids=["int32", "int64", "uint64"])
    def test_numpy_integers_give_the_frames_of_python_ints(self, dtype):
        # the session's windows fold the values as given, not as int64
        # columns: every stride must still see byte-identical frames, and
        # a session that stops and one that never does decide as on ints
        big = 2 ** 31 - 1 if dtype is np.int32 else 2 ** 63 - 1
        rows = [(0, 0, 7, 0, 9, 0, 0, 0)]
        rows += [(t_us, t_us * 12 if t_us < 1_100_000 else big - 1_400_000 + t_us,
                  big - t_us, t_us % 7, 20_000 + t_us % 13, t_us // 90_000,
                  big if t_us >= 1_100_000 else t_us // 70_000, t_us // 400_000)
                 for t_us in range(30_000, 1_400_000, 30_000)]
        snaps = [Snapshot(*row) for row in rows]
        typed = [Snapshot(*map(dtype, row)) for row in rows]
        seen = [judged_series(feed) for feed in (snaps, typed)]
        assert [t for t, _ in seen[0]] == [500, 1000]
        assert [(t, f.tobytes()) for t, f in seen[0]] == [(t, f.tobytes()) for t, f in seen[1]]
        for p_stop in (0.0, 1.0):
            decided = [decisions(feed, make_policy(p_stop)) for feed in (snaps, typed)]
            assert decided[0] == decided[1]
            assert decided[0][0][-1].reason == ("classifier" if p_stop else "end-of-trace")

    @pytest.mark.parametrize("field, value", [
        ("cwnd_bytes", 2 ** 63), ("cwnd_bytes", np.uint64(2 ** 63)),
        ("retrans", -2 ** 63 - 1), ("t_us", 2 ** 64), ("pipe_full", np.uint64(2 ** 64 - 1)),
    ])
    def test_value_past_int64_named(self, field, value):
        snap = util.snapshot(100_000, 10)._replace(**{field: value})
        with pytest.raises(OverflowError):
            np.array([snap], dtype=np.int64)
        message = f"{field} outside the 64-bit integer range at t_us={snap.t_us}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            snap.validate()


class TestSessionFeed:
    def test_always_stop_fires_at_first_stride(self):
        out = util.feed_trace(util.constant_rate_trace(100.0), make_policy(1.0))
        assert out.stop_time_ms == 500.0
        assert not out.ran_to_completion
        assert out.reason == "classifier"

    def test_never_stop_runs_to_completion(self):
        out = util.feed_trace(util.constant_rate_trace(100.0), make_policy(0.0))
        assert out.ran_to_completion
        assert out.reason == "end-of-trace"
        assert out.stop_time_ms == pytest.approx(10000.0)
        assert out.rel_error == 0.0

    def test_guard_suppresses_despite_classifier(self):
        out = util.feed_trace(spiky_trace(), make_policy(1.0))
        assert out.ran_to_completion

    def test_out_of_order_rejected(self):
        session = Session(make_policy(0.0))
        session.feed(util.snapshot(0, 0))
        session.feed(util.snapshot(10000, 100))
        with pytest.raises(SessionError, match="out-of-order"):
            session.feed(util.snapshot(5000, 50))

    @pytest.mark.parametrize("first, second", [("bytes_acked", "retrans"),
                                               ("dup_acks", "pipe_full")])
    def test_first_decreasing_counter_named(self, first, second):
        session = Session(make_policy(0.0))
        session.feed(util.snapshot(**dict(t_us=0, bytes_acked=0) | {first: 9, second: 9}))
        with pytest.raises(ValidationError, match=f"^{first} decreases at t_us=10000$"):
            session.feed(util.snapshot(**dict(t_us=10000, bytes_acked=0) | {first: 8, second: 8}))

    def test_out_of_order_named_before_any_counter(self):
        session = Session(make_policy(0.0))
        session.feed(util.snapshot(10000, 100, retrans=5, dup_acks=5, pipe_full=5))
        with pytest.raises(SessionError, match="^out-of-order snapshot: t_us=5000 after 10000$"):
            session.feed(util.snapshot(5000, 50, retrans=4, dup_acks=4, pipe_full=4))

    def test_feed_after_stop_rejected(self):
        session = Session(make_policy(1.0))
        t = 0
        while True:
            decision = session.feed(util.snapshot(t, t * 10))
            if decision.stopping:
                break
            t += 10000
        with pytest.raises(SessionError, match="after stop"):
            session.feed(util.snapshot(t + 10000, 0))


class TestFinalize:
    def test_early_stop_uses_regressor(self):
        out = run_trace(util.constant_rate_trace(100.0),
                        make_policy(1.0, estimate=97.0))
        assert out.estimate_mbps == 97.0
        assert out.rel_error == pytest.approx(0.03, abs=1e-3)
        # 500 ms at 100 Mbps = 6.25 MB
        assert out.bytes_at_stop == pytest.approx(6.25e6, rel=0.03)

    def test_completion_identity(self, small_corpus):
        tid = small_corpus.ids[0]
        trace = small_corpus.load(tid)
        out = run_trace(trace, make_policy(0.0))
        assert out.bytes_at_stop == small_corpus.summary(tid).total_bytes
        assert out.rel_error == 0.0

    def test_finalize_before_terminal(self):
        session = Session(make_policy(0.0))
        with pytest.raises(SessionError, match="before terminal"):
            session.finalize()

    def test_double_finalize(self):
        session = Session(make_policy(0.0))
        session.feed(util.snapshot(0, 0))
        session.feed(util.snapshot(10000, 100))
        session.end_of_trace()
        session.finalize(10.0)
        with pytest.raises(SessionError, match="twice"):
            session.finalize(10.0)

    def test_regressor_called_at_most_once(self, small_corpus):
        calls = []
        base = util.constant_regressor(100.0)
        orig = base.predict

        class Counting:
            n_features = base.n_features
            params = base.params

            def predict(self, X):
                calls.append(1)
                return orig(X)

        policy = Policy(Counting(), util.constant_classifier(1.0), 15.0)
        run_trace(small_corpus.load(small_corpus.ids[0]), policy)
        assert len(calls) == 1


class TestReplayEquivalence:
    def test_estimate_is_the_labeling_batchs_prediction(self, small_corpus, small_regressor,
                                                        small_classifier15):
        # the session's one-row call at the stop stride gives, by bytes, the
        # number that labeling's batch over every stride of the trace gives
        policy = Policy(small_regressor, small_classifier15, 15.0)
        stops = []
        for tid in small_corpus.ids:
            trace = small_corpus.load(tid)
            out = run_trace(trace, policy)
            if out.ran_to_completion:
                continue
            frames = resample(trace)
            times = traceio.stride_times(len(frames) * traceio.WINDOW_MS)
            batch = small_regressor.predict(
                np.vstack([traceio.regressor_input(frames, t) for t in times]))
            want = batch[times.index(int(out.stop_time_ms))]
            assert np.float64(out.estimate_mbps).tobytes() == want.tobytes(), tid
            stops.append(out.stop_time_ms)
        assert len(stops) >= 10 and len(set(stops)) >= 3, stops

    def test_fast_and_slow_paths_agree(self, small_corpus, small_regressor,
                                       small_classifier15):
        policy = Policy(small_regressor, small_classifier15, 15.0)
        for tid in small_corpus.ids[:10]:
            trace = small_corpus.load(tid)
            a = run_trace(trace, policy)
            b = util.feed_trace(trace, policy)
            assert a.stop_time_ms == b.stop_time_ms, tid
            assert a.estimate_mbps == b.estimate_mbps, tid
            assert a.reason == b.reason, tid

    def test_replay_is_deterministic(self, small_corpus, small_regressor,
                                     small_classifier15):
        policy = Policy(small_regressor, small_classifier15, 15.0)
        trace = small_corpus.load(small_corpus.ids[3])
        a = run_trace(trace, policy)
        b = run_trace(trace, policy)
        assert a == b

    def test_folded_classifier_decides_as_the_dense_one(self, small_corpus, small_regressor):
        # predict_proba skips the zero-filled history; standardizing every
        # column and multiplying them all must give the same outcomes
        X, labels, _ = label.build_classification_dataset(small_corpus, small_regressor, (5.0,))
        classifier = train_mlp(X, labels[:, 0], MlpParams(epochs=4), seed=5)
        spec = dataclasses.replace(synth.preset_spec("default"), mode="natural", seed=4321)
        traces = [synth.gen_trace(spec, i)[0] for i in range(60)]
        folded = [run_trace(trace, Policy(small_regressor, classifier, 5.0))
                  for trace in traces]
        dense = [run_trace(trace, Policy(small_regressor, util.DenseClassifier(classifier), 5.0))
                 for trace in traces]
        assert folded == dense
        assert len({out.stop_time_ms for out in folded}) >= 3    # not all at one stride

    def test_final_stride_never_stops_early(self):
        # decisions happen strictly inside the trace: a 10 s trace has no
        # early stop at the 10 s boundary
        out = run_trace(util.constant_rate_trace(100.0, duration_s=0.9),
                        make_policy(0.0))
        assert out.ran_to_completion


def judged_series(snapshots):
    """(t_ms, frames) of every stride a never-stopping session judges
    while the snapshots are fed to it, read where the guard sees them."""
    seen = []

    def recording(ws, t_ms):
        seen.append((t_ms, ws.copy()))
        return variability_guard(ws, t_ms)

    session = Session(make_policy(0.0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "variability_guard", recording)
        for snap in snapshots:      # strides are judged while feeding
            session.feed(snap)
    return seen


def decisions(snapshots, policy):
    """Every decision a session gives while the snapshots are fed to it,
    up to its stop or the end of the trace, and its outcome."""
    session = Session(policy)
    decided = []
    for snap in snapshots:
        decided.append(session.feed(snap))
        if decided[-1].stopping:
            break
    else:
        decided.append(session.end_of_trace())
    return decided, session.finalize(100.0)


def assert_frames_match_resample(trace):
    ws = resample(trace)
    seen = judged_series(trace.snapshots)
    for t_ms, frames in seen:
        n = t_ms // WINDOW_MS
        assert frames.shape[0] == n
        assert frames.tobytes() == ws[:n].tobytes(), t_ms
    return seen


@st.composite
def timings(draw):
    """Strictly rising snapshot times up to 3 s, mixing exact 100 ms
    boundaries with arbitrary microseconds, so that gaps can span whole
    strides; the other columns are random but valid."""
    boundary = st.integers(0, 30).map(lambda k: k * 100_000)
    t_us = sorted(draw(st.sets(st.one_of(boundary, st.integers(0, 3_000_000)),
                               min_size=2, max_size=60)))
    n = len(t_us)

    def rising(hi):
        return np.cumsum(draw(st.lists(st.integers(0, hi), min_size=n, max_size=n)))

    def level(lo, hi):
        return draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))

    return util.make_trace(t_us, rising(10 ** 6), cwnd_bytes=level(0, 10 ** 6),
                           bytes_in_flight=level(0, 10 ** 6), rtt_us=level(1, 10 ** 6),
                           retrans=rising(5), dup_acks=rising(5), pipe_full=rising(2))


@st.composite
def dense_snapshots(draw):
    """Snapshots 1 ms apart for 1.2 to 2.5 s from a random start, about a
    hundred to a window, with random valid values."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1_200, 2_500))
    t_us = draw(st.integers(0, 99_999)) + 1_000 * np.arange(n)

    def rising(hi):
        return np.cumsum(rng.integers(0, hi, n, endpoint=True))

    return util.make_trace(t_us, rising(10 ** 5), cwnd_bytes=rng.integers(0, 10 ** 6, n),
                           bytes_in_flight=rng.integers(0, 10 ** 6, n),
                           rtt_us=rng.integers(1, 10 ** 6, n), retrans=rising(2),
                           dup_acks=rising(3), pipe_full=rising(1))


class TestWindowKernel:
    """resample builds its frames with the live session's kernel: they equal
    a per-window plain-Python reference bit for bit, and fold_window gives
    them whatever the chunks a window is folded in."""

    @settings(max_examples=150, deadline=None)
    @given(trace=timings())
    def test_frames_equal_the_reference(self, trace):
        win_us = WINDOW_MS * 1000
        n = math.ceil(trace.t_us[-1] / win_us)
        w_of = np.minimum(trace.t_us // win_us, n - 1)
        cols = np.array([getattr(trace, name) for name in SNAPSHOT_FIELDS])
        assert resample(trace).tobytes() == util.reference_window_frames(cols, w_of, n).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(trace=st.one_of(timings(), dense_snapshots()), data=st.data())
    def test_folded_windows_equal_resample(self, trace, data):
        frames = resample(trace)
        # a last snapshot on the trailing boundary folds into the last window
        w_of = np.minimum(trace.t_us // (WINDOW_MS * 1000), len(frames) - 1)
        snaps, prev = trace.snapshots, None
        for w in np.unique(w_of):
            members = snaps[np.searchsorted(w_of, w):np.searchsorted(w_of, w, "right")]
            sums, i = traceio.EMPTY_WINDOW, 0
            while i < len(members):     # the window in chunks of random sizes
                k = data.draw(st.integers(1, 20), label="chunk")
                sums = traceio.fold_window(sums, members[i:i + k], prev)
                prev, i = members[min(i + k, len(members)) - 1], i + k
            frame = np.array(traceio.window_frame(sums, members[-1]))
            assert frame.tobytes() == frames[w].tobytes(), w


class TestOneDecisionPath:
    """A session builds its frames as snapshots arrive; at every judged
    stride they equal the frames resample gives for the whole trace, so
    live feeding and replay decide alike."""

    def test_frames_equal_resample_on_corpus(self, small_corpus):
        for tid in small_corpus.ids:
            seen = assert_frames_match_resample(small_corpus.load(tid))
            assert len(seen) == 19, tid

    @settings(max_examples=150, deadline=None)
    @given(trace=timings())
    def test_frames_equal_resample_on_any_timing(self, trace):
        assert_frames_match_resample(trace)

    @settings(max_examples=25, deadline=None)
    @given(trace=dense_snapshots())
    def test_frames_equal_resample_on_dense_snapshots(self, trace):
        # more snapshots to a window than a session holds unfolded
        assert len(assert_frames_match_resample(trace)) >= 2

    def test_second_snapshot_on_a_stride_boundary_before_a_gap(self):
        # the 500 ms snapshot opens window 5, which the 700 ms one closes
        # early; it does not lie before stride 500, so that stride is not
        # judged, as in a replay
        t_us = [0, 500_000] + list(range(700_000, 3_000_001, 100_000))
        trace = util.make_trace(t_us, [t * 10 for t in t_us])
        assert [t_ms for t_ms, _ in assert_frames_match_resample(trace)] == [
            1000, 1500, 2000, 2500]
        policy = make_policy(1.0)
        live, replay = util.feed_trace(trace, policy), run_trace(trace, policy)
        assert live == replay
        assert live.stop_time_ms > 500.0

    def test_boundary_snapshot_before_gap(self):
        # every 100 ms, 124 Mbps from 300 to 400 ms, nothing from 400 to
        # 600 ms: the 400 ms snapshot belongs to window 4, not window 3
        t_ms = [0, 100, 200, 300, 400] + list(range(600, 3001, 100))
        rates = [100.0, 100.0, 100.0, 124.0] + [100.0] * (len(t_ms) - 5)
        steps = [r * 1e5 / 8 * (b - a) / 100 for r, a, b in zip(rates, t_ms, t_ms[1:])]
        trace = util.make_trace(np.array(t_ms) * 1000,
                                np.concatenate([[0], np.cumsum(steps)]).astype(np.int64))
        tput = resample(trace)[:5, F_TPUT]
        np.testing.assert_allclose(tput, [0, 100, 100, 100, 124])
        policy = make_policy(1.0)
        live, replay = util.feed_trace(trace, policy), run_trace(trace, policy)
        assert live == replay
        assert live.stop_time_ms == 500.0
        assert_frames_match_resample(trace)

    def test_one_snapshot_before_first_stride(self):
        # a single snapshot shows no throughput: stride 500 is not judged,
        # though its five empty windows would pass the guard; the guard
        # suppresses strides 1000 and 1500, whose windows still hold the
        # empty 100-600 ms gap
        t_us = [0] + list(range(600_000, 3_000_001, 100_000))
        trace = util.make_trace(t_us, [t * 10 for t in t_us])
        assert variability_guard(resample(trace), 500)
        policy = make_policy(1.0)
        live, replay = util.feed_trace(trace, policy), run_trace(trace, policy)
        assert live == replay
        assert replay.stop_time_ms == 2000.0
        assert replay.bytes_at_stop == 20_000_000   # the 2000 ms snapshot

    @pytest.mark.parametrize("field", CUMULATIVE_FIELDS)
    def test_dip_rejected_at_the_dipped_snapshot(self, field):
        # the counter rises to 9, then dips to 8 before any stride is judged
        session = Session(make_policy(0.0))
        for t_us, value in ((0, 0), (100_000, 9)):
            session.feed(util.snapshot(**dict(t_us=t_us, bytes_acked=0) | {field: value}))
        dipped = util.snapshot(**dict(t_us=200_000, bytes_acked=0) | {field: 8})
        with pytest.raises(ValidationError, match=f"{field} decreases at t_us=200000"):
            session.feed(dipped)

    def test_non_integer_fields_rejected(self):
        for bad in (dict(bytes_acked=1.0), dict(rtt_us=True), dict(retrans="7")):
            session = Session(make_policy(0.0))
            session.feed(util.snapshot(0, 0))
            snap = util.snapshot(**dict(t_us=100_000, bytes_acked=10) | bad)
            with pytest.raises(ValidationError, match="must be an integer"):
                session.feed(snap)
        session = Session(make_policy(0.0))
        session.feed(util.snapshot(np.int64(0), np.int64(0)))
        session.feed(util.snapshot(np.int64(100_000), np.int64(10)))


class TestSessionState:
    """A session fills its frames in place in one fixed buffer: its memory
    stays flat over a capped test, and a snapshot rejected at its feed
    fills no window."""

    def test_memory_flat_over_a_capped_test(self):
        # 1 ms snapshots at 100 Mbps to the 60 s cap; what grows past 2 s
        # is the classifier latency the session records per judged stride
        tracemalloc.start()
        try:
            session = Session(make_policy(0.0))
            for t_ms in range(60_000):
                session.feed(util.snapshot(t_ms * 1000, t_ms * 12_500))
                if t_ms == 2000:
                    at_2s = tracemalloc.get_traced_memory()[0]
            at_end = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert not session.terminal
        assert at_end - at_2s < 16 * 1024

    @pytest.mark.parametrize("stride_ms", [500, 1500])
    def test_stride_that_raised_fills_no_window(self, stride_ms, monkeypatch):
        # a cwnd past int64 inside the run of stride stride_ms is rejected
        # at its own feed: every stride then sees the frames of a session
        # that was never fed that snapshot, and the session goes on
        t_us = range(5_000, 3_000_000, 10_000)     # none on a window boundary
        snaps = [util.snapshot(t, 12 * t) for t in t_us]
        bad = t_us.index((stride_ms - 205) * 1000)
        seen = []

        def recording(frames, t_ms):
            seen.append((t_ms, frames.tobytes()))
            return variability_guard(frames, t_ms)

        monkeypatch.setattr(engine, "variability_guard", recording)
        failing = Session(make_policy(0.0))
        for i, snap in enumerate(snaps):
            if i == bad:
                with pytest.raises(ValidationError, match="cwnd_bytes outside the 64-bit"):
                    failing.feed(snap._replace(cwnd_bytes=2 ** 63))
            else:
                failing.feed(snap)
        judged, seen = seen, []
        reference = Session(make_policy(0.0))
        for snap in snaps[:bad] + snaps[bad + 1:]:
            reference.feed(snap)
        assert [t_ms for t_ms, _ in judged] == list(range(500, 3000, 500))
        assert judged == seen


class TestSessionAcceptsWhatTheParserAccepts:
    """Values outside int64, fewer than two snapshots and a test with no
    bytes acked are input errors, as they are in parse_trace."""

    def test_out_of_range_value_named_at_the_next_stride(self):
        # the value is named at its own feed, not at the next stride: the
        # rejected snapshot joins no run, and the session goes on, judges
        # its next stride and ends as one never fed it
        session = Session(make_policy(0.0))
        session.feed(util.snapshot(0, 0))
        with pytest.raises(ValidationError,
                           match="cwnd_bytes outside the 64-bit integer range at t_us=100000"):
            session.feed(util.snapshot(100_000, 10, cwnd_bytes=2 ** 70))
        session.feed(util.snapshot(100_000, 10))
        session.feed(util.snapshot(600_000, 20))
        session.end_of_trace()
        assert session.finalize() == run_trace(
            util.make_trace([0, 100_000, 600_000], [0, 10, 20]), make_policy(0.0))

    def test_out_of_range_value_rejected_at_end_of_trace(self):
        # a bad last snapshot is rejected at its feed, so end_of_trace ends
        # the test on the snapshots before it
        session = Session(make_policy(0.0))
        session.feed(util.snapshot(0, 0))
        session.feed(util.snapshot(50_000, 5))
        with pytest.raises(ValidationError,
                           match="bytes_acked outside the 64-bit integer range at t_us=100000"):
            session.feed(util.snapshot(100_000, 2 ** 64))
        session.end_of_trace()
        assert session.finalize() == run_trace(
            util.make_trace([0, 50_000], [0, 5]), make_policy(0.0))

    @pytest.mark.parametrize("field, value", [("t_us", 2 ** 70), ("cwnd_bytes", -2 ** 63 - 1),
                                              ("pipe_full", np.uint64(2 ** 64 - 1))])
    def test_out_of_range_value_rejected_where_it_ends_a_stride(self, field, value):
        # a snapshot that ends a stride may also stop the test, so it is
        # checked before the stride is judged
        session = Session(make_policy(1.0))
        session.feed(util.snapshot(0, 0))
        session.feed(util.snapshot(100_000, 10))
        snap = util.snapshot(600_000, 20)._replace(**{field: value})
        with pytest.raises(ValidationError, match=f"{field} outside the 64-bit integer range "
                                                  f"at t_us={snap.t_us}"):
            session.feed(snap)
        assert not session.terminal

    def test_snapshot_far_past_the_test_length_cap_rejected_at_once(self):
        # judging every stride up to 2**62 us would take hours
        session = Session(make_policy(0.0))
        session.feed(util.snapshot(0, 0))
        session.feed(util.snapshot(100_000, 10))
        far = util.snapshot(2 ** 62, 20)
        elapsed = []
        for _ in range(3):
            t0 = time.perf_counter()
            with pytest.raises(ValidationError, match=f"t_us {2 ** 62} exceeds the test-length"):
                session.feed(far)
            elapsed.append(time.perf_counter() - t0)
            assert not session.terminal
        assert min(elapsed) < 1e-3
        session.feed(util.snapshot(200_000, 30))    # the session goes on

    def test_int64_extremes_accepted(self):
        session = Session(make_policy(0.0))
        session.feed(util.snapshot(0, 0, cwnd_bytes=-2 ** 63))
        session.feed(util.snapshot(100_000, 10, cwnd_bytes=2 ** 63 - 1, retrans=2 ** 63 - 1))
        session.feed(util.snapshot(600_000, 2 ** 63 - 1, retrans=2 ** 63 - 1))
        session.end_of_trace()
        assert session.finalize(10.0).ran_to_completion

    @pytest.mark.parametrize("dup_acks", [[-2 ** 63, 2 ** 63 - 1], [-2 ** 63, 0, 2 ** 63 - 1]])
    def test_counter_rising_across_int64_accepted_by_both(self, dup_acks):
        # each rise exceeds 2**63, which an int64 difference wraps to negative
        snaps = [util.snapshot(100_000 * i, 10 * (i + 1), dup_acks=d)
                 for i, d in enumerate(dup_acks)]
        data = "\n".join(json.dumps(snap._asdict()) for snap in snaps).encode()
        assert parse_trace(io.BytesIO(data)).dup_acks.tolist() == dup_acks
        session = Session(make_policy(0.0))
        for snap in snaps:
            session.feed(snap)
        session.end_of_trace()
        assert session.finalize(10.0).ran_to_completion

    def test_counter_rise_across_int64_is_a_positive_delta(self):
        # the rise is 2**64 - 1, which an int64 difference wraps to -1
        snaps = [util.snapshot(0, 10, dup_acks=-2 ** 63),
                 util.snapshot(100_000, 20, dup_acks=2 ** 63 - 1)]
        data = "\n".join(json.dumps(snap._asdict()) for snap in snaps).encode()
        trace = parse_trace(io.BytesIO(data))
        assert resample(trace)[0, F_DUPACK_MEAN] > 0   # one window
        policy = make_policy(0.0)
        assert util.feed_trace(trace, policy) == run_trace(trace, policy)
        # a stride judged after the rise sees the same frames live
        longer = util.make_trace([0, 100_000, 600_000], [10, 20, 30],
                                 dup_acks=[-2 ** 63, 2 ** 63 - 1, 2 ** 63 - 1])
        assert len(assert_frames_match_resample(longer)) == 1

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_snapshots_rejected(self, n):
        session = Session(make_policy(0.0))
        for i in range(n):
            session.feed(util.snapshot(0, 1000))
        with pytest.raises(ValidationError, match=f"needs >= 2 snapshots, got {n}"):
            session.end_of_trace()

    def test_no_bytes_acked_rejected(self):
        session = Session(make_policy(0.0))
        for t_us in range(0, 1_100_000, 100_000):
            session.feed(util.snapshot(t_us, 0))
        with pytest.raises(ValidationError, match="no bytes acked by the last snapshot"):
            session.end_of_trace()
