import numpy as np
import pytest

from speedtrim.core import F_TPUT, WindowSeries
from speedtrim.engine import (
    GuardConfig,
    Policy,
    Session,
    SessionError,
    run_trace,
    variability_guard,
)
from speedtrim.traceio import resample

import util

GUARD_OFF = GuardConfig(enabled=False)


def make_policy(p_stop, estimate=100.0, guard=GUARD_OFF, **kw):
    return Policy(util.constant_regressor(estimate),
                  util.constant_classifier(p_stop), 15.0, guard=guard, **kw)


def spiky_trace():
    """400 Mbps spike then nine 2 Mbps segments, repeating each second."""
    return util.rate_profile_trace(([400.0] + [2.0] * 9) * 10, seg_s=0.1)


class TestVariabilityGuard:
    def test_constant_passes(self):
        ws = resample(util.constant_rate_trace(100.0))
        assert variability_guard(ws, 2000, GuardConfig())

    def test_spiky_suppresses(self):
        seq = np.array([400.0] + [2.0] * 9)
        cov = seq.std() / seq.mean()
        assert cov > 0.8  # oracle for the chosen levels
        ws = resample(spiky_trace())
        assert not variability_guard(ws, 2500, GuardConfig())

    def test_disabled_always_passes(self):
        ws = resample(spiky_trace())
        assert variability_guard(ws, 2500, GUARD_OFF)

    def test_stricter_vmax_suppresses_more(self):
        # anything suppressed at v_max stays suppressed at smaller v_max
        ws = resample(spiky_trace())
        for t in (1000, 3000, 5000):
            if not variability_guard(ws, t, GuardConfig(v_max=0.8)):
                assert not variability_guard(ws, t, GuardConfig(v_max=0.4))


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
        out = util.feed_trace(spiky_trace(), make_policy(1.0, guard=GuardConfig()))
        assert out.ran_to_completion

    def test_out_of_order_rejected(self):
        session = Session(make_policy(0.0))
        session.feed(util.snapshot(0, 0))
        session.feed(util.snapshot(10000, 100))
        with pytest.raises(SessionError, match="out-of-order"):
            session.feed(util.snapshot(5000, 50))

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

        policy = Policy(Counting(), util.constant_classifier(1.0), 15.0,
                        guard=GUARD_OFF)
        run_trace(small_corpus.load(small_corpus.ids[0]), policy)
        assert len(calls) == 1


class TestReplayEquivalence:
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

    def test_final_stride_never_stops_early(self):
        # decisions happen strictly inside the trace: a 10 s trace has no
        # early stop at the 10 s boundary
        out = run_trace(util.constant_rate_trace(100.0, duration_s=0.9),
                        make_policy(0.0))
        assert out.ran_to_completion
