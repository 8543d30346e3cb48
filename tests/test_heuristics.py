import numpy as np
import pytest

from speedtrim import heuristics as H
from speedtrim.core import F_TPUT
from speedtrim.traceio import resample

import util


@pytest.fixture(scope="module")
def noisy_series():
    rng = np.random.default_rng(77)
    frames = np.zeros((100, 13))
    base = 100.0 + 20.0 * rng.standard_normal(100)
    frames[:, F_TPUT] = np.abs(base) + 1.0
    frames[:, 1] = np.cumsum(frames[:, F_TPUT]) / np.arange(1, 101)
    return frames


def alternating_series(lo=60.0, hi=140.0, n=100):
    frames = np.zeros((n, 13))
    frames[:, F_TPUT] = np.where(np.arange(n) % 2 == 0, lo, hi)
    frames[:, 1] = np.cumsum(frames[:, F_TPUT]) / np.arange(1, n + 1)
    return frames


class TestStatic:
    def test_slow_trace_never_caps(self):
        res = H.stop_static(util.constant_rate_trace(10.0), 250 * 10 ** 6)
        assert not res.stopped_early
        assert res.estimate_mbps == pytest.approx(10.0, rel=1e-3)

    def test_fast_trace_caps_at_2500ms(self):
        res = H.stop_static(util.constant_rate_trace(800.0), 250 * 10 ** 6)
        assert res.stopped_early
        assert res.stop_time_ms == pytest.approx(2500.0, abs=11.0)

    def test_one_byte_cap(self):
        tr = util.constant_rate_trace(100.0)
        res = H.stop_static(tr, 1)
        assert res.stopped_early
        assert res.stop_time_ms == pytest.approx(10.0, abs=1.0)

    def test_cap_monotonicity(self, small_corpus):
        caps = [10 ** 6, 10 ** 7, 5 * 10 ** 7, 25 * 10 ** 8]
        for tid in small_corpus.ids[:8]:
            tr = small_corpus.load(tid)
            stops = [H.stop_static(tr, c).stop_time_ms for c in caps]
            assert stops == sorted(stops)


class TestBbr:
    def make_series(self, first_hit_window, level=3):
        frames = np.zeros((100, 13))
        frames[:, F_TPUT] = 50.0
        frames[:, 1] = 50.0
        frames[first_hit_window:, 2] = level
        return frames

    def test_first_passage(self):
        # counter reaches 3 inside window 14 (t in [1.4, 1.5) s): the first
        # stride boundary at or past it is 1.5 s
        res = H.stop_bbr(self.make_series(14, level=3), k=3)
        assert res.stopped_early
        assert res.stop_time_ms == 1500

    def test_threshold_unreachable(self):
        res = H.stop_bbr(self.make_series(10, level=2), k=5)
        assert not res.stopped_early

    def test_k_monotonicity(self, small_corpus):
        for tid in small_corpus.ids[:8]:
            ws = resample(small_corpus.load(tid))
            stops = [H.stop_bbr(ws, k).stop_time_ms for k in (1, 2, 3, 5, 7)]
            assert stops == sorted(stops)

    def test_rescale_invariance(self):
        ws = self.make_series(20, level=4)
        scaled = ws * np.where(np.arange(13) == 2, 1.0, 7.5)
        a = H.stop_bbr(ws, 3)
        b = H.stop_bbr(scaled, 3)
        assert a.stop_time_ms == b.stop_time_ms
        assert a.stopped_early == b.stopped_early

    def test_bad_k(self):
        with pytest.raises(ValueError):
            H.stop_bbr(self.make_series(5), 0)


class TestTsh:
    def test_constant_trace_stops_at_first_covering_stride(self):
        ws = resample(util.constant_rate_trace(100.0))
        res = H.stop_tsh(ws, tol_pct=20)
        assert res.stopped_early
        assert res.stop_time_ms == 1000

    def test_large_swings_never_stop(self):
        # +/- 40% around the mean exceeds a 20% tolerance forever
        res = H.stop_tsh(alternating_series(60.0, 140.0), tol_pct=20)
        assert not res.stopped_early

    def test_tolerance_monotonicity(self, small_corpus):
        for tid in small_corpus.ids[:8]:
            ws = resample(small_corpus.load(tid))
            stops = [H.stop_tsh(ws, tol).stop_time_ms for tol in (20, 25, 30, 35)]
            assert stops == sorted(stops, reverse=True)

    def test_no_stop_estimate_is_exact(self):
        res = H.stop_tsh(alternating_series(), tol_pct=20)
        expect = alternating_series()[-1, 1]
        assert res.estimate_mbps == pytest.approx(expect)


class TestCrucialInterval:
    def test_covers_fraction(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(100, 10, size=500)
        lo, hi = H.crucial_interval(samples, 0.8)
        inside = np.mean((samples >= lo) & (samples <= hi))
        assert inside >= 0.8

    def test_is_shortest_among_rank_windows(self):
        # brute force over contiguous rank windows of the same coverage
        rng = np.random.default_rng(4)
        samples = np.sort(rng.exponential(50, size=60))
        lo, hi = H.crucial_interval(samples, 0.8)
        w = int(np.ceil(0.8 * 60))
        widths = [samples[i + w - 1] - samples[i] for i in range(60 - w + 1)]
        assert hi - lo == pytest.approx(min(widths))

    def test_degenerate(self):
        assert H.crucial_interval(np.full(10, 5.0)) == (5.0, 5.0)


class TestIntervalSimilarity:
    def test_identical(self):
        assert H.interval_similarity((1, 3), (1, 3)) == 1.0

    def test_disjoint(self):
        assert H.interval_similarity((0, 1), (2, 3)) == 0.0

    def test_half_overlap(self):
        assert H.interval_similarity((0, 2), (1, 3)) == pytest.approx(1 / 3)

    def test_both_degenerate(self):
        assert H.interval_similarity((5, 5), (5, 5)) == 1.0


class TestCis:
    def test_constant_trace_stops_at_second_stride(self):
        ws = resample(util.constant_rate_trace(100.0))
        for beta in (0.6, 0.9, 1.0):
            res = H.stop_cis(ws, beta)
            assert res.stopped_early
            assert res.stop_time_ms == 1000

    def test_beta_one_on_noisy_trace(self, noisy_series):
        res = H.stop_cis(noisy_series, 1.0)
        # exact coincidence of consecutive intervals is required
        if res.stopped_early:
            assert res.stop_time_ms >= 1000

    def test_beta_monotonicity(self, small_corpus):
        betas = (0.6, 0.8, 0.85, 0.9, 0.95, 1.0)
        for tid in small_corpus.ids[:8]:
            ws = resample(small_corpus.load(tid))
            stops = [H.stop_cis(ws, b).stop_time_ms for b in betas]
            assert stops == sorted(stops)

    def test_estimate_is_interval_midpoint(self, noisy_series):
        res = H.stop_cis(noisy_series, 0.6)
        if res.stopped_early:
            end = int(res.stop_time_ms) // 100
            lo, hi = H.crucial_interval(noisy_series[:end, F_TPUT])
            assert res.estimate_mbps == pytest.approx(0.5 * (lo + hi))

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            H.stop_cis(alternating_series(), 0.0)


class TestNoStopExactEstimate:
    def test_full_run_error_zero(self, small_corpus):
        # whichever heuristic never fires must report the full-run aggregate
        tid = small_corpus.ids[0]
        tr = small_corpus.load(tid)
        ws = resample(tr)
        y = tr.summarize().y_true_mbps
        res = H.stop_bbr(ws, 10 ** 6)
        assert not res.stopped_early
        assert res.estimate_mbps == pytest.approx(y, rel=1e-6)


class TestParsing:
    def test_parse_size(self):
        assert H.parse_size("250MB") == 250 * 10 ** 6
        assert H.parse_size("1GB") == 10 ** 9
        assert H.parse_size("512KB") == 512000
        assert H.parse_size("123") == 123

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            H.parse_size("10XB")
        _, parse_k = H.BASELINE_PARAMS["bbr"]
        with pytest.raises(ValueError):
            parse_k("three")
        ws = resample(util.constant_rate_trace(100.0))
        with pytest.raises(ValueError, match="unknown heuristic"):
            H.run_heuristic("wat", None, ws, 1)
