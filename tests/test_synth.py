import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from speedtrim import synth
from speedtrim.core import CUMULATIVE_FIELDS
from speedtrim.traceio import dump_trace

CLEAN = synth.preset_spec("clean")


class TestRampMeanFraction:
    def test_closed_form_matches_numeric_integration(self):
        for tau, T in [(2.0, 10.0), (0.5, 10.0), (1.0, 5.0)]:
            t = np.linspace(0, T, 200001)
            numeric = np.trapezoid(1.0 - np.exp(-t / tau), t) / T
            assert synth.ramp_mean_fraction(tau, T) == pytest.approx(numeric, rel=1e-6)

    def test_degenerate_tau(self):
        assert synth.ramp_mean_fraction(0.0, 10.0) == 1.0


class TestGenTrace:
    def test_constant_rate_limit(self):
        spec = dataclasses.replace(CLEAN, ramp_tau_range=(1e-4, 1e-4),
                                   timestamp_jitter_ms=0.0)
        rng = np.random.default_rng(0)
        trace = synth._simulate(rng, spec, "x", capacity=100.0, tau_s=1e-4,
                                base_rtt_ms=20.0)
        assert trace.summarize().y_true_mbps == pytest.approx(100.0, rel=0.01)

    def test_ramp_closed_form(self):
        spec = dataclasses.replace(CLEAN, timestamp_jitter_ms=0.0)
        rng = np.random.default_rng(0)
        tau = 2.0
        trace = synth._simulate(rng, spec, "x", capacity=100.0, tau_s=tau,
                                base_rtt_ms=20.0)
        expect = 100.0 * synth.ramp_mean_fraction(tau, 10.0)
        assert trace.summarize().y_true_mbps == pytest.approx(expect, rel=0.02)

    def test_determinism(self):
        spec = dataclasses.replace(synth.preset_spec("default"), seed=42)
        a, _ = synth.gen_trace(spec, 3)
        b, _ = synth.gen_trace(spec, 3)
        assert dump_trace(a) == dump_trace(b)

    def test_distinct_indices_differ(self):
        spec = dataclasses.replace(synth.preset_spec("default"), seed=42)
        a, _ = synth.gen_trace(spec, 0)
        b, _ = synth.gen_trace(spec, 5)
        assert dump_trace(a) != dump_trace(b)

    def test_snapshot_invariants(self):
        spec = dataclasses.replace(synth.preset_spec("hard"), seed=9)
        for i in range(4):
            trace, _ = synth.gen_trace(spec, i)
            assert np.all(np.diff(trace.t_us) > 0)
            for name in CUMULATIVE_FIELDS:
                assert np.all(np.diff(getattr(trace, name)) >= 0), name
            assert np.all(trace.rtt_us > 0)
            assert np.all(trace.bytes_in_flight >= 0)
            assert trace.t_us[0] == 0
            assert trace.t_us[-1] == trace.duration_us

    def test_pipe_full_fires_on_fast_ramp(self):
        spec = dataclasses.replace(CLEAN, timestamp_jitter_ms=0.0)
        rng = np.random.default_rng(0)
        trace = synth._simulate(rng, spec, "x", capacity=100.0, tau_s=1.0,
                                base_rtt_ms=20.0)
        assert trace.pipe_full[-1] >= 1


def reference_pipe_full_counter(t_us, inst_rate, round_us):
    """synth._pipe_full_counter as it was, indexing NumPy scalars."""
    counts = np.zeros(len(t_us), dtype=np.int64)
    max_bw = 0.0
    plateau_rounds = 0
    total = 0
    round_end = round_us
    round_max = 0.0
    for i in range(1, len(t_us)):
        round_max = max(round_max, inst_rate[i - 1])
        if t_us[i] >= round_end:
            if max_bw > 0 and round_max < 1.25 * max_bw:
                plateau_rounds += 1
            else:
                plateau_rounds = 0
            if plateau_rounds >= 3:
                total += 1
            max_bw = max(max_bw, round_max)
            round_max = 0.0
            round_end += round_us
        counts[i] = total
    return counts


class TestPipeFullCounter:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 150), step=st.integers(1, 50000),
           round_us=st.one_of(st.floats(1.0, 2e6), st.integers(1, 50000).map(float)))
    def test_equals_the_numpy_scalar_loop(self, data, n, round_us, step):
        # whole round lengths and rates on the 1.25 boundary reach both sides of each test
        gaps = data.draw(st.lists(st.integers(1, step), min_size=n - 1, max_size=n - 1))
        t_us = np.concatenate([[0], np.cumsum(gaps, dtype=np.int64)]).astype(np.int64)
        rate = st.one_of(st.floats(0.0, 1e4), st.sampled_from([0.0, 1.0, 1.2, 1.25, 1.3, 1.6]))
        rates = data.draw(st.lists(rate, min_size=n - 1, max_size=n - 1))
        inst_rate = np.array(rates, dtype=np.float64)
        got = synth._pipe_full_counter(t_us, inst_rate, round_us)
        want = reference_pipe_full_counter(t_us, inst_rate, np.float64(round_us))
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


class TestGenCorpus:
    def test_balanced_exact_counts(self, tmp_path):
        spec = dataclasses.replace(synth.preset_spec("default"), n_traces=25, seed=7)
        corpus = synth.gen_corpus(spec, str(tmp_path / "c"))
        tiers = [corpus.summary(t).speed_tier for t in corpus.ids]
        assert sorted(np.bincount(tiers, minlength=5)) == [5, 5, 5, 5, 5]

    def test_manifest_matches_recomputation(self, small_corpus):
        for tid in small_corpus.ids[:6]:
            s = small_corpus.load(tid).summarize()
            m = small_corpus.summary(tid)
            assert m.y_true_mbps == pytest.approx(s.y_true_mbps, rel=1e-12)
            assert m.total_bytes == s.total_bytes
            assert (m.speed_tier, m.rtt_bin) == (s.speed_tier, s.rtt_bin)

    def test_natural_mode_proportions(self, tmp_path):
        weights = (0.3, 0.3, 0.2, 0.1, 0.1)
        spec = dataclasses.replace(
            synth.preset_spec("default"), n_traces=200, seed=11,
            mode="natural", tier_weights=weights)
        corpus = synth.gen_corpus(spec, str(tmp_path / "nat"))
        tiers = np.array([corpus.summary(t).speed_tier for t in corpus.ids])
        n = len(tiers)
        for k, w in enumerate(weights):
            count = int(np.sum(tiers == k))
            # binomial 99% CI (normal approximation, z = 2.576)
            half = 2.576 * math.sqrt(w * (1 - w) * n)
            assert abs(count - w * n) <= half, f"tier {k}: {count} vs {w * n}"

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            synth.preset_spec("nope")
