import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from speedtrim import synth
from speedtrim.core import CUMULATIVE_FIELDS, ValidationError
from speedtrim.traceio import dump_trace

import util

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


@st.composite
def grid_settings(draw, max_steps: int = 3000):
    """(duration_s, snapshot_ms, timestamp_jitter_ms) inside GENSPEC_LIMITS,
    with at most about ``max_steps`` snapshots and jitter often near the
    largest a step admits: about half a step, or the gap the rounding of
    the step count leaves before the end."""
    duration_s = draw(st.one_of(st.floats(0.5, 60.0), st.sampled_from([0.5, 1.5, 10.0])))
    snapshot_ms = draw(st.one_of(
        st.floats(max(1.0, duration_s * 1000.0 / max_steps), 1000.0),
        st.sampled_from([1000.0, 400.0, 250.0, 10.0, 4.001]).filter(
            lambda ms: duration_s * 1000.0 / ms <= max_steps)))
    n_steps = synth._time_grid(duration_s, snapshot_ms)[1]
    assume(n_steps >= 1)
    end_gap_ms = duration_s * 1e3 - (n_steps - 1) * snapshot_ms
    edge = draw(st.sampled_from([snapshot_ms / 2, end_gap_ms]))
    lo = min(max(edge - 0.002, 0.0), 1000.0)
    near = st.floats(lo, max(min(edge + 0.002, 1000.0), lo))
    jitter_ms = draw(st.one_of(st.floats(0.0, 1000.0), near,
                               st.sampled_from([0.0, 2.0, (snapshot_ms - 0.001) / 2])))
    return duration_s, snapshot_ms, jitter_ms


class ExtremeJitter:
    """A Generator that draws the timestamp jitter, its one uniform draw
    from a negative low end, at the ends of its range: alternately the
    high and the low end, starting from the high end if ``high_first``."""

    def __init__(self, seed: int, high_first: bool):
        self._rng = np.random.default_rng(seed)
        self._high_first = high_first

    def uniform(self, low, high, size=None):
        if low >= 0:
            return self._rng.uniform(low, high, size)
        high_end = np.arange(size) % 2 == (0 if self._high_first else 1)
        return np.where(high_end, high, low)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestGenSpecChecks:
    @settings(max_examples=250, deadline=None)
    @given(grid=grid_settings(), seed=st.integers(0, 2**32 - 1))
    def test_admitted_exactly_when_every_draw_rises(self, grid, seed):
        """A spec is admitted exactly when its jitter, at the ends of its
        range, gives strictly rising snapshot times: so every draw of an
        admitted spec does, and a rejected spec has a draw that does not."""
        duration_s, snapshot_ms, jitter_ms = grid
        unjittered = dataclasses.replace(CLEAN, duration_s=duration_s, snapshot_ms=snapshot_ms,
                                         timestamp_jitter_ms=0.0)
        try:
            spec = dataclasses.replace(unjittered, timestamp_jitter_ms=jitter_ms)
        except ValueError as exc:
            assert "timestamp_jitter_ms" in str(exc)
            spec = unjittered
            object.__setattr__(spec, "timestamp_jitter_ms", jitter_ms)   # as if admitted
            admitted = False
        else:
            admitted = True
        draw = functools.partial(synth._simulate, spec=spec, trace_id="x", capacity=10.0,
                                 tau_s=0.5, base_rtt_ms=20.0)
        rises = []
        for rng in (ExtremeJitter(seed, True), ExtremeJitter(seed, False)):
            try:
                draw(rng)
            except ValidationError as exc:
                assert "t_us not strictly increasing" in str(exc)
                rises.append(False)
            else:
                rises.append(True)
        assert all(rises) == admitted
        if admitted:
            trace = draw(np.random.default_rng(seed))
            assert np.all(np.diff(trace.t_us) > 0)

    @pytest.mark.parametrize("changes, message", [
        *[({name: (2.0, 1.0)}, f"{name} must run from low to high, got (2.0, 1.0)")
          for name in synth.RANGE_FIELDS],
        ({"tier_weights": (0.0,) * 5}, "tier_weights must have a finite sum > 0"),
        ({"rtt_bin_weights": (1e308, 1e308, 0.0, 0.0, 0.0)},
         "rtt_bin_weights must have a finite sum > 0"),
        ({"duration_s": 0.5, "snapshot_ms": 1000.0},
         "duration_s 0.5 holds no step of snapshot_ms 1000.0"),
        ({"duration_s": 1.5, "snapshot_ms": 1000.0, "timestamp_jitter_ms": 499.9995},
         "timestamp_jitter_ms 499.9995 can tie or reorder"),
    ])
    def test_rejected_naming_the_key(self, changes, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(synth.PRESETS["default"], **changes)

    def test_equal_range_ends_and_jitter_short_of_each_gap_admitted(self):
        # 1.5 s of 1 s steps rounds to two steps, the second 0.5 s long
        spec = dataclasses.replace(synth.PRESETS["default"], duration_s=1.5, snapshot_ms=1000.0,
                                   timestamp_jitter_ms=499.9, transient_span=(1.0, 1.0))
        trace = synth._simulate(np.random.default_rng(0), spec, "x", capacity=10.0, tau_s=0.5,
                                base_rtt_ms=20.0)
        assert len(trace) == 3 and trace.t_us[-1] == 1_500_000


class TestReferenceGenerator:
    @settings(max_examples=150, deadline=None)
    @given(preset=st.sampled_from(sorted(synth.PRESETS)),
           mode=st.sampled_from(["balanced", "natural"]),
           seed=st.integers(0, 2**32 - 1), index=st.integers(0, 10**6),
           grid=st.one_of(st.none(), grid_settings(max_steps=2000)))
    def test_equals_the_reference_by_bytes(self, preset, mode, seed, index, grid):
        changes = dict(mode=mode, seed=seed)
        if grid is not None:
            changes.update(zip(("duration_s", "snapshot_ms", "timestamp_jitter_ms"), grid))
        try:
            spec = dataclasses.replace(synth.PRESETS[preset], **changes)
        except ValueError:
            assume(False)

        def outcome(gen):
            try:
                trace, label = gen(spec, index)
            except ValueError as exc:       # no draw landed in its tier and bin
                # the tier's range and the config keys the message adds
                # after the reference's wording are left out
                return re.sub(r" \(.*?\)|;.*", "", str(exc))
            return dump_trace(trace), label
        assert outcome(synth.gen_trace) == outcome(util.reference_gen_trace)

    def test_missed_draw_builds_no_trace(self, monkeypatch):
        spec = synth.GenSpec(mode="natural", seed=4)
        draws = []
        simulate = synth._simulate

        def counting(*args, **kwargs):
            draws.append(args[2])
            return simulate(*args, **kwargs)

        monkeypatch.setattr(synth, "_simulate", counting)
        built = util.count_trace_builds(monkeypatch)
        ids = [synth.gen_trace(spec, i)[0].id for i in range(20)]
        assert len(draws) > len(ids)            # some draws missed their tier or bin
        assert built == ids


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
