"""Seeded synthetic speed-test traces with known ground truth.

The congestion model is phenomenological: an exponential ramp toward a
capacity, AR(1) multiplicative noise, burst/dropout events, RTT queue
inflation proportional to utilization, and a BBR-style plateau detector
driving the pipe-full counter.  It exists to exercise stopping logic at
desk scale, not to model packet dynamics.

A trace targets a speed tier and an RTT bin, and `gen_trace` redraws until
one lands in both: about 1.45 draws per natural-mode trace.  A draw that
misses is rejected as soon as its bytes and RTTs exist, with the
arithmetic of `Trace.summarize` (`core.ground_truth`), before its other
telemetry, its remaining random draws and its `Trace`.  Every draw of a
spec that `GenSpec` admits is a valid `Trace`, so the early rejection
turns no failing draw into a skipped one.  A default-settings trace of
1001 snapshots costs about 0.5 ms (2-core Xeon); the sequential AR(1)
noise recursion is about 0.06 ms of each draw.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .core import MAX_TEST_US, Trace, assign_bins, ground_truth
from . import traceio

# Target ranges for ground-truth throughput per speed tier and for base RTT
# per bin (kept off the exact edges so noise rarely pushes a trace out).
TIER_Y_RANGES = ((2.0, 24.0), (26.5, 98.0), (103.0, 197.0), (206.0, 394.0), (410.0, 950.0))
RTT_BIN_RANGES = ((3.0, 23.5), (24.5, 51.0), (53.0, 113.0), (117.0, 230.0), (238.0, 450.0))

MSS_BYTES = 1448

# Closed range of each numeric GenSpec field (of each item, for a tuple):
# they keep every draw finite and a trace within 60 000 snapshots.
GENSPEC_LIMITS = {
    **dict.fromkeys(("tier_weights", "rtt_bin_weights", "transient_span", "plateau_span"),
                    (0.0, sys.float_info.max)),
    **dict.fromkeys(("ramp_tau_range", "noise_rel_std", "burst_rate", "dropout_rate",
                     "transient_spread", "plateau_spread", "difficulty_coupling"), (0.0, 10.0)),
    "n_traces": (1, math.inf), "duration_s": (0.5, MAX_TEST_US / 1e6),
    "snapshot_ms": (1.0, 1000.0),
    "ar_coeff": (0.0, 1.0), "timestamp_jitter_ms": (0.0, 1000.0),
    "capacity_range": (0.001, 100_000.0),
}


# The (low, high) pairs a trace draws from: each runs from low to high.
RANGE_FIELDS = ("ramp_tau_range", "transient_span", "plateau_span", "capacity_range")


def _time_grid(duration_s: float, snapshot_ms: float) -> tuple[int, int, np.ndarray]:
    """A trace's duration in microseconds, its number of snapshot steps,
    and its unjittered snapshot times in microseconds (floats)."""
    duration_us = int(round(duration_s * 1e6))
    step_us = snapshot_ms * 1000.0
    n_steps = int(round(duration_us / step_us))
    return duration_us, n_steps, np.arange(n_steps + 1) * step_us


@dataclass(frozen=True)
class GenSpec:
    """Parameters of a synthetic corpus; the seed fully determines output."""

    n_traces: int = 100
    seed: int = 0
    mode: str = "balanced"                      # "balanced" | "natural"
    tier_weights: tuple = (0.30, 0.25, 0.20, 0.15, 0.10)
    rtt_bin_weights: tuple = (0.06, 0.12, 0.22, 0.28, 0.32)
    duration_s: float = 10.0
    snapshot_ms: float = 10.0
    ramp_tau_range: tuple = (0.05, 1.0)
    ar_coeff: float = 0.7
    noise_rel_std: float = 0.12
    burst_rate: float = 0.05                    # events per second
    dropout_rate: float = 0.06
    transient_spread: float = 0.45              # slow-start over/undershoot amplitude
    transient_span: tuple = (0.25, 0.55)        # seconds of startup transient
    plateau_spread: float = 0.12                # settling-phase rate offset magnitude
    plateau_span: tuple = (1.0, 2.0)            # seconds of settling phase
    capacity_range: tuple = (1.0, 1000.0)
    timestamp_jitter_ms: float = 2.0
    difficulty_coupling: float = 1.0            # noise scaling vs (low tier, high RTT)
    preset: str = "default"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, tuple) and len(value) != len(f.default):
                raise ValueError(f"{f.name} must hold {len(f.default)} numbers")
            lo, hi = GENSPEC_LIMITS.get(f.name, (None, None))
            items = value if isinstance(value, tuple) else (value,)
            if lo is not None and not all(lo <= v <= hi for v in items):
                raise ValueError(f"{f.name} must lie in [{lo}, {hi}], got {value}")
        for name in RANGE_FIELDS:
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} must run from low to high, got {getattr(self, name)}")
        for name in ("tier_weights", "rtt_bin_weights"):
            if not 0 < sum(getattr(self, name)) < math.inf:
                raise ValueError(f"{name} must have a finite sum > 0, got {getattr(self, name)}")
        # every draw must pass Trace validation: at least 2 snapshots, and
        # times that the jitter cannot tie or reorder
        duration_us, n_steps, grid = _time_grid(self.duration_s, self.snapshot_ms)
        if n_steps < 1:
            raise ValueError(f"duration_s {self.duration_s} holds no step of snapshot_ms "
                             f"{self.snapshot_ms}: a trace needs >= 2 snapshots")
        # the times a draw gives with every jitter at its low end, and at its
        # high end: _simulate's arithmetic, rounded to whole microseconds
        jitter_us = self.timestamp_jitter_ms * 1000.0
        low, high = np.round(grid - jitter_us), np.round(grid + jitter_us)
        low[0] = high[0] = 0.0
        low[-1] = high[-1] = duration_us
        if np.any(low[1:] <= high[:-1]):
            raise ValueError(
                f"timestamp_jitter_ms {self.timestamp_jitter_ms} can tie or reorder two "
                f"snapshot times at snapshot_ms {self.snapshot_ms} and duration_s "
                f"{self.duration_s}")


# The generator's base settings by name; a run config's genspec section
# names one as its ``preset`` and its other keys apply on top.  "hard" is
# low throughput, high RTT and persistent variability: the slice of tests
# that resists early termination.
PRESETS = {
    "default": GenSpec(),
    "clean": GenSpec(ar_coeff=0.0, noise_rel_std=0.0, burst_rate=0.0, dropout_rate=0.0,
                     transient_spread=0.0, difficulty_coupling=0.0, preset="clean"),
    "hard": GenSpec(mode="natural", tier_weights=(0.6, 0.4, 0.0, 0.0, 0.0),
                    rtt_bin_weights=(0.0, 0.0, 0.2, 0.3, 0.5), ramp_tau_range=(1.0, 3.0),
                    ar_coeff=0.95, noise_rel_std=0.45, dropout_rate=0.4, burst_rate=0.2,
                    transient_spread=0.9, transient_span=(0.5, 3.0), difficulty_coupling=0.0,
                    preset="hard"),
}


def preset_spec(name: str, **overrides) -> GenSpec:
    if type(name) is not str or name not in PRESETS:
        raise ValueError(f"unknown preset {name!r} (have {sorted(PRESETS)})")
    return replace(PRESETS[name], **overrides)


def ramp_mean_fraction(tau_s: float, duration_s: float) -> float:
    """Mean of (1 - e^{-t/tau}) over [0, duration]."""
    if tau_s <= 0:
        return 1.0
    return 1.0 - (tau_s / duration_s) * (1.0 - math.exp(-duration_s / tau_s))


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _event_multiplier(rng: np.random.Generator, t_mid_s: np.ndarray, rate_per_s: float,
                      duration_s: float, mult: float, mean_len_s: float) -> np.ndarray:
    out = np.ones_like(t_mid_s)
    n_events = rng.poisson(rate_per_s * duration_s)
    for _ in range(n_events):
        start = rng.uniform(0.0, duration_s)
        length = float(np.clip(rng.exponential(mean_len_s), 0.05, 1.0))
        out[(t_mid_s >= start) & (t_mid_s < start + length)] *= mult
    return out


def _pipe_full_counter(t_us: np.ndarray, inst_rate: np.ndarray, round_us: float) -> np.ndarray:
    """Cumulative BBR-style pipe-full events per snapshot.

    A round spans one base RTT.  When the windowed max delivery rate grows
    by less than 25% for three consecutive rounds the plateau is declared
    and every further plateau round registers one event.  Snapshot i + 1
    brings rate ``inst_rate[i]`` and closes the open round when its time
    reaches the round's end; it closes at most one round.
    """
    n = len(inst_rate)
    counts = np.zeros(n + 1, dtype=np.int64)
    k = np.arange(n)
    # the end of round k is round_us added k + 1 times, left to right
    ends = np.cumsum(np.full(n, float(round_us)))
    # round k closes at the first later snapshot at or past its end (exact
    # float times below 2**53 us); one round closes per snapshot at most
    reached = np.searchsorted(t_us[1:].astype(np.float64), ends)
    close = k + np.maximum.accumulate(reached - k)
    close = close[close < n]
    if len(close) == 0:
        return counts
    starts = np.concatenate(([0], close[:-1] + 1))
    round_max = np.maximum(np.maximum.reduceat(inst_rate[:close[-1] + 1], starts), 0.0)
    max_bw = np.concatenate(([0.0], np.maximum.accumulate(round_max)[:-1]))
    plateau = (max_bw > 0) & (round_max < 1.25 * max_bw)
    # each round's run of consecutive plateau rounds, itself included
    r = np.arange(len(close))
    run = r - np.maximum.accumulate(np.where(plateau, -1, r))
    events = np.zeros(n, dtype=np.int64)
    events[close] = run >= 3
    counts[1:] = np.cumsum(events)
    return counts


def _simulate(rng: np.random.Generator, spec: GenSpec, trace_id: str,
              capacity: float, tau_s: float, base_rtt_ms: float,
              target: tuple[int, int] | None = None) -> Trace | None:
    """One draw of a trace.  Given a (speed tier, RTT bin) ``target``, a
    draw whose summary would miss it returns None once its bytes and RTTs
    are drawn, before its other telemetry."""
    duration_us, n_steps, t_us = _time_grid(spec.duration_s, spec.snapshot_ms)
    if spec.timestamp_jitter_ms > 0:
        jitter = rng.uniform(-spec.timestamp_jitter_ms, spec.timestamp_jitter_ms,
                             size=n_steps + 1) * 1000.0
        jitter[0] = 0.0
        jitter[-1] = 0.0
        t_us = t_us + jitter
    t_us = np.round(t_us).astype(np.int64)
    t_us[-1] = duration_us

    t_mid_s = (t_us[:-1] + t_us[1:]) / 2.0 / 1e6
    ramp = 1.0 - np.exp(-t_mid_s / tau_s) if tau_s > 0 else np.ones_like(t_mid_s)

    # Startup transient in two phases: a short slow-start over/undershoot,
    # then a settling plateau offset from the sustained rate. Both offsets
    # carry a random sign, so early windows cannot resolve the final rate.
    shape = np.ones_like(t_mid_s)
    if spec.transient_spread > 0:
        t1 = rng.uniform(*spec.transient_span)
        amp1 = rng.uniform(max(0.05, spec.transient_spread - 0.05),
                           spec.transient_spread)
        level1 = max(1.0 + (-amp1 if rng.random() < 0.5 else amp1), 0.1)
        t2 = t1 + rng.uniform(*spec.plateau_span)
        amp2 = rng.uniform(max(0.02, spec.plateau_spread - 0.10),
                           spec.plateau_spread + 0.10)
        level2 = max(1.0 + (-amp2 if rng.random() < 0.5 else amp2), 0.1)
        shape = np.where(t_mid_s < t1, level1,
                         np.where(t_mid_s < t2, level2, 1.0))

    if spec.noise_rel_std > 0 and spec.ar_coeff < 1.0:
        eps = rng.standard_normal(n_steps)
        scale = spec.noise_rel_std * math.sqrt(1.0 - spec.ar_coeff ** 2)
        # AR(1) over Python floats: the same IEEE operations in the same
        # order as over NumPy scalars, several times faster
        a = spec.ar_coeff
        acc = 0.0
        noise = []
        for e in (scale * eps).tolist():
            acc = a * acc + e
            noise.append(acc)
        noise = np.array(noise)
    else:
        noise = np.zeros(n_steps)

    mult = np.clip(1.0 + noise, 0.05, None)
    mult *= _event_multiplier(rng, t_mid_s, spec.dropout_rate, spec.duration_s,
                              mult=0.05, mean_len_s=0.25)
    mult *= _event_multiplier(rng, t_mid_s, spec.burst_rate, spec.duration_s,
                              mult=1.8, mean_len_s=0.1)
    inst_rate = capacity * ramp * shape * mult               # Mbps per interval

    dt_us = np.diff(t_us).astype(np.float64)
    byte_increments = inst_rate * dt_us / 8.0
    bytes_acked = np.zeros(n_steps + 1)
    bytes_acked[1:] = np.cumsum(byte_increments)
    bytes_acked = np.floor(bytes_acked).astype(np.int64)

    base_rtt_us = base_rtt_ms * 1000.0
    util = np.concatenate([[0.0], inst_rate / capacity])
    # Queueing inflation with a per-trace coefficient and per-sample jitter,
    # so RTT growth tracks load qualitatively without fixing the scale.
    queue_coeff = rng.uniform(0.05, 0.50)
    rtt_noise = rng.lognormal(0.0, 0.08, size=n_steps + 1)
    rtt_us = np.round(base_rtt_us * (1.0 + queue_coeff * util) * rtt_noise)
    rtt_us = np.maximum(rtt_us.astype(np.int64), 1)

    if target is not None and assign_bins(*ground_truth(
            int(bytes_acked[-1]), duration_us, rtt_us.min())) != target:
        return None

    rate_per_snap = np.concatenate([[0.0], inst_rate])
    cwnd_bytes = np.maximum(
        np.round(rate_per_snap * rtt_us / 8.0).astype(np.int64), MSS_BYTES)
    bif = np.round(cwnd_bytes * rng.uniform(0.75, 1.0, size=n_steps + 1)).astype(np.int64)
    bif[0] = 0

    dropout_active = mult < 0.5
    retx_inc = rng.poisson(0.02, size=n_steps) + rng.poisson(2.0, size=n_steps) * dropout_active
    retrans = np.zeros(n_steps + 1, dtype=np.int64)
    retrans[1:] = np.cumsum(retx_inc)
    dup_inc = 3 * retx_inc + rng.poisson(0.05, size=n_steps)
    dup_acks = np.zeros(n_steps + 1, dtype=np.int64)
    dup_acks[1:] = np.cumsum(dup_inc)

    pipe_full = _pipe_full_counter(t_us, inst_rate, base_rtt_us)

    return Trace(trace_id, duration_us, {
        "t_us": t_us,
        "bytes_acked": bytes_acked,
        "cwnd_bytes": cwnd_bytes,
        "bytes_in_flight": bif,
        "rtt_us": rtt_us,
        "retrans": retrans,
        "dup_acks": dup_acks,
        "pipe_full": pipe_full,
    })


MAX_ATTEMPTS = 60


@functools.lru_cache(maxsize=128)
def _target_spec(spec: GenSpec, target_tier: int, target_bin: int) -> GenSpec:
    """The settings a trace of the given tier and RTT bin is drawn with,
    built once per spec and target rather than once per trace."""
    # Slow links and high-RTT paths are noisier and less stationary, so
    # their early windows are less predictive of the final rate.
    d = spec.difficulty_coupling * max((4 - target_tier) / 4.0, target_bin / 4.0)
    if d <= 0:
        return spec
    plo, phi = spec.plateau_span
    return replace(spec,
                   noise_rel_std=min(0.45, spec.noise_rel_std * (1.0 + 2.5 * d)),
                   ar_coeff=min(0.95, spec.ar_coeff + 0.28 * d),
                   dropout_rate=min(0.30, spec.dropout_rate * (1.0 + 3.0 * d)),
                   burst_rate=min(0.15, spec.burst_rate * (1.0 + 2.0 * d)),
                   plateau_spread=min(0.36, spec.plateau_spread + 0.24 * d),
                   plateau_span=(plo + 1.5 * d, phi + 1.5 * d))


def gen_trace(spec: GenSpec, index: int) -> tuple[Trace, str]:
    """Generate trace `index` of the corpus; returns (trace, preset label).

    Each index derives an independent RNG stream from (seed, index); the
    generator resamples (bumping a sub-key) until the realized summary
    lands in the targeted speed tier and RTT bin, so stratified corpora
    have exact per-tier counts.
    """
    pick_rng = np.random.default_rng(np.random.SeedSequence((spec.seed, index, 0xA5)))
    if spec.mode == "balanced":
        target_tier = index % 5
    elif spec.mode == "natural":
        target_tier = int(pick_rng.choice(5, p=np.asarray(spec.tier_weights) / sum(spec.tier_weights)))
    else:
        raise ValueError(f"unknown mode {spec.mode!r}")
    target_bin = int(pick_rng.choice(5, p=np.asarray(spec.rtt_bin_weights) / sum(spec.rtt_bin_weights)))
    eff = _target_spec(spec, target_tier, target_bin)
    for attempt in range(MAX_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, index, attempt)))
        tau = rng.uniform(*eff.ramp_tau_range)
        y_target = _log_uniform(rng, *TIER_Y_RANGES[target_tier])
        frac = ramp_mean_fraction(tau, eff.duration_s)
        capacity = float(np.clip(y_target / frac, *eff.capacity_range))
        base_rtt = _log_uniform(rng, *RTT_BIN_RANGES[target_bin])
        trace = _simulate(rng, eff, f"t{index:05d}", capacity, tau, base_rtt,
                          target=(target_tier, target_bin))
        if trace is not None:
            return trace, spec.preset
    # no static rule says which tiers a spec reaches: noise and bursts can
    # carry a draw past its capacity, so the message names the keys instead
    y_lo, y_hi = TIER_Y_RANGES[target_tier]
    cap_lo, cap_hi = spec.capacity_range
    keys = ("genspec.capacity_range and tier_weights decide" if spec.mode == "natural"
            else "genspec.capacity_range decides")
    raise ValueError(
        f"trace {index}: no draw landed in tier {target_tier} ({y_lo:g}-{y_hi:g} Mbps)"
        f"/bin {target_bin} after {MAX_ATTEMPTS} attempts; {keys} which tiers can be "
        f"reached (capacity_range is {cap_lo:g}-{cap_hi:g} Mbps)")


def gen_corpus(spec: GenSpec, out_dir: str) -> "traceio.Corpus":
    """Generate the full corpus under out_dir with index and manifest."""
    corpus = traceio.write_corpus(out_dir, (gen_trace(spec, i) for i in range(spec.n_traces)))
    with open(os.path.join(out_dir, "genspec.json"), "w") as fh:
        json.dump(asdict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return corpus
