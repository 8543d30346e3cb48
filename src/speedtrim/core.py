"""Shared domain types and unit conventions.

Units: raw snapshot timestamps are microseconds, API-level times are
milliseconds, throughput is Mbps everywhere.  The identity
``Mbps == 8 * bytes / elapsed_us`` is used throughout (bits per
microsecond equals megabits per second).
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Stratification edges (half-open, lower-inclusive intervals).
SPEED_TIER_EDGES_MBPS = (25.0, 100.0, 200.0, 400.0)
RTT_BIN_EDGES_MS = (24.0, 52.0, 115.0, 234.0)

# Feature frame layout (13 channels per 100 ms window).
F_TPUT = 0          # mean instantaneous throughput, Mbps
F_CUM_AVG = 1       # cumulative average throughput since start, Mbps
F_PIPE_FULL = 2     # cumulative pipe-full count (max within window)
F_CWND_MEAN = 3
F_CWND_STD = 4
F_BIF_MEAN = 5
F_BIF_STD = 6
F_RTT_MEAN = 7      # ms
F_RTT_STD = 8
F_RETX_MEAN = 9     # per-snapshot deltas within window
F_RETX_STD = 10
F_DUPACK_MEAN = 11
F_DUPACK_STD = 12
N_FEATURES = 13

# Decision grid: features are statistics over 100 ms windows, a stop is
# judged every 500 ms stride, the variability guard looks back 2 s and
# suppresses a stop while the throughput's coefficient of variation there
# exceeds 0.8, and the classifier stops the test at p_stop >= 0.5.
WINDOW_MS = 100
STRIDE_MS = 500
GUARD_WINDOW_MS = 2000
GUARD_V_MAX = 0.8
STOP_THRESHOLD = 0.5

# No snapshot of a test lies past 60 s.  A multiple of STRIDE_MS, so every
# snapshot past it crosses a stride boundary of a live session.
MAX_TEST_US = 60_000_000

STD_CHANNELS = (F_CWND_STD, F_BIF_STD, F_RTT_STD, F_RETX_STD, F_DUPACK_STD)

SNAPSHOT_FIELDS = (
    "t_us",
    "bytes_acked",
    "cwnd_bytes",
    "bytes_in_flight",
    "rtt_us",
    "retrans",
    "dup_acks",
    "pipe_full",
)

CUMULATIVE_FIELDS = ("bytes_acked", "retrans", "dup_acks", "pipe_full")


class ValidationError(ValueError):
    """A trace or snapshot violates a structural invariant."""


class Snapshot(NamedTuple):
    """One raw transport-telemetry sample (tcp_info style); its values come
    in SNAPSHOT_FIELDS order."""

    t_us: int
    bytes_acked: int
    cwnd_bytes: int
    bytes_in_flight: int
    rtt_us: int
    retrans: int
    dup_acks: int
    pipe_full: int

    def validate(self) -> None:
        for name, value in zip(SNAPSHOT_FIELDS, self):
            if type(value) is not int:  # not bool
                if not isinstance(value, np.integer):
                    raise ValidationError(f"{name} must be an integer, got {value!r}")
                value = int(value)      # compared exactly, whatever its dtype
            if not -(1 << 63) <= value < 1 << 63:
                raise ValidationError(
                    f"{name} outside the 64-bit integer range at t_us={self.t_us}")
        if self.rtt_us <= 0:
            raise ValidationError(f"rtt_us must be > 0, got {self.rtt_us}")
        if self.bytes_in_flight < 0:
            raise ValidationError("bytes_in_flight must be >= 0")
        if self.t_us < 0:
            raise ValidationError("t_us must be >= 0")


class Trace:
    """An ordered sequence of snapshots with a nominal duration.

    Snapshots are stored columnar (one numpy array per field) for fast
    resampling; all arrays are read-only after construction.
    """

    def __init__(self, id: str, duration_us: int, columns: dict[str, np.ndarray]):
        self.id = id
        self.duration_us = int(duration_us)
        for name in SNAPSHOT_FIELDS:
            if name not in columns:
                raise ValidationError(f"missing snapshot column {name!r}")
            arr = np.asarray(columns[name], dtype=np.int64)
            arr.setflags(write=False)
            setattr(self, name, arr)
        self._validate()

    @classmethod
    def from_snapshots(cls, id: str, duration_us: int, snapshots: list[Snapshot]) -> "Trace":
        rows = np.array(snapshots, dtype=np.int64).reshape(-1, len(SNAPSHOT_FIELDS))
        return cls(id, duration_us, dict(zip(SNAPSHOT_FIELDS, rows.T)))

    def _validate(self) -> None:
        n = len(self.t_us)
        if n < 2:
            raise ValidationError(f"trace {self.id!r}: needs >= 2 snapshots, got {n}")
        for name in SNAPSHOT_FIELDS:
            if len(getattr(self, name)) != n:
                raise ValidationError(f"trace {self.id!r}: ragged column {name!r}")
        # neighbours are compared, not differenced: an int64 difference wraps
        if np.any(self.t_us[1:] <= self.t_us[:-1]):
            raise ValidationError(f"trace {self.id!r}: t_us not strictly increasing")
        if self.t_us[0] < 0:
            raise ValidationError(f"trace {self.id!r}: negative t_us {int(self.t_us[0])}")
        if self.t_us[-1] > MAX_TEST_US:
            raise ValidationError(f"trace {self.id!r}: last t_us {self.t_us[-1]} exceeds "
                                  f"the test-length cap of {MAX_TEST_US} us")
        if self.t_us[-1] > self.duration_us:
            raise ValidationError(
                f"trace {self.id!r}: last t_us {self.t_us[-1]} exceeds duration {self.duration_us}"
            )
        for name in CUMULATIVE_FIELDS:
            values = getattr(self, name)
            if np.any(values[1:] < values[:-1]):
                raise ValidationError(f"trace {self.id!r}: {name} decreases")
        if np.any(self.rtt_us <= 0):
            raise ValidationError(f"trace {self.id!r}: rtt_us must be positive")
        if np.any(self.bytes_in_flight < 0):
            raise ValidationError(f"trace {self.id!r}: negative bytes_in_flight")

    def __len__(self) -> int:
        return len(self.t_us)

    @property
    def snapshots(self) -> list[Snapshot]:
        columns = [getattr(self, name).tolist() for name in SNAPSHOT_FIELDS]
        return [Snapshot(*row) for row in zip(*columns)]

    def summarize(self) -> "TraceSummary":
        """Ground-truth summary over the full snapshot sequence.

        The final throughput is the mean over the observed span: 8 * final
        bytes_acked / last timestamp.
        """
        total_bytes = int(self.bytes_acked[-1])
        t_last_us = int(self.t_us[-1])
        y_true = 8.0 * total_bytes / t_last_us
        min_rtt_ms = float(self.rtt_us.min()) / 1000.0
        tier, rtt_bin = assign_bins(y_true, min_rtt_ms)
        return TraceSummary(
            id=self.id,
            y_true_mbps=y_true,
            total_bytes=total_bytes,
            duration_ms=t_last_us / 1000.0,
            min_rtt_ms=min_rtt_ms,
            speed_tier=tier,
            rtt_bin=rtt_bin,
        )


@dataclass(frozen=True)
class TraceSummary:
    """Per-test ground truth used for labeling and evaluation."""

    id: str
    y_true_mbps: float
    total_bytes: int
    duration_ms: float
    min_rtt_ms: float
    speed_tier: int
    rtt_bin: int


# Enumerated stop causes.
REASON_CLASSIFIER = "classifier"
REASON_END_OF_TRACE = "end-of-trace"


@dataclass(frozen=True)
class StopDecision:
    """A stride's decision: a stop names its reason, "" continues."""

    reason: str = ""

    @property
    def stopping(self) -> bool:
        return bool(self.reason)


CONTINUE = StopDecision()


@dataclass(frozen=True)
class TerminationOutcome:
    """What a stopping policy did to one test."""

    stop_time_ms: float
    bytes_at_stop: int
    estimate_mbps: float
    rel_error: float | None
    ran_to_completion: bool
    reason: str = ""


def rel_error(t_true: float, t_early: float) -> float:
    """Relative estimation error |t_true - t_early| / t_true."""
    if t_true <= 0:
        raise ValueError(f"true throughput must be positive, got {t_true}")
    return abs(t_true - t_early) / t_true


def assign_bins(throughput_mbps: float, min_rtt_ms: float) -> tuple[int, int]:
    """Map (throughput, RTT) to (speed tier, RTT bin) indices in 0..4.

    Intervals are half-open and lower-inclusive: a value exactly on an edge
    belongs to the higher bin.
    """
    if throughput_mbps < 0:
        raise ValueError("throughput must be nonnegative")
    if min_rtt_ms <= 0:
        raise ValueError("RTT must be positive")
    tier = int(np.searchsorted(SPEED_TIER_EDGES_MBPS, throughput_mbps, side="right"))
    rtt_bin = int(np.searchsorted(RTT_BIN_EDGES_MS, min_rtt_ms, side="right"))
    return tier, rtt_bin


# JSON types a params-dataclass field takes, by the type of its value
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,), tuple: (list,)}


def _field_from_json(value, current, name: str):
    """A JSON value for a field now holding ``current``: a float field takes
    a finite number, a tuple a list of items typed like its first."""
    if type(value) not in _JSON_TYPES[type(current)]:
        raise ValueError(f"{name} has type {type(value).__name__}")
    if type(current) is tuple:
        return tuple(_field_from_json(item, current[0], f"{name} item") for item in value)
    if type(current) is float and not -sys.float_info.max <= value <= sys.float_info.max:
        raise ValueError(f"{name} is not a finite number")     # NaN is not in range either
    return float(value) if type(current) is float else value


def replace_from_json(base, obj, where: str):
    """``base``, a params dataclass, with the fields a JSON object names
    replaced, a dataclass field from a nested object.  A value that is not
    an object, an unknown key, a wrong JSON type or a value the class's own
    checks reject raises ValueError naming the key."""
    if type(obj) is not dict:
        raise ValueError(f"{where} is not a JSON object")
    changes = {}
    for key, value in obj.items():
        if key not in base.__dataclass_fields__:
            raise ValueError(f"unknown {where} parameter {key!r}")
        current = getattr(base, key)
        changes[key] = (replace_from_json(current, value, key) if dataclasses.is_dataclass(current)
                        else _field_from_json(value, current, f"{where} parameter {key!r}"))
    try:
        return dataclasses.replace(base, **changes)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
