"""Shared pieces of the benchmark workloads: run context, outcome, statistics."""

from __future__ import annotations

import gc
import signal
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: Path

    def log(self, msg: str):
        print(f"[{self.workload}] {msg}", file=sys.stderr, flush=True)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _n, ok, _d in self.checks)


def median(values) -> float:
    return statistics.median(values)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in [0, 1]."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]


# Host speed on a shared VM swings by up to 1.7x within seconds, moving
# every timing with it.  While a measurement runs, a timer signal times a
# short pure-Python reference loop every SAMPLE_EVERY_S; each timing is
# rescaled by the mean of those samples and excludes the time they took.
REFERENCE_LOOP = 20_000
REFERENCE_S = 0.001  # reference loop time that rescaled seconds are quoted at
SAMPLE_EVERY_S = 0.2


def reference_seconds() -> float:
    """Time of the reference loop now: the host's current speed."""
    t0 = perf_counter()
    total = 0
    for k in range(REFERENCE_LOOP):
        total += k
    return perf_counter() - t0


class SpeedSampler:
    """Reference loop samples taken at entry, exit and every SAMPLE_EVERY_S."""

    def __init__(self):
        self.samples: list[float] = []
        self.inside_s = 0.0  # time the samples between entry and exit took

    def _tick(self, _signum, _frame):
        sample = reference_seconds()
        self.samples.append(sample)
        self.inside_s += sample

    def __enter__(self):
        self.samples.append(reference_seconds())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(reference_seconds())

    @property
    def reference_s(self) -> float:
        return statistics.fmean(self.samples)


@dataclass
class Timing:
    wall_s: float  # without the reference samples taken inside it
    reference_s: float  # mean reference loop time during the measurement

    @property
    def seconds(self) -> float:
        """Wall time on a host where the reference loop takes REFERENCE_S."""
        return self.rescale(self.wall_s)

    def rescale(self, wall_s: float) -> float:
        """Rescale a part of this measurement, such as a span inside it."""
        return wall_s * REFERENCE_S / self.reference_s


def timed(fn, *args, **kwargs) -> tuple[Timing, object]:
    """Timing and result of one call, started from a collected heap."""
    gc.collect()
    with SpeedSampler() as speed:
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        wall = perf_counter() - t0
    return Timing(wall - speed.inside_s, speed.reference_s), result


def seconds(timings) -> float:
    """Median rescaled seconds."""
    return median([t.seconds for t in timings])


def wall(timings) -> float:
    """Median wall seconds."""
    return median([t.wall_s for t in timings])


def passes(ctx: Context, one_pass, min_passes: int = 2):
    """Run ``one_pass(i)`` at least ``min_passes`` times, then while another
    pass is expected to end within ``ctx.seconds`` of the first start."""
    results = []
    t0 = perf_counter()
    while True:
        p0 = perf_counter()
        results.append(one_pass(len(results)))
        took = perf_counter() - p0
        if len(results) >= min_passes and perf_counter() - t0 + took > ctx.seconds:
            return results
