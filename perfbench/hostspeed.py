"""Host-speed calibration for the end-to-end timings.

The shared 2-vCPU host this benchmark was sized for changes speed by up
to 1.6x, in episodes that last from under a second to minutes.  The
median time of one deterministic compile, measured over eight 25 s runs,
spread by 35% (IQR over median), which buries any smaller change.

So the loop runs a fixed calibration kernel every PROBE_PERIOD_S and
scales each operation's wall time by REFERENCE_S / (kernel time around
the operation): every end-to-end time is reported in seconds on a host
where the kernel takes REFERENCE_S.  The kernel mimics approxc's own
mix (frozen dataclass trees, isinstance dispatch, environment dicts and
Fraction arithmetic rounded to dyadics) but shares no code with it, so
a change to approxc cannot move it.  On the same eight runs the scaled
median spread by 2.7%.  The run metadata keeps the raw wall-clock
figures and the kernel times.
"""
from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import List

PROBE_PERIOD_S = 0.05
# probes this close to an operation set its scale; at 0.1 s a long
# operation had so few that one stray kernel time moved its scale
SMOOTH_S = 0.25
PROBE_REPEATS = 3
# the kernel's time on the reference host; it takes 0.25 to 0.45 ms on
# the host the benchmark was sized for
REFERENCE_S = 0.0003


@dataclass(frozen=True)
class _Num:
    v: Fraction


@dataclass(frozen=True)
class _Ref:
    name: str


@dataclass(frozen=True)
class _Add:
    l: object
    r: object


@dataclass(frozen=True)
class _Mul:
    l: object
    r: object


@dataclass(frozen=True)
class _Let:
    name: str
    val: object
    body: object


def _build(d: int, k: int):
    if d == 0:
        return _Num(Fraction(k * 2 + 1, 3 << (k % 5)))
    if d % 3 == 0:
        v = f"v{d}"
        return _Let(v, _build(d - 1, k + 1), _Add(_Ref(v), _build(d - 1, k + 2)))
    node = _Add if (d + k) % 2 else _Mul
    return node(_build(d - 1, k + 1), _Num(Fraction(d, d + 1)))


def _eval(n, env: dict) -> Fraction:
    if isinstance(n, _Num):
        return n.v
    if isinstance(n, _Ref):
        return env[n.name]
    if isinstance(n, _Let):
        inner = dict(env)
        inner[n.name] = _eval(n.val, env)
        return _eval(n.body, inner)
    a, b = _eval(n.l, env), _eval(n.r, env)
    r = a + b if isinstance(n, _Add) else a * b
    return Fraction((r.numerator << 64) // r.denominator, 1 << 64)


def kernel() -> Fraction:
    return _eval(_build(9, 1), {})


def kernel_time() -> float:
    """Best of PROBE_REPEATS kernel runs, so a stray pause or a cold
    cache does not count as a slow host."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t)
    return best


class SpeedProbe:
    """Kernel times sampled along a run, and the scale they imply."""

    def __init__(self):
        self.times: List[float] = []
        self.kernel_s: List[float] = []

    def probe(self) -> None:
        now = time.perf_counter()
        self.times.append(now)
        self.kernel_s.append(kernel_time())

    def maybe_probe(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_PERIOD_S:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time of the probes within
        SMOOTH_S of [start, end], counting always the last probe before
        ``start`` and the first after ``end``.  The median smooths the
        kernel's own timing noise; the window is shorter than the
        host's speed episodes."""
        n = len(self.times)
        lo = bisect.bisect_left(self.times, start - SMOOTH_S)
        hi = bisect.bisect_right(self.times, end + SMOOTH_S)
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        after = bisect.bisect_left(self.times, end)
        lo = min(lo, before)
        hi = max(hi, min(after + 1, n), lo + 1)
        return REFERENCE_S / statistics.median(self.kernel_s[lo:hi])
