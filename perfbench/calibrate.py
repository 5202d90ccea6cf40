"""Speed sampling: times in *reference seconds* on a machine whose speed drifts.

The benchmark runs on shared machines whose speed changes by tens of percent
from one second to the next, as other tenants come and go.  While timed work
runs, ``Meter`` interrupts it every ``interval_s`` seconds (SIGALRM) to run a
short fixed kernel, and the kernel's time is subtracted from the work.  The
work's raw seconds are then scaled by the mean relative speed the samples saw:

    reference seconds = raw seconds * mean(REFERENCE_S / kernel time)

that is, the time the work would take on a machine where the kernel takes
exactly ``REFERENCE_S``.  The kernel mixes the operations srgbounds spends its
time on: Fraction and big-integer arithmetic, isqrt, bitset operations, small
tuples, dicts and f-strings.  It belongs to the benchmark, so it is the same
on every commit measured.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from math import isqrt
from time import perf_counter

REFERENCE_S = 0.005
ROUNDS = 1250


def kernel() -> float:
    """Run the fixed work once (about REFERENCE_S); return its wall time."""
    t0 = perf_counter()
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    bits = (1 << 200) - 1
    count = 0
    for i in range(1, ROUNDS):
        acc += Fraction(i % 97 + 1, i % 89 + 2)
        r = isqrt(i * 1_000_003 * (i + 7))
        key = (i % 211, r & 15)
        table[key] = table.get(key, 0) + r
        bits = ((bits ^ (bits >> 3)) & ~(1 << (i % 200))) | 1 << (i * 7 % 200)
        count += bits.bit_count()
        count += len(f"{i},{r},{key[0]}")
    return perf_counter() - t0


def speed(samples: list[float]) -> float:
    """Mean speed relative to the reference, from kernel times."""
    return sum(REFERENCE_S / t for t in samples) / len(samples)


class Meter:
    """Raw seconds of timed work and speed samples, per pass number.

    Between ``start(pass_no)`` and ``stop()`` a timer interrupts the process
    every ``interval_s`` seconds; the main thread runs the kernel between two
    bytecodes of the work, so the samples cover the same stretch of time as
    the work.  Callers subtract the growth of ``stolen`` from what they time
    and add the rest to ``raw[pass_no]``.  ``interval_s=0`` takes no samples
    (traced runs, whose spans must not contain the kernel)."""

    def __init__(self, interval_s: float = 0.1) -> None:
        self.interval_s = interval_s
        self.raw: dict[int, float] = {}
        self.samples: dict[int, list[float]] = {}
        self.stolen = 0.0
        self._pass = 0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples[self._pass].append(kernel())
        self.stolen += perf_counter() - t0

    def start(self, pass_no: int) -> None:
        self._pass = pass_no
        self.samples.setdefault(pass_no, [])
        self.raw.setdefault(pass_no, 0.0)
        if self.interval_s:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        if not self.interval_s:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples[self._pass]:  # a pass shorter than one interval
            self.samples[self._pass].append(kernel())

    def ref(self, pass_no: int) -> float:
        """Reference seconds of the work charged to pass_no."""
        return self.raw[pass_no] * speed(self.samples[pass_no])
