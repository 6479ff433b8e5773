"""Host-speed probe, and seconds at a fixed reference speed.

The shared VMs this benchmark runs on change speed by up to 1.75x over
seconds to minutes as other tenants come and go: over ten runs of 32 s,
one per seed, plain pass times spread by 14-27% (quartile distance over
median) on every workload.  So every end-to-end time is also measured
against a reference loop timed in the same process at nearly the same
moment, and reported in reference seconds: measured seconds * REF_LOOP_S *
mean(1 / loop time).  On a host where the loop takes REF_LOOP_S, a
reference second is a second; when the host slows down, both the work and
the loop slow down and the product stays put.  In the same runs the
reference-second pass times spread by 3.0-5.5%.  Plain seconds are printed
next to them.

While a pass runs, SIGALRM interrupts it every ``INTERVAL_S`` of wall time
and times ``reference_loop`` in the same thread.  Because the samples are
uniform in wall time, mean(1 / loop time) over an interval weighs the host
speed by the time spent at it, which is what converting that interval
needs.  Every pass, traced or not, runs under the probe; all intervals are
read on a clock that leaves the probe's own time out.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# The reference loop's time on an idle 2-vCPU VM; defines the unit.
REF_LOOP_S = 0.003
INTERVAL_S = 0.25
_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(4096)}


def _lookups() -> None:
    table, acc = _TABLE, 0
    for i in range(20000):
        acc = (acc + table[(i * 7919 + acc) & 4095]) & 0xFFFF


def _allocations() -> None:
    d = {}
    for i in range(8000):
        d[(i * 7919) % 100003] = tuple(range(i % 7))


def reference_loop() -> float:
    """Time one round of two kernels; returns the geometric mean of their times.

    Host contention slows the package's passes more than a cache-resident
    lookup kernel and less than an allocating kernel, whose speed also
    depends on the state of the heap.  In paired runs on one 2-vCPU VM the
    geometric mean followed oracle, census and certify passes within 3.6%,
    5.9% and 2.1% (quartile distance over median), against 6.0%, 5.2% and
    6.5% for lookups alone and 5.3%, 9.5% and 4.5% for allocations alone.
    The collector is paused, so the probe never triggers a collection of
    the program's heap; every object it makes is freed before it returns.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _lookups()
        t1 = time.perf_counter()
        _allocations()
        t2 = time.perf_counter()
    finally:
        if was_enabled:
            gc.enable()
    return ((t1 - t0) * (t2 - t1)) ** 0.5


def reference_seconds(seconds: float, loop_times: list[float]) -> float:
    """``seconds`` measured while the loop took ``loop_times``, at reference speed."""
    return seconds * REF_LOOP_S * statistics.fmean(1 / r for r in loop_times)


class SpeedProbe:
    """Context manager that samples ``reference_loop`` on a wall-clock timer.

    ``clock`` is ``time.perf_counter`` minus the time the probe has taken so
    far, so intervals read on it leave the probe out.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (clock(), loop seconds)
        self._spent = 0.0
        self._ticks = 0

    def clock(self) -> float:
        # The handler runs between bytecodes; retry if it ran mid-read.
        while True:
            ticks = self._ticks
            now = time.perf_counter() - self._spent
            if ticks == self._ticks:
                return now

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append((t0 - self._spent, reference_loop()))
        self._spent += time.perf_counter() - t0
        self._ticks += 1

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def loops(self, lo: float, hi: float) -> list[float]:
        """Loop times sampled in [lo, hi) on ``clock``."""
        return [r for t, r in self.samples if lo <= t < hi]
