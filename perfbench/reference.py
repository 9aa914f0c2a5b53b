"""A fixed pure-Python computation that measures how fast the CPU runs now.

The host this benchmark runs on is shared.  For seconds to minutes at a
time, other tenants slow the same code by up to 2x, in CPU time as well as
in wall time, so raw times measure the host more than the program.  While a
round runs, SpeedSampler runs reference() every SAMPLE_INTERVAL_S of wall
time; the probes run it right after their import.  A measured CPU time can
then be scaled to a CPU on which reference() takes REFERENCE_S.
reference() uses no coretower code, so a change to the program under test
does not change it.

Its mix follows the program's: big-integer additions over lists (the
series kernel), tuple building and dict lookups (the tower caches), a sort
and a generator.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

# Nominal CPU seconds of one reference() call; scaled times read as seconds
# on a CPU that runs reference() in this time.  On the 2-vCPU Xeon VM the
# benchmark was written on, one call took about 2.5 ms while the host was
# quiet and about 5 ms while it was busy.
REFERENCE_S = 0.005
# Wall seconds between samples; a sample costs one reference() call, so
# sampling adds about a tenth to a round's time.
SAMPLE_INTERVAL_S = 0.05

_PENTAGONAL_N = 400
_DICT_KEYS = 4000


def _pentagonal(n: int):
    k = 1
    while True:
        g = k * (3 * k - 1) // 2
        if g > n:
            return
        yield k, g
        k += 1


def reference() -> int:
    """Partition numbers p(0..N) by Euler's pentagonal recurrence, then a
    dict count over tuple keys and a sort; returns a checksum."""
    p = [1] + [0] * _PENTAGONAL_N
    for n in range(1, _PENTAGONAL_N + 1):
        s = 0
        for k, g in _pentagonal(n):
            term = p[n - g] + (p[n - g - k] if g + k <= n else 0)
            s = s + term if k % 2 else s - term
        p[n] = s
    counts: dict[tuple[int, int], int] = {}
    for i in range(_DICT_KEYS):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i
    top = sorted(counts.items(), key=lambda kv: kv[1])[-1]
    return p[-1] % 1_000_003 + top[1]


def timed_reference() -> float:
    """CPU seconds of one reference() call in this process.  The cyclic
    garbage collector is off during the call: it would otherwise now and
    then walk the whole heap the program left behind and charge that to
    the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        c0 = time.process_time()
        reference()
        return time.process_time() - c0
    finally:
        if enabled:
            gc.enable()


def reference_speed(repeats: int = 5) -> float:
    """Median CPU seconds of reference() over a few calls."""
    return statistics.median(timed_reference() for _ in range(repeats))


class SpeedSampler:
    """Times reference() from a SIGALRM handler every SAMPLE_INTERVAL_S of
    wall time while active, and once on entry and on exit.

    The handler runs between the program's bytecodes, in its process and
    on its CPU, so the samples taken during an op show how fast the CPU
    ran the op.  Sample k started at process CPU time at[k] and took
    seconds[k] CPU seconds.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.seconds: list[float] = []

    def sample(self, *_signal_args) -> None:
        at = time.process_time()
        self.seconds.append(timed_reference())
        self.at.append(at)

    def window(self, c0: float, c1: float) -> tuple[float, float]:
        """For the CPU interval [c0, c1) of a finished op: the CPU seconds
        the samples taken in it cost, and the mean reference time of those
        samples and of the nearest one on each side."""
        lo = bisect.bisect_left(self.at, c0)
        hi = bisect.bisect_left(self.at, c1)
        around = self.seconds[max(0, lo - 1): hi + 1]
        return sum(self.seconds[lo:hi]), sum(around) / len(around)

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
