"""Speed-normalised time: wall time corrected for the machine's momentary speed.

On a shared host the same work takes from 1x to 2x as long from one
second to the next, and the process's CPU time moves with the wall time
(the processor itself runs slower; the process is not descheduled), so
neither clock gives steady numbers.  ``SpeedClock`` measures the speed
while the workload runs: a timer signal every ``period`` seconds runs
``reference_work``, fixed work of the kinds foursub does that does not
touch foursub, and records how long it took.  A stretch of wall time is
then converted to reference seconds, the time it would have taken at the
speed at which ``reference_work`` takes ``REFERENCE_S``:

    reference seconds = wall seconds * REFERENCE_S / (reference_work time nearby)

The time spent calibrating is cut out of every interval.
A change to foursub moves its wall time and leaves ``reference_work``
alone, so it shows in full.  What the correction assumes: foursub runs in
the timed thread only, and it slows down with the machine as
``reference_work`` does.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

import numpy as np

# A timed reference_work call takes about this long on a 2-vCPU x86_64
# host (Intel Xeon, Python 3.11) while foursub runs, so reference seconds
# read close to wall seconds there.
REFERENCE_S = 0.0007
# A calibration is smoothed with its neighbours (median of 2 * SMOOTH + 1),
# so one call that a timer interrupt or page fault slowed does not set the
# speed of its neighbourhood.
SMOOTH = 5

_P = 5
_ROWS, _COLS = 8, 10
_MATRIX = tuple(tuple((i * 7 + j * 3 + i * j) % _P for j in range(_COLS)) for i in range(_ROWS))
_FRACTIONS = tuple(Fraction(i + 1, 2 * i + 3) for i in range(12))
_ARRAY = np.arange(64, dtype=np.int64).reshape(8, 8)


def _row_reduce(repeats: int) -> int:
    """Row-reduce a fixed 8 x 10 matrix over F_5 kept as lists of ints, and
    key a dict by the result."""
    p, rows, cols = _P, _ROWS, _COLS
    seen = {}
    for _ in range(repeats):
        m = [list(row) for row in _MATRIX]
        rank = 0
        for c in range(cols):
            pivot = next((i for i in range(rank, rows) if m[i][c]), None)
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            inv = pow(m[rank][c], p - 2, p)
            m[rank] = [x * inv % p for x in m[rank]]
            for i in range(rows):
                if i != rank and m[i][c]:
                    f = m[i][c]
                    m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
            rank += 1
        seen[tuple(map(tuple, m))] = rank
    return len(seen)


def _fraction_sums() -> Fraction:
    s = Fraction(0)
    for x in _FRACTIONS:
        for y in _FRACTIONS[:2]:
            s += x * y - y / x
    return s


def _small_products(repeats: int) -> int:
    s = 0
    for _ in range(repeats):
        b = (_ARRAY @ _ARRAY) % _P
        s += int(b[0, 0]) + int(np.count_nonzero(b))
    return s


def reference_work() -> None:
    """The kinds of work foursub's inner loops do, in about equal parts of
    time: row reduction over F_5 on lists of ints, Fraction arithmetic and
    small numpy products.  It is written here, so that no change to foursub
    changes it.

    Of five candidates (a list/dict/integer loop, the row reduction,
    Fraction arithmetic, small numpy products, random reads over 8 MB) and
    their mixes, this mix followed foursub's speed most closely on a busy
    2-vCPU host: over 120 s, in windows of 8 calls, dividing by it cut the
    spread of the log of the time of census cells, classify_fp operations
    and classify_q operations from 0.17-0.20 to 0.04-0.06.  The collector
    is held off while it runs, so it never collects foursub's objects on
    its time; its objects are freed at once and leave the collector's
    counts as they were."""
    collecting = gc.isenabled()
    gc.disable()
    _row_reduce(5)
    _fraction_sums()
    _small_products(33)
    if collecting:
        gc.enable()


class SpeedClock:
    """Samples the machine's speed while it is running (``with`` block).

    ``reference(a, b)`` converts the ``time.perf_counter`` interval
    [a, b] inside the block into reference seconds.
    """

    def __init__(self, period: float = 0.025):
        self.period = period
        # (start, timed start, end) of every calibration: an untimed
        # reference_work call refills the caches that foursub's work
        # emptied, then a timed one measures the speed.  Timing a cold call
        # would make the speed depend on how much of the caches foursub
        # used (a cold call took twice as long as a warm one).
        self.samples = []
        self._knots = None

    def sample(self, *_signal_args) -> None:
        started = time.perf_counter()
        reference_work()
        timed = time.perf_counter()
        reference_work()
        self.samples.append((started, timed, time.perf_counter()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        for _ in range(2 * SMOOTH + 1):
            self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(2 * SMOOTH + 1):
            self.sample()
        self._knots = None

    def _timeline(self):
        """Knots (t, N(t)) of the reference time N elapsed since the first
        sample: N rises at rate REFERENCE_S / c between two calibrations,
        with c the mean of their smoothed timed durations, and stays flat
        while a calibration runs."""
        if self._knots is None:
            starts, timed, ends = np.array(self.samples).T
            took = ends - timed
            pad = np.pad(took, SMOOTH, mode="edge")
            smooth = np.median(np.lib.stride_tricks.sliding_window_view(pad, 2 * SMOOTH + 1), axis=1)
            rate = REFERENCE_S / ((smooth[:-1] + smooth[1:]) / 2.0)
            gained = np.concatenate(([0.0], np.cumsum((starts[1:] - ends[:-1]) * rate)))
            times = np.empty(2 * len(starts))
            times[0::2], times[1::2] = starts, ends
            values = np.repeat(gained, 2)
            self._knots = (times, values, REFERENCE_S / smooth[0], REFERENCE_S / smooth[-1])
        return self._knots

    def reference(self, a: float, b: float) -> float:
        return self._at(b) - self._at(a)

    def _at(self, t: float) -> float:
        times, values, first_rate, last_rate = self._timeline()
        if t < times[0]:
            return values[0] - (times[0] - t) * first_rate
        if t > times[-1]:
            return values[-1] + (t - times[-1]) * last_rate
        return float(np.interp(t, times, values))

    def speed(self) -> tuple:
        """Median, lowest and highest speed seen, as REFERENCE_S over one
        reference_work time (1 = the nominal speed)."""
        _, timed, ends = np.array(self.samples).T
        speeds = REFERENCE_S / (ends - timed)
        return float(np.median(speeds)), float(speeds.min()), float(speeds.max())
