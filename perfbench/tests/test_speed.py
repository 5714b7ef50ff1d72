"""Conversion of wall time to reference seconds."""

import signal

import pytest

import speed
from speed import REFERENCE_S, SpeedClock


def clock_with(samples):
    """samples: (start, end) of timed calibrations without a warm-up call."""
    clock = SpeedClock()
    clock.samples = [(a, a, b) for a, b in samples]
    return clock


def test_steady_speed_scales_wall_time():
    # reference_work took 2 * REFERENCE_S every time: the machine ran at half speed.
    took = 2 * REFERENCE_S
    clock = clock_with((t, t + took) for t in (0.0, 1.0, 2.0, 3.0))
    assert clock.reference(0.2, 0.7) == pytest.approx(0.25)
    # Calibration time inside the interval is cut out of it.
    assert clock.reference(0.5, 2.5) == pytest.approx((2.0 - 2 * took) / 2)


def test_speed_change_applies_where_it_was_seen():
    slow, fast = 2 * REFERENCE_S, REFERENCE_S / 2
    samples = [(float(t), t + slow) for t in range(12)] + [(float(t), t + fast) for t in range(12, 24)]
    clock = clock_with(samples)
    assert clock.reference(1.5, 1.9) == pytest.approx(0.2)
    assert clock.reference(20.1, 20.3) == pytest.approx(0.4)


def test_one_slow_calibration_is_smoothed_away():
    took = REFERENCE_S
    samples = [(float(t), t + took) for t in range(12)]
    samples[6] = (6.0, 6.0 + 20 * took)
    clock = clock_with(samples)
    assert clock.reference(5.5, 5.9) == pytest.approx(0.4)


def test_the_timer_is_removed_afterwards():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedClock(period=0.005) as clock:
        total = 0
        while len(clock.samples) < 2 * speed.SMOOTH + 4:
            total += sum(range(1000))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    started = clock.samples[0][0]
    ended = clock.samples[-1][2]
    assert 0.0 < clock.reference(started, ended) < 100 * (ended - started)


def test_the_untimed_warm_up_call_is_cut_out_but_sets_no_speed():
    took = REFERENCE_S
    clock = SpeedClock()
    clock.samples = [(t - 5 * took, t, t + took) for t in range(1, 13)]
    assert clock.reference(1.5, 1.9) == pytest.approx(0.4)
    assert clock.reference(1.5, 2.5) == pytest.approx(1.0 - 6 * took)
