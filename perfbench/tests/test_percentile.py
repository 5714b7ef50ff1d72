"""The Harrell-Davis percentile behind op_p50_ms and op_tail_ms."""

import numpy as np
import pytest

import run


def test_symmetric_values_have_their_middle_as_median():
    assert run.hd_percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == pytest.approx(3.0)
    assert run.hd_percentile([5.0], 50) == 5.0


def test_p100_is_the_maximum():
    assert run.hd_percentile([3.0, 9.0, 1.0], 100) == 9.0


def test_one_value_crossing_a_gap_moves_it_less_than_interpolation():
    # 240 fast values below 13 slow ones: p95 of 253 values lies at the gap.
    # One slow value that comes out fast moves the interpolated p95 from 360
    # to 200.
    body = list(np.linspace(100.0, 200.0, 240))
    before, after = body + [600.0] * 13, body + [600.0] * 12 + [200.0]
    interpolated = np.percentile(before, 95) / np.percentile(after, 95)
    assert interpolated == pytest.approx(1.8)
    smooth = run.hd_percentile(before, 95) / run.hd_percentile(after, 95)
    assert 1.0 < smooth < 1.25
