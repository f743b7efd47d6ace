
import statistics

import pytest

from stats import MIN_BEYOND, beyond, p50, percentile, tail


def test_tail_value_has_ten_samples_beyond_it():
    samples = [float(v) for v in range(1, 201)]
    assert beyond(95.0, 200) == MIN_BEYOND
    assert percentile(samples, 95.0) == 190.0
    assert sum(v > 190.0 for v in samples) == MIN_BEYOND
    # The reported value is the weighted estimate around that rank.
    assert tail(samples, 95.0) == pytest.approx(0.95 * 201, abs=0.5)
    assert percentile(samples, 50.0) == 100.0


def test_too_few_samples_beyond_the_tail_is_an_error():
    # 199 samples: p95 is rank 190, leaving 9 beyond.
    assert beyond(95.0, 199) == 9
    with pytest.raises(ValueError):
        tail([float(v) for v in range(199)], 95.0)


def test_p50_is_the_middle_of_a_symmetric_sample():
    assert p50([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0)
    assert p50([7.0]) == 7.0


def test_p50_moves_smoothly_across_a_gap():
    # 37 cheap and 38 costly statements: one statement crossing the gap
    # moves the sample median from one cluster to the other, the
    # weighted estimate by a fraction of the gap.
    low, high = [80.0] * 37, [120.0] * 38
    before = low + high
    after = low + [80.0] + high[1:]
    assert statistics.median(after) - statistics.median(before) == -40.0
    assert -10.0 < p50(after) - p50(before) < 0.0
    assert 80.0 < p50(before) < 120.0
