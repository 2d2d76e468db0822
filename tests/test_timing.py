"""Interarrival envelopes: band arithmetic, window exactness, properties."""

import random
import re
from collections import deque
from fractions import Fraction

import pytest

from eids.flows import Cause
from eids.timing import (
    BaselineNotReady,
    FlowBaseline,
    NonPositiveInterarrival,
)

MS = 1000


def _baseline(samples, delta_milli, window=None):
    baseline = FlowBaseline(delta_milli=delta_milli, window=window)
    for sample in samples:
        baseline.record_learning_sample(sample)
    baseline.activate()
    return baseline


def test_constant_learning_series():
    baseline = _baseline([100 * MS] * 3, delta_milli=100)
    assert baseline.learned_min_us == 100 * MS
    assert baseline.learned_max_us == 100 * MS
    assert baseline.mean_q8 == 100 * MS << 8


def test_two_point_learning_series():
    baseline = _baseline([95 * MS, 105 * MS], delta_milli=100)
    assert baseline.mean_q8 == 100 * MS << 8
    assert baseline.learned_min_us == 95 * MS
    assert baseline.learned_max_us == 105 * MS


def test_non_positive_sample_rejected():
    baseline = FlowBaseline(delta_milli=100)
    with pytest.raises(NonPositiveInterarrival):
        baseline.record_learning_sample(0)
    with pytest.raises(NonPositiveInterarrival):
        baseline.record_learning_sample(-5)


def test_not_ready_with_single_sample():
    baseline = FlowBaseline(delta_milli=100, window=deque(maxlen=4))
    baseline.record_learning_sample(100)
    with pytest.raises(BaselineNotReady):
        baseline.activate()


def test_too_fast_example():
    # 90 <= 95 * 0.95 = 90.25
    baseline = _baseline([95 * MS, 105 * MS], delta_milli=50, window=deque(maxlen=16))
    assert baseline.check(90 * MS) is Cause.TOO_FAST


def test_in_band_is_ok():
    baseline = _baseline([95 * MS, 105 * MS, 100 * MS], delta_milli=50, window=deque(maxlen=16))
    assert baseline.check(100 * MS) is None


def test_boundary_equal_values_are_flagged():
    baseline = _baseline([100 * MS, 200 * MS], delta_milli=500)
    # bounds: 100ms * 0.5 = 50ms, 200ms * 1.5 = 300ms, both exclusive
    assert baseline.check(50 * MS) is Cause.TOO_FAST
    assert baseline.check(300 * MS) is Cause.TOO_SLOW
    assert baseline.check(50 * MS + 1) is None
    assert baseline.check(300 * MS - 1) is None


def test_a_low_edge_that_is_a_whole_us_is_flagged():
    # 90us * 0.7 is 62.99999999999999 in floats; the edge is 63us
    baseline = _baseline([90, 100], delta_milli=300)
    assert (baseline.low_us, baseline.high_us) == (63, 130)
    assert baseline.check(63) is Cause.TOO_FAST
    assert baseline.check(64) is None


@pytest.mark.parametrize("delta_milli", [1, 7, 300, 333, 999, 1001, 1999])
def test_every_whole_us_edge_is_flagged(delta_milli):
    # learned minima and maxima of 1..200,000us whose exact edge,
    # extreme * (1000 -/+ delta_milli) / 1000, is a whole number of us
    flagged = 0
    for extreme in range(1, 200_001):
        low, low_rest = divmod(extreme * (1000 - delta_milli), 1000)
        high, high_rest = divmod(extreme * (1000 + delta_milli), 1000)
        if low_rest and high_rest:
            continue
        baseline = _baseline([extreme, extreme], delta_milli)
        if not low_rest and low > 0:
            assert baseline.check(low) is Cause.TOO_FAST, extreme
            assert baseline.check(low + 1) is None, extreme
            flagged += 1
        if not high_rest:
            assert baseline.check(high) is Cause.TOO_SLOW, extreme
            assert baseline.check(high - 1) is None, extreme
            flagged += 1
    assert flagged >= 200


def test_delta_above_one_clamps_lower_band():
    baseline = _baseline([100 * MS, 200 * MS], delta_milli=1500)
    # the lower edge is below 0: nothing positive is ever too fast
    assert baseline.check(1) is None
    assert baseline.check(600 * MS) is Cause.TOO_SLOW


def test_mean_drift_derived_example():
    # learned mean 100ms, max 105ms, delta 0.1: each 115ms sample passes
    # the max band (bound 115.5ms) but a full window of them means 115ms,
    # outside the mean band of 110ms
    baseline = FlowBaseline(delta_milli=100, window=deque(maxlen=16))
    for sample in [95 * MS, 105 * MS] * 8:
        baseline.record_learning_sample(sample)
    baseline.activate()
    assert baseline.mean_q8 == 100 * MS << 8

    verdicts = [baseline.check(115 * MS) for _ in range(16)]
    assert verdicts[:-1] == [None] * 15  # window not yet full
    assert verdicts[-1] is Cause.MEAN_DRIFT

    # brute-force reference on the same sequence
    raw = [115 * MS] * 16
    assert sum(raw) / len(raw) > 100 * MS * 1.1


def test_flagged_samples_stay_out_of_window():
    window = deque(maxlen=4)
    baseline = _baseline([100 * MS, 100 * MS], delta_milli=100, window=window)
    assert baseline.check(1) is Cause.TOO_FAST
    assert len(window) == 0
    assert baseline.window_sum == 0


def test_runtime_adjust_fixed_point_and_arithmetic():
    baseline = _baseline([100 * MS] * 3, delta_milli=100)
    baseline.adjust(100 * MS)
    assert baseline.mean_q8 == 100 * MS << 8
    # 1/256 of the way from 100ms to 356ms: one ms
    baseline.adjust(356 * MS)
    assert baseline.mean_q8 == 101 * MS << 8


def test_runtime_adjust_never_widens_extrema():
    baseline = _baseline([95 * MS, 105 * MS], delta_milli=300)
    for value in (97 * MS, 103 * MS, 99 * MS):
        baseline.adjust(value)
    assert baseline.learned_min_us == 95 * MS
    assert baseline.learned_max_us == 105 * MS


def test_window_running_sum_matches_brute_force():
    rng = random.Random(17)
    # min/max band (0.5us, 15s): every sample below enters the window
    baseline = _baseline([1, 10**7], delta_milli=500, window=deque(maxlen=7))
    shadow = []
    drifts = 0
    for _ in range(3000):
        value = rng.randrange(1, 10**7)
        verdict = baseline.check(value)
        shadow.append(value)
        shadow = shadow[-7:]
        assert baseline.window_sum == sum(shadow)
        assert list(baseline.window) == shadow
        mean = sum(shadow) / len(shadow)
        drift = len(shadow) == 7 and (
            mean <= baseline.mean_q8 / 256 * 0.5 or mean >= baseline.mean_q8 / 256 * 1.5
        )
        assert verdict is (Cause.MEAN_DRIFT if drift else None)
        drifts += drift
    assert drifts > 0


def test_integer_mean_tracks_the_exact_average_and_keeps_the_float_verdicts():
    # long random flows whose level wanders across the mean band, the mean
    # adjusted after every sample; held against the exact moving average
    # with weight 1/256 and against the float mean the band used to read
    rng = random.Random(47)
    full_checks = drifts = 0
    for _ in range(120):
        period = rng.randrange(1_000, 5_000_000)
        samples = [rng.randrange(period // 2, period * 3 // 2)
                   for _ in range(rng.randrange(2, 60))]
        size = rng.randrange(1, 17)
        delta_milli = rng.randrange(1, 500)
        baseline = _baseline(samples, delta_milli, window=deque(maxlen=size))
        exact = Fraction(sum(samples), len(samples))
        # activation floors the learned mean to 1/256 us
        assert 0 <= exact - Fraction(baseline.mean_q8, 256) < Fraction(1, 256)
        float_mean = sum(samples) / len(samples)
        mean_low, mean_high = size * (1000 - delta_milli), size * (1000 + delta_milli)
        level = period
        for _ in range(400):
            level = min(2 * period, max(period // 3, level + rng.randrange(-period, period) // 20))
            t_us = rng.randrange(level * 9 // 10, level * 11 // 10 + 1)
            verdict = baseline.check(t_us)
            if verdict in (None, Cause.MEAN_DRIFT) and len(baseline.window) == size:
                # the mean band as it read with mean_us, a float
                float_drift = not (mean_low * float_mean < 1000 * baseline.window_sum
                                   < mean_high * float_mean)
                assert (verdict is Cause.MEAN_DRIFT) is float_drift
                full_checks += 1
                drifts += float_drift
            baseline.adjust(t_us)
            exact += (t_us - exact) / 256
            float_mean = (1.0 - 1 / 256) * float_mean + t_us / 256
            assert -Fraction(1, 256) < Fraction(baseline.mean_q8, 256) - exact < 1
    assert full_checks > 30_000
    assert drifts > 3_000


def _edges(detail):
    """The two edges of the band an opening event's detail names."""
    match = re.search(r"outside \((-?\d+)us, (-?\d+)us\)$", detail)
    return int(match[1]), int(match[2])


def test_band_detail_edges_bound_exactly_the_clean_values():
    # at each check, the edges band_detail names hold a value as clean
    # exactly when check does: t_us against the min/max band, and once the
    # window is full its sum against the mean band
    rng = random.Random(53)
    min_max_checks = mean_checks = 0
    for _ in range(150):
        period = rng.randrange(1_000, 5_000_000)
        samples = [rng.randrange(period // 2, period * 3 // 2) for _ in range(rng.randrange(2, 40))]
        size = rng.randrange(1, 17)
        baseline = _baseline(samples, rng.randrange(0, 1200), window=deque(maxlen=size))
        for _ in range(200):
            t_us = rng.randrange(1, 2 * period)
            low, high = _edges(baseline.band_detail(Cause.TOO_FAST, t_us))
            assert _edges(baseline.band_detail(Cause.TOO_SLOW, t_us)) == (low, high)
            verdict = baseline.check(t_us)
            assert (low < t_us < high) is (verdict not in (Cause.TOO_FAST, Cause.TOO_SLOW))
            min_max_checks += 1
            if verdict in (None, Cause.MEAN_DRIFT) and len(baseline.window) == size:
                detail = baseline.band_detail(Cause.MEAN_DRIFT, t_us)
                assert detail.startswith("dt=%dus, window sum %dus outside ("
                                         % (t_us, baseline.window_sum))
                low, high = _edges(detail)
                assert (low < baseline.window_sum < high) is (verdict is None)
                mean_checks += 1
            if verdict is None:
                baseline.adjust(t_us)
    assert min_max_checks == 30_000
    assert mean_checks > 5_000


def test_monotonicity_of_band_verdicts():
    rng = random.Random(23)
    for _ in range(200):
        samples = [rng.randrange(1, 10**6) for _ in range(rng.randrange(2, 10))]
        baseline = _baseline(samples, delta_milli=rng.randrange(1000))
        t = rng.randrange(1, 2 * 10**6)
        verdict = baseline.check(t)
        if verdict is Cause.TOO_SLOW:
            assert baseline.check(t + rng.randrange(1, 10**6)) is Cause.TOO_SLOW
        if verdict is Cause.TOO_FAST and t > 1:
            assert baseline.check(rng.randrange(1, t)) is Cause.TOO_FAST


def test_learning_trace_replay_stays_in_band():
    # with any delta > 0 the exact learning samples replay clean through
    # the min/max band
    rng = random.Random(31)
    for _ in range(100):
        samples = [rng.randrange(1, 10**6) for _ in range(rng.randrange(2, 50))]
        baseline = _baseline(samples, delta_milli=rng.randrange(10, 1010))
        for sample in samples:
            assert baseline.check(sample) in (None,)


def test_constant_trace_replay_no_verdicts_any_positive_delta():
    for delta_milli in (1, 100, 500, 1200):
        baseline = _baseline([100 * MS] * 20, delta_milli=delta_milli, window=deque(maxlen=8))
        for _ in range(100):
            assert baseline.check(100 * MS) is None


def _even_split(total, parts):
    """parts integers, each total // parts or one more, summing to total."""
    quotient, remainder = divmod(total, parts)
    return [quotient + 1] * remainder + [quotient] * (parts - remainder)


def test_an_unadjusted_mean_band_flags_every_window_on_its_exact_edges():
    """Before the first adjust a window whose sum lies exactly on an
    edge of the mean band, window size * learned mean * (1000 -/+ delta)
    / 1000, is flagged, and one 1 us inside the edge is not. The sweep
    takes every such integer edge for learning sums 2-399 over 2-8
    samples, 8 deltas and windows 1-16; the learning samples are 1 us
    but the last, for the widest min/max band, and the window's are
    split evenly. Held against mean_q8, the learned mean floored in
    1/256 us, 14,168 of the 142,952 windows on an edge go unflagged,
    all on a low one."""
    cases = misses = inside_flagged = 0
    for delta_milli in (0, 50, 100, 125, 250, 300, 500, 750):
        for total in range(2, 400):
            for n in range(2, min(8, total) + 1):
                # the widest min/max band for the sum: the window's samples fit
                learning = [1] * (n - 1) + [total - n + 1]
                for size in range(1, 17):
                    for edge_milli, inward in ((1000 - delta_milli, 1), (1000 + delta_milli, -1)):
                        edge_sum, rest = divmod(size * total * edge_milli, 1000 * n)
                        if rest:
                            continue
                        for window_sum, on_edge in ((edge_sum, True),
                                                    (edge_sum + inward, False)):
                            exact_clean = (size * total * (1000 - delta_milli)
                                           < 1000 * n * window_sum
                                           < size * total * (1000 + delta_milli))
                            if on_edge is exact_clean:
                                continue  # a band too narrow to hold the inside sum
                            baseline = _baseline(learning, delta_milli,
                                                 window=deque(maxlen=size))
                            window = _even_split(window_sum, size)
                            if not baseline.low_us < min(window) <= max(window) < baseline.high_us:
                                continue
                            verdicts = [baseline.check(t_us) for t_us in window]
                            assert verdicts[:-1] == [None] * (size - 1)
                            if on_edge:
                                cases += 1
                                misses += verdicts[-1] is not Cause.MEAN_DRIFT
                            else:
                                inside_flagged += verdicts[-1] is not None
    assert (cases, misses, inside_flagged) == (142_952, 0, 0)
