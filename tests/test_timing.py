"""Interarrival envelopes: band arithmetic, window exactness, properties."""

import random

import pytest

from eids.timing import (
    ActiveWindow,
    BaselineNotReady,
    FlowBaseline,
    NonPositiveInterarrival,
    TimingVerdict,
)

MS = 1000


def _baseline(samples, delta, window=None):
    baseline = FlowBaseline(delta=delta, window=window)
    for sample in samples:
        baseline.record_learning_sample(sample)
    baseline.activate()
    return baseline


def test_constant_learning_series():
    baseline = _baseline([100 * MS] * 3, delta=0.1)
    assert baseline.learned_min_us == 100 * MS
    assert baseline.learned_max_us == 100 * MS
    assert baseline.mean_us == 100 * MS


def test_two_point_learning_series():
    baseline = _baseline([95 * MS, 105 * MS], delta=0.1)
    assert baseline.mean_us == 100 * MS
    assert baseline.learned_min_us == 95 * MS
    assert baseline.learned_max_us == 105 * MS


def test_non_positive_sample_rejected():
    baseline = FlowBaseline(delta=0.1)
    with pytest.raises(NonPositiveInterarrival):
        baseline.record_learning_sample(0)
    with pytest.raises(NonPositiveInterarrival):
        baseline.record_learning_sample(-5)


def test_not_ready_with_single_sample():
    baseline = FlowBaseline(delta=0.1, window=ActiveWindow(4))
    baseline.record_learning_sample(100)
    assert baseline.activate() is False
    with pytest.raises(BaselineNotReady):
        baseline.check(100)


def test_too_fast_example():
    # 90 <= 95 * 0.95 = 90.25
    baseline = _baseline([95 * MS, 105 * MS], delta=0.05, window=ActiveWindow(16))
    assert baseline.check(90 * MS) is TimingVerdict.TOO_FAST


def test_in_band_is_ok():
    baseline = _baseline([95 * MS, 105 * MS, 100 * MS], delta=0.05, window=ActiveWindow(16))
    assert baseline.check(100 * MS) is TimingVerdict.OK


def test_boundary_equal_values_are_flagged():
    baseline = _baseline([100 * MS, 200 * MS], delta=0.5)
    # bounds: 100ms * 0.5 = 50ms, 200ms * 1.5 = 300ms, both exclusive
    assert baseline.check(50 * MS) is TimingVerdict.TOO_FAST
    assert baseline.check(300 * MS) is TimingVerdict.TOO_SLOW
    assert baseline.check(50 * MS + 1) is TimingVerdict.OK
    assert baseline.check(300 * MS - 1) is TimingVerdict.OK


def test_delta_above_one_clamps_lower_band():
    baseline = _baseline([100 * MS, 200 * MS], delta=1.5)
    # lower bound clamps at 0: nothing positive is ever too fast
    assert baseline.check(1) is TimingVerdict.OK
    assert baseline.check(600 * MS) is TimingVerdict.TOO_SLOW


def test_mean_drift_derived_example():
    # learned mean 100ms, max 105ms, delta 0.1: each 115ms sample passes
    # the max band (bound 115.5ms) but a full window of them means 115ms,
    # outside the mean band of 110ms
    baseline = FlowBaseline(delta=0.1, window=ActiveWindow(16))
    for sample in [95 * MS, 105 * MS] * 8:
        baseline.record_learning_sample(sample)
    baseline.activate()
    assert baseline.mean_us == 100 * MS

    verdicts = [baseline.check(115 * MS) for _ in range(16)]
    assert verdicts[:-1] == [TimingVerdict.OK] * 15  # window not yet full
    assert verdicts[-1] is TimingVerdict.MEAN_DRIFT

    # brute-force reference on the same sequence
    raw = [115 * MS] * 16
    assert sum(raw) / len(raw) > 100 * MS * 1.1


def test_flagged_samples_stay_out_of_window():
    window = ActiveWindow(4)
    baseline = _baseline([100 * MS, 100 * MS], delta=0.1, window=window)
    assert baseline.check(1) is TimingVerdict.TOO_FAST
    assert len(window) == 0


def test_runtime_adjust_fixed_point_and_arithmetic():
    baseline = _baseline([100 * MS] * 3, delta=0.1)
    baseline.adjust(100 * MS, alpha=1 / 256)
    assert baseline.mean_us == 100 * MS
    baseline.adjust(102 * MS, alpha=0.5)
    assert baseline.mean_us == 101 * MS


def test_runtime_adjust_never_widens_extrema():
    baseline = _baseline([95 * MS, 105 * MS], delta=0.3)
    for value in (97 * MS, 103 * MS, 99 * MS):
        baseline.adjust(value, alpha=0.25)
    assert baseline.learned_min_us == 95 * MS
    assert baseline.learned_max_us == 105 * MS


def test_alpha_zero_never_moves_the_mean():
    baseline = _baseline([95 * MS, 105 * MS], delta=0.3)
    before = baseline.mean_us
    rng = random.Random(3)
    for _ in range(500):
        baseline.adjust(rng.randrange(1, 10**6), alpha=0.0)
    assert baseline.mean_us == before


def test_window_running_sum_matches_brute_force():
    rng = random.Random(17)
    window = ActiveWindow(capacity=7)
    shadow = []
    for _ in range(3000):
        value = rng.randrange(1, 10**7)
        window.push(value)
        shadow.append(value)
        shadow = shadow[-7:]
        assert window.running_sum == sum(shadow)
        assert list(window.samples) == shadow
        assert window.mean == sum(shadow) / len(shadow)


def test_monotonicity_of_band_verdicts():
    rng = random.Random(23)
    for _ in range(200):
        samples = [rng.randrange(1, 10**6) for _ in range(rng.randrange(2, 10))]
        baseline = _baseline(samples, delta=rng.random())
        t = rng.randrange(1, 2 * 10**6)
        verdict = baseline.check(t)
        if verdict is TimingVerdict.TOO_SLOW:
            assert baseline.check(t + rng.randrange(1, 10**6)) is TimingVerdict.TOO_SLOW
        if verdict is TimingVerdict.TOO_FAST and t > 1:
            assert baseline.check(rng.randrange(1, t)) is TimingVerdict.TOO_FAST


def test_learning_trace_replay_stays_in_band():
    # with any delta > 0 the exact learning samples replay clean through
    # the min/max band
    rng = random.Random(31)
    for _ in range(100):
        samples = [rng.randrange(1, 10**6) for _ in range(rng.randrange(2, 50))]
        baseline = _baseline(samples, delta=0.01 + rng.random())
        for sample in samples:
            assert baseline.check(sample) in (
                TimingVerdict.OK,
            )


def test_constant_trace_replay_no_verdicts_any_positive_delta():
    for delta in (0.001, 0.1, 0.5, 1.2):
        baseline = _baseline([100 * MS] * 20, delta=delta, window=ActiveWindow(8))
        for _ in range(100):
            assert baseline.check(100 * MS) is TimingVerdict.OK


def test_persistence_round_trip():
    baseline = _baseline([95 * MS, 105 * MS, 99 * MS], delta=0.3)
    stored = FlowBaseline(delta=baseline.delta)
    stored.restore(
        mean_us=round(baseline.mean_us),
        min_us=baseline.learned_min_us,
        max_us=baseline.learned_max_us,
        n_l=baseline.n_l,
    )
    assert stored.ready
    assert stored.learned_min_us == baseline.learned_min_us
    assert stored.learned_max_us == baseline.learned_max_us
    assert stored.n_l == baseline.n_l
