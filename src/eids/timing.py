"""Per-flow interarrival-time envelopes and their runtime checks.

During learning a flow accumulates the minimum, maximum and cumulative
mean of its interarrival times. In active mode each new interarrival is
first held against the widened min/max band; values inside it enter a
sliding window, a deque bounded by the window size beside its running
sum, whose mean is held against the widened learned mean. Band
boundaries are exclusive: a value equal to a bound is flagged. The
check names the band an interarrival broke as a Cause (TOO_FAST,
TOO_SLOW or MEAN_DRIFT), or returns None for a clean one. Durations
are integer microseconds, the tolerance integer thousandths and the
runtime mean an integer in 1/256 us, moved by each clean interarrival
with the weight 1/256, so check, adjust and activate do only integer
arithmetic, as on an MCU without an FPU. The mean band's mean is one
fraction: activate sets it to the exact learned mean, the learning sum
over the sample count, not its floor in 1/256 us, and each adjust to
the runtime mean.

activate() alone turns learning totals, learned or imported, into the
bands check uses, and refuses a flow below two learning samples.

A baseline also holds its flow's burst latch for the engine: the cause
of the run of flagged interarrivals still open, how many frames it has
flagged and when it flagged the last. band_detail names the band an
interarrival broke, for the event that opens a burst.
"""

from collections import deque
from dataclasses import dataclass

from .flows import Cause


# bound once, as the engine binds the members it reads on every frame:
# check returns one for every flagged interarrival
_TOO_FAST, _TOO_SLOW, _MEAN_DRIFT = Cause.TOO_FAST, Cause.TOO_SLOW, Cause.MEAN_DRIFT


class NonPositiveInterarrival(ValueError):
    """Interarrival samples must be positive durations."""


class BaselineNotReady(RuntimeError):
    """A baseline needs at least two learning samples (interarrivals)."""


@dataclass
class FlowBaseline:
    """Learned timing envelope of one flow, and the flow's runtime
    timing state: its mean window with the window's exact sum, the time
    of its last sample, its silence latch and its burst latch.

    delta_milli is the multiplicative tolerance widening both bands, in
    thousandths; from 1000 on a lower edge is at or below zero and
    flags nothing. The window is a deque bounded by its maxlen, the
    window size; a flow without one skips the mean check. mean_q8 is
    the runtime mean in 1/256 us. The mean band's mean is the fraction
    _mean_num / _mean_den, its denominator held times 1000.
    """

    delta_milli: int
    window: deque | None = None
    window_sum: int = 0
    n_l: int = 0
    learned_min_us: int = 0
    learned_max_us: int = 0
    mean_q8: int = 0
    last_arrival_us: int = 0  # the engine sets it before any check
    last_sample_us: int | None = None
    silent: bool = False
    # the open burst's cause, or None; its flagged frames and the last one's time
    burst: Cause | None = None
    burst_frames: int = 0
    burst_last_us: int = 0
    # set by activate(): the min/max edges, and window size * (1000 -/+ delta_milli)
    low_us: int = 0
    high_us: int = 0
    _mean_low: int = 0
    _mean_high: int = 0
    _mean_num: int = 0
    _mean_den: int = 0
    _sum_us: int = 0

    @property
    def learning_mean(self) -> float:
        return self._sum_us / self.n_l if self.n_l else 0.0

    def record_learning_sample(self, t_us: int) -> None:
        if t_us <= 0:
            raise NonPositiveInterarrival("interarrival of %d us" % t_us)
        if self.n_l == 0 or t_us < self.learned_min_us:
            self.learned_min_us = t_us
        if self.n_l == 0 or t_us > self.learned_max_us:
            self.learned_max_us = t_us
        self.n_l += 1
        self._sum_us += t_us

    def activate(self) -> None:
        """Freeze the learned mean and the min/max band."""
        if self.n_l < 2:
            raise BaselineNotReady("flow has %d learning samples" % self.n_l)
        delta = self.delta_milli
        self.mean_q8 = (self._sum_us << 8) // self.n_l
        # the mean band holds the exact learned mean until the first adjust
        self._mean_num, self._mean_den = self._sum_us, 1000 * self.n_l
        # floor and ceiling of the exact edges, exact for integer times
        self.low_us = self.learned_min_us * (1000 - delta) // 1000
        self.high_us = -(-self.learned_max_us * (1000 + delta) // 1000)
        if self.window is not None:
            self._mean_low = self.window.maxlen * (1000 - delta)
            self._mean_high = self.window.maxlen * (1000 + delta)

    def check(self, t_us: int) -> Cause | None:
        """The cause one active-mode interarrival raises, or None for a
        clean one.

        The min/max band is tested first; only values inside it enter
        the window. The mean band is evaluated once the window holds a
        full complement of samples, since the mean of a handful of
        samples right after activation says nothing about drift.
        """
        if t_us <= self.low_us:
            return _TOO_FAST
        if t_us >= self.high_us:
            return _TOO_SLOW
        window = self.window
        if window is not None:
            size = window.maxlen
            if len(window) == size:
                self.window_sum -= window[0]  # the append below evicts it
            window.append(t_us)
            self.window_sum += t_us
            if len(window) == size:
                # window_sum / size against mean * (1000 -/+ delta) / 1000
                mean, scale = self._mean_num, self._mean_den
                if not (self._mean_low * mean < scale * self.window_sum
                        < self._mean_high * mean):
                    return _MEAN_DRIFT
        return None

    def band_detail(self, cause: Cause, t_us: int) -> str:
        """What interarrival t_us, flagged with cause, broke: dt against
        the min/max band, or for MEAN_DRIFT also the window sum against
        the mean band. Each band is open, with edges in integer us:
        a value is clean only strictly between them."""
        if cause is Cause.MEAN_DRIFT:
            # floor and ceiling of window size * mean * (1000 -/+ delta) / 1000
            mean, scale = self._mean_num, self._mean_den
            low = self._mean_low * mean // scale
            high = -(-self._mean_high * mean // scale)
            return "dt=%dus, window sum %dus outside (%dus, %dus)" % (
                t_us, self.window_sum, low, high)
        return "dt=%dus outside (%dus, %dus)" % (t_us, self.low_us, self.high_us)

    def adjust(self, t_us: int) -> None:
        """Runtime baseline adaptation from a sample judged OK.

        Only the mean moves, exponentially weighted by 1/256: in 1/256 us
        it gains t_us and loses its own 256th, floored, so it stays
        within (-1/256, 1) us of the exact average. The learned extrema
        are never widened by runtime traffic.
        """
        self.mean_q8 += t_us - (self.mean_q8 >> 8)
        self._mean_num, self._mean_den = self.mean_q8, 256_000
