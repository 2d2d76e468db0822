"""Per-flow interarrival-time envelopes and their runtime checks.

During learning a flow accumulates the minimum, maximum and cumulative
mean of its interarrival times. In active mode each new interarrival is
first held against the widened min/max band; values inside it enter a
sliding window whose mean is held against the widened learned mean.
Band boundaries are exclusive: a value equal to a bound is flagged.
All durations are integer microseconds, which keeps window sums exact.
"""

from collections import deque
from dataclasses import dataclass, field
from enum import Enum


class TimingVerdict(Enum):
    OK = "ok"
    TOO_FAST = "too-fast"
    TOO_SLOW = "too-slow"
    MEAN_DRIFT = "mean-drift"


class NonPositiveInterarrival(ValueError):
    """Interarrival samples must be positive durations."""


class BaselineNotReady(RuntimeError):
    """A baseline needs at least two learning packets (one interval)."""


@dataclass
class ActiveWindow:
    """Bounded FIFO of recent interarrivals with an exact running sum."""

    capacity: int
    samples: deque = field(default_factory=deque)
    running_sum: int = 0

    def push(self, t_us: int) -> None:
        if len(self.samples) == self.capacity:
            self.running_sum -= self.samples.popleft()
        self.samples.append(t_us)
        self.running_sum += t_us

    @property
    def full(self) -> bool:
        return len(self.samples) == self.capacity

    @property
    def mean(self) -> float:
        return self.running_sum / len(self.samples)

    def __len__(self) -> int:
        return len(self.samples)


@dataclass
class FlowBaseline:
    """Learned timing envelope of one flow, and the flow's runtime
    timing state: its mean window, the time of its last sample and its
    silence latch.

    delta is the multiplicative tolerance widening both bands; it may
    exceed 1, in which case the lower bounds clamp at zero and only the
    upper bounds keep widening. A flow without a window skips the mean
    check.
    """

    delta: float
    window: ActiveWindow | None = None
    n_l: int = 0
    learned_min_us: int = 0
    learned_max_us: int = 0
    mean_us: float = 0.0
    last_arrival_us: int | None = None
    last_sample_us: int | None = None
    silent: bool = False
    ready: bool = False
    # the min/max band's exclusive edges, set by activate()
    low_us: float = 0.0
    high_us: float = 0.0
    _sum_us: int = 0

    @property
    def learning_mean(self) -> float:
        return self._sum_us / self.n_l if self.n_l else 0.0

    def record_learning_sample(self, t_us: int) -> None:
        if t_us <= 0:
            raise NonPositiveInterarrival("interarrival of %d us" % t_us)
        if self.n_l == 0:
            self.learned_min_us = t_us
            self.learned_max_us = t_us
        else:
            if t_us < self.learned_min_us:
                self.learned_min_us = t_us
            if t_us > self.learned_max_us:
                self.learned_max_us = t_us
        self.n_l += 1
        self._sum_us += t_us

    def activate(self) -> bool:
        """Freeze the learned mean and the min/max band; returns whether
        the baseline is usable."""
        self.ready = self.n_l >= 2
        if self.ready:
            self.mean_us = self._sum_us / self.n_l
            self.low_us = max(0.0, self.learned_min_us * (1.0 - self.delta))
            self.high_us = self.learned_max_us * (1.0 + self.delta)
        return self.ready

    def restore(self, mean_us: int, min_us: int, max_us: int, n_l: int) -> None:
        """Load a persisted envelope as learning totals and activate it."""
        self.n_l = n_l
        self.learned_min_us = min_us
        self.learned_max_us = max_us
        self._sum_us = mean_us * n_l
        self.activate()

    def check(self, t_us: int) -> TimingVerdict:
        """Classify one active-mode interarrival.

        The min/max band is tested first; only values inside it enter
        the window. The mean band is evaluated once the window holds a
        full complement of samples, since the mean of a handful of
        samples right after activation says nothing about drift.
        """
        if not self.ready:
            raise BaselineNotReady("flow has %d learning samples" % self.n_l)
        if t_us <= self.low_us:
            return TimingVerdict.TOO_FAST
        if t_us >= self.high_us:
            return TimingVerdict.TOO_SLOW
        window = self.window
        if window is not None:
            window.push(t_us)
            if window.full:
                mean = window.mean
                if mean <= max(0.0, self.mean_us * (1.0 - self.delta)):
                    return TimingVerdict.MEAN_DRIFT
                if mean >= self.mean_us * (1.0 + self.delta):
                    return TimingVerdict.MEAN_DRIFT
        return TimingVerdict.OK

    def adjust(self, t_us: int, alpha: float) -> None:
        """Runtime baseline adaptation from a sample judged OK.

        Only the mean moves, exponentially weighted; the learned
        extrema are never widened by runtime traffic.
        """
        self.mean_us = (1.0 - alpha) * self.mean_us + alpha * t_us
