"""Client-side performance monitor (Section 4.1).

The monitor lives with the workload generator, samples end-to-end latency
continuously, and reports per decision interval whether the interactive
service's QoS is met and how much latency slack remains.  It is designed to
add no measurable load: sampling backs off adaptively when the service is
comfortably inside (or hopelessly outside) its QoS and tightens near the
boundary, where decisions actually change.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _pairwise_sum(values: list[float], start: int, count: int) -> float:
    """The sum of ``values[start:start + count]``, added in the order of
    numpy's float64 pairwise sum (8 accumulators up to 128 values, halves
    above), so :func:`_mean` equals ``np.mean`` bit for bit.  A plain
    left-to-right sum rounds differently on some inputs."""
    if count < 8:
        total = 0.0
        for value in values[start:start + count]:
            total += value
        return total
    if count <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[start:start + 8]
        end = start + count - count % 8
        for i in range(start + 8, end, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for value in values[end:start + count]:
            total += value
        return total
    half = count // 2
    half -= half % 8
    return _pairwise_sum(values, start, half) + _pairwise_sum(
        values, start + half, count - half
    )


def _mean(values: list[float]) -> float:
    """``float(np.mean(values))`` of a non-empty list, without numpy."""
    # numpy's reduction adds the sum to its identity 0.0 (so -0.0 -> 0.0).
    return (0.0 + _pairwise_sum(values, 0, len(values))) / len(values)


@dataclass(frozen=True)
class IntervalObservation:
    """What the monitor tells the controller at each decision boundary."""

    time: float
    p99: float
    qos: float
    sample_count: int

    @property
    def qos_met(self) -> bool:
        return self.p99 <= self.qos

    @property
    def slack(self) -> float:
        """Fractional latency headroom; negative when violating."""
        return (self.qos - self.p99) / self.qos

    @property
    def ratio(self) -> float:
        """Tail latency as a multiple of the QoS target."""
        return self.p99 / self.qos


@dataclass
class PerformanceMonitor:
    """Aggregates epoch latency samples into interval observations."""

    qos: float
    adaptive: bool = True
    _samples: list[float] = field(default_factory=list)
    _history: list[IntervalObservation] = field(default_factory=list)
    _last_slack: float = 1.0

    def __post_init__(self) -> None:
        if self.qos <= 0:
            raise ValueError("qos must be positive")

    @property
    def samples_every_epoch(self) -> bool:
        """Adaptive sampling: near the QoS boundary every epoch counts; far
        from it, every other (even-indexed) epoch suffices.  Moves only
        when an interval closes."""
        return not self.adaptive or abs(self._last_slack) <= 0.25

    def record(self, p99_sample: float) -> None:
        if p99_sample < 0:
            raise ValueError("latency samples must be non-negative")
        self._samples.append(p99_sample)

    def close_interval(self, time: float) -> IntervalObservation:
        """Fold the pending samples into one observation and reset."""
        if self._samples:
            p99 = _mean(self._samples)
            count = len(self._samples)
        else:
            # No samples this interval (fully backed-off monitor): assume
            # the last observation still holds.
            p99 = self._history[-1].p99 if self._history else 0.0
            count = 0
        observation = IntervalObservation(
            time=time, p99=p99, qos=self.qos, sample_count=count
        )
        self._samples.clear()
        self._history.append(observation)
        self._last_slack = observation.slack
        return observation

    @property
    def history(self) -> list[IntervalObservation]:
        return list(self._history)
