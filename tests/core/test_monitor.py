"""Performance monitor: windows, slack, adaptive sampling, exact mean."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitor import IntervalObservation, PerformanceMonitor
from repro.sweep import Scenario, run_scenario


class TestObservation:
    def test_qos_met(self):
        obs = IntervalObservation(time=1.0, p99=0.8, qos=1.0, sample_count=10)
        assert obs.qos_met
        assert obs.slack == pytest.approx(0.2)
        assert obs.ratio == pytest.approx(0.8)

    def test_violation(self):
        obs = IntervalObservation(time=1.0, p99=2.0, qos=1.0, sample_count=10)
        assert not obs.qos_met
        assert obs.slack == pytest.approx(-1.0)


class TestMonitor:
    def test_interval_aggregation(self):
        monitor = PerformanceMonitor(qos=1.0)
        for value in (0.5, 1.5, 1.0):
            monitor.record(value)
        obs = monitor.close_interval(time=1.0)
        assert obs.p99 == pytest.approx(1.0)
        assert obs.sample_count == 3

    def test_window_resets(self):
        monitor = PerformanceMonitor(qos=1.0)
        monitor.record(5.0)
        monitor.close_interval(1.0)
        monitor.record(1.0)
        obs = monitor.close_interval(2.0)
        assert obs.p99 == pytest.approx(1.0)

    def test_empty_interval_reuses_last(self):
        monitor = PerformanceMonitor(qos=1.0)
        monitor.record(0.7)
        first = monitor.close_interval(1.0)
        second = monitor.close_interval(2.0)
        assert second.p99 == first.p99
        assert second.sample_count == 0

    def test_history(self):
        monitor = PerformanceMonitor(qos=1.0)
        monitor.record(0.5)
        monitor.close_interval(1.0)
        monitor.record(2.0)
        monitor.close_interval(2.0)
        assert [obs.qos_met for obs in monitor.history] == [True, False]

    def test_rejects_negative_sample(self):
        with pytest.raises(ValueError):
            PerformanceMonitor(qos=1.0).record(-1.0)

    def test_rejects_bad_qos(self):
        with pytest.raises(ValueError):
            PerformanceMonitor(qos=0.0)


def sampled_epochs(monitor, epochs=10):
    """Which of an interval's epochs the engine records: all of them, or
    the even-indexed ones when the monitor backs off."""
    sample_all = monitor.samples_every_epoch
    return [sample_all or i % 2 == 0 for i in range(epochs)]


class TestAdaptiveSampling:
    def test_near_boundary_samples_every_epoch(self):
        monitor = PerformanceMonitor(qos=1.0)
        monitor.record(0.95)  # slack 0.05 -> near boundary
        monitor.close_interval(1.0)
        assert monitor.samples_every_epoch
        assert all(sampled_epochs(monitor))

    def test_far_from_boundary_backs_off(self):
        monitor = PerformanceMonitor(qos=1.0)
        monitor.record(0.1)  # slack 0.9 -> far
        monitor.close_interval(1.0)
        assert not monitor.samples_every_epoch
        sampled = sampled_epochs(monitor)
        assert not all(sampled)
        assert any(sampled)

    def test_non_adaptive_always_samples(self):
        monitor = PerformanceMonitor(qos=1.0, adaptive=False)
        monitor.record(0.1)
        monitor.close_interval(1.0)
        assert monitor.samples_every_epoch
        assert all(sampled_epochs(monitor))

    def test_rule_moves_only_when_an_interval_closes(self):
        monitor = PerformanceMonitor(qos=1.0)
        monitor.record(0.1)
        monitor.close_interval(1.0)
        monitor.record(0.95)  # pending, not yet an observation
        assert not monitor.samples_every_epoch
        monitor.close_interval(2.0)
        assert monitor.samples_every_epoch

    def test_engine_applies_rule_per_interval(self):
        """Each interval holds 10 samples after a near-boundary
        observation and 5 after a far one (10 epochs per interval)."""
        result = run_scenario(
            Scenario(service="memcached", apps=("canneal",), policy="pliant", seed=1)
        )
        counts = {5: 0, 10: 0}
        for before, record in zip(result.intervals, result.intervals[1:]):
            expected = 10 if abs(before.observation.slack) <= 0.25 else 5
            assert record.observation.sample_count == expected
            counts[expected] += 1
        assert counts[5] > 0 and counts[10] > 0


#: Latency samples of any magnitude, plus both zeros.
_SAMPLES = st.floats(min_value=0.0, max_value=1e6) | st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-300, 0.1, 1.0 / 3.0]
)


class TestExactMean:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_SAMPLES, min_size=1, max_size=300))
    def test_equals_numpy_mean(self, values):
        monitor = PerformanceMonitor(qos=1.0)
        for value in values:
            monitor.record(value)
        obs = monitor.close_interval(1.0)
        assert obs.p99.hex() == float(np.mean(values)).hex()
        assert obs.sample_count == len(values)

    @pytest.mark.parametrize("length", [7, 8, 9, 15, 16, 17, 128, 129, 136, 300])
    def test_block_boundaries(self, length):
        rng = np.random.default_rng(length)
        values = (rng.lognormal(0.0, 2.0, length) * 1e-4).tolist()
        monitor = PerformanceMonitor(qos=1.0)
        for value in values:
            monitor.record(value)
        assert monitor.close_interval(1.0).p99.hex() == float(np.mean(values)).hex()
