"""Load and decision-interval sweeps as one-axis specs; outcome breakdowns."""

import pytest

from repro.cluster.sweeps import OutcomeBreakdown
from repro.experiment import ExperimentSpec, run_experiment
from repro.sweep import SweepCache, SweepEngine, register_policy
from repro.sweep.engine import POLICY_REGISTRY


def _sweep(axis: str, values, **base) -> ExperimentSpec:
    """A Fig. 8/9-style sweep: mongodb + kmeans, seed 4, one axis."""
    return ExperimentSpec(
        base={"service": "mongodb", "apps": "kmeans", "seed": 4, **base},
        axes={axis: values},
    )


@pytest.fixture
def restore_registry():
    before = dict(POLICY_REGISTRY)
    yield
    POLICY_REGISTRY.clear()
    POLICY_REGISTRY.update(before)


class TestLoadSweep:
    def test_points_cover_requested_loads(self):
        results = run_experiment(_sweep("load_fraction", (0.4, 0.8)), workers=1)
        assert [s.load_fraction for s in results.scenarios] == [0.4, 0.8]

    def test_latency_grows_with_load(self):
        results = run_experiment(_sweep("load_fraction", (0.4, 0.95)), workers=1)
        low, high = results.results
        assert low.qos_ratio < high.qos_ratio

    def test_custom_policy_factory(self, restore_registry):
        # A registered builder is how a custom policy joins a sweep.
        from repro.core import PrecisePolicy

        register_policy("test-precise", lambda sc, kw: PrecisePolicy())
        results = run_experiment(
            _sweep("load_fraction", (0.5,), policy="test-precise"), workers=1
        )
        assert results[0].result.policy_name == "precise"

    def test_configured_policy_factory_arguments_respected(self):
        # Constructor arguments travel as policy_kwargs and must take effect.
        spec = _sweep(
            "load_fraction",
            (0.5,),
            policy="static-level",
            policy_kwargs={"levels": [["kmeans", 0]]},
            horizon=30.0,
        )
        (outcome,) = run_experiment(spec, workers=1)
        assert outcome.result.policy_name == "static-level"
        assert {level for _, level in outcome.result.apps[0].level_trace} <= {0}

    def test_factory_sweep_runs_through_the_engine(
        self, tmp_path, restore_registry
    ):
        # Registered policies are cached like any other sweep.
        from repro.core import PrecisePolicy

        register_policy("test-precise", lambda sc, kw: PrecisePolicy())
        engine = SweepEngine(workers=1, cache=SweepCache(tmp_path))
        spec = _sweep(
            "load_fraction", (0.5, 0.7), policy="test-precise", horizon=30.0
        )
        assert len(run_experiment(spec, engine=engine)) == 2
        assert engine.cache.misses == 2
        run_experiment(spec, engine=engine)
        assert engine.cache.hits == 2

    def test_engine_with_cache_memoizes_points(self, tmp_path):
        engine = SweepEngine(workers=1, cache=SweepCache(tmp_path))
        spec = _sweep("load_fraction", (0.5, 0.7), horizon=30.0)
        run_experiment(spec, engine=engine)
        assert engine.cache.misses == 2
        run_experiment(spec, engine=engine)
        assert engine.cache.hits == 2


class TestIntervalSweep:
    def test_points_cover_intervals(self):
        results = run_experiment(
            _sweep("decision_interval", (0.5, 2.0)), workers=1
        )
        assert [s.decision_interval for s in results.scenarios] == [0.5, 2.0]

    def test_finer_interval_more_decisions(self):
        results = run_experiment(
            _sweep("decision_interval", (0.5, 2.0)), workers=1
        )
        fine, coarse = results.results
        assert len(fine.intervals) > len(coarse.intervals)


class TestOutcomeBreakdown:
    def test_totals(self):
        breakdown = OutcomeBreakdown(approx_only=2, one_core=3, two_cores=1)
        assert breakdown.total == 6
        fractions = breakdown.fractions()
        assert fractions["approx_only"] == pytest.approx(2 / 6)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_empty_safe(self):
        assert OutcomeBreakdown().fractions()["approx_only"] == 0.0
