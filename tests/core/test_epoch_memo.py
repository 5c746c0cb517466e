"""The epoch loop's contention caches are never stale.

:class:`ColocationEngine` keeps every tenant's pressure, and what it
derives from one, until a level switch, a core move, an app finishing or
a new service operating point empties them.  The engine below forgets
everything at the top of every epoch instead — service profile, every
app's per-level profile, every pressure — which is what the
loop did before it memoised anything.  Both must produce bit-identical
results on runs that exercise all four invalidating changes.
"""

from __future__ import annotations

import pytest

from repro.cluster import colocation
from repro.core.runtime import ColocationEngine
from repro.server.node import ServerNode
from repro.sweep import Scenario, results_identical, run_scenario

from tests.integration.test_headline_results import PAIRS


class AlwaysRecomputeEngine(ColocationEngine):
    """Recomputes every profile and pressure fresh, every epoch."""

    def _step_epoch(self, *args) -> None:
        self._operating_point = None
        for sim in self._apps.values():
            sim._levels.clear()
            sim.tenant.set_profile(sim.active_profile())
        self._invalidate()
        super()._step_epoch(*args)


def _run_both(scenario: Scenario, monkeypatch):
    cached = run_scenario(scenario)
    with monkeypatch.context() as patch:
        patch.setattr(colocation, "ColocationEngine", AlwaysRecomputeEngine)
        fresh = run_scenario(scenario)
    return cached, fresh


HEADLINE = [
    Scenario(service=service, apps=(app,), policy=policy, seed=7)
    for service, app in PAIRS
    for policy in ("precise", "pliant")
]

#: Step / diurnal / bursty parameters, as fractions of saturation.
LOADS = {
    "step": (("steps", ((0.0, 0.6), (4.0, 0.9), (9.0, 0.7), (15.0, 0.95))),),
    "diurnal": (("low", 0.5), ("high", 0.92), ("period", 8.0)),
    "bursty": (("base", 0.6), ("burst", 0.97), ("period", 3.0), ("duration", 1.0)),
}
MIXES = [
    ("memcached", ("canneal", "kmeans")),
    ("nginx", ("bayesian", "raytrace", "water_spatial")),
    ("mongodb", ("snp", "streamcluster")),
]
VARYING = [
    Scenario(
        service=service, apps=apps, policy="pliant-impact", seed=11,
        loadgen_shape=shape, loadgen_params=params,
    )
    for service, apps in MIXES
    for shape, params in LOADS.items()
]


@pytest.mark.parametrize(
    "scenario", HEADLINE, ids=lambda s: f"{s.service}-{s.apps[0]}-{s.policy}"
)
def test_headline_pairs_identical_to_always_recompute(scenario, monkeypatch):
    cached, fresh = _run_both(scenario, monkeypatch)
    assert results_identical(cached, fresh)


def test_varying_mixes_identical_to_always_recompute(monkeypatch):
    level_switches = core_moves = mid_interval_finishes = 0
    for scenario in VARYING:
        cached, fresh = _run_both(scenario, monkeypatch)
        assert results_identical(cached, fresh), scenario
        for outcome in cached.apps:
            level_switches += len(outcome.level_trace)
            if outcome.finish_time is not None:
                interval = scenario.decision_interval
                offset = outcome.finish_time % interval
                if 1e-9 < offset < interval - 1e-9:
                    mid_interval_finishes += 1
        cores = cached.epoch_service_cores
        core_moves += int((cores[1:] != cores[:-1]).sum())
    # The runs above exercise every invalidating change.
    assert level_switches > 0
    assert core_moves > 0
    assert mid_interval_finishes > 0


@pytest.mark.parametrize(
    "scenario",
    [
        Scenario(service="memcached", apps=("canneal",), policy="pliant", seed=3),
        Scenario(service="nginx", apps=("kmeans",), policy="precise", seed=3),
        Scenario(
            service="mongodb", apps=("snp", "bayesian"), policy="pliant-impact", seed=3
        ),
    ],
    ids=lambda s: f"{s.service}-{'+'.join(s.apps)}-{s.policy}",
)
def test_pressure_recomputed_only_at_state_changes(scenario, monkeypatch):
    calls = []
    original = ServerNode.pressure_on

    def counting(self, name):
        calls.append(name)
        return original(self, name)

    monkeypatch.setattr(ServerNode, "pressure_on", counting)
    result = run_scenario(scenario)
    decisions = len(result.intervals)
    finishes = sum(1 for outcome in result.apps if outcome.completed)
    bound = (1 + len(scenario.apps)) * (decisions + finishes + 1)
    assert 0 < len(calls) <= bound
    # Far below the one call per tenant per epoch of an unmemoised loop.
    assert len(calls) < len(result.epoch_times)
