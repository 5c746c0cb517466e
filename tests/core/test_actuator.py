"""Actuator: signal-driven switching, core moves, the policy's app view."""

import pytest

from repro.cluster import build_engine
from repro.core import PliantPolicy
from repro.core.runtime import ColocationConfig


@pytest.fixture()
def engine():
    return build_engine(
        "nginx", ["kmeans"], PliantPolicy(seed=8), config=ColocationConfig(seed=8)
    )


class TestSetLevel:
    def test_switch_updates_everything(self, engine):
        actuator = engine._actuator
        sim = engine.app_sim("kmeans")
        actuator.set_level("kmeans", 1)
        assert sim.level == 1
        assert sim.instrumentor.active_level == 1
        assert sim.pause_remaining > 0
        assert sim.level_trace == [(0.0, 1)]

    def test_noop_switch_free(self, engine):
        actuator = engine._actuator
        actuator.set_level("kmeans", 0)
        assert engine.app_sim("kmeans").level_trace == []
        assert engine.app_sim("kmeans").pause_remaining == 0

    def test_profile_rescaled(self, engine):
        actuator = engine._actuator
        sim = engine.app_sim("kmeans")
        before = sim.tenant.profile.membw_per_core
        actuator.set_level("kmeans", sim.ladder.max_level)
        after = sim.tenant.profile.membw_per_core
        assert after != before

    def test_out_of_range(self, engine):
        with pytest.raises(IndexError):
            engine._actuator.set_level("kmeans", 42)


class TestCoreMoves:
    def test_reclaim_and_return(self, engine):
        actuator = engine._actuator
        actuator.reclaim_core("kmeans")
        assert actuator.app_view("kmeans").cores == 7
        assert actuator.service_cores == 9
        actuator.return_core("kmeans")
        assert actuator.app_view("kmeans").cores == 8
        assert actuator.service_cores == 8

    def test_moves_shift_one_core_each_way(self, engine):
        actuator = engine._actuator
        reclaimed = []
        for move in ("reclaim_core", "reclaim_core", "return_core"):
            getattr(actuator, move)("kmeans")
            reclaimed.append(actuator.app_view("kmeans").reclaimed)
        assert reclaimed == [1, 2, 1]


class TestObservation:
    def test_views(self, engine):
        actuator = engine._actuator
        assert actuator.running_apps() == ["kmeans"]
        view = actuator.app_view("kmeans")
        assert view.name == "kmeans"
        assert view.level == 0
        assert view.max_level >= 1
        assert view.nominal_cores == 8
        assert len(view.level_inaccuracies) == view.max_level + 1
