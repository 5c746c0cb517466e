"""The epoch loop's contention and latency state is never stale.

:class:`ColocationEngine` keeps contention in two levels (tenant side and
service side), each recomputed only when its inputs move, advances a
segment of epochs at a time, and samples latency from per-segment pieces
with block-drawn noise.  The engine below runs the loop as it was before
any of that: one epoch per step, every profile rebuilt,
:meth:`ServerNode.pressure_on` asked for every tenant, the one-shot
:meth:`InteractiveService.sample_p99` drawing from a plain numpy
generator, the monitor's sampling rule read every epoch and its interval
mean taken by ``np.mean``.  Both must produce bit-identical results on
runs that exercise every change that moves contention (level switch,
core move, app finishing, new service operating point).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import colocation
from repro.core import monitor
from repro.core.runtime import (
    _APP_PRESSURE_SENSITIVITY,
    _IDLE_PROFILE,
    _INFLATION_TIME_CONSTANT,
    ColocationEngine,
    IntervalRecord,
)
from repro.rng import child_generator
from repro.server.interference import InterferenceModel
from repro.sweep import Scenario, results_identical, run_scenario

from tests.integration.test_headline_results import PAIRS


class AlwaysRecomputeEngine(ColocationEngine):
    """The per-epoch loop, recomputing every profile and pressure each epoch."""

    #: Every instance built while the class is patched in.
    instances: list["AlwaysRecomputeEngine"] = []

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # A plain generator, one numpy call per draw (the p99 noise and the
        # elision draw in _final_inaccuracy).
        self._rng = child_generator(self._config.seed, f"engine/{self._service.name}")
        self.epochs = 0
        self.pressure_calls = 0
        AlwaysRecomputeEngine.instances.append(self)

    def run(self):
        cfg = self._config
        epochs_per_interval = max(1, int(round(cfg.decision_interval / cfg.monitor_epoch)))
        times, p99s, service_cores = [], [], []
        app_levels = {n: [] for n in self._apps}
        app_cores = {n: [] for n in self._apps}
        intervals = []
        min_cores = {n: sim.tenant.cores for n, sim in self._apps.items()}
        max_reclaimed = {n: 0 for n in self._apps}
        epoch_index = 0
        while self._now < cfg.horizon:
            self._epoch(epoch_index, times, p99s, service_cores, app_levels, app_cores)
            for name, sim in self._apps.items():
                min_cores[name] = min(min_cores[name], sim.tenant.cores)
                max_reclaimed[name] = max(max_reclaimed[name], sim.tenant.reclaimed_cores)
            epoch_index += 1
            if epoch_index % epochs_per_interval == 0:
                obs = self._monitor.close_interval(self._now)
                before = self._action_fingerprint()
                self._policy.on_interval(obs, self._actuator)
                intervals.append(
                    IntervalRecord(observation=obs, action_summary=self._describe_action(before))
                )
            if cfg.stop_when_apps_done and all(sim.finished for sim in self._apps.values()):
                break
        return self._result(
            times, p99s, service_cores, app_levels, app_cores, intervals,
            min_cores, max_reclaimed,
        )

    def _epoch(self, epoch_index, times, p99s, service_cores, app_levels, app_cores):
        self.epochs += 1
        dt = self._config.monitor_epoch
        qps = self._loadgen.qps_at(self._now)
        svc_cores = self._service_tenant.cores
        self._service_tenant.set_profile(self._service.profile(qps, svc_cores))
        for sim in self._apps.values():
            sim._levels.clear()
            sim.tenant.set_profile(sim.active_profile())
        pressure = self._pressure(self._service.name)
        raw_inflation = self._service.sensitivity.inflation(pressure)
        alpha = min(1.0, dt / _INFLATION_TIME_CONSTANT)
        self._inflation_ema += alpha * (raw_inflation - self._inflation_ema)
        inflation = self._inflation_ema
        capacity = self._service.saturation_qps(svc_cores) / inflation
        self._backlog.update(qps, capacity, dt)
        penalty = self._backlog.penalty(capacity)
        sample = self._service.sample_p99(
            qps, svc_cores, pressure, self._rng, dt,
            backlog_penalty=penalty, inflation=inflation,
        )
        if self._monitor.samples_every_epoch or epoch_index % 2 == 0:
            self._monitor.record(sample)
        for sim in self._apps.values():
            self._advance(sim, dt)
        times.append(self._now)
        p99s.append(sample)
        service_cores.append(svc_cores)
        for name, sim in self._apps.items():
            app_levels[name].append(sim.level)
            app_cores[name].append(sim.tenant.cores)
        self._now += dt

    def _advance(self, sim, dt):
        if sim.finished:
            return
        if sim.pause_remaining > 0:
            consumed = min(sim.pause_remaining, dt)
            sim.pause_remaining -= consumed
            dt -= consumed
            if dt <= 0:
                return
        dp = dt / self._fresh_exec_time(sim)
        dp = min(dp, 1.0 - sim.progress)
        sim.progress += dp
        sim.inaccuracy_integral += dp * sim.variant().inaccuracy_pct
        if sim.uses_elision():
            sim.elided_progress += dp
        if sim.progress >= 1.0 - 1e-12:
            sim.finished = True
            sim.finish_time = self._now + dt
            sim.tenant.set_profile(_IDLE_PROFILE)

    def _fresh_exec_time(self, sim):
        return parent_exec_time(self, sim, self._pressure(sim.name))

    def _pressure(self, name):
        self.pressure_calls += 1
        return self._node.pressure_on(name)


def parent_exec_time(engine, sim, pressure) -> float:
    """An app's execution time as the per-epoch loop computed it."""
    metadata = sim.app.metadata
    cores = sim.tenant.cores
    nominal = sim.tenant.nominal_cores
    p = metadata.parallel_fraction
    amdahl_now = (1.0 - p) + p / max(cores, 1)
    amdahl_nominal = (1.0 - p) + p / max(nominal, 1)
    exec_time = metadata.nominal_exec_time * amdahl_now / amdahl_nominal
    exec_time *= sim.variant().time_factor
    if sim.instrumented:
        exec_time *= engine._overhead.instrumentation_factor(metadata)
    slowdown = 1.0 + _APP_PRESSURE_SENSITIVITY * (
        0.5 * pressure.llc + pressure.membw_linear + pressure.membw_overload
    )
    return exec_time * slowdown


def _run_both(scenario: Scenario, monkeypatch):
    cached = run_scenario(scenario)
    AlwaysRecomputeEngine.instances.clear()
    with monkeypatch.context() as patch:
        patch.setattr(colocation, "ColocationEngine", AlwaysRecomputeEngine)
        patch.setattr(monitor, "_mean", lambda values: float(np.mean(values)))
        fresh = run_scenario(scenario)
    # The reference loop really ran, one epoch per step, asking
    # ServerNode.pressure_on for every tenant every epoch.
    (reference,) = AlwaysRecomputeEngine.instances
    epochs = len(fresh.epoch_times)
    assert reference.epochs == epochs > 0
    assert reference.pressure_calls > epochs
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


#: 3-app mixes under diurnal load for the whole horizon: apps finish while
#: the others keep running, and the run goes on after the last one.
OPEN_ENDED = [
    Scenario(
        service=service, apps=apps, policy=policy, seed=5,
        loadgen_shape="diurnal", loadgen_params=LOADS["diurnal"],
        horizon=70.0, stop_when_apps_done=False,
    )
    for service, apps in [
        ("memcached", ("fasta", "birch", "fluidanimate")),
        ("nginx", ("bayesian", "raytrace", "water_spatial")),
    ]
    for policy in ("pliant", "pliant-impact")
]


@pytest.mark.parametrize(
    "scenario", OPEN_ENDED, ids=lambda s: f"{s.service}-{'+'.join(s.apps)}-{s.policy}"
)
def test_open_ended_diurnal_mixes_identical_to_always_recompute(scenario, monkeypatch):
    cached, fresh = _run_both(scenario, monkeypatch)
    assert results_identical(cached, fresh)
    assert any(outcome.completed for outcome in cached.apps)


#: Decision intervals of 8 and 16 epochs: the monitor folds 4, 8 or 16
#: samples (10 and 5 at the default 10), so its mean runs through both
#: sides of numpy's 8-value block boundary.
INTERVAL_LENGTHS = [
    Scenario(
        service=service, apps=apps, policy="pliant", seed=13,
        decision_interval=interval, loadgen_shape="diurnal",
        loadgen_params=LOADS["diurnal"],
    )
    for service, apps in [("memcached", ("canneal",)), ("mongodb", ("snp", "kmeans"))]
    for interval in (0.8, 1.6)
]


@pytest.mark.parametrize(
    "scenario",
    INTERVAL_LENGTHS,
    ids=lambda s: f"{s.service}-{'+'.join(s.apps)}-{s.decision_interval}s",
)
def test_other_interval_lengths_identical_to_always_recompute(scenario, monkeypatch):
    cached, fresh = _run_both(scenario, monkeypatch)
    assert results_identical(cached, fresh)
    counts = {record.observation.sample_count for record in cached.intervals}
    assert 8 in counts


def _count_terms(scenario: Scenario, monkeypatch):
    """Run ``scenario``; return its result and the terms computed for the
    apps and for the service."""
    calls = []
    original = InterferenceModel.terms

    def counting(self, profile, cores):
        calls.append(profile)
        return original(self, profile, cores)

    engines = []

    class Recording(ColocationEngine):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(InterferenceModel, "terms", counting)
    monkeypatch.setattr(colocation, "ColocationEngine", Recording)
    result = run_scenario(scenario)
    (engine,) = engines
    # ``calls`` keeps every profile alive, so identities are unambiguous.
    app_profiles = [_IDLE_PROFILE] + [
        profile
        for sim in engine._apps.values()
        for profile, _ in sim._levels.values()
    ]
    app_calls = sum(1 for c in calls if any(c is p for p in app_profiles))
    return result, app_calls, len(calls) - app_calls


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
    result, app_calls, service_calls = _count_terms(scenario, monkeypatch)
    decisions = len(result.intervals)
    finishes = sum(1 for outcome in result.apps if outcome.completed)
    changes = decisions + finishes + 1
    assert 0 < app_calls <= len(scenario.apps) * changes
    # Under constant load the service's operating point moves only with
    # its cores, so its side is recomputed at the same changes.
    assert 0 < service_calls <= changes
    # Far below the one refresh per epoch of an unmemoised loop.
    assert service_calls < len(result.epoch_times)


def test_app_terms_recomputed_only_at_tenant_changes_under_diurnal_load(monkeypatch):
    scenario = OPEN_ENDED[0]
    result, app_calls, service_calls = _count_terms(scenario, monkeypatch)
    decisions = len(result.intervals)
    finishes = sum(1 for outcome in result.apps if outcome.completed)
    assert 0 < app_calls <= (decisions + finishes + 1) * len(scenario.apps)
    # The service side follows the load, which moves every epoch, and is
    # refreshed once more inside each epoch in which an app finishes.
    epochs = len(result.epoch_times)
    assert epochs <= service_calls <= epochs + finishes
