"""The epoch-driven colocation engine.

Binds everything together: a server node hosting one interactive service
and one or more approximate applications, an open-loop load generator, the
interference model, the client-side monitor, and a runtime policy (Pliant
or a baseline).  Time advances in monitor epochs (100 ms); policies act at
decision-interval boundaries (1 s by default), exactly as in the paper.

Each epoch the engine:

1. samples the offered load and, when the service's operating point
   (load, cores) moved, refreshes the service's resource profile,
2. computes the contention pressure on the service, its service-time
   inflation, utilization and saturation backlog,
3. draws a noisy p99 latency observation for the monitor (the noise's
   parameters follow the load, the draws come from a block-drawn stream),
   and
4. advances each application's logical progress at a rate set by its core
   allocation (Amdahl), active variant (measured time factor), DynamoRIO
   overhead (when instrumented) and the contention it suffers itself.

Contention state has two levels, each recomputed only when its inputs
move.  The *tenant side* (every app's terms as an aggressor, the service's
sums over them, each app's base execution time) changes only at a level
switch, a core move or an app finishing.  The *service side* (the
service's pressure and raw inflation, each app's slowdown under the
service's traffic and so its execution time) changes at a new service
operating point too, which under time-varying load is every epoch.  Both
go through :class:`~repro.server.interference.InterferenceModel`'s pieces
in node order, so they equal :meth:`ServerNode.pressure_on` bit for bit.

:meth:`ColocationEngine.run` advances a *segment* at a time: the epochs up
to the next decision boundary, cut short by the horizon or after an epoch
in which an app finishes.  Inside a segment no tenant's cores or level
move, so the per-segment columns and core extremes are written once.

An application's final output quality is the progress-weighted mix of the
inaccuracies of the variants it actually executed — running half the span
precise and half at 4 % loses ~2 % — plus a small nondeterministic term for
spans executed with synchronization elision (the mechanism behind the
paper's canneal+memcached 5.4 % worst case).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.base import ApproximableApp
from repro.core.actuator import Actuator
from repro.core.arbiter import AppView
from repro.core.monitor import IntervalObservation, PerformanceMonitor
from repro.core.policy import RuntimePolicy
from repro.dynrio.binary import FatBinary
from repro.dynrio.instrument import Instrumentor
from repro.dynrio.overhead import OverheadModel
from repro.dynrio.signals import SignalBus
from repro.search.ladder import ApproxLadder
from repro.rng import NormalStream, child_generator
from repro.server.interference import PressureBreakdown, Terms
from repro.server.node import ServerNode
from repro.server.platform import Platform, default_platform
from repro.server.resources import ResourceProfile
from repro.server.tenant import Tenant, TenantKind
from repro.services.base import BacklogTracker, InteractiveService
from repro.services.loadgen import ConstantLoad, LoadGenerator

#: Slowdown an approximate app suffers per unit of contention pressure on
#: itself (batch apps tolerate interference far better than tail latency).
_APP_PRESSURE_SENSITIVITY = 0.25

#: Relative sigma of the nondeterministic quality noise for progress spans
#: executed with synchronization elision.
_ELISION_QUALITY_SIGMA = 0.35

#: Time constant (seconds) over which the service's effective inflation
#: tracks the raw contention-derived value (cache refill / queue drain).
#: Short enough that a variant switch is fully visible by the next decision
#: interval, long enough that mid-interval changes blur realistically.
_INFLATION_TIME_CONSTANT = 0.5

_IDLE_PROFILE = ResourceProfile(
    cpu_fraction=0.0,
    llc_footprint_bytes=0.0,
    llc_intensity=0.0,
    membw_per_core=0.0,
    disk_bw=0.0,
    network_bw=0.0,
)


@dataclass
class AppSim:
    """Simulation state of one approximate application."""

    app: ApproximableApp
    ladder: ApproxLadder
    tenant: Tenant
    instrumented: bool
    instrumentor: Instrumentor | None = None
    level: int = 0
    progress: float = 0.0
    pause_remaining: float = 0.0
    finished: bool = False
    finish_time: float | None = None
    inaccuracy_integral: float = 0.0
    elided_progress: float = 0.0
    level_trace: list[tuple[float, int]] = field(default_factory=list)
    #: Whole-run execution time under the node's current contention, kept
    #: fresh by :meth:`ColocationEngine._refresh_service`.
    exec_time: float = 0.0
    #: level -> (scaled profile, uses elision), filled on first use.
    _levels: dict[int, tuple[ResourceProfile, bool]] = field(
        default_factory=dict, repr=False
    )
    #: Per-level measured factors for the arbiters' views (nothing changes
    #: a ladder's levels during a run).
    level_inaccuracies: tuple[float, ...] = field(init=False, repr=False)
    level_traffic_rates: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        levels = self.ladder.levels
        self.level_inaccuracies = tuple(v.inaccuracy_pct for v in levels)
        self.level_traffic_rates = tuple(v.traffic_rate_factor for v in levels)

    @property
    def name(self) -> str:
        return self.app.name

    def variant(self):
        return self.ladder.variant(self.level)

    def _level(self) -> tuple[ResourceProfile, bool]:
        level = self._levels.get(self.level)
        if level is None:
            variant = self.variant()
            level = self._levels[self.level] = (
                variant.scaled_profile(self.app.metadata.profile),
                any(value is True for value in variant.spec.values()),
            )
        return level

    def active_profile(self) -> ResourceProfile:
        if self.finished:
            return _IDLE_PROFILE
        return self._level()[0]

    def uses_elision(self) -> bool:
        return self._level()[1]


@dataclass
class AppOutcome:
    """Per-application results of one colocation run."""

    name: str
    finish_time: float | None
    inaccuracy_pct: float
    switches: int
    min_cores: int
    max_reclaimed: int
    level_trace: list[tuple[float, int]]

    @property
    def completed(self) -> bool:
        return self.finish_time is not None


@dataclass
class IntervalRecord:
    """One decision interval's observation and the action taken."""

    observation: IntervalObservation
    action_summary: str


@dataclass
class ColocationResult:
    """Everything a benchmark needs from one run."""

    service_name: str
    policy_name: str
    qos: float
    epoch_times: np.ndarray
    epoch_p99: np.ndarray
    epoch_service_cores: np.ndarray
    epoch_app_levels: dict[str, np.ndarray]
    epoch_app_cores: dict[str, np.ndarray]
    intervals: list[IntervalRecord]
    apps: list[AppOutcome]
    offered_qps: float

    #: Startup transient excluded from run-level aggregates: the runtime
    #: needs a couple of decision intervals to react from the cold precise
    #: start, and the paper's aggregate bars reflect steady state.
    warmup_seconds: float = 3.0

    def _post_warmup_p99(self) -> np.ndarray:
        mask = self.epoch_times >= self.warmup_seconds
        return self.epoch_p99[mask] if mask.any() else self.epoch_p99

    @property
    def aggregate_p99(self) -> float:
        """Run-level tail latency: the median epoch p99.

        The controller intentionally relaxes the operating point until the
        tail sits just under QoS, and it takes brief slack probes (visible
        as spikes in the paper's Fig. 4 traces while its Fig. 5 aggregate
        bars still sit under QoS).  The median reads through both the
        sampling noise around the steady state and those transients; a run
        violating QoS most of the time still reads as a violation.  Use
        :attr:`mean_epoch_p99` and :meth:`qos_met_fraction` for stricter
        views.
        """
        values = self._post_warmup_p99()
        if len(values) == 0:
            return 0.0
        return float(np.percentile(values, 50))

    @property
    def mean_epoch_p99(self) -> float:
        """Plain post-warmup mean of the epoch p99 observations."""
        values = self._post_warmup_p99()
        return float(np.mean(values)) if len(values) else 0.0

    @property
    def qos_ratio(self) -> float:
        return self.aggregate_p99 / self.qos

    @property
    def qos_met(self) -> bool:
        return self.aggregate_p99 <= self.qos

    def qos_met_fraction(self) -> float:
        if not self.intervals:
            return 1.0
        met = sum(1 for r in self.intervals if r.observation.qos_met)
        return met / len(self.intervals)

    def app_outcome(self, name: str) -> AppOutcome:
        for outcome in self.apps:
            if outcome.name == name:
                return outcome
        raise LookupError(f"no app named {name!r} in result")

    def max_cores_reclaimed(self) -> int:
        return max((a.max_reclaimed for a in self.apps), default=0)

    def sustained_cores_reclaimed(self) -> int:
        """Total cores held away from the apps in the steady second half of
        the run — the Fig. 10 notion of "needed cores" (a core borrowed for
        one transient interval during convergence does not count)."""
        if len(self.epoch_times) == 0:
            return 0
        halfway = self.epoch_times[-1] / 2.0
        mask = self.epoch_times >= halfway
        total = 0
        for name, cores in self.epoch_app_cores.items():
            nominal = max(cores[0], 1)
            reclaimed = np.maximum(0, nominal - cores[mask])
            total += int(reclaimed.max()) if reclaimed.size else 0
        return total


@dataclass
class ColocationConfig:
    """Knobs of one colocation experiment."""

    load_fraction: float = 0.775
    decision_interval: float = 1.0
    monitor_epoch: float = 0.1
    horizon: float = 400.0
    seed: int = 0
    stop_when_apps_done: bool = True


class ColocationEngine:
    """Runs one colocation experiment to completion."""

    def __init__(
        self,
        service: InteractiveService,
        apps: list[tuple[ApproximableApp, ApproxLadder]],
        policy: RuntimePolicy,
        config: ColocationConfig | None = None,
        platform: Platform | None = None,
        loadgen: LoadGenerator | None = None,
    ) -> None:
        if not apps:
            raise ValueError("a colocation needs at least one approximate app")
        self._service = service
        self._policy = policy
        self._config = config or ColocationConfig()
        self._platform = platform or default_platform()
        self._node = ServerNode(self._platform)
        self._rng = NormalStream(
            child_generator(self._config.seed, f"engine/{service.name}")
        )
        self._overhead = OverheadModel()
        self._bus = SignalBus()
        self._now = 0.0

        shares = self._node.fair_allocation(len(apps))
        qps_ref = self._config.load_fraction * service.saturation_qps(shares[0])
        self._loadgen = loadgen or ConstantLoad(qps_ref)
        self._offered_reference = qps_ref

        self._service_tenant = Tenant(
            name=service.name,
            kind=TenantKind.INTERACTIVE,
            profile=service.profile(qps_ref, shares[0]),
            cores=shares[0],
        )
        self._node.add_tenant(self._service_tenant)

        self._operating_point = (qps_ref, shares[0])

        self._apps: dict[str, AppSim] = {}
        for (app, ladder), cores in zip(apps, shares[1:]):
            tenant = Tenant(
                name=app.name,
                kind=TenantKind.APPROXIMATE,
                profile=app.metadata.profile,
                cores=cores,
            )
            instrumentor = None
            if policy.requires_instrumentation:
                instrumentor = Instrumentor(
                    FatBinary(app, ladder), self._bus, process=app.name
                )
            sim = self._apps[app.name] = AppSim(
                app=app,
                ladder=ladder,
                tenant=tenant,
                instrumented=policy.requires_instrumentation,
                instrumentor=instrumentor,
            )
            tenant.set_profile(sim.active_profile())
            self._node.add_tenant(tenant)

        self._monitor = PerformanceMonitor(qos=service.qos)
        self._backlog = BacklogTracker()
        self._actuator = Actuator(self, overhead=self._overhead)
        self._inflation_ema = 1.0
        self._model = self._node.interference
        # Tenant-side contention state (see _refresh_tenants); None when a
        # level switch, core move or finish made it stale.
        self._app_sums: Terms = (0.0, 0.0, 0.0, 0.0)
        self._app_terms: list[tuple] | None = None
        # Service-side state (see _refresh_service), valid while fresh.
        self._service_fresh = False
        self._service_pressure = PressureBreakdown()
        self._raw_inflation = 1.0

    # -- facade used by the actuator -------------------------------------

    @property
    def service_cores(self) -> int:
        return self._service_tenant.cores

    def running_app_names(self) -> list[str]:
        return sorted(n for n, sim in self._apps.items() if not sim.finished)

    def app_sim(self, name: str) -> AppSim:
        return self._apps[name]

    def arbiter_view(self, name: str) -> AppView:
        sim = self._apps[name]
        return AppView(
            name=name,
            level=sim.level,
            max_level=sim.ladder.max_level,
            cores=sim.tenant.cores,
            nominal_cores=sim.tenant.nominal_cores,
            level_inaccuracies=sim.level_inaccuracies,
            level_traffic_rates=sim.level_traffic_rates,
        )

    def apply_level(self, name: str, level: int) -> None:
        sim = self._apps[name]
        if sim.instrumentor is not None:
            sim.instrumentor.request_level(level)
        sim.level = level
        sim.level_trace.append((self._now, level))
        sim.tenant.set_profile(sim.active_profile())
        self._tenants_changed()

    def move_core(self, name: str, to_service: bool) -> None:
        if to_service:
            self._node.reclaim_core(name, self._service.name)
        else:
            self._node.reclaim_core(self._service.name, name)
        self._tenants_changed()

    # -- simulation --------------------------------------------------------

    def run(self) -> ColocationResult:
        cfg = self._config
        dt = cfg.monitor_epoch
        epochs_per_interval = max(1, int(round(cfg.decision_interval / dt)))
        # Tail-latency effects of an allocation or variant change develop
        # over cache-refill / queue-drain timescales (~1 s), not instantly.
        alpha = min(1.0, dt / _INFLATION_TIME_CONSTANT)
        service = self._service
        service_tenant = self._service_tenant
        qps_at = self._loadgen.qps_at
        backlog = self._backlog
        monitor = self._monitor
        record = monitor.record
        curve = service.curve
        rng = self._rng
        noise = curve.noise(self._operating_point[0] * dt)
        times: list[float] = []
        p99s: list[float] = []
        service_cores: list[int] = []
        app_levels: dict[str, list[int]] = {n: [] for n in self._apps}
        app_cores: dict[str, list[int]] = {n: [] for n in self._apps}
        intervals: list[IntervalRecord] = []
        min_cores = {n: sim.tenant.cores for n, sim in self._apps.items()}
        max_reclaimed = {n: 0 for n in self._apps}

        epoch_index = 0
        while self._now < cfg.horizon:
            # One segment: the epochs up to the next decision boundary, cut
            # short by the horizon or by an app finishing.  No policy acts
            # inside it, so every tenant's cores and level hold still.
            svc_cores = service_tenant.cores
            saturation = service.saturation_qps(svc_cores)
            sample_all = monitor.samples_every_epoch
            # Levels hold still too, and with them what each app's level
            # implies for its progress.
            lanes = [
                (sim, sim.variant().inaccuracy_pct, sim.uses_elision())
                for sim in self._apps.values()
                if not sim.finished
            ]
            segment_start = len(times)
            while True:
                qps = qps_at(self._now)
                if (qps, svc_cores) != self._operating_point:
                    self._operating_point = (qps, svc_cores)
                    service_tenant.set_profile(service.profile(qps, svc_cores))
                    self._service_fresh = False
                    noise = curve.noise(qps * dt)
                if not self._service_fresh:
                    self._refresh_service()
                self._inflation_ema += alpha * (self._raw_inflation - self._inflation_ema)
                inflation = self._inflation_ema
                capacity = saturation / inflation
                backlog.update(qps, capacity, dt)
                # InteractiveService.sample_p99, from the segment's pieces.
                sample = curve.sample(
                    qps * inflation / saturation, noise, backlog.penalty(capacity), rng
                )
                if sample_all or epoch_index % 2 == 0:
                    record(sample)
                finished = False
                for sim, inaccuracy, elided in lanes:
                    finished |= self._advance_app(sim, dt, inaccuracy, elided)
                times.append(self._now)
                p99s.append(sample)
                self._now += dt
                epoch_index += 1
                if (
                    finished
                    or epoch_index % epochs_per_interval == 0
                    or self._now >= cfg.horizon
                ):
                    break

            epochs = len(times) - segment_start
            service_cores.extend([svc_cores] * epochs)
            for name, sim in self._apps.items():
                cores = sim.tenant.cores
                app_levels[name].extend([sim.level] * epochs)
                app_cores[name].extend([cores] * epochs)
                min_cores[name] = min(min_cores[name], cores)
                max_reclaimed[name] = max(
                    max_reclaimed[name], sim.tenant.reclaimed_cores
                )
            if epoch_index % epochs_per_interval == 0:
                obs = monitor.close_interval(self._now)
                before = self._action_fingerprint()
                self._policy.on_interval(obs, self._actuator)
                summary = self._describe_action(before)
                intervals.append(IntervalRecord(observation=obs, action_summary=summary))
            if cfg.stop_when_apps_done and all(
                sim.finished for sim in self._apps.values()
            ):
                break

        return self._result(
            times, p99s, service_cores, app_levels, app_cores, intervals,
            min_cores, max_reclaimed,
        )

    def _result(
        self,
        times: list[float],
        p99s: list[float],
        service_cores: list[int],
        app_levels: dict[str, list[int]],
        app_cores: dict[str, list[int]],
        intervals: list[IntervalRecord],
        min_cores: dict[str, int],
        max_reclaimed: dict[str, int],
    ) -> ColocationResult:
        """Assemble a finished run's columns and records into its result."""
        outcomes = [
            AppOutcome(
                name=name,
                finish_time=sim.finish_time,
                inaccuracy_pct=self._final_inaccuracy(sim),
                switches=(
                    sim.instrumentor.switches if sim.instrumentor is not None else 0
                ),
                min_cores=min_cores[name],
                max_reclaimed=max_reclaimed[name],
                level_trace=list(sim.level_trace),
            )
            for name, sim in self._apps.items()
        ]
        return ColocationResult(
            service_name=self._service.name,
            policy_name=self._policy.name,
            qos=self._service.qos,
            epoch_times=np.asarray(times),
            epoch_p99=np.asarray(p99s),
            epoch_service_cores=np.asarray(service_cores),
            epoch_app_levels={n: np.asarray(v) for n, v in app_levels.items()},
            epoch_app_cores={n: np.asarray(v) for n, v in app_cores.items()},
            intervals=intervals,
            apps=outcomes,
            offered_qps=self._offered_reference,
        )

    # -- internals --------------------------------------------------------

    def _advance_app(
        self, sim: AppSim, dt: float, inaccuracy: float, elided: bool
    ) -> bool:
        """Advance running ``sim`` by one epoch at its level's ``inaccuracy``
        and elision; True when it finished in it."""
        if sim.pause_remaining > 0:
            consumed = min(sim.pause_remaining, dt)
            sim.pause_remaining -= consumed
            dt -= consumed
            if dt <= 0:
                return False
        if not self._service_fresh:
            self._refresh_service()
        dp = min(dt / sim.exec_time, 1.0 - sim.progress)
        sim.progress += dp
        sim.inaccuracy_integral += dp * inaccuracy
        if elided:
            sim.elided_progress += dp
        if sim.progress < 1.0 - 1e-12:
            return False
        sim.finished = True
        sim.finish_time = self._now + dt
        sim.tenant.set_profile(_IDLE_PROFILE)
        self._tenants_changed()
        return True

    def _base_exec_time(self, sim: AppSim) -> float:
        """``sim``'s execution time before the slowdown contention causes."""
        metadata = sim.app.metadata
        p = metadata.parallel_fraction
        amdahl_now = (1.0 - p) + p / max(sim.tenant.cores, 1)
        amdahl_nominal = (1.0 - p) + p / max(sim.tenant.nominal_cores, 1)
        exec_time = metadata.nominal_exec_time * amdahl_now / amdahl_nominal
        exec_time *= sim.variant().time_factor
        if sim.instrumented:
            exec_time *= self._overhead.instrumentation_factor(metadata)
        return exec_time

    def _tenants_changed(self) -> None:
        """Mark both levels stale after a level switch, core move or finish."""
        self._app_terms = None
        self._service_fresh = False

    def _refresh_tenants(self) -> None:
        """Recompute what only the apps' profiles and cores determine.

        That is each app's terms as an aggressor, their sums as felt by
        the service, and for each running app the other apps' terms, its
        own bandwidth and its base execution time.  The apps follow the
        service in node order, so a victim's aggressors are the service
        and then the other apps, each in the order :meth:`_refresh_service`
        and :meth:`ServerNode.pressure_on` add them.
        """
        model = self._model
        apps = list(self._apps.values())
        terms = [model.terms(sim.tenant.profile, sim.tenant.cores) for sim in apps]
        self._app_sums = model.reduce([t for t in terms if t is not None])
        self._app_terms = []
        for index, sim in enumerate(apps):
            if sim.finished:
                continue
            others = [
                t for other, t in enumerate(terms) if other != index and t is not None
            ]
            self._app_terms.append((
                sim,
                tuple(t[0] for t in others),
                tuple(t[1] for t in others),
                sim.tenant.profile.llc_intensity,
                sim.tenant.profile.total_membw(sim.tenant.cores),
                self._base_exec_time(sim),
            ))

    def _refresh_service(self) -> None:
        """Recompute what the service's operating point determines.

        That is the service's pressure and raw inflation, and each running
        app's LLC and memory-bandwidth slowdown (the service is one of its
        aggressors) and hence its execution time.
        """
        if self._app_terms is None:
            self._refresh_tenants()
        model = self._model
        tenant = self._service_tenant
        # The service always holds a core, so it always has terms.
        service_rate, service_bw, _, _ = model.terms(tenant.profile, tenant.cores)
        self._service_pressure = model.pressure(
            tenant.profile, tenant.cores, self._app_sums
        )
        self._raw_inflation = self._service.sensitivity.inflation(
            self._service_pressure
        )
        for sim, rates, bws, llc_intensity, own_bw, base in self._app_terms:
            llc = model.llc_pollution((service_rate, *rates)) * llc_intensity
            membw_linear, membw_overload = model.membw_pressure(
                own_bw, sum((service_bw, *bws))
            )
            slowdown = 1.0 + _APP_PRESSURE_SENSITIVITY * (
                0.5 * llc + membw_linear + membw_overload
            )
            sim.exec_time = base * slowdown
        self._service_fresh = True

    def _final_inaccuracy(self, sim: AppSim) -> float:
        inaccuracy = sim.inaccuracy_integral
        if sim.elided_progress > 0:
            # Synchronization elision is racy: the realized quality loss
            # jitters around the measured value for the elided spans.
            noise = self._rng.normal(0.0, _ELISION_QUALITY_SIGMA)
            inaccuracy += abs(noise) * sim.elided_progress
        return float(max(0.0, inaccuracy))

    def _action_fingerprint(self) -> tuple:
        return tuple(
            (sim.level, sim.tenant.cores) for sim in self._apps.values()
        )

    def _describe_action(self, before: tuple) -> str:
        after = self._action_fingerprint()
        if before == after:
            return "hold"
        parts = []
        for (lvl0, c0), (lvl1, c1), name in zip(
            before, after, self._apps.keys()
        ):
            if lvl1 != lvl0:
                parts.append(f"{name}: level {lvl0}->{lvl1}")
            if c1 != c0:
                parts.append(f"{name}: cores {c0}->{c1}")
        return "; ".join(parts)
