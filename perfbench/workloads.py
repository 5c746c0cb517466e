"""The benchmark's four workloads: generators and timed passes.

Each generator is a pure function of the benchmark seed and hands the
program nothing but :class:`~repro.sweep.Scenario` values (or an
:class:`~repro.experiment.ExperimentSpec` that expands to them).  A
*pass* is one complete unit of timed work; a run repeats passes until its
time is up, so every figure is an average over whole passes.

Why these four (each stresses a different set of layers):

* ``matrix-constant`` — the paper's claim matrix, run cold and serially:
  the path every figure takes after a code change.  Constant load makes
  the epoch loop's state repeat between decisions, so memoising that
  state pays off here.
* ``mixes-varying`` — multi-tenant mixes under time-varying load: the
  load changes between epochs, which defeats memoisation keyed on
  per-epoch state, and more tenants weigh on interference, the arbiter
  and the actuator.  An optimisation that only pays off on repeated state
  shows no gain here.
* ``rerun-warm`` — the claim matrix against a warm cache plus the claim
  statistics: no simulation at all, only cache reads, the engine facade
  and the ResultSet query surface.
* ``fleet-short`` — short scenarios through the distributed backend with
  one local worker, alternating the filesystem spool and the TCP broker:
  worker spawn, lease round trips, cross-process cache traffic and
  collector polling.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.apps import ALL_APP_NAMES
from repro.experiment import ExperimentSpec, ResultSet, run_experiment
from repro.sweep import (
    DistributedBackend,
    JobSpool,
    Scenario,
    SweepCache,
    SweepEngine,
    TcpBroker,
    TcpTransport,
)

import checks

SERVICES = ("nginx", "memcached", "mongodb")
POLICIES = ("precise", "pliant")
#: Multi-app mix sizes of one mixes-varying pass: every app appears once.
MIX_SIZES = (3, 3, 3, 3, 2, 2, 2, 2, 2, 2)
VARYING_SHAPES = ("diurnal", "bursty", "step")
VARYING_POLICIES = ("pliant", "pliant-impact")
#: Simulated seconds of one mixes-varying scenario.  Every scenario runs
#: the full window (apps need 25-55 s, so none finishes inside it): the
#: work per pass is then the same for every seed, which only changes the
#: pairings and the load.
VARYING_HORIZON = 15.0
#: Simulated seconds of one fleet-short scenario (50 monitor epochs).
FLEET_HORIZON = 5.0
FLEET_TRANSPORTS = ("spool", "tcp")
#: A sweep that has not finished in this long has hung.
FLEET_TIMEOUT_S = 120.0


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _scenario_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def matrix_spec(seed: int) -> ExperimentSpec:
    """24 apps x 3 services x {precise, pliant} at the paper's 77.5% load."""
    return ExperimentSpec(
        name="matrix-constant",
        base={"seed": _scenario_seed(_rng("matrix-constant", seed)), "load_fraction": 0.775},
        axes={"service": SERVICES, "apps": ALL_APP_NAMES, "policy": POLICIES},
    )


def _load_params(shape: str, rng: random.Random) -> tuple:
    """Load-shape parameters, as fractions of the service's saturation."""
    def u(lo, hi):
        return round(rng.uniform(lo, hi), 3)

    if shape == "diurnal":
        return (("low", u(0.45, 0.6)), ("high", u(0.85, 0.95)), ("period", u(6.0, 15.0)))
    if shape == "bursty":
        period = u(2.0, 5.0)
        return (
            ("base", u(0.5, 0.7)), ("burst", u(0.9, 1.0)),
            ("period", period), ("duration", round(period * rng.uniform(0.2, 0.4), 3)),
        )
    steps = tuple((1.5 * i, u(0.5, 0.95)) for i in range(10))
    return (("steps", steps),)


def mixes_scenarios(seed: int) -> list[Scenario]:
    """Every app once per pass, in 2-3-app mixes, under each varying shape.

    The apps are dealt into mixes and the services cycled across them, so
    each pass carries the same amount of every app and service whatever
    the seed: the seed changes the pairings and the load, not the size.
    """
    rng = _rng("mixes-varying", seed)
    apps = list(ALL_APP_NAMES)
    rng.shuffle(apps)
    sizes = list(MIX_SIZES)
    rng.shuffle(sizes)
    offset = rng.randrange(len(SERVICES))
    scenarios = []
    start = 0
    for index, size in enumerate(sizes):
        mix = tuple(apps[start:start + size])
        start += size
        service = SERVICES[(offset + index) % len(SERVICES)]
        for shape in VARYING_SHAPES:
            params = _load_params(shape, rng)
            scenario_seed = _scenario_seed(rng)
            for policy in VARYING_POLICIES:
                scenarios.append(Scenario(
                    service=service, apps=mix, policy=policy, seed=scenario_seed,
                    loadgen_shape=shape, loadgen_params=params,
                    horizon=VARYING_HORIZON, stop_when_apps_done=False,
                ))
    return scenarios


def fleet_scenarios(seed: int) -> list[Scenario]:
    """Every (service, app, policy) once, at a drawn load, 5 s horizon."""
    rng = _rng("fleet-short", seed)
    return [
        Scenario(
            service=service, apps=(app,), policy=policy,
            load_fraction=round(rng.uniform(0.6, 0.9), 3),
            seed=_scenario_seed(rng), horizon=FLEET_HORIZON,
        )
        for service in SERVICES
        for app in ALL_APP_NAMES
        for policy in POLICIES
    ]


def generate(name: str, seed: int):
    """The inputs of workload ``name`` for ``seed``."""
    if name in ("matrix-constant", "rerun-warm"):
        return matrix_spec(seed)
    if name == "mixes-varying":
        return mixes_scenarios(seed)
    if name == "fleet-short":
        return fleet_scenarios(seed)
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")


@dataclass
class Sweep:
    """Bookkeeping of one fleet-short sweep, read back for the metrics."""

    transport: str
    start: float
    end: float
    busy_s: float
    status: dict


@dataclass
class Context:
    """What a session's passes share: inputs, a work directory, records."""

    name: str
    inputs: object
    work: Path
    worker_imports: tuple = ()
    warm_cache: Path | None = None
    cold: dict = field(default_factory=dict)
    cold_claims: dict = field(default_factory=dict)
    sweeps: list = field(default_factory=list)
    _dirs: int = 0

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.work / f"{label}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def scenarios(self) -> list[Scenario]:
        inputs = self.inputs
        return inputs.scenarios() if isinstance(inputs, ExperimentSpec) else list(inputs)


def prepare(ctx: Context) -> None:
    """Set-up beyond generating inputs: rerun-warm fills its cache here."""
    if ctx.name != "rerun-warm":
        return
    ctx.warm_cache = ctx.fresh_dir("warm-cache")
    engine = SweepEngine(workers=1, cache=SweepCache(ctx.warm_cache))
    cold = run_experiment(ctx.inputs, engine=engine)
    ctx.cold = {o.scenario: o.result for o in cold}
    ctx.cold_claims = checks.claim_stats(cold)


def run_pass(ctx: Context):
    """One timed pass; returns (ResultSet, claim stats or None).

    Only rerun-warm computes the claim statistics inside the pass: that is
    its user's job.  The other workloads' statistics are read afterwards.
    """
    if ctx.name in ("matrix-constant", "mixes-varying"):
        cache = SweepCache(ctx.fresh_dir("cache"))
        return run_experiment(ctx.inputs, engine=SweepEngine(workers=1, cache=cache)), None
    if ctx.name == "rerun-warm":
        engine = SweepEngine(workers=1, cache=SweepCache(ctx.warm_cache))
        results = run_experiment(ctx.inputs, engine=engine)
        return results, checks.claim_stats(results)
    outcomes = []
    for transport in FLEET_TRANSPORTS:
        outcomes.extend(_fleet_sweep(ctx, transport))
    return ResultSet(outcomes), None


def _fleet_sweep(ctx: Context, transport: str):
    cache = SweepCache(ctx.fresh_dir("cache"))
    broker = None
    if transport == "tcp":
        broker = TcpBroker()
        spool = broker.start()
    else:
        spool = str(ctx.fresh_dir("spool"))
    try:
        backend = DistributedBackend(
            spool, cache=cache, local_workers=1, timeout=FLEET_TIMEOUT_S,
            import_modules=ctx.worker_imports,
        )
        start = time.perf_counter()
        engine = SweepEngine(cache=cache, backend=backend)
        outcomes = list(run_experiment(ctx.inputs, engine=engine))
        end = time.perf_counter()
        if broker is None:
            status = JobSpool(spool).status()
        else:
            client = TcpTransport(spool)
            try:
                status = client.status()
            finally:
                client.close()
    finally:
        if broker is not None:
            broker.stop()
    ctx.sweeps.append(Sweep(
        transport=transport, start=start, end=end,
        busy_s=sum(o.duration for o in outcomes), status=status.to_payload(),
    ))
    return outcomes


def pass_problems(ctx: Context, outcomes, digests, claims, reference) -> list[list[str]]:
    """Per-outcome problem lists for one pass (workload-specific checks)."""
    problems = []
    for outcome, digest in zip(outcomes, digests):
        found = []
        if ctx.name == "rerun-warm":
            if not outcome.from_cache:
                found.append("not served from the cache")
            elif not reference(outcome, digest):
                found.append("differs from its cold result")
        else:
            if outcome.from_cache:
                found.append("served from a cache that should be cold")
            if ctx.name == "fleet-short" and not reference(outcome, digest):
                found.append("differs from the serial reference")
        problems.append(found)
    if ctx.name == "rerun-warm" and claims != ctx.cold_claims and problems:
        problems[0].append("claim statistics differ from the cold run's")
    return problems


WORKLOADS = ("matrix-constant", "mixes-varying", "rerun-warm", "fleet-short")
