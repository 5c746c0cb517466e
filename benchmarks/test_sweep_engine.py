"""Sweep-engine speedup benchmark (the tentpole's measured claims).

Runs a Fig. 8-style load sweep three ways and appends the measurements to
``BENCH_sweep.json``:

* **serial vs parallel** — the same grid through 1 worker and through one
  worker per core; results must be bit-identical, and on a 4+-core host
  the parallel pass must be >= 4x faster.
* **cold vs warm cache** — a second pass over an already-populated result
  cache must cost < 10% of the cold pass.
* **scalar vs vectorized** — the request-level load sweep through the
  event-driven :class:`QueueSimulator` (one run per load) vs the batched
  Kiefer-Wolfowitz recursion (all loads at once), equal request counts;
  the vectorized hot path must be >= 4x faster on any host.
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np
import pytest

from repro.experiment import ExperimentSpec, run_experiment
from repro.sim.analytic import mmc_tail_latency, mmc_tail_latency_batch
from repro.sim.distributions import Exponential
from repro.sim.queueing import QueueSimulator, batch_load_sweep
from repro.sweep import (
    DistributedBackend,
    ProcessBackend,
    SerialBackend,
    SweepCache,
    SweepEngine,
    TcpBroker,
    results_identical,
)

from benchmarks._common import SEED, record_bench, scenario

pytestmark = pytest.mark.benchmark

SWEEP_APPS = ("canneal", "kmeans", "snp")
LOADS = (0.4, 0.55, 0.7, 0.85, 1.0)


def _spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="sweep-engine",
        base={"service": "memcached", "policy": "pliant", "seed": SEED},
        axes={"apps": SWEEP_APPS, "load_fraction": LOADS},
    )


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def test_sweep_engine_speedup(capsys):
    spec = _spec()
    cores = os.cpu_count() or 1

    # -- serial vs parallel (identical results, wall-clock gap) ----------
    serial, t_serial = _timed(
        lambda: run_experiment(spec, backend=SerialBackend())
    )
    parallel, t_parallel = _timed(
        lambda: run_experiment(spec, backend=ProcessBackend())
    )
    identical = all(
        results_identical(a.result, b.result) for a, b in zip(serial, parallel)
    )
    parallel_speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")

    # -- cold vs warm cache ---------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        engine = SweepEngine(cache=SweepCache(tmp))
        cold, t_cold = _timed(lambda: run_experiment(spec, engine=engine))
        warm, t_warm = _timed(lambda: run_experiment(spec, engine=engine))
    warm_hits = sum(1 for o in warm if o.from_cache)
    warm_fraction = t_warm / t_cold if t_cold > 0 else float("inf")

    # -- scalar vs vectorized request-level sweep ------------------------
    service = Exponential(0.02)
    rates = np.linspace(30.0, 90.0, 7)
    n_requests = 50_000

    def scalar_queue_sweep():
        return [
            QueueSimulator(2, service, float(rate), seed=3).run(n_requests / rate)
            for rate in rates
        ]

    _, t_scalar_q = _timed(scalar_queue_sweep)
    _, t_batch_q = _timed(
        lambda: batch_load_sweep(2, service, rates, n_requests, seed=3)
    )
    vectorized_speedup = t_scalar_q / t_batch_q if t_batch_q > 0 else float("inf")

    # -- scalar vs vectorized analytic surface ---------------------------
    lam = np.linspace(10.0, 780.0, 4000)
    svc = np.full_like(lam, 0.01)
    _, t_scalar_a = _timed(
        lambda: [mmc_tail_latency(l, 0.01, 8) for l in lam]
    )
    _, t_batch_a = _timed(lambda: mmc_tail_latency_batch(lam, svc, 8))
    analytic_speedup = t_scalar_a / t_batch_a if t_batch_a > 0 else float("inf")

    record_bench(
        "sweep_engine_speedup",
        {
            "grid_size": len(spec),
            "serial_s": round(t_serial, 3),
            "parallel_s": round(t_parallel, 3),
            "parallel_workers": cores,
            "parallel_speedup": round(parallel_speedup, 2),
            "serial_parallel_identical": identical,
            "cold_s": round(t_cold, 3),
            "warm_s": round(t_warm, 3),
            "warm_fraction": round(warm_fraction, 4),
            "warm_cache_hits": warm_hits,
            "vectorized_queueing_speedup": round(vectorized_speedup, 2),
            "vectorized_analytic_speedup": round(analytic_speedup, 2),
        },
    )

    with capsys.disabled():
        print()
        print("=== sweep engine: Fig. 8-style grid "
              f"({len(spec)} scenarios, {cores} cores) ===")
        print(f"serial {t_serial:.2f}s  parallel {t_parallel:.2f}s "
              f"({parallel_speedup:.2f}x)  identical: {identical}")
        print(f"cold {t_cold:.2f}s  warm {t_warm:.3f}s "
              f"({100 * warm_fraction:.1f}% of cold, {warm_hits} hits)")
        print(f"vectorized queueing sweep: {vectorized_speedup:.1f}x; "
              f"vectorized analytic surface: {analytic_speedup:.1f}x")

    assert identical, "serial and parallel sweeps must be bit-identical"
    assert warm_hits == len(spec)
    assert warm_fraction < 0.10, f"warm cache cost {warm_fraction:.1%} of cold"
    assert vectorized_speedup >= 4.0, (
        f"vectorized queueing sweep only {vectorized_speedup:.1f}x faster"
    )
    if cores >= 4:
        assert parallel_speedup >= 4.0, (
            f"parallel sweep only {parallel_speedup:.1f}x on {cores} cores"
        )


def _dist_spec() -> ExperimentSpec:
    """64 scenarios, each simulating the whole 600 s horizon (open-ended,
    not stopping when the apps finish), so that each is worth tens of
    milliseconds of simulation and the fleet's fixed spool and polling
    cost is small beside the work it spreads."""
    return ExperimentSpec(
        name="distributed-vs-serial",
        base={"policy": "pliant", "horizon": 600.0, "stop_when_apps_done": False},
        axes={
            "service": ("memcached", "mongodb"),
            "apps": ("canneal", "kmeans"),
            "load_fraction": (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
            "seed": (SEED, SEED + 1),
        },
    )


@pytest.mark.parametrize("transport", ["filesystem", "tcp"])
def test_distributed_speedup(transport, tmp_path, capsys):
    """Distributed-vs-serial on a 64-scenario grid: identical bits, and on
    a multi-core host the distributed pass must actually be faster.

    Workers are spawned and warmed (interpreter import plus one throwaway
    sweep) *before* the timed pass — the steady-state cost of the
    broker/worker path is what the paper-scale sweeps pay, and one-off
    fleet startup is amortized across hours there, not 1.3 seconds.  The
    serial reference writes to its own fresh cache so both sides pay
    result serialization.
    """
    spec = _dist_spec()
    cores = os.cpu_count() or 1
    workers = min(cores, 4)

    serial_engine = SweepEngine(
        cache=SweepCache(tmp_path / "serial-cache"), backend=SerialBackend()
    )
    serial, t_serial = _timed(
        lambda: run_experiment(spec, engine=serial_engine)
    )

    broker = None
    if transport == "tcp":
        broker = TcpBroker()
        spool_spec = broker.start()
    else:
        spool_spec = str(tmp_path / "spool")
    cache = SweepCache(tmp_path / "cache")
    backend = DistributedBackend(
        spool_spec, cache=cache, lease_ttl=30.0, timeout=600.0
    )
    engine = SweepEngine(cache=cache, backend=backend)
    procs = [
        backend.spawn_local_worker(i, exit_when_idle=False)
        for i in range(workers)
    ]
    try:
        warmup = [
            scenario("memcached", ("canneal",), seed=SEED + 50 + i)
            for i in range(2 * workers)
        ]
        engine.run(warmup)
        distributed, t_distributed = _timed(
            lambda: run_experiment(spec, engine=engine)
        )
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.wait(timeout=10)
        if broker is not None:
            broker.stop()
    identical = all(
        results_identical(a.result, b.result)
        for a, b in zip(serial, distributed)
    )
    speedup = t_serial / t_distributed if t_distributed > 0 else float("inf")

    record_bench(
        "distributed_vs_serial",
        {
            "transport": transport,
            "grid_size": len(spec),
            "serial_s": round(t_serial, 3),
            "distributed_s": round(t_distributed, 3),
            "distributed_workers": workers,
            "distributed_speedup": round(speedup, 2),
            "distributed_serial_identical": identical,
        },
    )

    with capsys.disabled():
        print()
        print(f"=== distributed backend ({transport}): {len(spec)} scenarios, "
              f"{workers} warm workers ===")
        print(f"serial {t_serial:.2f}s  distributed {t_distributed:.2f}s "
              f"({speedup:.2f}x)  identical: {identical}")

    assert identical, "distributed and serial sweeps must be bit-identical"
    if cores >= 2:
        assert speedup >= 1.0, (
            f"distributed ({transport}) only {speedup:.2f}x serial on "
            f"{cores} cores with {workers} warm workers"
        )
