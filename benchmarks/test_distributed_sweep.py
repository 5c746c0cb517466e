"""End-to-end distributed sweep smoke (the subsystem's acceptance bar).

One test per transport, the whole story: a >= 32-scenario grid runs
serially for ground truth, then cold through the distributed backend
with two local workers — one of which is SIGKILLed mid-sweep, so
completion *requires* lease expiry and reassignment.  The surviving
worker drains the queue, results must match the serial pass bit-for-bit,
and a warm rerun must be served >= 95 % from the shared cache.  The same
script runs over the filesystem spool (``make sweep-smoke``) and the
asyncio TCP broker (``make sweep-smoke-tcp``).
"""

from __future__ import annotations

import signal
import time

import pytest

from repro.experiment import ExperimentSpec, run_experiment
from repro.sweep import (
    DistributedBackend,
    SerialBackend,
    SweepCache,
    SweepEngine,
    TcpBroker,
    results_identical,
    transport_from_spec,
)

from repro import telemetry

from benchmarks._common import SEED, record_bench

pytestmark = pytest.mark.benchmark

#: 2 services x 2 mixes x 2 policies x 2 loads x 2 seeds = 32 scenarios.
SMOKE_SPEC = ExperimentSpec(
    name="distributed-smoke",
    base={"horizon": 120.0},
    axes={
        "service": ("memcached", "mongodb"),
        "apps": ("kmeans", ("canneal", "snp")),
        "policy": ("pliant", "precise"),
        "load_fraction": (0.6, 0.85),
        "seed": (SEED, SEED + 1),
    },
)

LEASE_TTL = 3.0


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


@pytest.mark.parametrize("transport_kind", ["filesystem", "tcp"])
def test_distributed_smoke_with_worker_kill(transport_kind, tmp_path, capsys):
    spec = SMOKE_SPEC
    assert len(spec) >= 32

    serial, t_serial = _timed(
        lambda: run_experiment(spec, backend=SerialBackend())
    )

    broker = None
    if transport_kind == "tcp":
        broker = TcpBroker(lease_ttl=LEASE_TTL)
        spool_spec = broker.start()
    else:
        spool_spec = str(tmp_path / "spool")
    try:
        # -- cold distributed pass, killing one worker mid-sweep ----------
        cache = SweepCache(tmp_path / "cache")
        backend = DistributedBackend(
            spool_spec,
            cache=cache,
            lease_ttl=LEASE_TTL,
            timeout=900.0,
            local_workers=1,  # the survivor; the victim is spawned by hand
        )
        transport = transport_from_spec(spool_spec, lease_ttl=LEASE_TTL)
        transport.submit_many(spec.scenarios())

        victim = backend.spawn_local_worker(index=99)
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            status = transport.status()
            # Kill while the victim plausibly holds a lease and work
            # remains, so its chunk must be reassigned via lease expiry.
            if status.running >= 1 and status.done < status.total - 2:
                break
            time.sleep(0.02)
        victim.send_signal(signal.SIGKILL)
        victim.wait()
        killed_at_status = transport.status()

        engine = SweepEngine(cache=cache, backend=backend)
        distributed, t_distributed = _timed(
            lambda: run_experiment(spec, engine=engine)
        )
        identical = all(
            results_identical(a.result, b.result)
            for a, b in zip(serial, distributed)
        )

        # -- warm rerun must be nearly free -------------------------------
        warm, t_warm = _timed(lambda: run_experiment(spec, engine=engine))
        final_status = transport.status()
    finally:
        if broker is not None:
            broker.stop()
        telemetry.flush()  # the submitter's own shard joins the timeline
    warm_hits = sum(1 for outcome in warm if outcome.from_cache)
    warm_hit_fraction = warm_hits / len(spec)

    speedup = t_serial / t_distributed if t_distributed > 0 else float("inf")
    record_bench(
        "distributed_smoke",
        {
            "transport": transport_kind,
            "grid_size": len(spec),
            "serial_s": round(t_serial, 3),
            "distributed_s": round(t_distributed, 3),
            "distributed_speedup": round(speedup, 2),
            "worker_killed_mid_sweep": True,
            "jobs_done_at_kill": killed_at_status.done,
            "distributed_serial_identical": identical,
            "warm_hit_fraction": round(warm_hit_fraction, 4),
            "warm_s": round(t_warm, 3),
        },
    )

    with capsys.disabled():
        print()
        print(f"=== distributed smoke ({transport_kind}): {len(spec)} "
              f"scenarios, 2 workers, 1 killed mid-sweep ===")
        print(f"at kill: {killed_at_status.done} done, "
              f"{killed_at_status.running} running, "
              f"{killed_at_status.pending} pending")
        print(f"serial {t_serial:.2f}s  distributed {t_distributed:.2f}s "
              f"({speedup:.2f}x)  identical: {identical}")
        print(f"warm rerun: {100 * warm_hit_fraction:.1f}% from cache "
              f"in {t_warm:.2f}s")

    assert identical, "distributed results must match serial bit-for-bit"
    assert final_status.done == final_status.total
    assert warm_hit_fraction >= 0.95, (
        f"warm rerun only {warm_hit_fraction:.1%} from cache"
    )

    # -- observability: the merged trace covers the whole fleet -----------
    if telemetry.get_recorder().enabled:
        trace = telemetry.chrome_trace(telemetry.default_dir())
        events = trace["traceEvents"]
        pids = {e["pid"] for e in events}
        assert len(pids) >= 3, (
            "merged Chrome trace should show submitter + both workers, "
            f"got {len(pids)} process track(s)"
        )
        span_names = {e["name"] for e in events if e["ph"] == "X"}
        assert "scenario.run" in span_names, (
            "per-scenario spans missing from the merged timeline"
        )
