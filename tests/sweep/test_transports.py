"""BrokerTransport contract: filesystem/TCP parity and TCP fault tolerance.

The transport is the one piece of the distributed path that changed
between PR 2 and PR 6 — these tests pin the contract both
implementations must share: the same 32-scenario sweep must come back
``ResultSet.identical()`` over either transport, and a worker SIGKILLed
mid-sweep on the TCP path must cost nothing but its lease TTL (the
broker-side monotonic expiry reassigns its chunk).
"""

from __future__ import annotations

import pytest

from repro.experiment import ExperimentSpec, run_experiment
from repro.sweep import (
    DistributedBackend,
    SerialBackend,
    SweepCache,
    TcpBroker,
    TcpTransport,
    run_worker,
    transport_from_spec,
)
from repro.sweep.backends.tcp import parse_tcp_spec
from repro.sweep.grid import Scenario

#: 2 services x 2 mixes x 2 policies x 2 loads x 2 seeds = 32 scenarios,
#: mirroring the `make sweep-smoke` grid at a tier-1-friendly horizon.
SPEC = ExperimentSpec(
    name="transport-parity",
    base={"horizon": 60.0},
    axes={
        "service": ("memcached", "mongodb"),
        "apps": (("kmeans",), ("canneal", "snp")),
        "policy": ("pliant", "precise"),
        "load_fraction": (0.6, 0.85),
        "seed": (4, 5),
    },
)


@pytest.fixture(scope="module")
def serial_reference():
    return run_experiment(SPEC, backend=SerialBackend())


@pytest.fixture(params=["filesystem", "tcp"])
def transport_spec(request, tmp_path):
    """A fresh spool spec per test: a directory, or a live broker."""
    if request.param == "filesystem":
        yield str(tmp_path / "spool")
        return
    broker = TcpBroker(lease_ttl=30.0)
    try:
        yield broker.start()
    finally:
        broker.stop()


class TestTransportParity:
    def test_sweep_identical_across_transports(
        self, transport_spec, tmp_path, serial_reference
    ):
        """The same 32-scenario sweep over either transport, with a real
        worker subprocess, returns a bit-identical ResultSet."""
        assert len(SPEC.scenarios()) == 32
        cache = SweepCache(tmp_path / "cache")
        backend = DistributedBackend(
            transport_spec, cache=cache, timeout=600.0, local_workers=1
        )
        results = run_experiment(SPEC, backend=backend, cache=cache)
        assert results.identical(serial_reference)
        status = backend.transport().status()
        assert status.done == status.total == 32
        assert status.failed == 0

    def test_transport_contract_round_trip(self, transport_spec):
        """submit/claim/heartbeat/done behave identically on both sides."""
        transport = transport_from_spec(transport_spec, lease_ttl=30.0)
        scenarios = [
            Scenario(service="mongodb", apps=("kmeans",), horizon=60.0, seed=s)
            for s in range(5)
        ]
        ids = transport.submit_many(scenarios)
        assert len(set(ids)) == 5
        assert transport.submit_many(scenarios) == ids  # idempotent

        chunk = transport.claim_chunk("w1", max_jobs=3)
        assert len(chunk) == 3
        assert all(job.scenario in scenarios for job in chunk)
        transport.heartbeat_many([job.job_id for job in chunk])
        rest = transport.claim_chunk("w2", max_jobs=10)
        assert len(rest) == 2  # live leases are not double-claimed

        for job in chunk + rest:
            transport.mark_done(
                job.job_id, key="k" * 32, duration=0.01, worker_id="w"
            )
        assert transport.all_done()
        infos = transport.done_info_many(ids)
        assert set(infos) == set(ids)
        assert all(info["key"] == "k" * 32 for info in infos.values())

        status = transport.status()
        assert (status.total, status.done, status.pending) == (5, 5, 0)

        transport.reset_job(ids[0])
        assert not transport.all_done()
        assert transport.status().pending == 1

    def test_failed_job_surfaces_through_transport(self, transport_spec):
        transport = transport_from_spec(transport_spec)
        scenario = Scenario(service="mongodb", apps=("kmeans",), horizon=60.0)
        [job_id] = transport.submit_many([scenario])
        transport.mark_failed(job_id, error="ValueError: boom", worker_id="w9")
        info = transport.done_info_many([job_id])[job_id]
        assert info["error"] == "ValueError: boom"
        assert transport.status().failed == 1
        # Drained, not re-queued: no worker can claim a poison job again.
        assert transport.claim_chunk("w10", max_jobs=5) == []

    def test_empty_queue_is_all_done(self, transport_spec, tmp_path):
        """Nothing submitted means nothing outstanding: an idle-exiting
        worker leaves at once on either transport."""
        transport = transport_from_spec(transport_spec)
        assert transport.all_done()
        assert transport.status().total == 0
        cache = SweepCache(tmp_path / "cache")
        assert run_worker(transport, cache=cache, exit_when_idle=True) == 0


class TestTcpWorkerKill:
    def test_dead_worker_chunk_is_reassigned(self, tmp_path):
        """Mid-sweep worker death on the TCP path: a worker claims a chunk
        and goes silent (exactly what SIGKILL looks like from the broker —
        the real-subprocess version runs in `make sweep-smoke-tcp`).  Its
        leases expire on the broker's monotonic clock, the survivor steals
        them, and the sweep still ends bit-identical to serial."""
        broker = TcpBroker(lease_ttl=1.0)
        spec = broker.start()
        try:
            scenarios = SPEC.scenarios()[:12]
            cache = SweepCache(tmp_path / "cache")
            transport = TcpTransport(spec, lease_ttl=1.0)
            transport.submit_many(scenarios)
            victim_chunk = transport.claim_chunk("victim", max_jobs=5)
            assert len(victim_chunk) == 5  # claimed, then killed: no beats

            backend = DistributedBackend(
                spec, cache=cache, lease_ttl=1.0, timeout=600.0,
                local_workers=1,
            )
            engine_results = run_experiment(
                scenarios, backend=backend, cache=cache
            )
            reference = run_experiment(scenarios, backend=SerialBackend())
            assert engine_results.identical(reference)
            status = transport.status()
            assert status.done == status.total == len(scenarios)
            assert status.failed == 0
        finally:
            broker.stop()


class TestTcpPieces:
    def test_parse_tcp_spec(self):
        assert parse_tcp_spec("tcp://127.0.0.1:7077") == ("127.0.0.1", 7077)
        for bad in ("tcp://nohost", "tcp://:9", "tcp://h:", "file:///x"):
            with pytest.raises(ValueError):
                parse_tcp_spec(bad)

    def test_broker_monotonic_expiry_ignores_wall_clock(self):
        """Lease liveness is judged purely on the broker's injected clock:
        heartbeat deltas, never worker wall-clock timestamps."""
        now = [100.0]
        broker = TcpBroker(lease_ttl=2.0, clock=lambda: now[0])
        scenario = Scenario(service="mongodb", apps=("kmeans",), horizon=60.0)
        [job_id] = broker.handle(
            {"op": "submit", "scenarios": [scenario.to_payload()]}
        )["job_ids"]
        claimed = broker.handle(
            {"op": "claim", "worker": "w1", "max_jobs": 1}
        )["jobs"]
        assert [job["job_id"] for job in claimed] == [job_id]

        # Heartbeats keep it alive however long the wall clock claims.
        for _ in range(5):
            now[0] += 1.5
            broker.handle({"op": "heartbeat", "job_ids": [job_id]})
            assert broker.handle({"op": "claim", "worker": "w2"})["jobs"] == []

        # Silence past the TTL expires it; the next claim steals it.
        now[0] += 2.5
        assert broker.handle({"op": "status"})["status"]["expired"] == 1
        stolen = broker.handle({"op": "claim", "worker": "w2"})["jobs"]
        assert [job["job_id"] for job in stolen] == [job_id]

    def test_broker_rejects_unknown_op_and_bad_payload(self):
        broker = TcpBroker()
        assert broker.handle({"op": "warp"})["ok"] is False
        with pytest.raises(Exception):
            broker.handle({"op": "submit", "scenarios": [{"service": 3}]})

    def test_transport_survives_broker_restart(self, tmp_path):
        """A dropped connection re-dials once per request: a broker restart
        mid-sweep costs a retry, not the sweep."""
        broker = TcpBroker(lease_ttl=30.0)
        spec = broker.start()
        transport = TcpTransport(spec)
        scenario = Scenario(service="mongodb", apps=("kmeans",), horizon=60.0)
        transport.submit_many([scenario])
        host, port = parse_tcp_spec(spec)
        broker.stop()
        # Same port, fresh broker (queue state is in-memory and lost —
        # resubmission is the submitter's poll loop's job).
        revived = TcpBroker(port=port, lease_ttl=30.0)
        revived.start()
        try:
            ids = transport.submit_many([scenario])
            assert len(ids) == 1
        finally:
            revived.stop()
