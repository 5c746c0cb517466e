"""Asyncio TCP broker and its client transport.

The filesystem :class:`~repro.sweep.backends.distributed.JobSpool`
needs four filesystem round trips per job (submit, ``O_EXCL`` claim,
heartbeat, done marker) — fine on a local disk, a tax on NFS, and the
reason PR 2's distributed backend lost to serial on sub-50ms scenarios.
This module keeps the exact submit / claim / heartbeat / done contract
(:class:`~repro.sweep.backends.base.BrokerTransport`) but moves the
state into one in-memory broker process reached over TCP:

* :class:`TcpBroker` — an :mod:`asyncio` line-protocol server (one JSON
  object per line) run with ``python -m repro.sweep broker`` or embedded
  in-process via :meth:`TcpBroker.start`.  All lease liveness is judged
  on the broker's own monotonic clock from heartbeat arrival times, so
  worker clock skew is structurally irrelevant.
* :class:`TcpTransport` — the synchronous client workers and submitters
  use, selected with ``REPRO_SWEEP_SPOOL=tcp://host:port`` (or any
  ``--spool tcp://...`` flag).  One request per *chunk*, not per job.

Results never travel over the wire: workers publish per-scenario
:class:`~repro.core.runtime.ColocationResult` payloads into the shared
:class:`~repro.sweep.cache.SweepCache` exactly as on the filesystem
path, and the broker only carries job ids, scenario payloads, and cache
keys — so bit-identity, warm-cache reruns, and cache pruning semantics
are untouched by the transport choice.

Wire protocol (newline-delimited JSON, one request → one response)::

    {"op": "submit", "scenarios": [<payload>, ...]}
    {"op": "claim", "worker": "w1", "max_jobs": 8}
    {"op": "heartbeat", "job_ids": [...]}
    {"op": "release", "job_ids": [...]}
    {"op": "done", "job_id": ..., "key": ..., "duration": ..., "worker": ...}
    {"op": "failed", "job_id": ..., "error": ..., "worker": ...}
    {"op": "done_info", "job_ids": [...]}
    {"op": "reset", "job_id": ...}
    {"op": "status"} | {"op": "ping"}

Every response carries ``{"ok": true, ...}`` or
``{"ok": false, "error": "..."}``.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from typing import Callable, Sequence

from repro.cas import stable_hash
from repro.sweep.backends.base import BrokerTransport, SpoolJob, SpoolStatus
from repro.sweep.grid import Scenario
from repro.telemetry import get_recorder

__all__ = ["TcpBroker", "TcpTransport", "parse_tcp_spec"]

_MAX_LINE = 64 * 1024 * 1024  # a submit of ~100k scenarios fits comfortably


def parse_tcp_spec(spec: str) -> tuple[str, int]:
    """``tcp://host:port`` → ``(host, port)``."""
    if not spec.startswith("tcp://"):
        raise ValueError(f"not a tcp spool spec: {spec!r}")
    hostport = spec[len("tcp://"):]
    host, sep, port = hostport.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(
            f"bad tcp spool spec {spec!r} (expected tcp://host:port)"
        )
    return host, int(port)


class TcpBroker:
    """In-memory job broker behind an asyncio line-protocol server.

    The broker is the single writer of all queue state, so the lease
    machinery needs no filesystem atomics at all: a claim is a dict
    insert, expiry is ``monotonic() - last_beat > lease_ttl`` on the
    broker's own clock (worker clocks never enter the comparison), and a
    chunk claim hands out up to ``max_jobs`` runnable jobs in one round
    trip.  ``clock`` is injectable for deterministic expiry tests.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_ttl: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        self._host = host
        self._port = port
        self.lease_ttl = lease_ttl
        self._clock = clock
        self._jobs: dict[str, dict] = {}          # job_id -> scenario payload
        self._order: list[str] = []               # submit order (stable claims)
        self._leases: dict[str, tuple[str, float]] = {}  # id -> (worker, beat)
        self._done: dict[str, dict] = {}          # job_id -> completion info
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._thread: threading.Thread | None = None

    # -- state machine (single-threaded inside the event loop) -----------

    def _lease_live(self, job_id: str) -> bool:
        lease = self._leases.get(job_id)
        return lease is not None and self._clock() - lease[1] <= self.lease_ttl

    def _claimable(self, job_id: str) -> bool:
        return job_id not in self._done and not self._lease_live(job_id)

    def handle(self, request: dict) -> dict:
        """One request → one response; the whole protocol, no I/O."""
        op = request.get("op")
        if op == "ping":
            return {"ok": True}
        if op == "submit":
            job_ids = []
            for payload in request.get("scenarios", ()):
                # Validate + canonicalize through the real Scenario so the
                # id matches what a filesystem spool would assign.
                scenario = Scenario.from_payload(payload)
                job_id = stable_hash(scenario.key_payload(), length=24)
                if job_id not in self._jobs:
                    self._jobs[job_id] = scenario.to_payload()
                    self._order.append(job_id)
                job_ids.append(job_id)
            return {"ok": True, "job_ids": job_ids}
        if op == "claim":
            worker = request.get("worker") or "anonymous"
            max_jobs = max(1, int(request.get("max_jobs", 1)))
            now = self._clock()
            jobs = []
            for job_id in self._order:
                if len(jobs) >= max_jobs:
                    break
                if not self._claimable(job_id):
                    continue
                self._leases[job_id] = (worker, now)
                jobs.append({"job_id": job_id, "scenario": self._jobs[job_id]})
            telemetry = get_recorder()
            if telemetry.enabled:
                # Every claim is a broker tick: sample how deep the
                # runnable queue is *after* handing this chunk out.
                telemetry.count("broker.claims")
                telemetry.gauge(
                    "broker.queue_depth",
                    sum(1 for j in self._order if self._claimable(j)),
                )
                if jobs:
                    telemetry.observe("broker.claim_jobs", len(jobs))
            return {"ok": True, "jobs": jobs}
        if op == "heartbeat":
            now = self._clock()
            for job_id in request.get("job_ids", ()):
                lease = self._leases.get(job_id)
                if lease is not None:
                    self._leases[job_id] = (lease[0], now)
            return {"ok": True}
        if op == "release":
            for job_id in request.get("job_ids", ()):
                self._leases.pop(job_id, None)
            return {"ok": True}
        if op == "done":
            job_id = request["job_id"]
            self._done[job_id] = {
                "key": request["key"],
                "duration": float(request.get("duration", 0.0)),
                "worker": request.get("worker", "?"),
            }
            self._leases.pop(job_id, None)
            get_recorder().count("broker.done")
            return {"ok": True}
        if op == "failed":
            job_id = request["job_id"]
            self._done[job_id] = {
                "error": request.get("error", "unknown error"),
                "worker": request.get("worker", "?"),
            }
            self._leases.pop(job_id, None)
            get_recorder().count("broker.failed")
            return {"ok": True}
        if op == "done_info":
            infos = {
                j: self._done[j] for j in request["job_ids"] if j in self._done
            }
            return {"ok": True, "infos": infos}
        if op == "reset":
            job_id = request["job_id"]
            self._done.pop(job_id, None)
            self._leases.pop(job_id, None)
            return {"ok": True}
        if op == "status":
            total = done = running = expired = pending = failed = 0
            for job_id in self._order:
                total += 1
                info = self._done.get(job_id)
                if info is not None:
                    done += 1
                    if "error" in info:
                        failed += 1
                elif job_id in self._leases:
                    if self._lease_live(job_id):
                        running += 1
                    else:
                        expired += 1
                else:
                    pending += 1
            return {
                "ok": True,
                "status": SpoolStatus(
                    total=total, done=done, running=running, expired=expired,
                    pending=pending, failed=failed,
                ).to_payload(),
            }
        return {"ok": False, "error": f"unknown op {op!r}"}

    # -- asyncio plumbing ------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                try:
                    response = self.handle(json.loads(line))
                except Exception as exc:  # torn request, bad payload
                    response = {
                        "ok": False, "error": f"{type(exc).__name__}: {exc}"
                    }
                writer.write(json.dumps(response).encode() + b"\n")
                try:
                    await writer.drain()
                except ConnectionError:
                    break
        except asyncio.CancelledError:
            pass  # broker shutting down: finish normally, close the socket
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _start_server(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._port, limit=_MAX_LINE
        )
        self._port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        return self._host, self._port

    @property
    def spec(self) -> str:
        return f"tcp://{self._host}:{self._port}"

    def serve_forever(self) -> None:
        """Run the broker in the foreground (``python -m repro.sweep broker``)."""

        async def _run() -> None:
            await self._start_server()
            print(f"broker listening on {self.spec} "
                  f"(lease ttl {self.lease_ttl:g}s)", flush=True)
            async with self._server:
                await self._server.serve_forever()

        try:
            asyncio.run(_run())
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            pass

    def start(self) -> str:
        """Serve from a daemon thread; returns the bound ``tcp://`` spec."""
        if self._thread is not None:
            raise RuntimeError("broker already started")
        self._loop = asyncio.new_event_loop()
        started = threading.Event()

        def _run() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.run_until_complete(self._start_server())
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=_run, name="tcp-broker", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout=10):
            raise RuntimeError("broker failed to start within 10s")
        return self.spec

    def stop(self) -> None:
        """Shut down a broker started with :meth:`start`."""
        if self._loop is None or self._thread is None:
            return

        async def _drain() -> None:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            tasks = [
                task for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

        try:
            asyncio.run_coroutine_threadsafe(_drain(), self._loop).result(
                timeout=10
            )
        except (TimeoutError, RuntimeError):  # pragma: no cover - best effort
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        if not self._loop.is_running():
            self._loop.close()
        self._thread = None
        self._loop = None


class TcpTransport(BrokerTransport):
    """Synchronous :class:`BrokerTransport` client of a :class:`TcpBroker`.

    One persistent connection, one JSON line per request; a dropped
    connection is re-dialed once per request before giving up, so a
    broker restart mid-sweep costs a retry, not the sweep.  Thread-safe:
    the worker's heartbeat thread and claim loop share the socket under
    a lock.
    """

    def __init__(
        self, spec: str, lease_ttl: float = 30.0, timeout: float = 30.0
    ) -> None:
        self._host, self._port = parse_tcp_spec(spec)
        self.lease_ttl = lease_ttl
        self._timeout = timeout
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._reader = None

    @property
    def spec(self) -> str:
        return f"tcp://{self._host}:{self._port}"

    # -- wire ------------------------------------------------------------

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")

    def close(self) -> None:
        with self._lock:
            self._teardown()

    def _teardown(self) -> None:
        for closable in (self._reader, self._sock):
            if closable is not None:
                try:
                    closable.close()
                except OSError:
                    pass
        self._sock = None
        self._reader = None

    def _request(self, payload: dict) -> dict:
        line = json.dumps(payload).encode() + b"\n"
        with self._lock:
            for attempt in (0, 1):
                try:
                    if self._sock is None:
                        self._connect()
                    self._sock.sendall(line)
                    raw = self._reader.readline()
                    if not raw:
                        raise ConnectionError("broker closed the connection")
                    break
                except (OSError, ConnectionError):
                    self._teardown()
                    if attempt:
                        raise
        response = json.loads(raw)
        if not response.get("ok"):
            raise RuntimeError(
                f"broker rejected {payload.get('op')!r}: "
                f"{response.get('error', 'unknown error')}"
            )
        return response

    # -- BrokerTransport contract ----------------------------------------

    def submit_many(self, scenarios: Sequence[Scenario]) -> list[str]:
        if not scenarios:
            return []
        response = self._request({
            "op": "submit",
            "scenarios": [scenario.to_payload() for scenario in scenarios],
        })
        return list(response["job_ids"])

    def claim_chunk(self, worker_id: str, max_jobs: int = 1) -> list[SpoolJob]:
        response = self._request({
            "op": "claim", "worker": worker_id, "max_jobs": max_jobs,
        })
        return [
            SpoolJob(
                job_id=entry["job_id"],
                scenario=Scenario.from_payload(entry["scenario"]),
            )
            for entry in response["jobs"]
        ]

    def heartbeat_many(self, job_ids: Sequence[str]) -> None:
        if job_ids:
            self._request({"op": "heartbeat", "job_ids": list(job_ids)})

    def release_many(self, job_ids: Sequence[str]) -> None:
        if job_ids:
            self._request({"op": "release", "job_ids": list(job_ids)})

    def mark_done(
        self, job_id: str, key: str, duration: float, worker_id: str
    ) -> None:
        self._request({
            "op": "done", "job_id": job_id, "key": key,
            "duration": duration, "worker": worker_id,
        })

    def mark_failed(self, job_id: str, error: str, worker_id: str) -> None:
        self._request({
            "op": "failed", "job_id": job_id, "error": error,
            "worker": worker_id,
        })

    def done_info_many(self, job_ids: Sequence[str]) -> dict[str, dict]:
        if not job_ids:
            return {}
        response = self._request({"op": "done_info", "job_ids": list(job_ids)})
        return dict(response["infos"])

    def done_info(self, job_id: str) -> dict | None:
        return self.done_info_many([job_id]).get(job_id)

    def reset_job(self, job_id: str) -> None:
        self._request({"op": "reset", "job_id": job_id})

    def status(self) -> SpoolStatus:
        response = self._request({"op": "status"})
        return SpoolStatus.from_payload(response["status"])

    def all_done(self) -> bool:
        status = self.status()
        return status.done == status.total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TcpTransport({self.spec!r})"
