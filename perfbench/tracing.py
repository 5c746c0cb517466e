"""Span tracing from outside the program, and self-time arithmetic.

The benchmark never edits the program.  For a traced run it replaces a
layer's public functions with thin wrappers that record one span per call
(name, start, end, parent) into a :class:`SpanLog`, and restores the
originals afterwards.  Spans live in flat arrays, so a pass of a few
hundred thousand calls costs a few megabytes; :meth:`SpanLog.drain`
reduces them to per-name totals between passes.

A span's self time is its duration minus the part of it covered by its
child spans.  Spans are recorded on the main thread only, where calls
nest strictly, so the covered part is the sum of the children's
durations.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from array import array

import numpy as np

#: (span name, module, attribute path) of every wrapped call.  A class
#: method is wrapped on the class and on every subclass that overrides it,
#: so subclass implementations (one ``profile`` per service, one
#: ``qps_at`` per load shape, one ``on_interval`` per policy) are all seen.
TARGETS = (
    ("engine.run", "repro.sweep.engine", "SweepEngine.run"),
    ("experiment.expand", "repro.experiment.spec", "ExperimentSpec.scenarios"),
    ("experiment.group_by", "repro.experiment.resultset", "ResultSet.group_by"),
    ("experiment.aggregate", "repro.experiment.resultset", "ResultSet.aggregate"),
    ("cache.key", "repro.sweep.cache", "SweepCache.key"),
    ("cache.get", "repro.sweep.cache", "SweepCache.get"),
    ("cache.put", "repro.sweep.cache", "SweepCache.put"),
    ("cluster.build_engine", "repro.cluster.colocation", "build_engine"),
    ("runtime.run", "repro.core.runtime", "ColocationEngine.run"),
    ("runtime.active_profile", "repro.core.runtime", "AppSim.active_profile"),
    ("actuator.apply_level", "repro.core.runtime", "ColocationEngine.apply_level"),
    ("actuator.move_core", "repro.core.runtime", "ColocationEngine.move_core"),
    ("server.pressure_on", "repro.server.node", "ServerNode.pressure_on"),
    ("services.profile", "repro.services.base", "InteractiveService.profile"),
    ("services.sample_p99", "repro.services.base", "InteractiveService.sample_p99"),
    ("services.qps_at", "repro.services.loadgen", "LoadGenerator.qps_at"),
    ("policy.on_interval", "repro.core.policy", "RuntimePolicy.on_interval"),
    ("monitor.record", "repro.core.monitor", "PerformanceMonitor.record"),
    ("monitor.close_interval", "repro.core.monitor", "PerformanceMonitor.close_interval"),
    ("fleet.execute", "repro.sweep.backends.distributed", "DistributedBackend.execute"),
    ("fleet.spawn", "repro.sweep.backends.distributed", "DistributedBackend.spawn_local_worker"),
    ("transport.spool.submit", "repro.sweep.backends.distributed", "JobSpool.submit_many"),
    ("transport.spool.poll", "repro.sweep.backends.distributed", "JobSpool.done_info_many"),
    ("transport.tcp.submit", "repro.sweep.backends.tcp", "TcpTransport.submit_many"),
    ("transport.tcp.poll", "repro.sweep.backends.tcp", "TcpTransport.done_info_many"),
)


class SpanLog:
    """Spans of the main thread, kept in memory as flat arrays."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._main = threading.main_thread().ident
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        #: Calls made while inactive run unrecorded (set-up, checks).
        self.active = False
        self._reset_arrays()
        #: name -> [calls, self seconds, inclusive seconds], over drained passes.
        self.totals: dict[str, list[float]] = {}
        #: Per-call hooks: name -> callable(result, start, end), for layers
        #: whose metric needs a value the call returns (first fleet result).
        self.hooks: dict[str, object] = {}

    def _reset_arrays(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")

    def name_index(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def open(self, name_index: int) -> int:
        span = len(self.start)
        self.name_id.append(name_index)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(self._clock())
        return span

    def close(self, span: int) -> float:
        now = self._clock()
        self.end[span] = now
        self._stack.pop()
        return now

    def open_spans(self) -> list[int]:
        return list(self._stack)

    def on_main_thread(self) -> bool:
        return threading.get_ident() == self._main

    def drain(self) -> None:
        """Fold the recorded spans into :attr:`totals` and free them."""
        if self._stack:
            raise RuntimeError("drain() with spans still open")
        merge_totals(self.totals, span_totals(
            self.names, self.name_id, self.parent, self.start, self.end))
        self._reset_arrays()


def merge_totals(into: dict, totals: dict) -> dict:
    """Add per-name ``(calls, self s, inclusive s)`` totals into ``into``."""
    for name, (calls, self_s, incl_s) in totals.items():
        entry = into.setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += self_s
        entry[2] += incl_s
    return into


def span_totals(names, name_id, parent, start, end) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, total self seconds, total inclusive seconds).

    Self time is duration minus the summed duration of the span's direct
    children (children of one main-thread span never overlap).
    """
    name_id = np.asarray(name_id, dtype=np.int64)
    if name_id.size == 0:
        return {}
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    self_time = duration - covered
    count = len(names)
    calls = np.bincount(name_id, minlength=count)
    self_total = np.bincount(name_id, weights=self_time, minlength=count)
    incl_total = np.bincount(name_id, weights=duration, minlength=count)
    return {
        names[i]: (int(calls[i]), float(self_total[i]), float(incl_total[i]))
        for i in range(count)
        if calls[i]
    }


def _wrap(log: SpanLog, name: str, fn):
    index = log.name_index(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not log.active or not log.on_main_thread():
            return fn(*args, **kwargs)
        span = log.open(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = log.close(span)
        hook = log.hooks.get(name)
        if hook is not None:
            hook(result, log.start[span], end)
        return result

    return traced


def _subclasses(cls):
    stack, seen = [cls], []
    while stack:
        klass = stack.pop()
        if klass not in seen:
            seen.append(klass)
            stack.extend(klass.__subclasses__())
    return seen


def install(log: SpanLog, targets=TARGETS):
    """Wrap every target; returns an undo list for :func:`uninstall`."""
    undo = []
    for name, module_name, path in targets:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        owners = _subclasses(owner) if isinstance(owner, type) else [owner]
        for klass in owners:
            original = vars(klass).get(attr)
            if original is None or not callable(original):
                continue
            undo.append((klass, attr, original))
            setattr(klass, attr, _wrap(log, name, original))
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
