"""Zero-dependency telemetry: spans, counters, gauges, Chrome traces.

Activation is environmental and lazy.  Instrumented code calls
:func:`get_recorder` and gets either the process-wide
:class:`~repro.telemetry.recorder.Recorder` (when ``REPRO_TELEMETRY`` is
truthy) or the shared :class:`~repro.telemetry.recorder.NullRecorder`
(otherwise); the cost of an uninstrumented run is one attribute check
per site.  Worker subprocesses inherit the env vars, so a distributed
sweep instruments its whole fleet with one setting.

Env vars:

* ``REPRO_TELEMETRY`` — ``1``/``true``/``yes``/``on`` enables recording.
* ``REPRO_TELEMETRY_DIR`` — where shard files land (default
  ``.repro-telemetry``).
* ``REPRO_TELEMETRY_PROCESS`` — display name for this process on the
  merged timeline (workers set it to their worker id).

The side-channel contract: recorders absorb values, they never emit
them back into results.  ``identical()`` between telemetry-on and
telemetry-off runs is asserted by tests and the ``telemetry-side-channel``
repro-lint rule polices reads in instrumented zones.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

from .chrome import chrome_trace, write_chrome_trace
from .recorder import NullRecorder, Recorder
from .shards import (
    merge_shards,
    merge_snapshots,
    read_shard,
    read_shards,
    shard_path,
    write_shard,
)

__all__ = [
    "NullRecorder",
    "Recorder",
    "chrome_trace",
    "default_dir",
    "enabled_in_env",
    "flush",
    "get_recorder",
    "merge_shards",
    "merge_snapshots",
    "read_shard",
    "read_shards",
    "recorder_from_env",
    "reset_recorder",
    "set_recorder",
    "shard_path",
    "write_chrome_trace",
    "write_shard",
]

NULL_RECORDER = NullRecorder()

_TRUTHY = {"1", "true", "yes", "on"}

_state_lock = threading.Lock()
_recorder: Recorder | NullRecorder | None = None


def enabled_in_env(environ: dict | None = None) -> bool:
    """Whether ``REPRO_TELEMETRY`` asks for a live recorder."""
    environ = os.environ if environ is None else environ
    return str(environ.get("REPRO_TELEMETRY", "")).strip().lower() in _TRUTHY


def default_dir(environ: dict | None = None) -> Path:
    """The shard directory (``REPRO_TELEMETRY_DIR`` or ``.repro-telemetry``)."""
    environ = os.environ if environ is None else environ
    return Path(environ.get("REPRO_TELEMETRY_DIR") or ".repro-telemetry")


def recorder_from_env(environ: dict | None = None) -> Recorder | NullRecorder:
    """Build the recorder the environment asks for (no global mutation).

    Clock *references* are injected — the recorder holds
    ``time.monotonic`` as a callable; nothing here reads a clock.
    """
    environ = os.environ if environ is None else environ
    if not enabled_in_env(environ):
        return NULL_RECORDER
    process = str(environ.get("REPRO_TELEMETRY_PROCESS") or "main")
    return Recorder(time.monotonic, process=process, wall=time.time)


def get_recorder() -> Recorder | NullRecorder:
    """The process-wide recorder (env-activated, lazily constructed)."""
    global _recorder
    rec = _recorder
    if rec is None:
        with _state_lock:
            if _recorder is None:
                _recorder = recorder_from_env()
            rec = _recorder
    return rec


def set_recorder(recorder: Recorder | NullRecorder) -> None:
    """Install an explicit recorder (tests, embedding applications)."""
    global _recorder
    with _state_lock:
        _recorder = recorder


def reset_recorder() -> None:
    """Forget the process recorder; the next get re-reads the env."""
    global _recorder
    with _state_lock:
        _recorder = None


def flush(directory: str | os.PathLike | None = None) -> Path | None:
    """Write this process's shard, if telemetry is live.

    Safe to call repeatedly — each flush atomically rewrites the shard
    with everything recorded so far, which is what keeps the
    ``status --watch`` view fresh.
    """
    rec = get_recorder()
    if not rec.enabled:
        return None
    return write_shard(default_dir() if directory is None else directory, rec)
