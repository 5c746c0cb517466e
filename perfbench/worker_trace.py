"""Span tracing inside a distributed sweep worker.

A traced fleet-short session asks the distributed backend to start its
worker with ``--import worker_trace``.  Importing this module wraps the
same layer calls as the session does and, when the worker exits, writes
the per-name span totals to ``$PERFBENCH_WORKER_TRACE/<pid>.json``.
"""

import atexit
import json
import os
import signal
import sys
from pathlib import Path

import tracing

_LOG = tracing.SpanLog()
tracing.install(_LOG)
_LOG.active = True


def _write() -> None:
    _LOG.active = False
    while _LOG.open_spans():  # calls cut short by the exit end here
        _LOG.close(_LOG.open_spans()[-1])
    _LOG.drain()
    directory = Path(os.environ["PERFBENCH_WORKER_TRACE"])
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{os.getpid()}.json").write_text(json.dumps(_LOG.totals))


atexit.register(_write)
# The backend terminates a worker that has not exited by the end of the
# sweep; turn that into a normal exit so the totals are still written.
signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
