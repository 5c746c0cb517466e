"""One benchmark session, in a fresh process: set up, then measure.

Usage: ``python3 perfbench/session.py CONFIG.json OUTPUT.json``

``run.py`` starts one session per set-up sample and per measured run,
with the environment (caches, ``REPRO_TELEMETRY=0``) already fixed, and
reads ``OUTPUT.json`` back.  Modes:

* ``fill``    — explore every app into the exploration cache (untimed);
* ``setup``   — set up only, to sample ``setup_s``;
* ``measure`` — set up, then timed passes with tracing off;
* ``traced``  — set up, then passes that alternate plain, traced (spans
  around every layer call) and ``REPRO_TELEMETRY=1``, each kind for the
  full ``seconds``.
"""

import time

_START = time.perf_counter()  # set-up time includes the imports below

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from repro import telemetry  # noqa: E402
from repro.apps import ALL_APP_NAMES, make_app  # noqa: E402
from repro.cluster import ladder_for  # noqa: E402
from repro.experiment import run_experiment  # noqa: E402
from repro.search.variants import DesignSpaceExplorer  # noqa: E402
from repro.server.platform import make_platform  # noqa: E402
from repro.sweep import SweepEngine, results_identical  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Problem descriptions kept in the output (the count is always exact).
MAX_REPORTED_PROBLEMS = 5


def fill() -> dict:
    """Explore every app cold; per-app wall time in ms."""
    explore_ms = {}
    for app in ALL_APP_NAMES:
        start = time.perf_counter()
        DesignSpaceExplorer(make_app(app)).explore()
        explore_ms[app] = (time.perf_counter() - start) * 1e3
    return {"explore_ms": explore_ms}


def set_up(config: dict) -> tuple[workloads.Context, dict]:
    start = time.perf_counter()
    ladders = {app: ladder_for(app) for app in ALL_APP_NAMES}
    ladder_load_ms = (time.perf_counter() - start) * 1e3
    ctx = workloads.Context(
        name=config["workload"],
        inputs=workloads.generate(config["workload"], config["seed"]),
        work=Path(config["work"]),
    )
    workloads.prepare(ctx)
    info = {
        "setup_s": time.perf_counter() - _START,
        "ladder_load_ms": ladder_load_ms,
        "max_levels": {app: ladder.max_level for app, ladder in ladders.items()},
    }
    return ctx, info


class Reference:
    """Whether a result equals the workload's reference result."""

    def __init__(self, ctx: workloads.Context) -> None:
        self._ctx = ctx
        self._serial = None
        self._cold_digests = None

    def __call__(self, outcome, digest: str) -> bool:
        if self._ctx.name == "rerun-warm":
            # Digest equality: the digest covers every field of the result.
            if self._cold_digests is None:
                self._cold_digests = {
                    s: checks.result_digest(s, r) for s, r in self._ctx.cold.items()}
                self._ctx.cold.clear()
            return self._cold_digests[outcome.scenario] == digest
        if self._serial is None:
            # fleet-short: every scenario run serially in this process.
            serial = run_experiment(self._ctx.scenarios(), engine=SweepEngine(workers=1))
            self._serial = {o.scenario: o.result for o in serial}
        return results_identical(self._serial[outcome.scenario], outcome.result)


@contextlib.contextmanager
def pass_kind(kind: str, log: tracing.SpanLog, ctx: workloads.Context):
    """Run one pass plain, traced, or with the program's telemetry on.

    A traced run alternates the three kinds pass by pass in one process, so
    slow drift in host speed touches each kind alike and the two overheads
    compare like with like.
    """
    if kind == "traced":
        undo = tracing.install(log)
        log.active = True
        ctx.worker_imports = ("worker_trace",)
        try:
            yield
        finally:
            log.active = False
            tracing.uninstall(undo)
            log.drain()
            ctx.worker_imports = ()
    elif kind == "telemetry":
        # Workers spawned during the pass inherit the variable.
        os.environ["REPRO_TELEMETRY"] = "1"
        telemetry.reset_recorder()
        try:
            yield
        finally:
            os.environ["REPRO_TELEMETRY"] = "0"
            telemetry.reset_recorder()
    else:
        yield


def measure(config: dict, ctx: workloads.Context, info: dict) -> dict:
    seconds = config["seconds"]
    kinds = ("plain", "traced", "telemetry") if config["mode"] == "traced" else ("plain",)
    log = tracing.SpanLog()
    gets = {"calls": 0, "hits": 0}
    fleet_marks = {"spawn": [], "first_result": []}

    def on_get(result, start, end):
        gets["calls"] += 1
        gets["hits"] += result is not None

    def on_spawn(result, start, end):
        fleet_marks["spawn"].append(start)
        fleet_marks["first_result"].append(None)

    def on_poll(result, start, end):
        if result and fleet_marks["first_result"] and fleet_marks["first_result"][-1] is None:
            fleet_marks["first_result"][-1] = end

    log.hooks.update({
        "cache.get": on_get, "fleet.spawn": on_spawn,
        "transport.spool.poll": on_poll, "transport.tcp.poll": on_poll,
    })
    reference = Reference(ctx)
    total_cores = make_platform("default").allocatable_cores
    sweeps_per_pass = len(workloads.FLEET_TRANSPORTS) if ctx.name == "fleet-short" else 1
    expected = len(ctx.scenarios()) * sweeps_per_pass
    passes, digests, problems_seen = [], set(), []
    sweeps = {kind: [] for kind in kinds}
    timed = dict.fromkeys(kinds, 0.0)
    attempted = failed = 0
    claims = None
    epochs = 0
    entry_bytes = None
    while min(timed.values()) < seconds:
        kind = kinds[len(passes) % len(kinds)]
        with pass_kind(kind, log, ctx):
            start = time.perf_counter()
            try:
                outcomes, pass_claims = workloads.run_pass(ctx)
                error = None
            except Exception as exc:  # a failed pass counts every scenario failed
                outcomes, pass_claims = [], None
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        timed[kind] += elapsed
        passes.append({"kind": kind, "seconds": elapsed, "scenarios": len(outcomes)})
        sweeps[kind].extend(vars(s) for s in ctx.sweeps)
        ctx.sweeps.clear()
        attempted += expected
        if error is not None:
            failed += checks.count_failed(expected, [])
            problems_seen.append(error)
            continue
        result_digests = [checks.result_digest(o.scenario, o.result) for o in outcomes]
        problem_lists = workloads.pass_problems(
            ctx, outcomes, result_digests, pass_claims, reference)
        for outcome, problems in zip(outcomes, problem_lists):
            problems.extend(checks.result_problems(
                outcome.scenario, outcome.result, info["max_levels"], total_cores))
            problems_seen.extend(f"{outcome.scenario.label()}: {p}" for p in problems)
        failed += checks.count_failed(expected, problem_lists)
        digests.add(checks.workload_digest(result_digests))
        epochs = sum(len(o.result.epoch_times) for o in outcomes if not o.from_cache)
        if claims is None and ctx.name != "fleet-short":
            claims = pass_claims or checks.claim_stats(outcomes)
        if entry_bytes is None:
            entry_bytes = _entry_bytes(ctx)
        for path in [*ctx.work.glob("cache-*"), *ctx.work.glob("spool-*")]:
            shutil.rmtree(path, ignore_errors=True)
        # Free this pass's results here, not inside the next timed pass.
        del outcomes, result_digests, problem_lists

    out = {
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "problems": problems_seen[:MAX_REPORTED_PROBLEMS],
        "digests": sorted(digests),
        "claims": claims,
        "epochs_per_pass": epochs,
        "sweeps": sweeps,
        "cache_entry_bytes": entry_bytes or 0.0,
    }
    if "traced" in kinds:
        out["layers"] = {name: list(v) for name, v in log.totals.items()}
        out["worker_layers"] = _worker_layers(ctx.work / "worker-trace")
        out["cache_gets"] = gets
        out["fleet_marks"] = fleet_marks
    return out


def _entry_bytes(ctx: workloads.Context) -> float | None:
    """Mean size of one entry of a cache this session wrote."""
    roots = [ctx.warm_cache] if ctx.warm_cache else list(ctx.work.glob("cache-*"))
    sizes = [p.stat().st_size for root in roots for p in root.glob("*/*.pkl")]
    return sum(sizes) / len(sizes) if sizes else None


def _worker_layers(directory: Path) -> dict:
    merged: dict[str, list] = {}
    for path in directory.glob("*.json"):
        tracing.merge_totals(merged, json.loads(path.read_text()))
    return merged


def main(argv) -> int:
    # A terminated session unwinds, so the fleet worker it spawned is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    config = json.loads(Path(argv[1]).read_text())
    if config["mode"] == "fill":
        out = fill()
    else:
        ctx, info = set_up(config)
        out = {k: v for k, v in info.items() if k != "max_levels"}
        if config["mode"] != "setup":
            out.update(measure(config, ctx, info))
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = (self_kb + child_kb) / 1024.0
    Path(argv[2]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
