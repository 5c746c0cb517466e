#!/usr/bin/env python3
"""The repository's benchmark: one workload, every metric, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload matrix-constant --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing and the
program's telemetry off.  ``--trace 1`` runs one session whose passes
alternate untraced, traced, and untraced with ``REPRO_TELEMETRY=1``, and
prints the per-layer metrics of the traced passes plus both overheads.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md`` for what each
metric means and which workload should move it.

Every session runs in a fresh process (see ``session.py``).  The
exploration cache is filled once per source tree, untimed, under
``$CARGO_TARGET_DIR`` (default ``.bench_build``) in a directory named by a
digest of ``src/``, so no other commit's code ever reads it.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import paper_gap
from tracing import merge_totals

HERE = Path(__file__).resolve().parent
WORKLOADS = ("matrix-constant", "mixes-varying", "rerun-warm", "fleet-short")
#: Set-up is sampled this many times per run; setup_s is the median.
SETUP_SAMPLES = 3
#: Every run ends within this many seconds (the fill of a new tree aside).
RUN_BUDGET_S = 175.0
#: The first run in a checkout fills the exploration cache as well.
FILL_BUDGET_S = 700.0
PAPER_REFERENCE = (
    ("pliant_qos_violations", "Pliant runs violating QoS", "0 (QoS restored on 100% of pairs)"),
    ("precise_qos_met", "precise runs meeting QoS", "0 (precise violates on 100%)"),
    ("mean_loss_pct", "mean quality loss %", "2.1"),
    ("worst_loss_pct", "worst quality loss %", "5.4"),
)


class BenchError(RuntimeError):
    """The program could not be benchmarked (missing, crashed, hung)."""


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Runner:
    """Starts sessions with an isolated environment and a shared deadline."""

    def __init__(self, root: Path, work: Path, explore_dir: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self._count = 0
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update({
            "PYTHONPATH": os.pathsep.join([str(root / "src"), str(HERE)]),
            "PYTHONHASHSEED": "0",
            "REPRO_EXPLORATION_CACHE": str(explore_dir),
            # Nothing should fall back to the default sweep cache; if
            # something does, it lands here rather than in the home dir.
            "REPRO_SWEEP_CACHE": str(work / "default-sweep-cache"),
            "REPRO_TELEMETRY": "0",
            "REPRO_TELEMETRY_DIR": str(work / "telemetry"),
        })
        self.env = env

    def session(self, mode: str, workload: str = "", seed: int = 0, seconds: float = 0.0,
                deadline: float | None = None) -> dict:
        self._count += 1
        work = self.work / f"session-{self._count}"
        work.mkdir(parents=True)
        config = work / "config.json"
        output = work / "output.json"
        config.write_text(json.dumps({
            "mode": mode, "workload": workload, "seed": seed,
            "seconds": seconds, "work": str(work),
        }))
        env = dict(self.env, PERFBENCH_WORKER_TRACE=str(work / "worker-trace"))
        timeout = (deadline or self.deadline) - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the session started")
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "session.py"), str(config), str(output)],
            env=env, stdout=sys.stderr, stderr=sys.stderr,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{mode} session of {workload or 'fill'} timed out") from None
        except BaseException:
            proc.terminate()
            proc.wait()
            raise
        if code != 0 or not output.exists():
            raise BenchError(f"{mode} session of {workload or 'fill'} exited with {code}")
        result = json.loads(output.read_text())
        shutil.rmtree(work, ignore_errors=True)
        return result


def ensure_exploration(runner: Runner, explore_dir: Path) -> dict:
    """Fill the exploration cache of this source tree once, untimed."""
    record = explore_dir / "fill.json"
    if record.exists():
        return json.loads(record.read_text())
    shutil.rmtree(explore_dir, ignore_errors=True)  # a fill that was cut short
    explore_dir.mkdir(parents=True)
    filled = runner.session("fill", deadline=time.monotonic() + FILL_BUDGET_S)
    tmp = record.with_suffix(".tmp")
    tmp.write_text(json.dumps(filled))
    tmp.replace(record)
    return filled


def passes(session: dict, kind: str) -> list[dict]:
    return [p for p in session["passes"] if p["kind"] == kind]


def median_rate(session: dict, kind: str = "plain") -> float:
    """Median over the session's passes of ``kind`` of scenarios per second."""
    return statistics.median(p["scenarios"] / p["seconds"] for p in passes(session, kind))


def end_to_end(setups: list[dict], main: dict) -> dict:
    return {
        "scenarios_per_s": (median_rate(main), "1/s"),
        "setup_s": (statistics.median([s["setup_s"] for s in setups + [main]]), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }


def per_layer(workload: str, traced: dict, fill: dict) -> dict:
    """Every per-layer metric; a layer that does not run reads 0.

    Span figures are per traced pass; overheads compare the medians of the
    plain, traced and telemetry passes that alternated in one session.
    """
    traced_passes = passes(traced, "traced")
    count = len(traced_passes)
    layers = merge_totals(merge_totals({}, traced["layers"]), traced["worker_layers"])

    def calls(name):
        return layers.get(name, [0])[0] / count

    def us(name):
        n, self_s, _ = layers.get(name, [0, 0.0, 0.0])
        return self_s / n * 1e6 if n else 0.0

    def self_ms(name):
        return layers.get(name, [0, 0.0, 0.0])[1] / count * 1e3

    def incl_ms(name):
        return layers.get(name, [0, 0.0, 0.0])[2] / count * 1e3

    epochs = traced["epochs_per_pass"]
    gets = traced["cache_gets"]
    m = {
        "search.ladder_load_ms": (traced["ladder_load_ms"], "ms"),
        "search.explore_ms": (sum(fill["explore_ms"].values()), "ms"),
        "cluster.build_engine.calls": (calls("cluster.build_engine"), "count"),
        "cluster.build_engine.us": (us("cluster.build_engine"), "us"),
        "runtime.run.ms": (incl_ms("runtime.run"), "ms"),
        "runtime.epochs": (epochs, "count"),
        "runtime.self_us_per_epoch": (
            self_ms("runtime.run") * 1e3 / epochs if epochs else 0.0, "us"),
    }
    for name in ("runtime.active_profile", "server.pressure_on", "services.profile",
                 "services.sample_p99", "services.qps_at"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.us"] = (us(name), "us")
    m.update({
        "policy.on_interval.us": (us("policy.on_interval"), "us"),
        "monitor.record.us": (us("monitor.record"), "us"),
        "monitor.close_interval.us": (us("monitor.close_interval"), "us"),
        "actuator.level_changes": (calls("actuator.apply_level"), "count"),
        "actuator.core_moves": (calls("actuator.move_core"), "count"),
        "cache.key.us": (us("cache.key"), "us"),
        "cache.get.us": (us("cache.get"), "us"),
        "cache.put.us": (us("cache.put"), "us"),
        "cache.entry_bytes": (traced["cache_entry_bytes"], "bytes"),
        "cache.hit_ratio": (gets["hits"] / gets["calls"] if gets["calls"] else 0.0, "ratio"),
        "engine.run.self_ms": (self_ms("engine.run"), "ms"),
        "experiment.expand_ms": (incl_ms("experiment.expand"), "ms"),
        "experiment.aggregate_ms": (incl_ms("experiment.aggregate"), "ms"),
    })
    sweeps = traced["sweeps"]
    for transport in ("spool", "tcp"):
        plain = [s["end"] - s["start"] for s in sweeps["plain"] if s["transport"] == transport]
        m[f"transport.{transport}.submit_ms"] = (incl_ms(f"transport.{transport}.submit"), "ms")
        m[f"transport.{transport}.polls"] = (calls(f"transport.{transport}.poll"), "count")
        m[f"transport.{transport}.poll_us"] = (us(f"transport.{transport}.poll"), "us")
        m[f"transport.{transport}.sweep_s"] = (statistics.median(plain) if plain else 0.0, "s")
    marks = traced["fleet_marks"]
    firsts, busy = [], []
    for sweep, spawn, first in zip(sweeps["traced"], marks["spawn"], marks["first_result"]):
        if first is not None:
            firsts.append(first - spawn)
            if sweep["end"] > first:
                busy.append(sweep["busy_s"] / (sweep["end"] - first))
    every = [s for kind in sweeps.values() for s in kind]
    all_passes = len(traced["passes"])
    m.update({
        "fleet.first_result_s": (statistics.median(firsts) if firsts else 0.0, "s"),
        "fleet.worker_busy_frac": (statistics.mean(busy) if busy else 0.0, "ratio"),
        "fleet.requeued": (sum(s["status"]["expired"] for s in every) / all_passes, "count"),
        "fleet.failed": (sum(s["status"]["failed"] for s in every) / all_passes, "count"),
    })
    wall = sum(p["seconds"] for p in traced_passes)
    named = sum(v[1] for v in traced["layers"].values())
    claims = traced["claims"] or {}
    gap = {}
    if workload == "matrix-constant":
        gap = paper_gap(claims)

    def overhead_pct(kind):
        slower = median_rate(traced, kind)
        return (median_rate(traced) / slower - 1.0) * 100.0 if slower else 0.0

    m.update({
        "trace.accounted_pct": (named / wall * 100.0, "%"),
        "trace.overhead_pct": (overhead_pct("traced"), "%"),
        "telemetry.overhead_pct": (overhead_pct("telemetry"), "%"),
        "failed_frac": (traced["failed"] / traced["attempted"], "ratio"),
        "accuracy.pliant_qos_violations": (claims.get("pliant_qos_violations", 0), "count"),
        "accuracy.precise_qos_met": (claims.get("precise_qos_met", 0), "count"),
        "accuracy.paper_gap.mean_loss_pp": (gap.get("mean_loss_pp", 0.0), "pp"),
        "accuracy.paper_gap.worst_loss_pp": (gap.get("worst_loss_pp", 0.0), "pp"),
    })
    return m


def print_layer_breakdown(traced: dict) -> None:
    timed = [p["seconds"] for p in passes(traced, "traced")]
    count, wall = len(timed), sum(timed)
    print(f"  self time per pass, {count} traced passes, {wall / count * 1e3:.1f} ms per pass:")
    for title, layers, share in (("benchmark process", traced["layers"], True),
                                 ("worker process", traced["worker_layers"], False)):
        if not layers:
            continue
        print(f"    {title}:")
        for name, (calls, self_s, _) in sorted(layers.items(), key=lambda kv: -kv[1][1]):
            pct = f"{self_s / wall * 100:5.1f}%" if share else "      "
            print(f"      {name:28s} {calls / count:12.0f} calls "
                  f"{self_s / count * 1e3:10.2f} ms {pct}")
        if share:
            rest = wall - sum(v[1] for v in layers.values())
            print(f"      {'(outside named layers)':28s} {'':18s} {rest / count * 1e3:10.2f} ms "
                  f"{rest / wall * 100:5.1f}%")


def print_claims(workload: str, claims: dict | None) -> None:
    if not claims:
        return
    if workload == "matrix-constant":
        print("  accuracy, simulated vs paper (Kulkarni et al., HPCA 2019):")
        for key, label, paper in PAPER_REFERENCE:
            value = claims[key]
            shown = f"{value:.2f}" if isinstance(value, float) else str(value)
            print(f"    {label:28s} simulated {shown:>8s}   paper {paper}")
    elif workload == "mixes-varying":
        print(f"  Pliant runs violating QoS: {claims['pliant_qos_violations']} of "
              f"{claims['pliant_runs']} (no paper reference: the model is unvalidated "
              "under time-varying multi-app load)")


def run(args, root: Path) -> dict:
    start = time.monotonic()
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bench_root = (build if build.is_absolute() else root / build) / "perfbench"
    explore_dir = bench_root / f"explore-{source_digest(root / 'src')}"
    work = bench_root / "runs" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(root, work, explore_dir, deadline=0.0)
    try:
        fill = ensure_exploration(runner, explore_dir)
        runner.deadline = time.monotonic() + RUN_BUDGET_S
        spec = dict(workload=args.workload, seed=args.seed, seconds=args.seconds)
        if args.trace:
            session = runner.session("traced", **spec)
            metrics = per_layer(args.workload, session, fill)
        else:
            setups = [runner.session("setup", **spec) for _ in range(SETUP_SAMPLES - 1)]
            session = runner.session("measure", **spec)
            metrics = end_to_end(setups, session)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digests = session["digests"]
    attempted, failed = session["attempted"], session["failed"]
    correct = failed == 0 and len(digests) == 1
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for kind in ("plain", "traced", "telemetry"):
        timed = passes(session, kind)
        if timed:
            print(f"  {len(timed)} {kind} passes of {timed[0]['scenarios']} scenarios, "
                  f"{sum(p['seconds'] for p in timed):.2f} s timed")
    print(f"  wall {time.monotonic() - start:.1f} s")
    print(f"  digest {digests[0] if len(digests) == 1 else 'MISMATCH ' + ' '.join(digests)}")
    print(f"  failed_frac {failed / attempted:.4f} ({failed} of {attempted} scenarios)")
    for problem in session["problems"]:
        print(f"  problem: {problem}")
    print_claims(args.workload, session["claims"])
    if args.trace:
        print_layer_breakdown(session)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.4f} {unit}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    # Terminating the benchmark unwinds it, so its session is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program here (src/repro is missing); run from the repository root",
              file=sys.stderr)
        return 2
    try:
        result = run(args, root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
