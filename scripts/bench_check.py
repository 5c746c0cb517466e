#!/usr/bin/env python3
"""Validate the BENCH_sweep.json trajectory file.

The trajectory is append-only evidence of measured speedups across PRs;
a malformed or rewound file means a benchmark run (or a merge) corrupted
it.  Checks:

* the file parses as JSON with the expected envelope,
* every run entry has a label and an ISO-8601 UTC timestamp,
* timestamps are monotone non-decreasing (append-only, never rewritten),
* every run records the host's cpu_count as a positive integer (the
  denominator every speedup claim is judged against),
* the distributed gate: any ``distributed_vs_serial`` run on a grid of
  >= 64 scenarios from a multi-core host must show
  ``distributed_speedup >= 1.0`` — the broker/worker path earning its
  keep is a regression-checked claim, not a hope.  Single-core hosts
  are exempt (a lone worker physically cannot beat serial plus
  collection overhead), as are sub-64 grids (too small to amortize
  fleet startup).
* a telemetry digest's ``engine_wall_s`` is at most ``wall_clock_s`` x
  workers (the entry's ``workers``, else its ``cpu_count``): a digest
  that exceeds it counted work from outside its benchmark.
* the adaptive gate: any ``adaptive_vs_exhaustive`` run on a grid of
  >= 256 points must show ``evaluations_fraction <= 0.25`` and
  ``best_gap_pct <= 5.0`` — budgeted search only exists because it
  finds (nearly) the same optimum for a quarter of the work, and the
  trajectory is where that claim is held to account.

* a ``perfbench`` run (``scripts/bench_perfbench.py``) names one of the
  benchmark's workloads, its integer seed, positive ``seconds``, the git
  revision measured, and non-negative ``scenarios_per_s``, ``setup_s``
  and ``peak_rss_mb`` — a number without what it timed is not evidence.

Exit code 0 on success, 1 with a diagnostic otherwise.  An absent file
is an error only with ``--require`` (fresh clones have no measurements
yet).

Usage: python scripts/bench_check.py [path] [--require]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

DEFAULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"

#: The distributed gate only binds where winning is physically possible:
#: a grid big enough to amortize the broker, on a host with >= 2 cores.
DISTRIBUTED_GATE_GRID = 64
DISTRIBUTED_GATE_CORES = 2


def _check_distributed_gate(run: dict, where: str) -> list[str]:
    if run.get("label") != "distributed_vs_serial":
        return []
    grid = run.get("grid_size")
    cores = run.get("cpu_count")
    speedup = run.get("distributed_speedup")
    if not isinstance(grid, int) or grid < DISTRIBUTED_GATE_GRID:
        return []
    if not isinstance(cores, int) or cores < DISTRIBUTED_GATE_CORES:
        return []
    if not isinstance(speedup, (int, float)):
        return [f"{where}: distributed_vs_serial run missing distributed_speedup"]
    if speedup < 1.0:
        return [
            f"{where}: distributed_speedup {speedup} < 1.0 on a "
            f"{grid}-scenario grid with {cores} cores — the distributed "
            "path regressed below serial"
        ]
    return []


#: The adaptive gate binds on spaces big enough that exhaustive sweeping
#: is the thing being beaten.
ADAPTIVE_GATE_GRID = 256
ADAPTIVE_GATE_FRACTION = 0.25
ADAPTIVE_GATE_GAP_PCT = 5.0


def _check_adaptive_gate(run: dict, where: str) -> list[str]:
    if run.get("label") != "adaptive_vs_exhaustive":
        return []
    grid = run.get("grid_size")
    if not isinstance(grid, int) or grid < ADAPTIVE_GATE_GRID:
        return []
    problems = []
    fraction = run.get("evaluations_fraction")
    if not isinstance(fraction, (int, float)):
        problems.append(
            f"{where}: adaptive_vs_exhaustive run missing evaluations_fraction"
        )
    elif fraction > ADAPTIVE_GATE_FRACTION:
        problems.append(
            f"{where}: evaluations_fraction {fraction} > "
            f"{ADAPTIVE_GATE_FRACTION} on a {grid}-point space — the search "
            "spent more than a quarter of the exhaustive sweep"
        )
    gap = run.get("best_gap_pct")
    if not isinstance(gap, (int, float)):
        problems.append(
            f"{where}: adaptive_vs_exhaustive run missing best_gap_pct"
        )
    elif gap > ADAPTIVE_GATE_GAP_PCT:
        problems.append(
            f"{where}: best_gap_pct {gap} > {ADAPTIVE_GATE_GAP_PCT} — the "
            "search's best point fell more than 5% short of the exhaustive "
            "optimum"
        )
    return problems


PERFBENCH_WORKLOADS = ("matrix-constant", "mixes-varying", "rerun-warm", "fleet-short")
PERFBENCH_METRICS = ("scenarios_per_s", "setup_s", "peak_rss_mb")


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_perfbench(run: dict, where: str) -> list[str]:
    if run.get("label") != "perfbench":
        return []
    problems = []
    if run.get("workload") not in PERFBENCH_WORKLOADS:
        problems.append(f"{where}: perfbench workload {run.get('workload')!r} unknown")
    if not isinstance(run.get("seed"), int) or isinstance(run.get("seed"), bool):
        problems.append(f"{where}: perfbench seed must be an integer")
    if not _number(run.get("seconds")) or run["seconds"] <= 0:
        problems.append(f"{where}: perfbench seconds must be a positive number")
    if not isinstance(run.get("revision"), str) or not run["revision"]:
        problems.append(f"{where}: perfbench run missing the git revision it measured")
    for metric in PERFBENCH_METRICS:
        value = run.get(metric)
        if not _number(value) or value < 0:
            problems.append(
                f"{where}: perfbench {metric} must be a non-negative number, got {value!r}"
            )
    return problems


def _check_telemetry(run: dict, where: str) -> list[str]:
    """The optional per-run telemetry digest, when present, must be sane.

    ``benchmarks/_common.py`` attaches ``{engine_wall_s, cache_hit_rate,
    mean_chunk_size}`` from the merged recorder snapshot; each field is a
    number in its natural range or null (e.g. no chunks on a serial run).
    """
    digest = run.get("telemetry")
    if digest is None:
        return []
    if not isinstance(digest, dict):
        return [f"{where}: telemetry must be an object, got {type(digest).__name__}"]
    problems = []
    bounds = {
        "engine_wall_s": (0.0, None),
        "cache_hit_rate": (0.0, 1.0),
        "mean_chunk_size": (1.0, None),
    }
    for field, (low, high) in bounds.items():
        value = digest.get(field)
        if value is None:
            continue
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(
                f"{where}: telemetry.{field} must be a number or null, "
                f"got {value!r}"
            )
        elif value < low or (high is not None and value > high):
            problems.append(
                f"{where}: telemetry.{field} {value} outside "
                f"[{low}, {'inf' if high is None else high}]"
            )
    problems.extend(_check_engine_wall(run, digest, where))
    return problems


def _check_engine_wall(run: dict, digest: dict, where: str) -> list[str]:
    """A bench's engine time fits in its wall time times its workers.

    ``engine_wall_s`` sums the engine spans recorded during the benchmark;
    more than ``wall_clock_s`` x workers means the digest counted work
    from outside the benchmark.  Workers default to the host's cpu_count.
    """
    engine = digest.get("engine_wall_s")
    wall = run.get("wall_clock_s")
    if not isinstance(engine, (int, float)) or not isinstance(wall, (int, float)):
        return []
    workers = run.get("workers") or run.get("cpu_count") or 1
    if engine > wall * workers:
        return [
            f"{where}: telemetry.engine_wall_s {engine} exceeds wall_clock_s "
            f"{wall} x {workers} workers — the digest counted work from "
            "outside this benchmark"
        ]
    return []


def check(path: Path) -> list[str]:
    """All problems found in one trajectory file (empty = healthy)."""
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        return [f"not valid JSON: {exc}"]

    problems = []
    if not isinstance(doc, dict):
        return [f"expected a JSON object at top level, got {type(doc).__name__}"]
    if doc.get("benchmark") != "sweep-engine":
        problems.append(
            f"unexpected benchmark field {doc.get('benchmark')!r} "
            "(expected 'sweep-engine')"
        )
    runs = doc.get("runs")
    if not isinstance(runs, list):
        return problems + ["'runs' must be a list"]

    previous = None
    for index, run in enumerate(runs):
        where = f"runs[{index}]"
        if not isinstance(run, dict):
            problems.append(f"{where}: not an object")
            continue
        if not run.get("label"):
            problems.append(f"{where}: missing label")
        cpus = run.get("cpu_count")
        if not isinstance(cpus, int) or isinstance(cpus, bool) or cpus < 1:
            problems.append(
                f"{where}: cpu_count must be a positive integer, got {cpus!r}"
            )
        problems.extend(_check_distributed_gate(run, where))
        problems.extend(_check_adaptive_gate(run, where))
        problems.extend(_check_perfbench(run, where))
        problems.extend(_check_telemetry(run, where))
        stamp = run.get("timestamp")
        try:
            parsed = time.strptime(stamp, "%Y-%m-%dT%H:%M:%SZ")
        except (TypeError, ValueError):
            problems.append(f"{where}: bad timestamp {stamp!r}")
            continue
        if previous is not None and parsed < previous:
            problems.append(
                f"{where}: timestamp {stamp} precedes its predecessor — "
                "the trajectory must be monotone-appended, never rewritten"
            )
        previous = parsed
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", nargs="?", default=DEFAULT_PATH, type=Path)
    parser.add_argument(
        "--require", action="store_true",
        help="fail when the trajectory file does not exist",
    )
    args = parser.parse_args(argv)

    if not args.path.exists():
        if args.require:
            print(f"bench-check: {args.path} does not exist", file=sys.stderr)
            return 1
        print(f"bench-check: {args.path} absent (no measurements yet) — ok")
        return 0

    problems = check(args.path)
    if problems:
        for problem in problems:
            print(f"bench-check: {problem}", file=sys.stderr)
        return 1
    runs = len(json.loads(args.path.read_text())["runs"])
    print(f"bench-check: {args.path.name} ok ({runs} runs, monotone)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
