#!/usr/bin/env python3
"""Record perfbench's end-to-end metrics in BENCH_sweep.json.

Runs ``perfbench/run.py --trace 0`` once per workload in a checkout (this
one by default) and appends one ``perfbench`` entry per workload to this
repository's trajectory: the workload, seed, ``--seconds``, the
checkout's git revision (``-dirty`` when its code has uncommitted changes), the
host's ``cpu_count``, and ``scenarios_per_s``, ``setup_s`` and
``peak_rss_mb``.  perfbench itself is only run, never changed.  Pointing
``--root`` at a checkout of the parent commit records the "before" side
of a speedup claim on the same host.

Each checkout's ``src/`` is byte-compiled first.  ``setup_s`` includes
importing the package, which costs more without ``.pyc`` files (a fresh
``git archive`` copy, or any checkout run with ``PYTHONDONTWRITEBYTECODE``
set), so two checkouts are only comparable in the same bytecode state.

Usage: python scripts/bench_perfbench.py [--root DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("matrix-constant", "mixes-varying", "rerun-warm", "fleet-short")
METRICS = ("scenarios_per_s", "setup_s", "peak_rss_mb")
#: The benchmark's own run length (BENCHMARK.json ``run_seconds``).
SECONDS = 10.0
SEED = 1

# Recording only: keep the benchmark helpers from attaching a telemetry
# digest of this process, which runs no scenario itself.
os.environ["REPRO_TELEMETRY"] = "0"
sys.path.insert(0, str(ROOT / "benchmarks"))
from _common import record_bench  # noqa: E402


def _git(root: Path, *args: str) -> str:
    out = subprocess.run(
        ["git", *args], cwd=root, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def revision(root: Path) -> str:
    """HEAD, marked ``-dirty`` when the measured code (``src/``,
    ``perfbench/``) differs from it; a trajectory file other benchmarks
    just appended to does not count."""
    dirty = _git(root, "status", "--porcelain", "--", "src", "perfbench")
    return _git(root, "rev-parse", "--short", "HEAD") + ("-dirty" if dirty else "")


def compile_sources(root: Path) -> None:
    """Byte-compile ``root``'s ``src/`` so imports read ``.pyc`` files."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src"], cwd=root, check=True
    )


def measure(root: Path, workload: str) -> dict:
    """One ``--trace 0`` run of ``workload``: perfbench's final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench-perfbench: {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=ROOT, help="checkout to measure (default: this one)"
    )
    args = parser.parse_args(argv)
    root = args.root.resolve()
    rev = revision(root)
    compile_sources(root)
    for workload in WORKLOADS:
        result = measure(root, workload)
        metrics = {name: round(result["metrics"][name]["value"], 4) for name in METRICS}
        record_bench("perfbench", {
            "workload": workload,
            "seed": SEED,
            "seconds": SECONDS,
            "revision": rev,
            **metrics,
            "correct": result["correct"],
            "failed": result["failed"],
        })
        print(f"bench-perfbench {rev} {workload}: " + ", ".join(
            f"{name} {value}" for name, value in metrics.items()
        ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
