"""Bench telemetry digests cover one benchmark each, and are checked."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro import telemetry
from repro.telemetry import Recorder, write_shard

REPO = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def common(monkeypatch, tmp_path):
    """``benchmarks._common`` writing to a temporary trajectory and shard dir."""
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "telemetry"))
    monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "cache"))
    clock = FakeClock()
    telemetry.set_recorder(Recorder(clock, process="main"))
    from benchmarks import _common

    monkeypatch.setattr(_common, "BENCH_PATH", tmp_path / "BENCH.json")
    _common.open_telemetry_window()
    yield _common, clock
    telemetry.reset_recorder()


def _engine_run(clock: FakeClock, seconds: float, hits: int, misses: int) -> None:
    rec = telemetry.get_recorder()
    with rec.span("sweep.run", cat="engine"):
        rec.count("sweep.cache.hit", hits)
        rec.count("sweep.cache.miss", misses)
        clock.t += seconds


def _worker_shard(directory: Path, process: str, chunks: list[int]) -> None:
    worker = Recorder(FakeClock(), process=process)
    for size in chunks:
        worker.observe("worker.chunk_size", size)
    write_shard(directory, worker)


def _entries(common) -> list[dict]:
    return json.loads(common.BENCH_PATH.read_text())["runs"]


def test_back_to_back_benches_do_not_share_totals(common, tmp_path):
    common, clock = common
    _engine_run(clock, 2.0, hits=0, misses=4)
    _worker_shard(tmp_path / "telemetry", "worker-a", [8, 8])
    common.record_bench("bench_a", {"wall_clock_s": 2.0})

    _engine_run(clock, 0.5, hits=3, misses=1)
    common.record_bench("bench_b", {"wall_clock_s": 0.5})

    a, b = (entry["telemetry"] for entry in _entries(common))
    assert a == {"engine_wall_s": 2.0, "cache_hit_rate": 0.0, "mean_chunk_size": 8.0}
    # Bench b sees neither bench a's engine span and cache probes nor the
    # shard bench a's worker left behind.
    assert b == {"engine_wall_s": 0.5, "cache_hit_rate": 0.75, "mean_chunk_size": None}


def test_rewritten_shard_counts_only_its_new_records(common, tmp_path):
    common, clock = common
    shards = tmp_path / "telemetry"
    worker = Recorder(FakeClock(), process="worker-1")
    worker.observe("worker.chunk_size", 2)
    write_shard(shards, worker)
    common.open_telemetry_window()

    worker.observe("worker.chunk_size", 6)
    write_shard(shards, worker)
    _engine_run(clock, 1.0, hits=1, misses=0)
    common.record_bench("bench", {"wall_clock_s": 1.0})
    assert _entries(common)[0]["telemetry"]["mean_chunk_size"] == 6.0


def _bench_check():
    spec = importlib.util.spec_from_file_location(
        "bench_check", REPO / "scripts" / "bench_check.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trajectory(path: Path, **entry) -> Path:
    run = {"label": "fig8_load_sweep", "timestamp": "2026-01-01T00:00:00Z", "cpu_count": 2}
    run.update(entry)
    path.write_text(json.dumps({"benchmark": "sweep-engine", "runs": [run]}))
    return path


@pytest.mark.parametrize(
    "entry, ok",
    [
        ({"wall_clock_s": 1.97, "workers": 2, "telemetry": {"engine_wall_s": 3.9}}, True),
        ({"wall_clock_s": 1.97, "workers": 2, "telemetry": {"engine_wall_s": 16.7}}, False),
        # Without a workers field the host's cpu_count bounds it.
        ({"wall_clock_s": 1.97, "telemetry": {"engine_wall_s": 3.9}}, True),
        ({"wall_clock_s": 1.97, "telemetry": {"engine_wall_s": 4.0}}, False),
        # Entries without a wall_clock_s carry no bound.
        ({"serial_s": 0.5, "telemetry": {"engine_wall_s": 16.7}}, True),
    ],
)
def test_bench_check_bounds_engine_wall(tmp_path, entry, ok):
    problems = _bench_check().check(_trajectory(tmp_path / "BENCH.json", **entry))
    assert (problems == []) == ok, problems


PERFBENCH = {
    "label": "perfbench",
    "workload": "mixes-varying",
    "seed": 1,
    "seconds": 10.0,
    "revision": "83bde59",
    "scenarios_per_s": 191.7,
    "setup_s": 0.41,
    "peak_rss_mb": 47.2,
}


@pytest.mark.parametrize(
    "change, ok",
    [
        ({}, True),
        ({"workload": "fleet-long"}, False),
        ({"seed": 1.5}, False),
        ({"seconds": 0}, False),
        ({"revision": ""}, False),
        ({"scenarios_per_s": None}, False),
        ({"peak_rss_mb": -1.0}, False),
    ],
)
def test_bench_check_validates_perfbench_entries(tmp_path, change, ok):
    entry = {**PERFBENCH, **change}
    problems = _bench_check().check(_trajectory(tmp_path / "BENCH.json", **entry))
    assert (problems == []) == ok, problems
