"""Fig. 8: sensitivity to input load (QPS).

Sweeps offered load from 40% to 100% of saturation for each service, under
Pliant, for a representative app subset; prints tail latency and the app's
relative execution time per load level.  Also reproduces the paper's
precise-only comparison: the highest load at which a precise colocation
still meets QoS (paper: NGINX 340K QPS = 48%, memcached 280K = 46%,
MongoDB 310 = 77%).
"""

import time

import numpy as np
import pytest

from repro.services import make_service
from repro.viz import format_table

from benchmarks._common import (
    SERVICES,
    bench_spec,
    record_bench,
    resolve_workers,
    run_point,
    run_spec,
)

pytestmark = pytest.mark.benchmark

SWEEP_APPS = ("canneal", "kmeans", "snp", "water_spatial", "hmmer", "plsa")
LOADS = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def _precise_max_load(service, app="canneal"):
    """Highest load fraction (2% steps) where precise colocation meets QoS."""
    best = 0.0
    for load in np.arange(0.30, 1.01, 0.02):
        result = run_point(
            service=service, apps=(app,), policy="precise",
            load_fraction=float(load),
        )
        if result.qos_met:
            best = float(load)
        else:
            break
    return best


def test_fig8_load_sweep(benchmark, capsys):
    spec = bench_spec(
        "fig8-load-sweep",
        axes={
            "service": SERVICES,
            "apps": SWEEP_APPS,
            "load_fraction": LOADS,
        },
    )

    start = time.perf_counter()
    results = benchmark.pedantic(
        lambda: run_spec(spec), rounds=1, iterations=1
    )
    elapsed = time.perf_counter() - start
    record_bench(
        "fig8_load_sweep",
        {
            "grid_size": len(spec),
            "wall_clock_s": round(elapsed, 3),
            "workers": resolve_workers(),
            "cache_hits": results.cache_hits,
            "scenario_compute_s": round(results.compute_seconds, 3),
        },
    )
    table = {
        (o.scenario.service, o.scenario.apps[0], o.scenario.load_fraction): o.result
        for o in results
    }

    with capsys.disabled():
        print()
        print("=== Fig. 8: load sweep (Pliant, p99/QoS | relative finish time) ===")
        for service in SERVICES:
            sat = make_service(service).saturation_qps(8)
            rows = []
            for app in SWEEP_APPS:
                base = table[(service, app, 0.4)].app_outcome(app).finish_time
                cells = []
                for load in LOADS:
                    result = table[(service, app, load)]
                    finish = result.app_outcome(app).finish_time
                    rel = finish / base if (finish and base) else float("nan")
                    cells.append(f"{result.qos_ratio:.2f}|{rel:.2f}")
                rows.append([app] + cells)
            print(f"\n--- {service} (saturation = {sat:,.0f} QPS at 8 cores) ---")
            print(
                format_table(
                    ["app"] + [f"{int(100 * l)}%" for l in LOADS], rows
                )
            )

        print()
        print("=== precise-only maximum load meeting QoS (paper -> measured) ===")
        expected = {"nginx": 0.48, "memcached": 0.46, "mongodb": 0.77}
        measured = {}
        for service in SERVICES:
            measured[service] = _precise_max_load(service)
            sat = make_service(service).saturation_qps(8)
            print(
                f"{service}: paper {int(100 * expected[service])}% -> "
                f"measured {int(100 * measured[service])}% "
                f"({measured[service] * sat:,.0f} QPS)"
            )

    # Shape assertions.
    for service in SERVICES:
        # Low load: everything fine; saturation: violations dominate
        # (paper: beyond ~90% violations persist; our substrate lets the
        # strongest decontenders save a few pairs even at 100% — see
        # EXPERIMENTS.md).
        for app in SWEEP_APPS:
            assert table[(service, app, 0.4)].qos_met, (service, app)
        violated_at_full = sum(
            not table[(service, app, 1.0)].qos_met for app in SWEEP_APPS
        )
        violated_at_low = sum(
            not table[(service, app, 0.5)].qos_met for app in SWEEP_APPS
        )
        assert violated_at_full >= len(SWEEP_APPS) // 2, service
        assert violated_at_full > violated_at_low, service
    # Precise-only max load: mongodb tolerates the most load and both
    # nginx/memcached give up well before their Pliant-assisted range.
    # (Paper: 48/46/77%.  Our inflation ceiling — calibrated to the 77.5%
    # operating point — shifts the crossings upward; the ordering and the
    # "precise gives up far earlier than Pliant" shape are what reproduce.)
    assert measured["mongodb"] > measured["nginx"] >= 0.30
    assert measured["mongodb"] > measured["memcached"] >= 0.30
    assert measured["nginx"] <= 0.72 and measured["memcached"] <= 0.72
