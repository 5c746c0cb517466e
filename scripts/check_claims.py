#!/usr/bin/env python3
"""Assert the paper's headline claims over the full colocation matrix.

Runs every pair of the claim matrix — 24 approximate apps x 3 interactive
services — under Pliant and under precise colocation, for seeds 1-5, at
the paper's 77.5% load, serially and without a result cache.  Asserts:

* Pliant meets QoS on every pair and seed;
* precise colocation violates QoS on every pair and seed;
* the mean quality loss of the Pliant runs is 2.1 +- 0.6 %;
* the worst quality loss of any Pliant run is at most 5.5 %.

It prints each claim's spread across seeds plus the stricter per-interval
view (``qos_met_fraction``), which is reported but not asserted.  Exit
code 0 when every claim holds, 1 otherwise.

Usage: PYTHONPATH=src python scripts/check_claims.py
"""

from __future__ import annotations

import statistics
import sys
import time

from repro.apps import ALL_APP_NAMES
from repro.experiment import ExperimentSpec, run_experiment
from repro.sweep import SweepEngine

SERVICES = ("nginx", "memcached", "mongodb")
SEEDS = (1, 2, 3, 4, 5)
LOAD_FRACTION = 0.775
PAPER_MEAN_LOSS_PCT = 2.1
MEAN_LOSS_TOLERANCE_PCT = 0.6
WORST_LOSS_BOUND_PCT = 5.5


def claim_spec(seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"claims/seed-{seed}",
        base={"seed": seed, "load_fraction": LOAD_FRACTION},
        axes={
            "service": SERVICES,
            "apps": tuple((app,) for app in ALL_APP_NAMES),
            "policy": ("precise", "pliant"),
        },
    )


def _pairs(results, qos_met: bool) -> list[tuple[str, str, float]]:
    """(service, app, qos_ratio) of every run whose ``qos_met`` is given."""
    return [
        (o.scenario.service, o.scenario.apps[0], round(o.result.qos_ratio, 3))
        for o in results.filter(lambda o: o.result.qos_met == qos_met)
    ]


def seed_stats(results) -> dict:
    """Per-seed figures of every claim."""
    by_policy = results.group_by("policy")
    pliant, precise = by_policy["pliant"], by_policy["precise"]
    return {
        "pairs": len(pliant),
        "pliant_violations": _pairs(pliant, qos_met=False),
        "precise_met": _pairs(precise, qos_met=True),
        "pliant_worst_qos_ratio": pliant.aggregate("qos_ratio", reduce="max"),
        "precise_best_qos_ratio": precise.aggregate("qos_ratio", reduce="min"),
        "mean_loss_pct": pliant.aggregate("mean_inaccuracy_pct"),
        "worst_loss_pct": pliant.aggregate("max_inaccuracy_pct", reduce="max"),
        "mean_qos_met_fraction": pliant.aggregate("qos_met_fraction"),
        "min_qos_met_fraction": pliant.aggregate("qos_met_fraction", reduce="min"),
    }


def _spread(values) -> str:
    return f"min {min(values):.3f}  mean {statistics.fmean(values):.3f}  max {max(values):.3f}"


def main() -> int:
    engine = SweepEngine(workers=1)
    start = time.perf_counter()
    per_seed = {
        seed: seed_stats(run_experiment(claim_spec(seed), engine=engine))
        for seed in SEEDS
    }
    wall = time.perf_counter() - start
    runs = sum(2 * stats["pairs"] for stats in per_seed.values())
    print(f"claim matrix: {runs} runs over seeds {list(SEEDS)}, serial, {wall:.1f} s")

    print("per-seed values, then their spread across seeds:")
    for label, key in (
        ("Pliant worst qos_ratio", "pliant_worst_qos_ratio"),
        ("precise best qos_ratio", "precise_best_qos_ratio"),
        ("mean quality loss %", "mean_loss_pct"),
        ("worst quality loss %", "worst_loss_pct"),
        ("Pliant mean qos_met_fraction", "mean_qos_met_fraction"),
        ("Pliant min qos_met_fraction", "min_qos_met_fraction"),
    ):
        values = [per_seed[seed][key] for seed in SEEDS]
        cells = "  ".join(f"{v:.3f}" for v in values)
        print(f"  {label:30s} {cells}   | {_spread(values)}")

    failures = []
    for seed, stats in per_seed.items():
        for service, app, ratio in stats["pliant_violations"]:
            failures.append(
                f"seed {seed}: Pliant violates QoS on {service}+{app} (qos_ratio {ratio})"
            )
        for service, app, ratio in stats["precise_met"]:
            failures.append(
                f"seed {seed}: precise meets QoS on {service}+{app} (qos_ratio {ratio})"
            )
    mean_loss = statistics.fmean(
        per_seed[seed]["mean_loss_pct"] for seed in SEEDS
    )
    worst_loss = max(per_seed[seed]["worst_loss_pct"] for seed in SEEDS)
    if abs(mean_loss - PAPER_MEAN_LOSS_PCT) > MEAN_LOSS_TOLERANCE_PCT:
        failures.append(
            f"mean quality loss {mean_loss:.3f}% outside "
            f"{PAPER_MEAN_LOSS_PCT} +- {MEAN_LOSS_TOLERANCE_PCT}%"
        )
    if worst_loss > WORST_LOSS_BOUND_PCT:
        failures.append(
            f"worst quality loss {worst_loss:.3f}% above {WORST_LOSS_BOUND_PCT}%"
        )

    violations = sum(len(per_seed[seed]["pliant_violations"]) for seed in SEEDS)
    precise_met = sum(len(per_seed[seed]["precise_met"]) for seed in SEEDS)
    print(
        f"claims: Pliant violates QoS on {violations} of {runs // 2} runs, "
        f"precise meets QoS on {precise_met} of {runs // 2}, "
        f"mean loss {mean_loss:.3f}% (paper {PAPER_MEAN_LOSS_PCT}), "
        f"worst loss {worst_loss:.3f}% (bound {WORST_LOSS_BOUND_PCT})"
    )
    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1
    print("claims: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
