"""Output checks, result digests and the paper-accuracy figures.

Every scenario the benchmark runs is checked; a scenario with any failed
check counts as failed, exactly like one whose run raised.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

#: Section 6.2 of the paper: quality loss under Pliant, in percent.
PAPER_MEAN_LOSS_PCT = 2.1
PAPER_WORST_LOSS_PCT = 5.4


def result_problems(scenario, result, max_levels: dict[str, int], total_cores: int) -> list[str]:
    """Invariant violations of one colocation result (empty when sound).

    * cores are conserved: service plus app cores sum to the same total
      every epoch, never above the platform's allocatable cores;
    * every tenant keeps at least one core every epoch;
    * every app level stays within its ladder;
    * every epoch p99 is finite and positive.
    """
    problems = []
    p99 = np.asarray(result.epoch_p99, dtype=float)
    if p99.size == 0:
        return ["no epochs recorded"]
    if not np.all(np.isfinite(p99)) or not np.all(p99 > 0):
        problems.append("epoch p99 not finite and positive")
    if set(result.epoch_app_cores) != set(scenario.apps):
        return problems + ["app set differs from the scenario's"]
    cores = np.asarray(result.epoch_service_cores)
    per_tenant = [cores] + [np.asarray(result.epoch_app_cores[a]) for a in scenario.apps]
    if any(len(c) != len(p99) for c in per_tenant):
        return problems + ["per-epoch series differ in length"]
    total = np.sum(per_tenant, axis=0)
    if np.any(total != total[0]) or total[0] > total_cores:
        problems.append("cores not conserved")
    if min(int(c.min()) for c in per_tenant) < 1:
        problems.append("a tenant dropped below one core")
    for app in scenario.apps:
        levels = np.asarray(result.epoch_app_levels[app])
        if levels.min() < 0 or levels.max() > max_levels[app]:
            problems.append(f"{app} level outside its ladder")
    return problems


def count_failed(expected: int, problem_lists) -> int:
    """Failed scenarios of a pass that should have produced ``expected``.

    A scenario fails when any check on it failed, or when the pass returned
    no result for it at all (a pass that raised returns none).
    """
    problem_lists = list(problem_lists)
    return sum(1 for problems in problem_lists if problems) + max(0, expected - len(problem_lists))


def result_digest(scenario, result) -> str:
    """Stable content digest of one (scenario, result) pair."""
    h = hashlib.sha256()

    def add(text) -> None:
        h.update(str(text).encode())
        h.update(b"\0")

    def add_array(values) -> None:
        values = np.ascontiguousarray(values)
        add(values.dtype.str)
        h.update(values.tobytes())

    add(json.dumps(scenario.key_payload(), sort_keys=True))
    add((result.service_name, result.policy_name, repr(result.qos), repr(result.offered_qps)))
    for values in (result.epoch_times, result.epoch_p99, result.epoch_service_cores):
        add_array(values)
    for mapping in (result.epoch_app_levels, result.epoch_app_cores):
        for name in sorted(mapping):
            add(name)
            add_array(mapping[name])
    add_array(np.array(
        [(r.observation.time, r.observation.p99, r.observation.qos, r.observation.sample_count)
         for r in result.intervals], dtype=float))
    add("\n".join(r.action_summary for r in result.intervals))
    for app in result.apps:
        add((
            app.name, repr(app.finish_time), repr(app.inaccuracy_pct), app.switches,
            app.min_cores, app.max_reclaimed, app.level_trace,
        ))
    return h.hexdigest()


def workload_digest(result_digests) -> str:
    """Order-independent digest of a set of result digests."""
    return hashlib.sha256("\n".join(sorted(result_digests)).encode()).hexdigest()


def claim_stats(results) -> dict:
    """The paper's headline claims over a ResultSet.

    Every policy whose name starts with ``pliant`` counts as a Pliant run.
    Uses the program's own query surface (``group_by`` / ``aggregate``),
    which is what a user re-running the claims calls.
    """
    by_policy = results.group_by("policy")
    pliant = [group for name, group in by_policy.items() if name.startswith("pliant")]
    stats = {}
    if pliant:
        runs = sum(len(group) for group in pliant)
        met = sum(group.aggregate("qos_met", reduce="sum") for group in pliant)
        stats["pliant_runs"] = runs
        stats["pliant_qos_violations"] = int(runs - met)
        stats["mean_loss_pct"] = sum(
            group.aggregate("mean_inaccuracy_pct", reduce="sum") for group in pliant
        ) / runs
        stats["worst_loss_pct"] = max(
            group.aggregate("mean_inaccuracy_pct", reduce="max") for group in pliant
        )
    precise = by_policy.get("precise")
    if precise is not None:
        stats["precise_runs"] = len(precise)
        stats["precise_qos_met"] = int(precise.aggregate("qos_met", reduce="sum"))
    return stats


def paper_gap(stats: dict) -> dict:
    """|simulated − paper| quality loss, in percentage points."""
    return {
        "mean_loss_pp": abs(stats["mean_loss_pct"] - PAPER_MEAN_LOSS_PCT),
        "worst_loss_pp": abs(stats["worst_loss_pct"] - PAPER_WORST_LOSS_PCT),
    }
