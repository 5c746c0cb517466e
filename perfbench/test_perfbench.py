"""Self-tests of the benchmark's own arithmetic, generators and checks."""

import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import checks
import tracing
import workloads
from repro.cluster import ladder_for
from repro.server.platform import make_platform
from repro.sweep import Scenario, SweepEngine


def _fake_clock(ticks):
    values = iter(ticks)
    return lambda: next(values)


def test_self_time_of_nested_and_sibling_spans():
    # root [0, 10] holds siblings a [1, 4] and b [5, 9]; b holds c [6, 7].
    log = tracing.SpanLog(clock=_fake_clock([0, 1, 4, 5, 6, 7, 9, 10]))
    ids = {name: log.name_index(name) for name in ("root", "a", "b", "c")}
    root = log.open(ids["root"])
    a = log.open(ids["a"])
    log.close(a)
    b = log.open(ids["b"])
    c = log.open(ids["c"])
    log.close(c)
    log.close(b)
    log.close(root)
    log.drain()
    calls_self_incl = {name: tuple(v) for name, v in log.totals.items()}
    assert calls_self_incl == {
        "root": (1, 3.0, 10.0),
        "a": (1, 3.0, 3.0),
        "b": (1, 3.0, 4.0),
        "c": (1, 1.0, 1.0),
    }
    # Self times partition the root's wall time.
    assert sum(v[1] for v in log.totals.values()) == 10.0


def test_self_time_sums_repeated_calls_per_name():
    totals = tracing.span_totals(
        ["outer", "leaf"],
        name_id=[0, 1, 1, 0, 1],
        parent=[-1, 0, 0, -1, 3],
        start=[0.0, 1.0, 3.0, 10.0, 11.0],
        end=[5.0, 2.0, 4.5, 12.0, 11.5],
    )
    assert totals["leaf"] == (3, 3.0, 3.0)
    assert totals["outer"] == (2, 7.0 - 3.0, 7.0)


def test_wrappers_record_only_while_active_and_uninstall():
    from repro.services.loadgen import ConstantLoad

    original = ConstantLoad.qps_at
    log = tracing.SpanLog()
    undo = tracing.install(log, [("qps", "repro.services.loadgen", "LoadGenerator.qps_at")])
    try:
        load = ConstantLoad(qps=5.0)
        assert load.qps_at(0.0) == 5.0  # inactive: not recorded
        log.active = True
        assert load.qps_at(1.0) == 5.0
        log.active = False
        log.drain()
    finally:
        tracing.uninstall(undo)
    assert log.totals["qps"][0] == 1
    assert ConstantLoad.qps_at is original


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_a_pure_function_of_the_seed(name):
    def payloads(seed):
        inputs = workloads.generate(name, seed)
        scenarios = inputs.scenarios() if hasattr(inputs, "scenarios") else inputs
        return [s.key_payload() for s in scenarios]

    assert payloads(7) == payloads(7)
    assert payloads(7) != payloads(8)
    # Same inputs in another interpreter with another hash seed.
    code = (
        "import json, workloads; i = workloads.generate(%r, 7); "
        "s = i.scenarios() if hasattr(i, 'scenarios') else i; "
        "print(json.dumps([x.key_payload() for x in s]))" % name
    )
    env = dict(os.environ, PYTHONHASHSEED="123", PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert json.loads(out.stdout) == json.loads(json.dumps(payloads(7)))


def test_runner_and_generators_name_the_same_workloads():
    import run

    assert run.WORKLOADS == workloads.WORKLOADS


def test_every_mixes_pass_holds_every_app_once():
    for seed in (1, 2, 3):
        mixes = {s.apps for s in workloads.mixes_scenarios(seed)}
        apps = [app for mix in mixes for app in mix]
        assert sorted(apps) == sorted(workloads.ALL_APP_NAMES)


def _small_run():
    scenarios = [
        Scenario(service="memcached", apps=("raytrace",), policy=policy, seed=3, horizon=5.0)
        for policy in ("precise", "pliant")
    ]
    return list(workloads.run_experiment(scenarios, engine=SweepEngine(workers=1)))


def test_digests_are_stable_across_runs_and_order_free():
    first, second = _small_run(), _small_run()
    one = [checks.result_digest(o.scenario, o.result) for o in first]
    two = [checks.result_digest(o.scenario, o.result) for o in second]
    assert one == two
    assert checks.workload_digest(one) == checks.workload_digest(reversed(two))
    assert one[0] != one[1]


def test_a_failed_check_counts_as_failed():
    outcome = _small_run()[1]
    levels = {"raytrace": ladder_for("raytrace").max_level}
    cores = make_platform("default").allocatable_cores
    assert checks.result_problems(outcome.scenario, outcome.result, levels, cores) == []

    broken = copy.deepcopy(outcome.result)
    broken.epoch_p99[3] = np.nan
    assert checks.result_problems(outcome.scenario, broken, levels, cores)
    starved = copy.deepcopy(outcome.result)
    starved.epoch_app_cores["raytrace"] = starved.epoch_app_cores["raytrace"] * 0
    assert "a tenant dropped below one core" in checks.result_problems(
        outcome.scenario, starved, levels, cores)

    # Two expected, one checked clean and one with a problem: one failed.
    assert checks.count_failed(2, [[], ["p99 not finite"]]) == 1
    # A pass that raised returns nothing: every expected scenario failed.
    assert checks.count_failed(3, []) == 3
