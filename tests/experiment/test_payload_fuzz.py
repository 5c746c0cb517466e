"""Fuzz :meth:`Scenario.from_payload` with hypothesis.

Payloads arrive from outside the program (spool job files, TCP submits,
spec files).  Whatever the timing, load, seed and flag fields hold, a
payload either loads or raises a ``ValueError``, and a scenario that loads
runs, clipped to a horizon of at most 1 s, with a finite p99 every epoch.

Names (service, apps, policy, platform) are drawn from the registered
sets: an unknown name already fails with a ``ValueError`` listing the
valid ones when the run resolves it, which is how custom policies and
platforms registered on a worker stay usable.  ``policy_kwargs`` are the
policy builder's own business and are left out, and so is a non-zero
``exploration_seed``, which only means a slow cold exploration.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sweep import Scenario, run_scenario

from tests.core.test_epoch_properties import LOADS

APPS = ("canneal", "kmeans", "bayesian", "raytrace", "snp", "streamcluster")

#: Anything a JSON number field might carry, valid or not.
NUMBERS = st.one_of(
    st.floats(min_value=0.01, max_value=2.0),
    st.floats(),
    st.integers(min_value=-2, max_value=500),
    st.none(),
    st.text(max_size=3),
)

FIELDS = {
    "policy": st.sampled_from(["pliant", "pliant-impact", "precise", "core-reclaim-only"]),
    "load_fraction": NUMBERS,
    "decision_interval": NUMBERS,
    "monitor_epoch": NUMBERS,
    "slack_threshold": NUMBERS,
    "horizon": NUMBERS,
    "seed": st.one_of(st.integers(), st.floats(), st.text(max_size=2)),
    "stop_when_apps_done": st.one_of(st.booleans(), st.integers(), st.none()),
    "exploration_seed": st.one_of(st.just(0), st.just(0.5), st.none()),
    "platform": st.sampled_from(["default", "half-llc"]),
}


@st.composite
def payloads(draw) -> dict:
    payload = {
        "service": draw(st.sampled_from(["nginx", "memcached", "mongodb"])),
        "apps": draw(
            st.one_of(
                st.lists(st.sampled_from(APPS), min_size=1, max_size=3),
                st.lists(st.integers(), max_size=2),
            )
        ),
    }
    payload.update(draw(st.fixed_dictionaries({}, optional=FIELDS)))
    if draw(st.booleans()):
        shape, params = draw(LOADS)
        payload["loadgen_shape"] = shape
        payload["loadgen_params"] = [list(pair) for pair in params]
    return payload


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(payload=payloads())
def test_payload_loads_or_raises_value_error_and_runs(payload):
    try:
        scenario = Scenario.from_payload(payload)
    except ValueError:
        return
    horizon = min(scenario.horizon, 1.0, 20 * scenario.monitor_epoch)
    result = run_scenario(dataclasses.replace(scenario, horizon=horizon))
    assert len(result.epoch_p99) > 0
    assert np.all(np.isfinite(result.epoch_p99))
