"""One contention formula: the engine's kept state equals a fresh query.

Over random resource profiles, core splits and finished apps with one to
three apps, the service pressure the engine keeps equals
:meth:`ServerNode.pressure_on` field for field, and each running app's
execution time equals the per-epoch loop's formula applied to
:meth:`ServerNode.pressure_on` on that app, bit for bit.
"""

from __future__ import annotations

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import units
from repro.cluster import build_engine
from repro.core.baselines import PrecisePolicy
from repro.core.runtime import _IDLE_PROFILE
from repro.server.resources import ResourceProfile

from tests.core.test_epoch_memo import parent_exec_time

APPS = ("canneal", "kmeans", "bayesian", "raytrace", "snp", "streamcluster")


def _unit(hi: float):
    return st.floats(min_value=0.0, max_value=hi, allow_nan=False)


PROFILES = st.builds(
    ResourceProfile,
    cpu_fraction=_unit(1.0),
    llc_footprint_bytes=_unit(units.mb(64)),
    llc_intensity=_unit(1.0),
    membw_per_core=_unit(units.gbytes_per_sec(12.0)),
    disk_bw=_unit(2e9),
    network_bw=_unit(3e9),
)


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_engine_contention_equals_pressure_on(data):
    service = data.draw(st.sampled_from(["nginx", "memcached", "mongodb"]))
    apps = data.draw(st.lists(st.sampled_from(APPS), min_size=1, max_size=3, unique=True))
    engine = build_engine(service, tuple(apps), PrecisePolicy())
    node = engine._node

    tenants = [engine._service_tenant] + [engine.app_sim(name).tenant for name in apps]
    spare = node.platform.allocatable_cores - len(tenants)
    for tenant in tenants:
        tenant.set_profile(data.draw(PROFILES))
        tenant.cores = 1 + data.draw(st.integers(min_value=0, max_value=spare))
        spare -= tenant.cores - 1
    for name in apps:
        sim = engine.app_sim(name)
        sim.instrumented = data.draw(st.booleans())
        if data.draw(st.booleans()):
            sim.finished = True
            sim.tenant.set_profile(_IDLE_PROFILE)

    engine._tenants_changed()
    engine._refresh_service()

    expected = node.pressure_on(service)
    assert _bits(dataclasses.astuple(engine._service_pressure)) == _bits(
        dataclasses.astuple(expected)
    )
    for name in apps:
        sim = engine.app_sim(name)
        if sim.finished:
            continue
        fresh = parent_exec_time(engine, sim, node.pressure_on(name))
        assert sim.exec_time.hex() == fresh.hex()
