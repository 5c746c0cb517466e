"""Hypothesis properties of the epoch loop, over random colocations.

Whatever the service, app, load shape, decision interval and seed:

* cores are conserved every epoch, and every tenant keeps at least one;
* every app's level stays within its ladder;
* every app's progress is monotone and never exceeds 1;
* every epoch's p99 is finite and positive.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import make_app
from repro.cluster import ladder_for
from repro.core.runtime import ColocationConfig, ColocationEngine
from repro.server.platform import default_platform
from repro.services import make_service
from repro.services.loadgen import LoadGenerator, loadgen_from_spec
from repro.sweep import Scenario
from repro.sweep.engine import make_policy

from tests.integration.test_headline_results import PAIRS


class ProgressProbe(LoadGenerator):
    """Wraps the run's load; records every app's progress as each epoch
    samples it, i.e. after every previous epoch."""

    def __init__(self, load: LoadGenerator, names: list[str]) -> None:
        self.load = load
        self.names = names
        self.engine: ColocationEngine | None = None
        self.progress: list[list[float]] = []

    def record(self) -> None:
        self.progress.append([self.engine.app_sim(n).progress for n in self.names])

    def qps_at(self, time: float) -> float:
        self.record()
        return self.load.qps_at(time)


def _fraction(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi).map(lambda x: round(x, 3))


LOADS = st.one_of(
    st.tuples(
        st.just("constant"),
        st.tuples(st.tuples(st.just("fraction"), _fraction(0.4, 0.95))),
    ),
    st.tuples(
        st.just("step"),
        st.lists(_fraction(0.4, 0.98), min_size=1, max_size=6).map(
            lambda fs: (("steps", tuple((3.0 * i, f) for i, f in enumerate(fs))),)
        ),
    ),
    st.tuples(
        st.just("diurnal"),
        st.tuples(
            st.tuples(st.just("low"), _fraction(0.4, 0.6)),
            st.tuples(st.just("high"), _fraction(0.8, 0.98)),
            st.tuples(st.just("period"), _fraction(4.0, 15.0)),
        ),
    ),
    st.tuples(
        st.just("bursty"),
        st.tuples(
            st.tuples(st.just("base"), _fraction(0.5, 0.7)),
            st.tuples(st.just("burst"), _fraction(0.9, 1.0)),
            st.tuples(st.just("period"), st.just(3.0)),
            st.tuples(st.just("duration"), _fraction(0.5, 1.5)),
        ),
    ),
)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    pair=st.sampled_from(PAIRS),
    policy=st.sampled_from(["precise", "pliant", "pliant-impact"]),
    load=LOADS,
    decision_interval=st.sampled_from([0.5, 1.0, 2.0]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_epoch_loop_invariants(pair, policy, load, decision_interval, seed):
    service_name, app_name = pair
    shape, params = load
    service = make_service(service_name)
    platform = default_platform()
    shares = platform.fair_share(2)
    ladder = ladder_for(app_name, seed=0)
    probe = ProgressProbe(
        loadgen_from_spec(shape, params, service.saturation_qps(shares[0])),
        [app_name],
    )
    engine = probe.engine = ColocationEngine(
        service=service,
        apps=[(make_app(app_name), ladder)],
        policy=make_policy(
            Scenario(service=service_name, apps=(app_name,), policy=policy, seed=seed)
        ),
        config=ColocationConfig(
            seed=seed, decision_interval=decision_interval, horizon=60.0
        ),
        platform=platform,
        loadgen=probe,
    )
    result = engine.run()
    probe.record()
    assert len(probe.progress) == len(result.epoch_times) + 1

    service_cores = result.epoch_service_cores
    app_cores = result.epoch_app_cores[app_name]
    assert np.all(service_cores + app_cores == sum(shares))
    assert service_cores.min() >= 1 and app_cores.min() >= 1

    levels = result.epoch_app_levels[app_name]
    assert levels.min() >= 0 and levels.max() <= ladder.max_level

    progress = np.asarray(probe.progress)[:, 0]
    assert np.all(np.diff(progress) >= 0.0)
    assert progress.max() <= 1.0

    assert np.all(np.isfinite(result.epoch_p99))
    assert np.all(result.epoch_p99 > 0.0)
