"""PliantPolicy against the Fig. 3 reference state machine.

With one application, the round-robin arbiter has nothing to rotate, so
``PliantPolicy`` must make exactly the transitions ``PliantController``
makes on the same observations.  The one sanctioned difference is the
policy's backoff: an interval in which it blocks a de-escalation is left
out of the comparison (the reference is not stepped), and the policy must
leave the application untouched in it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arbiter import AppView
from repro.core.controller import PliantController
from repro.core.monitor import IntervalObservation
from repro.core.policy import PliantPolicy


class FakeActuator:
    """One application's level and cores, moved only by the policy."""

    def __init__(self, max_level: int, nominal_cores: int) -> None:
        self.max_level = max_level
        self.nominal_cores = nominal_cores
        self.level = 0
        self.cores = nominal_cores

    def running_apps(self) -> list[str]:
        return ["app"]

    def app_view(self, name: str) -> AppView:
        return AppView(name, self.level, self.max_level, self.cores, self.nominal_cores)

    def set_level(self, name: str, level: int) -> None:
        assert 0 <= level <= self.max_level
        self.level = level

    def reclaim_core(self, name: str) -> None:
        assert self.cores > 1
        self.cores -= 1

    def return_core(self, name: str) -> None:
        assert self.cores < self.nominal_cores
        self.cores += 1

    @property
    def state(self) -> tuple[int, int]:
        return self.level, self.nominal_cores - self.cores


#: Slack thresholds; all but the paper's 0.10 are exact in binary, so a
#: tail latency of ``1 - threshold`` puts the slack exactly on them.
THRESHOLDS = st.sampled_from([0.0, 0.10, 0.125, 0.25, 0.5])


@st.composite
def observed_runs(draw):
    """A threshold and a sequence of tail latencies (unit QoS target):
    violations, slack exactly at the threshold, ample slack, anything."""
    threshold = draw(THRESHOLDS)
    p99 = st.one_of(
        st.sampled_from([1.5, 1.0 - threshold, 0.0]),
        st.floats(min_value=0.0, max_value=2.0),
    )
    return threshold, draw(st.lists(p99, min_size=1, max_size=60))


@settings(max_examples=200, deadline=None)
@given(
    max_level=st.integers(0, 5),
    nominal_cores=st.integers(1, 8),
    seed=st.integers(0, 1000),
    run=observed_runs(),
)
def test_single_app_policy_follows_fig3(max_level, nominal_cores, seed, run):
    slack_threshold, p99s = run
    actuator = FakeActuator(max_level, nominal_cores)
    policy = PliantPolicy(slack_threshold=slack_threshold, seed=seed)
    reference = PliantController(
        max_level=max_level,
        max_reclaimable=nominal_cores - 1,
        slack_threshold=slack_threshold,
    )
    compared = 0
    for step, p99 in enumerate(p99s):
        obs = IntervalObservation(time=step + 1.0, p99=p99, qos=1.0, sample_count=1)
        blocked = (
            obs.qos_met and obs.slack > slack_threshold and policy._block_remaining > 0
        )
        before = actuator.state
        policy.on_interval(obs, actuator)
        if blocked:
            assert actuator.state == before
            continue
        action = reference.decide(obs.qos_met, obs.slack)
        assert actuator.state == (reference.level, reference.reclaimed), (step, action)
        compared += 1
    # The first interval is never blocked: every run compares something.
    assert compared >= 1
