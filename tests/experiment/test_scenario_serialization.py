"""Scenario serialization: round trips, strictness, and the pinned
cache-key schema.

The golden-payload tests are the compatibility contract for the
content-addressed result cache: adding a scenario axis must not change
the key payload of scenarios that don't use it, or every cached result
ever computed silently goes cold.  If one of these tests fails, either
restore default-elision for the new axis or consciously accept a
cache-wide invalidation (and say so in the commit).
"""

import json

import pytest

from repro.experiment import ExperimentSpec
from repro.sweep import Scenario, SweepCache, stable_hash

RICH = Scenario(
    service="memcached",
    apps=("canneal",),
    seed=2,
    loadgen_shape="diurnal",
    loadgen_params=(("low", 0.5), ("high", 0.95), ("period", 120.0)),
    platform="half-llc",
    slack_threshold=0.07,
)

NAN = float("nan")
INF = float("inf")

#: The smallest valid payload: every other field takes its default.
MINIMAL = {"service": "nginx", "apps": ["kmeans"]}


class TestRoundTrip:
    def test_new_axes_round_trip_identity(self):
        assert Scenario.from_payload(RICH.to_payload()) == RICH

    def test_payload_is_json_safe(self):
        payload = RICH.to_payload()
        assert json.loads(json.dumps(payload)) == payload

    def test_round_trip_through_json_preserves_cache_key(self, tmp_path):
        cache = SweepCache(tmp_path)
        clone = Scenario.from_payload(json.loads(json.dumps(RICH.to_payload())))
        assert cache.key(clone) == cache.key(RICH)

    def test_nested_params_freeze_to_tuples(self):
        scenario = Scenario(
            service="mongodb",
            apps=["kmeans"],
            loadgen_shape="step",
            loadgen_params=[["steps", [[0.0, 0.5], [60.0, 0.9]]]],
        )
        assert scenario.loadgen_params == (("steps", ((0.0, 0.5), (60.0, 0.9))),)
        assert hash(scenario)  # fully hashable after normalization

    def test_unknown_field_rejected(self):
        payload = RICH.to_payload()
        payload["qos_target"] = 0.001
        with pytest.raises(ValueError, match="unknown scenario field"):
            Scenario.from_payload(payload)

    def test_pre_axis_payload_still_loads(self):
        # Spool payloads written before the open axes existed carry no
        # loadgen/platform keys; they must load with the defaults.
        legacy = {
            key: value
            for key, value in Scenario(
                service="mongodb", apps=("kmeans",), seed=4
            ).to_payload().items()
            if key not in ("loadgen_shape", "loadgen_params", "platform")
        }
        scenario = Scenario.from_payload(legacy)
        assert scenario.has_default_loadgen()
        assert scenario.platform == "default"

    @pytest.mark.parametrize(
        "kind,payload,field",
        [
            ("scenario", {}, "service"),
            ("scenario", {"service": "nginx"}, "apps"),
            ("scenario", {"service": "nginx", "apps": 5}, "apps"),
            ("scenario", {**MINIMAL, "policy_kwargs": [1]}, "policy_kwargs"),
            ("scenario", {**MINIMAL, "load_fraction": None}, "load_fraction"),
            ("scenario", {**MINIMAL, "seed": "two"}, "seed"),
            ("scenario", {**MINIMAL, "loadgen_params": 3}, "loadgen_params"),
            ("scenario", ["nginx"], "object"),
            ("spec", {"axes": 3}, "axes"),
            ("spec", {"axes": [["seed", 3]]}, "axes"),
            ("spec", {"base": 3}, "base"),
            ("spec", {"objective": 3}, "objective"),
            ("spec", {"rng_seed": None}, "rng_seed"),
            (
                "scenario",
                {**MINIMAL, "stop_when_apps_done": "false"},
                "stop_when_apps_done",
            ),
            ("scenario", {**MINIMAL, "stop_when_apps_done": 1}, "stop_when_apps_done"),
            ("scenario", {"service": "nginx", "apps": [3]}, "apps"),
            ("scenario", {**MINIMAL, "seed": 1.5}, "seed"),
            ("scenario", {**MINIMAL, "monitor_epoch": 0.0}, "monitor_epoch"),
            ("scenario", {**MINIMAL, "monitor_epoch": NAN}, "monitor_epoch"),
            ("scenario", {**MINIMAL, "monitor_epoch": -0.1}, "monitor_epoch"),
            ("scenario", {**MINIMAL, "load_fraction": NAN}, "load_fraction"),
            ("scenario", {**MINIMAL, "load_fraction": -0.5}, "load_fraction"),
            ("scenario", {**MINIMAL, "load_fraction": 1e200}, "load_fraction"),
            ("scenario", {**MINIMAL, "decision_interval": 0.0}, "decision_interval"),
            ("scenario", {**MINIMAL, "decision_interval": -1.0}, "decision_interval"),
            ("scenario", {**MINIMAL, "horizon": NAN}, "horizon"),
            ("scenario", {**MINIMAL, "horizon": 0.0}, "horizon"),
            ("scenario", {**MINIMAL, "horizon": -5.0}, "horizon"),
            (
                "scenario",
                {**MINIMAL, "horizon": INF, "stop_when_apps_done": False},
                "horizon",
            ),
            ("scenario", {**MINIMAL, "slack_threshold": 1.5}, "slack_threshold"),
            ("scenario", {"service": "nginx", "apps": ["kmeans", "kmeans"]}, "apps"),
        ],
    )
    def test_malformed_payload_names_the_field(self, kind, payload, field):
        # Payloads come from spool job files, TCP submits and spec files:
        # garbage must be a ValueError naming the field, never a
        # KeyError/TypeError from deep inside a constructor.
        with pytest.raises(ValueError, match=field):
            if kind == "scenario":
                Scenario.from_payload(payload)
            else:
                ExperimentSpec.from_json(json.dumps(payload))

    def test_bare_string_apps_is_a_single_app_mix(self):
        # The same coercion as the constructor: a string names one app,
        # it is not a sequence of one-letter app names.
        scenario = Scenario.from_payload({**MINIMAL, "apps": "canneal"})
        assert scenario.apps == ("canneal",)
        assert scenario == Scenario(service="nginx", apps="canneal")

    def test_integral_seed_loads_whole(self):
        # JSON writers may emit 4 as 4.0; that is still seed 4, same key.
        as_int = Scenario.from_payload({**MINIMAL, "seed": 4})
        as_float = Scenario.from_payload({**MINIMAL, "seed": 4.0})
        assert as_int == as_float
        assert as_float.seed == 4 and type(as_float.seed) is int

    def test_non_bool_stop_when_apps_done_in_spec_base_rejected(self):
        spec = ExperimentSpec.from_json(
            json.dumps({"base": {**MINIMAL, "stop_when_apps_done": "false"}})
        )
        with pytest.raises(ValueError, match="stop_when_apps_done"):
            spec.scenarios()

    def test_non_physical_spec_axis_rejected(self):
        spec = ExperimentSpec.from_json(
            json.dumps({"base": MINIMAL, "axes": [["monitor_epoch", [0.1, 0.0]]]})
        )
        with pytest.raises(ValueError, match="monitor_epoch"):
            spec.scenarios()

    def test_unknown_loadgen_shape_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown loadgen shape"):
            Scenario(service="mongodb", apps=("kmeans",), loadgen_shape="sawtooth")


class TestGoldenCacheKeySchema:
    """Pins the exact key payload (and its hash) — see module docstring."""

    def test_default_axes_payload_schema(self):
        scenario = Scenario(service="memcached", apps=("canneal",), seed=2)
        assert scenario.key_payload() == {
            "service": "memcached",
            "apps": ["canneal"],
            "policy": "pliant",
            "policy_kwargs": [],
            "load_fraction": "0.775",
            "decision_interval": "1.0",
            "monitor_epoch": "0.1",
            "slack_threshold": "0.1",
            "horizon": "400.0",
            "seed": 2,
            "stop_when_apps_done": True,
            "exploration_seed": 0,
        }

    def test_default_axes_hash_unchanged_since_pr1(self):
        # Computed by the PR-1-era key_payload(): proof that pre-axis
        # cache entries stay hot.
        scenario = Scenario(service="memcached", apps=("canneal",), seed=2)
        assert stable_hash(scenario.key_payload()) == (
            "a46c4acc3581f7ae37f26f47036e30f8"
        )

    def test_new_axes_extend_the_payload(self):
        payload = RICH.key_payload()
        assert payload["loadgen"] == [
            "diurnal",
            [["low", "0.5"], ["high", "0.95"], ["period", "120.0"]],
        ]
        assert payload["platform"] == "half-llc"
        assert stable_hash(payload) == "72ef37df498fa5bed2084a56b7a0f86a"

    def test_new_axes_at_defaults_are_elided(self):
        explicit = Scenario(
            service="memcached",
            apps=("canneal",),
            seed=2,
            loadgen_shape="constant",
            loadgen_params=(),
            platform="default",
        )
        implicit = Scenario(service="memcached", apps=("canneal",), seed=2)
        assert explicit.key_payload() == implicit.key_payload()
        assert "loadgen" not in explicit.key_payload()
        assert "platform" not in explicit.key_payload()

    def test_non_default_axes_change_the_key(self, tmp_path):
        cache = SweepCache(tmp_path)
        base = Scenario(service="memcached", apps=("canneal",), seed=2)
        assert cache.key(base) != cache.key(RICH)
