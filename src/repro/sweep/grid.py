"""Scenarios: one sweep coordinate as pure data.

A :class:`Scenario` is one fully-specified colocation experiment — enough
information to rebuild the engine from scratch inside a worker process
(everything is plain strings/numbers, so scenarios pickle cheaply and
hash stably).  Sweeps over many scenarios are declared with
:class:`repro.experiment.ExperimentSpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.core.runtime import ColocationConfig
from repro.services.loadgen import LOADGEN_SHAPES


def _normalize_mix(mix: str | tuple[str, ...] | list[str]) -> tuple[str, ...]:
    if isinstance(mix, str):
        return (mix,)
    mix = tuple(mix)
    bad = [app for app in mix if not isinstance(app, str)]
    if bad:
        raise ValueError(f"app names must be strings, got {bad!r}")
    return mix


def _freeze(value):
    """Recursively turn lists into tuples so field values stay hashable."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def _freeze_pairs(pairs) -> tuple[tuple[str, object], ...]:
    """Normalize a mapping / pair sequence into frozen ``(name, value)`` pairs."""
    items = pairs.items() if isinstance(pairs, dict) else pairs
    return tuple((str(key), _freeze(value)) for key, value in items)


def _canon(value):
    """Canonical JSON form for content addressing: floats via ``repr``."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    return value


def _jsonify(value):
    """JSON-ready form of a frozen field value: tuples become lists."""
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    return value


def _pairs(value) -> tuple[tuple[object, object], ...]:
    return tuple((key, item) for key, item in value)


def _integral(value) -> int:
    """``int`` that refuses to truncate: ``4.0`` loads, ``1.5`` does not."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("not an integer")
    return int(value)


#: Offered load is a fraction of the service's saturation throughput.  Ten
#: times saturation is far past any overload experiment; near 1e200 the
#: backlog model overflows.
_MAX_LOAD_FRACTION = 10.0

#: (field, check, what it must be): the timing and load a run can honour.
#: NaN fails every check.
_PHYSICAL = (
    (
        "load_fraction",
        lambda v: 0.0 <= v <= _MAX_LOAD_FRACTION,
        f"a number in [0, {_MAX_LOAD_FRACTION:g}]",
    ),
    ("monitor_epoch", lambda v: 0.0 < v < math.inf, "a finite number > 0"),
    ("decision_interval", lambda v: 0.0 < v < math.inf, "a finite number > 0"),
    ("horizon", lambda v: v > 0.0, "a number > 0"),
    ("slack_threshold", lambda v: 0.0 <= v < 1.0, "a number in [0, 1)"),
)

#: Marks a :meth:`Scenario.from_payload` field that has no default.
_REQUIRED = object()


@dataclass(frozen=True)
class Scenario:
    """One sweep coordinate: a colocation experiment as pure data.

    ``policy`` names a registered policy (see
    :data:`repro.sweep.engine.POLICY_REGISTRY`); ``policy_kwargs`` is a
    tuple of ``(name, value)`` pairs passed to its builder so the spec
    stays hashable and JSON-serializable.
    """

    service: str
    apps: tuple[str, ...]
    policy: str = "pliant"
    policy_kwargs: tuple[tuple[str, object], ...] = ()
    load_fraction: float = 0.775
    decision_interval: float = 1.0
    monitor_epoch: float = 0.1
    slack_threshold: float = 0.10
    horizon: float = 400.0
    seed: int = 0
    stop_when_apps_done: bool = True
    exploration_seed: int = 0
    loadgen_shape: str = "constant"
    loadgen_params: tuple[tuple[str, object], ...] = ()
    platform: str = "default"

    def __post_init__(self) -> None:
        object.__setattr__(self, "apps", _normalize_mix(self.apps))
        if not self.apps:
            raise ValueError("a scenario needs at least one approximate app")
        if len(set(self.apps)) != len(self.apps):
            raise ValueError(
                f"scenario field 'apps' names an app twice: {list(self.apps)}"
            )
        for name, holds, expected in _PHYSICAL:
            value = getattr(self, name)
            try:
                ok = holds(float(value))
            except (TypeError, ValueError, OverflowError):
                ok = False
            if not ok:
                raise ValueError(
                    f"scenario field {name!r} must be {expected}, got {value!r}"
                )
        if math.isinf(self.horizon) and not self.stop_when_apps_done:
            raise ValueError(
                "scenario field 'horizon' is infinite while "
                "stop_when_apps_done is False: the run would never end"
            )
        if not isinstance(self.stop_when_apps_done, bool):
            raise ValueError(
                f"scenario field 'stop_when_apps_done' must be a bool, "
                f"got {self.stop_when_apps_done!r}"
            )
        object.__setattr__(
            self, "policy_kwargs", _freeze_pairs(self.policy_kwargs)
        )
        object.__setattr__(
            self, "loadgen_params", _freeze_pairs(self.loadgen_params)
        )
        if self.loadgen_shape not in LOADGEN_SHAPES:
            raise ValueError(
                f"unknown loadgen shape {self.loadgen_shape!r} "
                f"(expected one of {', '.join(LOADGEN_SHAPES)})"
            )

    def has_default_loadgen(self) -> bool:
        """True when the scenario uses the legacy constant-load default."""
        return self.loadgen_shape == "constant" and not self.loadgen_params

    def config(self) -> ColocationConfig:
        """The engine config this scenario describes."""
        return ColocationConfig(
            load_fraction=self.load_fraction,
            decision_interval=self.decision_interval,
            monitor_epoch=self.monitor_epoch,
            horizon=self.horizon,
            seed=self.seed,
            stop_when_apps_done=self.stop_when_apps_done,
        )

    def key_payload(self) -> dict:
        """Canonical JSON-ready payload used for content addressing.

        New axes (``loadgen_*``, ``platform``) appear **only when they
        differ from their defaults**: a scenario that doesn't use them
        hashes exactly as it did before the axes existed, so the
        content-addressed cache stays hot across the API generalization.
        Pinned by the golden-payload test in ``tests/experiment``.
        """
        payload = {
            "service": self.service,
            "apps": list(self.apps),
            "policy": self.policy,
            "policy_kwargs": [[k, v] for k, v in self.policy_kwargs],
            "load_fraction": repr(float(self.load_fraction)),
            "decision_interval": repr(float(self.decision_interval)),
            "monitor_epoch": repr(float(self.monitor_epoch)),
            "slack_threshold": repr(float(self.slack_threshold)),
            "horizon": repr(float(self.horizon)),
            "seed": int(self.seed),
            "stop_when_apps_done": bool(self.stop_when_apps_done),
            "exploration_seed": int(self.exploration_seed),
        }
        if not self.has_default_loadgen():
            payload["loadgen"] = [
                self.loadgen_shape,
                [[k, _canon(v)] for k, v in self.loadgen_params],
            ]
        if self.platform != "default":
            payload["platform"] = self.platform
        return payload

    def to_payload(self) -> dict:
        """JSON-serializable form that :meth:`from_payload` inverts.

        This is how scenarios travel to remote workers through a job
        spool, so ``policy_kwargs`` values must themselves be
        JSON-serializable (tuples come back as lists — registered policy
        builders must accept either).
        """
        return {
            "service": self.service,
            "apps": list(self.apps),
            "policy": self.policy,
            "policy_kwargs": [[k, v] for k, v in self.policy_kwargs],
            "load_fraction": float(self.load_fraction),
            "decision_interval": float(self.decision_interval),
            "monitor_epoch": float(self.monitor_epoch),
            "slack_threshold": float(self.slack_threshold),
            "horizon": float(self.horizon),
            "seed": int(self.seed),
            "stop_when_apps_done": bool(self.stop_when_apps_done),
            "exploration_seed": int(self.exploration_seed),
            "loadgen_shape": self.loadgen_shape,
            "loadgen_params": [[k, _jsonify(v)] for k, v in self.loadgen_params],
            "platform": self.platform,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Scenario":
        """Rebuild a scenario from :meth:`to_payload` output.

        Strict about keys: anything this version doesn't know is an
        error, not a silent drop — a spec naming an axis we can't honor
        must fail loudly, never run the wrong experiment.  Keys the
        payload *omits* keep their defaults, so pre-axis payloads load.
        Payloads arrive from outside the program (spool job files, TCP
        submits, spec files), so every malformed one — missing or
        mistyped fields included — raises a ``ValueError`` naming the
        field.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"scenario payload must be an object, "
                f"got {type(payload).__name__}"
            )
        unknown = set(payload) - _SCENARIO_FIELDS
        if unknown:
            raise ValueError(
                f"unknown scenario field(s): {sorted(unknown)} "
                f"(known: {', '.join(sorted(_SCENARIO_FIELDS))})"
            )

        def field(name: str, coerce=None, default=_REQUIRED):
            if name not in payload:
                if default is _REQUIRED:
                    raise ValueError(
                        f"scenario payload lacks required field {name!r}"
                    )
                return default
            value = payload[name]
            try:
                return value if coerce is None else coerce(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(
                    f"scenario field {name!r} is malformed ({value!r}): {exc}"
                ) from None

        return cls(
            service=field("service"),
            apps=field("apps", _normalize_mix),
            policy=field("policy", default="pliant"),
            policy_kwargs=field("policy_kwargs", _pairs, ()),
            load_fraction=field("load_fraction", float, 0.775),
            decision_interval=field("decision_interval", float, 1.0),
            monitor_epoch=field("monitor_epoch", float, 0.1),
            slack_threshold=field("slack_threshold", float, 0.10),
            horizon=field("horizon", float, 400.0),
            seed=field("seed", _integral, 0),
            stop_when_apps_done=field("stop_when_apps_done", default=True),
            exploration_seed=field("exploration_seed", _integral, 0),
            loadgen_shape=field("loadgen_shape", default="constant"),
            loadgen_params=field("loadgen_params", _pairs, ()),
            platform=field("platform", default="default"),
        )

    def label(self) -> str:
        """Short human-readable identifier for logs and tables."""
        apps = "+".join(self.apps)
        label = (
            f"{self.service}/{apps}/{self.policy}"
            f"@{self.load_fraction:g}/dt{self.decision_interval:g}/s{self.seed}"
        )
        if not self.has_default_loadgen():
            label += f"/{self.loadgen_shape}"
        if self.platform != "default":
            label += f"/{self.platform}"
        return label


#: Every sweepable axis name — any :class:`Scenario` field can be an
#: :class:`~repro.experiment.ExperimentSpec` axis or payload key.
_SCENARIO_FIELDS = frozenset(f.name for f in fields(Scenario))


def scenario_field_names() -> frozenset[str]:
    """Names of every Scenario field (the open axis vocabulary)."""
    return _SCENARIO_FIELDS
