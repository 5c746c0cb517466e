"""Baseline and ablation policies.

* :class:`PrecisePolicy` — the paper's baseline: static fair allocation,
  precise execution, no runtime reaction (and no instrumentation overhead).
* :class:`StaticMostApproxPolicy` — ablation: jump every app to its most
  approximate variant immediately and stay there; never touch cores.
* :class:`StaticLevelPolicy` — pin chosen per-app levels (used by the
  Fig. 1 even-row experiments that colocate one fixed variant at a time).
* :class:`CoreReclaimOnlyPolicy` — ablation: the Fig. 3 loop with the
  approximation lever removed; only cores move.
"""

from __future__ import annotations

from repro.core.actuator import Actuator
from repro.core.monitor import IntervalObservation
from repro.core.policy import RuntimePolicy


class PrecisePolicy(RuntimePolicy):
    """Do nothing: precise execution on the static fair allocation."""

    requires_instrumentation = False
    name = "precise"

    def on_interval(self, obs: IntervalObservation, actuator: Actuator) -> None:
        return


class StaticMostApproxPolicy(RuntimePolicy):
    """Pin every app at its most approximate variant from the start."""

    requires_instrumentation = True
    name = "static-most-approx"

    def __init__(self) -> None:
        self._applied = False

    def on_interval(self, obs: IntervalObservation, actuator: Actuator) -> None:
        if self._applied:
            return
        for name in actuator.running_apps():
            actuator.set_level(name, actuator.app_view(name).max_level)
        self._applied = True


class StaticLevelPolicy(RuntimePolicy):
    """Pin specific approximation levels per app (Fig. 1 static variants)."""

    requires_instrumentation = True
    name = "static-level"

    def __init__(self, levels: dict[str, int]) -> None:
        self._levels = dict(levels)
        self._applied = False

    def on_interval(self, obs: IntervalObservation, actuator: Actuator) -> None:
        if self._applied:
            return
        for name, level in self._levels.items():
            if name in actuator.running_apps():
                actuator.set_level(name, level)
        self._applied = True


class CoreReclaimOnlyPolicy(RuntimePolicy):
    """Ablation: react to QoS with cores only, never with approximation."""

    requires_instrumentation = False
    name = "core-reclaim-only"

    def __init__(self, slack_threshold: float = 0.10) -> None:
        self.slack_threshold = slack_threshold

    def on_interval(self, obs: IntervalObservation, actuator: Actuator) -> None:
        apps = [actuator.app_view(name) for name in actuator.running_apps()]
        if not apps:
            return
        if not obs.qos_met:
            candidates = [a for a in apps if a.cores > 1]
            if candidates:
                # Take from the app with the most cores remaining.
                target = max(candidates, key=lambda a: (a.cores, a.name))
                actuator.reclaim_core(target.name)
        elif obs.slack > self.slack_threshold:
            reclaimed = [a for a in apps if a.reclaimed > 0]
            if reclaimed:
                target = max(reclaimed, key=lambda a: (a.reclaimed, a.name))
                actuator.return_core(target.name)
