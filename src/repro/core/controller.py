"""The Fig. 3 single-application state machine.

State is (approximation level, reclaimed cores).  Transitions:

* QoS violated, level below max      -> jump to the MOST approximate level
  (including from intermediate levels — "it immediately reverts to its most
  approximate variant").
* QoS violated, already at max level -> reclaim one core (if any remain).
* QoS met with slack > threshold     -> undo: return a reclaimed core
  first; once all cores are back, step one level toward precise.
* QoS met without sufficient slack   -> hold state.

:class:`PliantController` is the Fig. 3 reference:
:class:`~repro.core.policy.PliantPolicy` runs the same loop through an
arbiter (Section 4.4), and a differential test holds its single-app
transitions to this machine's.  :class:`ControllerAction` is the
vocabulary arbiters state their decisions in.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ControllerAction(enum.Enum):
    """What the controller decided this interval."""

    HOLD = "hold"
    JUMP_TO_MOST_APPROX = "jump_to_most_approx"
    RECLAIM_CORE = "reclaim_core"
    RETURN_CORE = "return_core"
    STEP_TOWARD_PRECISE = "step_toward_precise"


@dataclass
class PliantController:
    """Single-app Pliant decision logic (paper Fig. 3)."""

    max_level: int
    max_reclaimable: int
    slack_threshold: float = 0.10
    level: int = 0
    reclaimed: int = 0

    def __post_init__(self) -> None:
        if self.max_level < 0:
            raise ValueError("max_level must be non-negative")
        if self.max_reclaimable < 0:
            raise ValueError("max_reclaimable must be non-negative")
        if not 0.0 <= self.slack_threshold < 1.0:
            raise ValueError("slack_threshold must lie in [0, 1)")

    def decide(self, qos_met: bool, slack: float) -> ControllerAction:
        """Advance the state machine one decision interval."""
        if not qos_met:
            if self.level < self.max_level:
                self.level = self.max_level
                return ControllerAction.JUMP_TO_MOST_APPROX
            if self.reclaimed < self.max_reclaimable:
                self.reclaimed += 1
                return ControllerAction.RECLAIM_CORE
            return ControllerAction.HOLD
        if slack > self.slack_threshold:
            if self.reclaimed > 0:
                self.reclaimed -= 1
                return ControllerAction.RETURN_CORE
            if self.level > 0:
                self.level -= 1
                return ControllerAction.STEP_TOWARD_PRECISE
        return ControllerAction.HOLD
