"""Shared-resource contention model.

Combines the resource profiles of all tenants on a node into *pressure*
values for each shared resource; interactive services convert pressures into
service-time inflation through per-service sensitivities
(:class:`repro.services.base.InterferenceSensitivity`), and approximate
applications into a slowdown of their own progress.

Modeling choices
----------------
LLC: aggressors pollute the victim's cache at a rate proportional to their
footprint x access intensity relative to the LLC size (a linearized
proportional-occupancy model).  The victim's own access intensity weighs how
much it cares.  Pollution scales sublinearly with the aggressor's core count
(more cores touch the working set faster, with diminishing overlap).

Memory bandwidth: two components.  A *linear* term — the aggressors' share
of bus utilization — captures the steady rise of memory access latency with
bus load; a *quadratic overload* term kicks in when total utilization passes
a knee, capturing memory-controller queueing near saturation.  The quadratic
term is what makes small traffic reductions from approximation so effective
when the bus is nearly saturated.

Disk / network: same linear + overload shape on the respective capacities.

Pressures are *marginal*: the victim's own contribution is subtracted,
because each service's latency curve is calibrated against isolation runs.
Core contention is absent by construction — tenants are pinned to disjoint
physical cores, as in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.server.platform import Platform
from repro.server.resources import ResourceProfile

#: Reference core count for LLC pollution-rate scaling (the nominal fair
#: share of one tenant in the paper's single-app colocations).
_REFERENCE_CORES = 8

#: Bus utilization where overload queueing starts.
_OVERLOAD_KNEE = 0.60


@dataclass(frozen=True)
class PressureBreakdown:
    """Per-resource marginal contention pressure felt by one tenant."""

    llc: float = 0.0
    membw_linear: float = 0.0
    membw_overload: float = 0.0
    disk: float = 0.0
    network: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.llc
            + self.membw_linear
            + self.membw_overload
            + self.disk
            + self.network
        )


def _overload(utilization: float, knee: float = _OVERLOAD_KNEE) -> float:
    """Quadratic queueing pressure above the ``knee`` utilization."""
    if utilization <= knee:
        return 0.0
    return ((utilization - knee) / (1.0 - knee)) ** 2


#: One tenant's contribution as an aggressor: (LLC pollution rate, memory
#: bandwidth, disk bandwidth, network bandwidth).
Terms = tuple[float, float, float, float]


class InterferenceModel:
    """Computes contention pressures for tenants sharing a platform.

    A pressure is built from two kinds of pieces.  :meth:`terms` is one
    aggressor's contribution and depends only on its own profile and
    cores; :meth:`reduce` folds the aggressors' terms, in node order, into
    the four sums a victim feels; :meth:`pressure` turns those sums into
    the victim's marginal pressure.  :meth:`pressure_on` composes all
    three, so a caller that keeps terms or sums between calls computes the
    same floats.
    """

    def __init__(self, platform: Platform) -> None:
        self._platform = platform

    def terms(self, profile: ResourceProfile, cores: int) -> Terms | None:
        """What a tenant on ``cores`` cores exerts on others (None if idle)."""
        if cores <= 0:
            return None
        rate_scale = math.sqrt(cores / _REFERENCE_CORES)
        return (
            profile.llc_footprint_bytes * profile.llc_intensity * rate_scale,
            profile.total_membw(cores),
            profile.disk_bw,
            profile.network_bw,
        )

    def llc_pollution(self, rates: Iterable[float]) -> float:
        """Cache pollution (fraction of LLC) of aggressors with LLC ``rates``."""
        llc = self._platform.llc_bytes
        if llc <= 0:
            return 0.0
        demand = 0.0
        for rate in rates:
            demand += rate
        return min(1.5, demand / llc)

    def reduce(self, terms: list[Terms]) -> Terms:
        """The aggressors' LLC pollution and summed bandwidth demands."""
        return (
            self.llc_pollution(t[0] for t in terms),
            sum(t[1] for t in terms),
            sum(t[2] for t in terms),
            sum(t[3] for t in terms),
        )

    def membw_pressure(self, own_bw: float, aggressor_bw: float) -> tuple[float, float]:
        """(linear, overload) memory-bandwidth pressure on a victim using ``own_bw``."""
        capacity = self._platform.memory_bandwidth
        total_util = (own_bw + aggressor_bw) / capacity if capacity > 0 else 0.0
        own_util = own_bw / capacity if capacity > 0 else 0.0
        return (
            max(0.0, total_util - own_util),
            max(0.0, _overload(total_util) - _overload(own_util)),
        )

    def pressure(
        self, victim: ResourceProfile, victim_cores: int, aggressors: Terms
    ) -> PressureBreakdown:
        """Marginal pressure on ``victim`` from the :meth:`reduce`-d ``aggressors``."""
        pollution, membw, disk, network = aggressors
        membw_linear, membw_overload = self.membw_pressure(
            victim.total_membw(victim_cores), membw
        )
        return PressureBreakdown(
            llc=pollution * victim.llc_intensity,
            membw_linear=membw_linear,
            membw_overload=membw_overload,
            disk=self.bw_pressure(victim.disk_bw, disk, self._platform.disk_bandwidth),
            network=self.bw_pressure(
                victim.network_bw, network, self._platform.network_bandwidth
            ),
        )

    def pressure_on(
        self,
        victim: ResourceProfile,
        victim_cores: int,
        aggressors: list[tuple[ResourceProfile, int]],
    ) -> PressureBreakdown:
        """Marginal pressure the ``aggressors`` exert on ``victim``."""
        terms = [self.terms(profile, cores) for profile, cores in aggressors]
        return self.pressure(
            victim, victim_cores, self.reduce([t for t in terms if t is not None])
        )

    @staticmethod
    def bw_pressure(
        victim_demand: float, aggressor_demand: float, capacity: float
    ) -> float:
        """Linear + overload pressure on a simple shared-bandwidth resource."""
        if capacity <= 0:
            return 0.0
        own = victim_demand / capacity
        total = (victim_demand + aggressor_demand) / capacity
        linear = max(0.0, total - own)
        overload = max(0.0, _overload(total) - _overload(own))
        return linear + overload
