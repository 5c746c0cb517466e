"""Mix enumeration and outcome breakdowns for the evaluation figures.

Load and decision-interval sweeps (Figs. 8 and 9) are one-axis
:class:`repro.experiment.ExperimentSpec` runs; this module keeps the
pieces the figure drivers share beyond the spec: the k-way app mixes of
Figs. 7/10 and the Fig. 10 escalation breakdown.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.runtime import ColocationResult
from repro.rng import child_generator


def combination_mixes(
    app_names: tuple[str, ...],
    k: int,
    sample: int | None = None,
    seed: int = 0,
) -> list[tuple[str, ...]]:
    """All k-way app mixes, optionally subsampled deterministically.

    The paper examines every 2- and 3-way combination of the 24 apps;
    ``sample`` bounds the cost for routine runs (the full set stays
    available by passing ``None``).
    """
    mixes = list(itertools.combinations(app_names, k))
    if sample is None or sample >= len(mixes):
        return mixes
    rng = child_generator(seed, f"mixes/{k}")
    chosen = rng.choice(len(mixes), size=sample, replace=False)
    return [mixes[i] for i in sorted(chosen)]


@dataclass(frozen=True)
class OutcomeBreakdown:
    """Fig. 10: how far Pliant had to escalate per colocation."""

    approx_only: int = 0
    one_core: int = 0
    two_cores: int = 0
    three_cores: int = 0
    four_plus_cores: int = 0

    @property
    def total(self) -> int:
        return (
            self.approx_only
            + self.one_core
            + self.two_cores
            + self.three_cores
            + self.four_plus_cores
        )

    def fractions(self) -> dict[str, float]:
        total = max(self.total, 1)
        return {
            "approx_only": self.approx_only / total,
            "1_core": self.one_core / total,
            "2_cores": self.two_cores / total,
            "3_cores": self.three_cores / total,
            "4+_cores": self.four_plus_cores / total,
        }


def breakdown_outcomes(results: list[ColocationResult]) -> OutcomeBreakdown:
    """Classify runs by the escalation Pliant needed in steady state."""
    counts = [0, 0, 0, 0, 0]
    for result in results:
        bucket = min(result.sustained_cores_reclaimed(), 4)
        counts[bucket] += 1
    return OutcomeBreakdown(
        approx_only=counts[0],
        one_core=counts[1],
        two_cores=counts[2],
        three_cores=counts[3],
        four_plus_cores=counts[4],
    )
