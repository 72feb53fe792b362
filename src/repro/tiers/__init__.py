"""Tiered-storage vocabulary: the rungs, temperatures and policies.

This package generalizes DYRS's two-level disk->memory migration into
a storage ladder (archive < disk < ssd < memory):

* :mod:`repro.tiers.tier` -- the rung order and each rung's nominal
  read cost on a node;
* :mod:`repro.tiers.temperature` -- per-block EWMA access tracking and
  the hot/warm/cold classification;
* :mod:`repro.tiers.policy` -- pure placement policies (temperature
  ladder, cost-benefit).

The engine that runs them is :class:`repro.lifecycle.LifecycleMaster`,
configured by :class:`repro.lifecycle.TierConfig`.

The package is an *extension*, not part of the reproduction: no scheme
the paper evaluates touches it, and a system built without a tier
scheme (``"dyrs-tiered"`` or ``"dyrs-lifecycle"``) creates none of its
objects.
"""

from repro.tiers.policy import (
    CostBenefitPolicy,
    PlacementContext,
    ThresholdPolicy,
    TierPolicy,
)
from repro.tiers.temperature import Temperature, TemperatureTracker
from repro.tiers.tier import TIER_ORDER, is_promotion, rung_read_seconds

__all__ = [
    "TIER_ORDER",
    "CostBenefitPolicy",
    "PlacementContext",
    "Temperature",
    "TemperatureTracker",
    "ThresholdPolicy",
    "TierPolicy",
    "is_promotion",
    "rung_read_seconds",
]
