"""Miniature storage-ladder config for the CFG601 fixture tree."""

from dataclasses import dataclass


@dataclass(frozen=True)
class TierConfig:
    good_tier_knob: float = 1.0
    bad_tier_knob: int = 0
