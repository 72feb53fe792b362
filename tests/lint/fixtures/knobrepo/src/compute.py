"""Miniature execution-environment config for the CFG601 fixture tree."""

from dataclasses import dataclass


@dataclass(frozen=True)
class ComputeConfig:
    good_compute_knob: float = 1.0
    bad_compute_knob: bool = False
