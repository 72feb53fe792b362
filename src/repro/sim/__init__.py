"""Discrete-event simulation kernel for the DYRS reproduction.

This subpackage implements a small, deterministic, generator-based
discrete-event simulation engine in the style of SimPy, plus the
resource primitives the cluster model is built from:

* :mod:`repro.sim.events` -- events, timeouts, and condition events.
* :mod:`repro.sim.engine` -- the :class:`~repro.sim.engine.Simulator`
  (clock + event heap + run loop).
* :mod:`repro.sim.process` -- generator-based processes with
  interrupt support.
* :mod:`repro.sim.bandwidth` -- a fair-share (processor-sharing)
  bandwidth resource with a configurable concurrency (seek) penalty;
  this is the model for disks and NICs.  It tracks a virtual-time
  service integral, so a flow membership change costs O(log k).
* :mod:`repro.sim.rng` -- seeded random-stream management so every
  experiment is reproducible bit-for-bit.

The engine is intentionally self-contained: the rest of the library
never imports SimPy or any other external DES package.
"""

from repro.sim.engine import Simulator
from repro.sim.events import (
    AllOf,
    Event,
    EventAlreadyTriggered,
    Timeout,
)
from repro.sim.process import Interrupt, Process
from repro.sim.bandwidth import BandwidthResource, Flow, FlowCancelled
from repro.sim.rng import RngRegistry

__all__ = [
    "AllOf",
    "BandwidthResource",
    "Event",
    "EventAlreadyTriggered",
    "Flow",
    "FlowCancelled",
    "Interrupt",
    "Process",
    "RngRegistry",
    "Simulator",
    "Timeout",
]
