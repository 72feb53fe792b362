"""DYRS: the paper's contribution, plus the baselines it is compared to.

Layout:

* :mod:`repro.core.records` -- migration bookkeeping records;
* :mod:`repro.core.estimator` -- the EWMA migration-time estimator
  with in-progress refresh (§IV-A);
* :mod:`repro.core.targeting` -- Algorithm 1, greedy min-finish-time
  replica targeting (§III-A2);
* :mod:`repro.core.eviction` -- reference lists and explicit/implicit
  eviction (§III-C3, §IV-A1);
* :mod:`repro.core.master` -- the DYRS master (delayed binding, pull
  protocol, retargeting loop);
* :mod:`repro.core.slave` -- the DYRS slave (serialized migrations,
  local queue, the load each heartbeat reports);
* :mod:`repro.core.policies` -- pending-queue ordering policies (FIFO
  per the paper, plus the future-work alternatives);
* :mod:`repro.core.baselines` -- Ignem, the naive balancer, and the
  instant-migration hypothetical;
* :mod:`repro.core.failures` -- master/slave failure & recovery
  drivers (§III-C).
"""

from repro.core.records import (
    BindingEvent,
    MigrationRecord,
    MigrationStatus,
)
from repro.core.estimator import MigrationTimeEstimator
from repro.core.targeting import SlaveLoad, compute_targets
from repro.core.eviction import ReferenceTracker
from repro.core.policies import (
    FifoPolicy,
    LifoPolicy,
    MigrationPolicy,
    PriorityPolicy,
    SmallestJobFirstPolicy,
)
from repro.core.master import DyrsConfig, DyrsMaster
from repro.core.slave import DyrsSlave
from repro.core.baselines import IgnemMaster, InstantMigrator, NaiveBalancerMaster
from repro.core.base import MigrationMaster, RecordLedger
from repro.core.failures import FailureInjector
from repro.core.standby import StandbyCoordinator

__all__ = [
    "BindingEvent",
    "DyrsConfig",
    "DyrsMaster",
    "DyrsSlave",
    "FailureInjector",
    "FifoPolicy",
    "IgnemMaster",
    "InstantMigrator",
    "LifoPolicy",
    "MigrationMaster",
    "MigrationPolicy",
    "MigrationRecord",
    "MigrationStatus",
    "MigrationTimeEstimator",
    "NaiveBalancerMaster",
    "PriorityPolicy",
    "RecordLedger",
    "ReferenceTracker",
    "SlaveLoad",
    "SmallestJobFirstPolicy",
    "StandbyCoordinator",
    "compute_targets",
]
