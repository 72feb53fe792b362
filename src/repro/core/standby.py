"""Standby master: the §III-C1 live-backup failover path.

The paper's master-failure story offers two recoveries: restart on the
same server, or "maintain a live-backup of the master running and
pre-list its address in the configuration file".  This module
implements the latter: a :class:`StandbyCoordinator` holds the primary
and can fail over to a fresh master that

* immediately starts accepting migration requests,
* re-registers every slave (whose local queues and buffers are
  untouched -- only *master* state was lost),
* rebuilds the memory directory from the slaves' actual pin state, and
* evicts orphaned buffers -- migrated blocks whose reference lists
  died with the primary ("slaves clean up their buffers", §III-C1);
  keeping them would leak memory since no job will ever release them.

The last two steps are :meth:`~repro.core.master.DyrsMaster.recover`,
the same code a master restarted in place runs.

Failover takes ``failover_delay`` simulated seconds (failure detection
plus client re-routing); during the gap migration requests are lost
and reads simply fall back to disk, the paper's stated worst case.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.core.master import DyrsConfig, DyrsMaster
from repro.obs import trace as obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dfs.heartbeat import HeartbeatService
    from repro.dfs.namenode import NameNode

__all__ = ["StandbyCoordinator"]


class StandbyCoordinator:
    """Manages a primary migration master and fails over to a standby.

    ``master_factory`` generalizes the coordinator beyond the flat
    DYRS master: any :class:`DyrsMaster` subclass works -- the
    storage-ladder :class:`~repro.lifecycle.LifecycleMaster` (whose
    teardown aborts in-flight tier moves via ``shutdown``), and the
    sharded
    :class:`~repro.shard.ShardCoordinator` (per-shard *internal*
    failover is the coordinator's own ``crash_shard``/
    ``recover_shard``; this class replaces the whole federation when
    the coordinator process itself dies).
    """

    def __init__(
        self,
        namenode: "NameNode",
        config: Optional[DyrsConfig] = None,
        failover_delay: float = 5.0,
        master_factory: Optional[
            Callable[["NameNode", DyrsConfig], DyrsMaster]
        ] = None,
    ) -> None:
        if failover_delay < 0:
            raise ValueError(f"failover_delay must be >= 0, got {failover_delay}")
        self.namenode = namenode
        self.sim = namenode.sim
        self.config = config or DyrsConfig()
        self.failover_delay = failover_delay
        self.master_factory = master_factory or DyrsMaster
        self.primary = self.master_factory(namenode, self.config)
        self.generation = 0
        #: (time, event) audit log.
        self.log: list[tuple[float, str]] = []

    # -- wiring ------------------------------------------------------------

    def attach_heartbeats(self, service: "HeartbeatService") -> None:
        self.primary.attach_heartbeats(service)

    def start(self) -> None:
        self.primary.start()

    # -- failover ------------------------------------------------------------

    def fail_primary(self) -> None:
        """The primary server dies: soft state gone, requests dropped."""
        self.primary.crash()
        self.log.append((self.sim.now, f"primary-gen{self.generation}-failed"))

    def fail_over(self) -> DyrsMaster:
        """Promote the standby after ``failover_delay``; returns it.

        Synchronous variant -- callers wanting the delay modeled should
        use :meth:`fail_over_after`.
        """
        old = self.primary
        # Pending records that never crossed to the new master must
        # still terminate (liveness): anything the dead primary was
        # holding unbound is discarded, exactly like a crash would --
        # and subclass shutdown hooks run too (the lifecycle master
        # aborts its in-flight tier moves here).
        old.shutdown(reason="failover")
        # Stop the dead master from harvesting future heartbeats.
        observers = self.namenode._heartbeat_observers
        if old.on_heartbeat in observers:
            observers.remove(old.on_heartbeat)

        self.generation += 1
        new = self.master_factory(self.namenode, self.config)  # claims migration_master
        for slave in old.slaves.values():
            slave.master = new
            new.register_slave(slave)
        self.namenode.add_heartbeat_observer(new.on_heartbeat)
        # Rebuild the directory from slave pin state and evict the
        # buffers whose reference lists died with the old primary.
        new.recover()
        # The park list died with the primary: wake each live slave
        # parked there, so it asks the new master at once and re-parks.
        for node_id in sorted(old._parked):
            signal = old._parked.pop(node_id)
            if new.slaves[node_id].alive and not signal.triggered:
                signal.succeed()

        self.primary = new
        self.log.append((self.sim.now, f"standby-gen{self.generation}-promoted"))
        obs.emit(obs.FAILOVER, self.sim.now, generation=self.generation)
        return new

    def fail_over_after(self) -> None:
        """Schedule promotion ``failover_delay`` seconds from now."""
        self.sim.call_at(self.sim.now + self.failover_delay, self.fail_over)
