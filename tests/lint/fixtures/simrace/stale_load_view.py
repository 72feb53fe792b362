"""SIM501 over the DYRS master's heartbeat-harvest view: a slave the
master saw copying before a yield may have crashed by the time the
generator resumes; the guarded variant re-checks liveness first."""


class HarvestingMaster:
    def _refresh_copying(self, node_id):
        copying = node_id in self._copying_slaves
        yield self.sim.timeout(self.interval)
        if copying:  # stale: the slave may have crashed meanwhile
            self.slaves[node_id].heartbeat_load()

    def _refresh_copying_guarded(self, node_id):
        copying = node_id in self._copying_slaves
        yield self.sim.timeout(self.interval)
        slave = self.slaves[node_id]
        if not slave.alive:
            return
        if copying:  # legal: liveness re-checked
            slave.heartbeat_load()
