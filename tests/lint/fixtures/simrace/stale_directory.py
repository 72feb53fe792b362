"""SIM501 over the NameNode's residency directory: a holder read from
the directory before a yield may have crashed or lost its copy by the
time the generator resumes; the guarded variant is the sanctioned fix."""


class ExpiringMaster:
    def _expire(self, block_id):
        node_id = self.namenode.directory["ssd"].get(block_id)
        yield self.sim.timeout(self.interval)
        self.namenode.datanodes[node_id].unpin("ssd", block_id)  # stale holder

    def _expire_guarded(self, block_id):
        node_id = self.namenode.directory["ssd"].get(block_id)
        yield self.sim.timeout(self.interval)
        if node_id is None or not self.namenode.is_available(node_id):
            return
        self.namenode.datanodes[node_id].unpin("ssd", block_id)  # legal: re-checked
