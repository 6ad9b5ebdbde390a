#!/usr/bin/env python
"""Replicated key-value store on three SmartNIC servers (§4's RKV app).

A leader and two followers run Multi-Paxos consensus and LSM-tree actors
on their NICs; SSTable reads and compaction stay pinned to the hosts.
The script loads data, drives the 95/5 zipf workload, and reports where
requests were served and what consensus cost.

Run:  python examples/rkv_cluster.py
"""

from repro.apps.rkv import RkvNode
from repro.core import SchedulerConfig
from repro.experiments.testbed import make_testbed
from repro.nic import LIQUIDIO_CN2350
from repro.sim import Rng
from repro.workloads import KvWorkload

NODES = ("leader", "follower1", "follower2")


def main() -> None:
    bed = make_testbed(bandwidth_gbps=10)
    nodes = {}
    for name in NODES:
        server = bed.add_server(name, LIQUIDIO_CN2350,
                                config=SchedulerConfig())
        peers = [n for n in NODES if n != name]
        nodes[name] = RkvNode(server.runtime, peers, initial_leader="leader")

    workload = KvWorkload(packet_size=512, seed=11)
    for node in nodes.values():
        node.prefill(4000, workload.value_bytes)

    gen = bed.add_client("client").closed_loop(
        dst="leader", clients=32, size=512,
        payload_factory=lambda i: workload.next_request(i), rng=Rng(5))

    bed.sim.run(until=40_000.0)
    gen.stop()
    for name in NODES:
        bed.server(name).runtime.stop()

    leader = nodes["leader"]
    print(f"completed {gen.answered} ops in {bed.sim.now / 1000:.0f} ms "
          f"({gen.answered / bed.sim.now:.2f} Mop/s)")
    print(f"latency: mean {gen.latency.mean:.1f} µs, p99 {gen.latency.p99:.1f} µs")
    print(f"workload: {workload.reads} reads / {workload.writes} writes issued")
    print(f"reads served by NIC memtable: {leader.reads_served_memtable}, "
          f"by host SSTables: {leader.reads_served_sstable}, "
          f"not found: {leader.not_found}")
    print(f"paxos: {leader.paxos.committed_count} instances committed on the "
          f"leader, {nodes['follower1'].paxos.committed_count} on follower1")
    print(f"LSM: {leader.storage.lsm.stats.flushes} memtable flushes, "
          f"{leader.storage.lsm.stats.major_compactions} major compactions")
    for name in NODES:
        runtime = bed.server(name).runtime
        print(f"{name:10s} NIC cores {runtime.nic_cores_used(bed.sim.now):5.2f}  "
              f"host cores {runtime.host_cores_used(bed.sim.now):5.2f}")


if __name__ == "__main__":
    main()
