#!/usr/bin/env python
"""Real-time analytics pipeline (§4's RTA app) with adaptive offload.

Three worker servers run the filter → counter → ranker pipeline on their
SmartNICs; per-worker rankings aggregate on worker0.  The script pushes
a synthetic Twitter stream, then overloads the system with small packets
to show iPipe migrating actors to the host and pulling them back.

Run:  python examples/analytics_pipeline.py
"""

from repro.apps.rta import RtaWorkerNode
from repro.core import SchedulerConfig
from repro.core.actor import Location
from repro.experiments.testbed import make_testbed
from repro.nic import LIQUIDIO_CN2350
from repro.sim import Rng
from repro.workloads import TwitterWorkload

WORKERS = ("worker0", "worker1", "worker2")


def placement(workers) -> str:
    return " ".join(
        f"{name}:{actor.location.value[0]}"
        for name, node in workers.items()
        for actor in (node.filter_actor, node.counter_actor))


def main() -> None:
    bed = make_testbed(bandwidth_gbps=10)
    workers = {}
    for name in WORKERS:
        server = bed.add_server(name, LIQUIDIO_CN2350, config=SchedulerConfig())
        workers[name] = RtaWorkerNode(server.runtime, aggregate_node="worker0")

    workload = TwitterWorkload(packet_size=512, seed=17)
    gen = bed.add_client("feed").open_loop(
        dst="worker0", rate_mpps=1.0, size=512,
        payload_factory=lambda i: workload.next_request(i)["tuples"] and
        {"tuples": workload.next_request(i)["tuples"]},
        rng=Rng(3))
    runtime = bed.server("worker0").runtime
    original = runtime.on_packet

    def routed(packet, original=original):
        packet.kind = "rta-tuple"
        original(packet)

    bed.server("worker0").nic.packet_handler = routed

    print("phase 1: moderate 512B stream at 1.0 Mpps")
    bed.sim.run(until=20_000.0)
    w0 = workers["worker0"]
    print(f"  tuples in: {w0.tuples_in}, passed filter: {w0.filter.passed}, "
          f"discarded: {w0.filter.discarded}")
    print(f"  actor placement: {placement(workers)}")
    print(f"  top-3 ranking: {w0.top[:3]}")

    print("phase 2: overload burst (4.5 Mpps of small packets)")
    gen.rate_per_us = 4.5
    bed.sim.run(until=45_000.0)
    sched = runtime.nic_scheduler
    print(f"  scheduler: {sched.pushes} push / {sched.pulls} pull migrations, "
          f"{sched.downgrades} downgrades, {sched.upgrades} upgrades")
    print(f"  actor placement: {placement(workers)}")
    print(f"  host cores busy: {runtime.host_cores_used(bed.sim.now):.2f}")

    print("phase 3: load drops back to 0.3 Mpps")
    gen.rate_per_us = 0.3
    bed.sim.run(until=90_000.0)
    print(f"  scheduler: {sched.pushes} push / {sched.pulls} pull migrations")
    print(f"  actor placement: {placement(workers)}")
    on_nic = sum(1 for node in workers.values()
                 for a in (node.filter_actor, node.counter_actor)
                 if a.location is Location.NIC)
    print(f"  {on_nic}/6 pipeline actors back on the NICs")
    gen.stop()
    for name in WORKERS:
        bed.server(name).runtime.stop()


if __name__ == "__main__":
    main()
