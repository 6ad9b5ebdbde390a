#!/usr/bin/env python
"""Quickstart: offload an actor onto a simulated SmartNIC with iPipe.

Builds one server (a 12-core LiquidIOII CN2350 behind a 10GbE ToR), sets
up a key-value cache actor on the NIC, drives it with closed-loop
clients, and prints latency/throughput plus where the work ran.

Run:  python examples/quickstart.py
"""

from repro.apps.microbench import KvCache
from repro.core import Actor, SchedulerConfig
from repro.experiments.testbed import make_testbed
from repro.nic import LIQUIDIO_CN2350, WorkloadProfile
from repro.sim import Rng


def make_cache_handler(cache: KvCache):
    """The actor's exec_handler: real cache ops + Table-3 timing."""

    def handler(actor, msg, ctx):
        # charge the measured KV-cache cost for this device (Table 3)
        yield ctx.compute()
        op = msg.payload["op"]
        key = msg.payload["key"].encode()
        if op == "set":
            cache.write(key, msg.payload["value"].encode())
            ctx.reply(msg, payload={"status": "stored"}, size=64)
        else:
            value = cache.read(key)
            ctx.reply(msg, payload={"value": value}, size=msg.size)

    return handler


def main() -> None:
    bed = make_testbed(bandwidth_gbps=10)
    server = bed.add_server("server", LIQUIDIO_CN2350,
                            config=SchedulerConfig())
    cache = KvCache(capacity_bytes=1 << 20)
    actor = Actor("kv-cache", make_cache_handler(cache),
                  profile=WorkloadProfile("kv_cache", 3.7, 1.2, 0.9),
                  concurrent=True)
    server.runtime.register_actor(actor, steering_keys=["data"])

    rng = Rng(7)

    def payload(i: int):
        if rng.random() < 0.1:
            return {"op": "set", "key": f"k{i % 500}", "value": "v" * 64}
        return {"op": "get", "key": f"k{rng.randint(0, 499)}"}

    client = bed.add_client("client")
    gen = client.closed_loop(dst="server", clients=16, size=256,
                             payload_factory=payload)
    bed.sim.run(until=50_000.0)  # 50 ms of virtual time
    gen.stop()
    server.runtime.stop()

    elapsed_ms = bed.sim.now / 1000.0
    print(f"simulated {elapsed_ms:.0f} ms of a 10GbE rack")
    print(f"completed: {gen.answered} requests "
          f"({gen.answered / bed.sim.now:.2f} Mop/s)")
    print(f"latency:   mean {gen.latency.mean:.1f} µs, "
          f"p99 {gen.latency.p99:.1f} µs")
    print(f"cache:     {len(cache)} keys, hit ratio {cache.hit_ratio:.2f}")
    print(f"placement: actor on {actor.location.value}, "
          f"NIC cores busy {server.runtime.nic_cores_used(bed.sim.now):.2f}, "
          f"host cores busy {server.runtime.host_cores_used(bed.sim.now):.2f}")


if __name__ == "__main__":
    main()
