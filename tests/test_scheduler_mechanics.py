"""Focused tests for the hybrid scheduler's adaptation mechanics."""

import pytest

from repro.core import Actor, SchedulerConfig
from repro.core.actor import Location
from repro.experiments.testbed import make_testbed
from repro.nic import LIQUIDIO_CN2350, STINGRAY_PS225, WorkloadProfile
from repro.sim import Rng, Timeout


def _service_handler(service_us):
    def handler(actor, msg, ctx):
        yield Timeout(service_us)
        if msg.packet is not None:
            ctx.reply(msg, size=64)
    return handler


def _build(bed, config, actors):
    server = bed.add_server("server", LIQUIDIO_CN2350, config=config)
    for name, service in actors:
        actor = Actor(name, _service_handler(service), concurrent=True,
                      profile=WorkloadProfile(name, service, 1.2, 0.8))
        server.runtime.register_actor(actor, steering_keys=[name])
    return server


def test_downgrade_picks_highest_dispersion_actor():
    bed = make_testbed()
    config = SchedulerConfig(tail_thresh_us=8.0, adapt_cooldown_us=100.0,
                             migration_enabled=False, autoscale=True)
    server = _build(bed, config, [("short", 3.0), ("long", 80.0)])
    client = bed.add_client("client")
    rng = Rng(1)

    def payload(i):
        return None

    # mixed traffic: the long actor inflates waits
    gen_short = client.open_loop(dst="server", rate_mpps=0.9, size=256,
                                 rng=rng)
    gen_long = client.open_loop(dst="server", rate_mpps=0.08, size=256,
                                rng=rng.fork(2))
    # steer the two streams to their actors
    runtime = server.runtime
    orig = runtime.on_packet
    toggle = {"n": 0}

    def routed(packet):
        toggle["n"] += 1
        packet.kind = "long" if toggle["n"] % 10 == 0 else "short"
        orig(packet)

    server.nic.packet_handler = routed
    bed.sim.run(until=30_000.0)
    gen_short.stop()
    gen_long.stop()
    sched = runtime.nic_scheduler
    long_actor = runtime.actors.lookup("long")
    short_actor = runtime.actors.lookup("short")
    assert sched.downgrades >= 1
    # the long (high dispersion) actor lands in DRR before the short one
    assert long_actor.is_drr or long_actor.location is Location.HOST
    assert not short_actor.is_drr or long_actor.is_drr


def test_upgrade_returns_actor_when_tail_recovers():
    bed = make_testbed()
    config = SchedulerConfig(tail_thresh_us=20.0, adapt_cooldown_us=100.0,
                             migration_enabled=False, autoscale=True)
    server = _build(bed, config, [("svc", 30.0)])
    runtime = server.runtime
    client = bed.add_client("client")
    gen = client.open_loop(dst="server", rate_mpps=0.35, size=256, rng=Rng(2))

    def routed(packet, orig=runtime.on_packet):
        packet.kind = "svc"
        orig(packet)

    server.nic.packet_handler = routed
    bed.sim.run(until=20_000.0)
    gen.stop()
    # after the burst, waits recover; the actor should be upgraded back
    bed.sim.run(until=60_000.0)
    actor = runtime.actors.lookup("svc")
    sched = runtime.nic_scheduler
    if sched.downgrades:
        assert sched.upgrades >= 1
        assert not actor.is_drr
        assert not sched.drr_runnable


def test_autoscale_grows_and_shrinks_drr_group():
    bed = make_testbed()
    config = SchedulerConfig(tail_thresh_us=10.0, adapt_cooldown_us=50.0,
                             migration_enabled=False, autoscale=True,
                             util_window_us=300.0)
    server = _build(bed, config, [("heavy", 60.0)])
    runtime = server.runtime
    client = bed.add_client("client")
    gen = client.open_loop(dst="server", rate_mpps=0.18, size=256, rng=Rng(3))

    def routed(packet, orig=runtime.on_packet):
        packet.kind = "heavy"
        orig(packet)

    server.nic.packet_handler = routed
    bed.sim.run(until=30_000.0)
    sched = runtime.nic_scheduler
    grew = sched.drr_cores()
    assert sched.core_moves >= 1
    assert grew >= 1
    # core 0 is the management core and must stay FCFS
    assert sched.core_mode[0] == "fcfs"
    gen.stop()
    bed.sim.run(until=90_000.0)
    # with traffic gone the DRR group should have collapsed
    assert sched.drr_cores() <= grew


def test_off_path_stingray_uses_software_queue():
    bed = make_testbed(bandwidth_gbps=25)
    server = bed.add_server("server", STINGRAY_PS225,
                            config=SchedulerConfig(migration_enabled=False))
    assert not server.nic.traffic_manager.hardware
    from repro.nic.calibration import SW_SHARED_QUEUE_SYNC_US
    assert server.nic.traffic_manager.dequeue_sync_us == SW_SHARED_QUEUE_SYNC_US

    actor = Actor("echo", _service_handler(2.0), concurrent=True,
                  profile=WorkloadProfile("echo", 2.0, 1.2, 0.5))
    server.runtime.register_actor(actor, steering_keys=["data"])
    client = bed.add_client("client")
    gen = client.closed_loop(dst="server", clients=4, size=256)
    bed.sim.run(until=5_000.0)
    gen.stop()
    assert gen.answered > 100


def test_min_fcfs_cores_respected():
    bed = make_testbed()
    config = SchedulerConfig(tail_thresh_us=1.0, adapt_cooldown_us=10.0,
                             migration_enabled=False, autoscale=True,
                             util_window_us=200.0, min_fcfs_cores=2)
    server = _build(bed, config, [("a", 40.0), ("b", 40.0)])
    runtime = server.runtime
    client = bed.add_client("client")
    toggle = {"n": 0}

    def routed(packet, orig=runtime.on_packet):
        toggle["n"] += 1
        packet.kind = "a" if toggle["n"] % 2 else "b"
        orig(packet)

    server.nic.packet_handler = routed
    gen = client.open_loop(dst="server", rate_mpps=0.27, size=256, rng=Rng(4))
    bed.sim.run(until=40_000.0)
    gen.stop()
    assert runtime.nic_scheduler.fcfs_cores() >= 2
