"""Off-path NIC-switch steering: host actors bypass NIC cores (§2.1)."""

import pytest

from repro.core import Actor, Location, SchedulerConfig
from repro.experiments.testbed import make_testbed
from repro.nic import STINGRAY_PS225, WorkloadProfile
from repro.sim import spawn


def _echo(actor, msg, ctx):
    yield ctx.compute(us=2.0)
    if msg.packet is not None:
        ctx.reply(msg, size=msg.size)


def _stingray_server(bed):
    return bed.add_server("server", STINGRAY_PS225,
                          config=SchedulerConfig(migration_enabled=False))


def test_offpath_nic_has_switch():
    bed = make_testbed(bandwidth_gbps=25)
    server = _stingray_server(bed)
    assert server.nic.nic_switch is not None


def test_host_pinned_actor_gets_bypass_rule():
    bed = make_testbed(bandwidth_gbps=25)
    server = _stingray_server(bed)
    actor = Actor("hosty", _echo, location=Location.HOST, pinned=True,
                  profile=WorkloadProfile("h", 2.0, 1.2, 0.5))
    server.runtime.register_actor(actor, steering_keys=["data"])
    assert server.nic.nic_switch.rules.get("data") == "host"


def test_bypass_traffic_skips_nic_cores():
    bed = make_testbed(bandwidth_gbps=25)
    server = _stingray_server(bed)
    actor = Actor("hosty", _echo, location=Location.HOST, pinned=True,
                  profile=WorkloadProfile("h", 2.0, 1.2, 0.5))
    server.runtime.register_actor(actor, steering_keys=["data"])
    client = bed.add_client("client")
    gen = client.closed_loop(dst="server", clients=4, size=256)
    bed.sim.run(until=5_000.0)
    gen.stop()
    server.runtime.stop()
    assert gen.answered > 50
    assert server.nic.nic_switch.steered_host > 50
    # requests never consumed NIC-core time on arrival (only host→wire TX
    # forwarding items touch the NIC)
    assert server.runtime.nic_scheduler.ops_completed == 0


def test_nic_actor_traffic_still_reaches_scheduler():
    bed = make_testbed(bandwidth_gbps=25)
    server = _stingray_server(bed)
    actor = Actor("nicky", _echo, concurrent=True,
                  profile=WorkloadProfile("n", 2.0, 1.2, 0.5))
    server.runtime.register_actor(actor, steering_keys=["data"])
    client = bed.add_client("client")
    gen = client.closed_loop(dst="server", clients=4, size=256)
    bed.sim.run(until=5_000.0)
    gen.stop()
    server.runtime.stop()
    assert gen.answered > 50
    assert server.runtime.nic_scheduler.ops_completed > 50
    assert server.nic.nic_switch.rules.get("data") is None


def test_migration_updates_switch_rules():
    bed = make_testbed(bandwidth_gbps=25)
    server = bed.add_server("server", STINGRAY_PS225,
                            config=SchedulerConfig(migration_enabled=False))
    actor = Actor("svc", _echo, concurrent=True,
                  profile=WorkloadProfile("s", 2.0, 1.2, 0.5))
    rt = server.runtime
    rt.register_actor(actor, steering_keys=["data"])
    assert rt.nic.nic_switch.rules.get("data") is None

    def roundtrip():
        yield from rt.migrator.migrate_to_host(actor)
        assert rt.nic.nic_switch.rules.get("data") == "host"
        yield from rt.migrator.migrate_to_nic(actor)

    spawn(bed.sim, roundtrip())
    bed.sim.run(until=5_000.0)
    assert actor.location is Location.NIC
    assert rt.nic.nic_switch.rules.get("data") is None
