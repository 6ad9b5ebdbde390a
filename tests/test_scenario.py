"""Tests for the declarative scenario layer: spec validation,
serialisation round-trips, build equivalence with hand-wired testbeds,
and the shipped spec registry."""

import pytest

from repro.net import Packet
from repro.nic import LIQUIDIO_CN2350
from repro.scenario import (
    AppSpec,
    ClientSpec,
    FabricSpec,
    FaultDecl,
    FleetSpec,
    RackSpec,
    ScenarioError,
    ScenarioSpec,
    ServerSpec,
    build,
    from_json,
    load_shipped,
    run_scenario,
    shipped_specs,
    single_rack,
    three_servers,
    to_json,
)
from repro.sim import Rng, Simulator


def _rkv_spec(**kwargs):
    defaults = dict(
        name="t", seed=7, duration_us=3_000.0,
        racks=(RackSpec(name="rack0",
                        servers=(ServerSpec(name="s0", host_workers=4),),
                        clients=(ClientSpec("client"),)),),
        fabric=FabricSpec(),
        apps=(AppSpec(kind="rkv", servers=("s0",)),),
        fleets=(FleetSpec(client="client", dst="s0", mode="closed",
                          clients=4, size=256, workload="kv", seed=9),))
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


# -- validation --------------------------------------------------------------

def test_validate_accepts_the_paper_shapes():
    single_rack("ok", three_servers()).validate()
    _rkv_spec().validate()


@pytest.mark.parametrize("mutation, fragment", [
    (dict(racks=()), "no racks"),
    (dict(racks=(RackSpec(name="r",
                          servers=(ServerSpec(name="x", nic="nope"),)),),
          apps=(), fleets=()), "unknown NIC"),
    (dict(apps=(AppSpec(kind="rkv", servers=("ghost",)),)), "unknown server"),
    (dict(apps=(AppSpec(kind="warp", servers=("s0",)),)), "unknown kind"),
    (dict(fleets=(FleetSpec(client="ghost", dst="s0"),)), "unknown client"),
    (dict(fleets=(FleetSpec(client="client", dst="ghost"),)), "unknown dst"),
    (dict(fleets=(FleetSpec(client="client", dst="shard:dt"),)),
     "names no declared app"),
    (dict(faults=(FaultDecl(kind="meteor", target="*"),)), "unknown kind"),
    (dict(duration_us=0.0), "duration_us"),
])
def test_validate_rejects(mutation, fragment):
    with pytest.raises(ScenarioError) as exc:
        _rkv_spec(**mutation).validate()
    assert fragment in str(exc.value)


def test_sharded_app_needs_enough_servers():
    spec = _rkv_spec(apps=(AppSpec(kind="rkv", servers=("s0",), shards=2),),
                     fleets=())
    with pytest.raises(ScenarioError):
        spec.validate()


# -- serialisation -----------------------------------------------------------

def test_json_round_trip_preserves_the_spec():
    spec = ScenarioSpec(
        name="rt", seed=3, duration_us=5_000.0,
        racks=(
            RackSpec(name="r0",
                     servers=(ServerSpec(name="a", host_workers=2,
                                         reliable=True,
                                         scheduler=(("migration_enabled",
                                                     False),)),),
                     clients=(ClientSpec("c0"),)),
            RackSpec(name="r1",
                     servers=(ServerSpec(name="b", system="dpdk"),)),
        ),
        fabric=FabricSpec(inter_rack_propagation_us=2.5),
        apps=(AppSpec(kind="rkv", servers=("a", "b"), shards=2,
                      options=(("prefill_keys", 10),)),),
        fleets=(FleetSpec(client="c0", dst="shard:rkv", mode="open",
                          rate_mpps=0.05, workload="kv",
                          connections=1_000_000),),
        faults=(FaultDecl(kind="link_loss", target="*", probability=0.01),))
    assert from_json(to_json(spec)) == spec


def test_from_dict_rejects_unknown_fields():
    text = to_json(_rkv_spec()).replace('"seed"', '"sede"')
    with pytest.raises(ScenarioError) as exc:
        from_json(text)
    assert "unknown field" in str(exc.value)


def test_shipped_specs_load_and_validate():
    names = shipped_specs()
    assert "paper-testbed" in names
    assert "multi-rack-rkv" in names
    for name in names:
        spec = load_shipped(name)
        spec.validate()
        assert spec.name == name
    multi = load_shipped("multi-rack-rkv")
    assert len(multi.racks) >= 3
    assert any(app.shards > 1 for app in multi.apps)
    with pytest.raises(KeyError):
        load_shipped("no-such-scenario")


# -- build + run -------------------------------------------------------------

def test_build_wires_servers_apps_and_fleets():
    scenario = build(_rkv_spec())
    assert set(scenario.servers) == {"s0"}
    assert set(scenario.clients) == {"client"}
    assert scenario.app("rkv").nodes.keys() == {"s0"}
    assert len(scenario.generators) == 1
    scenario.run(until=2_000.0)
    scenario.stop()
    gen = scenario.generators[0]
    assert gen.sent > 0
    assert gen.completed > 0


def test_sharded_placement_interleaves_across_racks():
    spec = ScenarioSpec(
        name="shards", duration_us=1_000.0,
        racks=tuple(RackSpec(name=f"rack{i}",
                             servers=(ServerSpec(name=f"r{i}s0"),))
                    for i in range(3)),
        apps=(AppSpec(kind="rkv",
                      servers=("r0s0", "r1s0", "r2s0"), shards=3),))
    scenario = build(spec)
    app = scenario.app("rkv")
    # rack-ordered dealing: each replica group seeds from a distinct rack
    assert app.groups == [["r0s0"], ["r1s0"], ["r2s0"]]
    assert app.leaders == ["r0s0", "r1s0", "r2s0"]


def test_multi_rack_run_crosses_the_spine():
    result = run_scenario(load_shipped("multi-rack-rkv"),
                          duration_us=2_000.0)
    assert result.sent > 0
    assert result.switch_counters["spine"][0] > 0          # forwarded
    assert all(result.switch_counters[f"rack{i}.tor"][0] > 0
               for i in range(3))


def test_run_scenario_fingerprint_is_deterministic():
    spec = load_shipped("paper-testbed")
    first = run_scenario(spec, duration_us=1_500.0)
    again = run_scenario(spec, duration_us=1_500.0)
    assert first.fingerprint() == again.fingerprint()


#: sha256(repr(fingerprint()))[:16] of each shipped spec run to 1 ms.
#: Virtual time must not move unless a change says so: re-pin here, and
#: name every moved spec, only when a change means to move it.
_PINNED_FINGERPRINTS = {
    "multi-rack-chaos": "9e3ccde2cbc7be75",
    "multi-rack-rebalance": "a43401aad84c701f",
    "multi-rack-rkv": "9c4114b8f9785991",
    "multi-tenant-mixed": "2387a31663eeca25",
    "paper-testbed": "5c83754d470ab694",
}


@pytest.mark.parametrize("name", shipped_specs())
def test_shipped_spec_fingerprint_is_pinned(name):
    import hashlib
    assert name in _PINNED_FINGERPRINTS, f"pin a fingerprint for {name}"
    result = run_scenario(load_shipped(name), duration_us=1_000.0)
    digest = hashlib.sha256(repr(result.fingerprint()).encode()).hexdigest()
    assert digest[:16] == _PINNED_FINGERPRINTS[name]


#: (rolling step digest, events fired) of each shipped spec run to 1 ms
#: under a SanitizerSession.  The digest folds every event's time,
#: sequence number, callback and RNG position, so unlike the
#: fingerprints above it sees request timing and tie order on the
#: open-loop specs too.  Host-time work must leave it unchanged; a
#: change that removes events re-pins it and shows that the rest of the
#: sequence kept its order.
_PINNED_STEP_DIGESTS = {
    "multi-rack-chaos": (4265420649, 7791),
    "multi-rack-rebalance": (3244337673, 420),
    "multi-rack-rkv": (429575719, 2224),
    "multi-tenant-mixed": (4143269989, 30828),
    "paper-testbed": (1339467565, 26641),
}


@pytest.mark.parametrize("name", shipped_specs())
def test_shipped_spec_event_sequence_is_pinned(name):
    from repro.check import SanitizerSession
    assert name in _PINNED_STEP_DIGESTS, f"pin a step digest for {name}"
    with SanitizerSession(keep_records=False) as session:
        run_scenario(load_shipped(name), duration_us=1_000.0)
    recorder = session.recorder
    assert (recorder.digest, recorder.steps) == _PINNED_STEP_DIGESTS[name]


#: (CRC-32 folded over (repr(now), src, kind, size) at every
#: ClientPort.receive, replies received) of each shipped spec run to
#: 1 ms.  The open-loop fingerprints hold only counts, so this is the
#: pin that sees reply timing on every spec; unlike the step digests it
#: does not move when events that change no state are added or removed.
_PINNED_REPLY_TIMING = {
    "multi-rack-chaos": (2055048439, 350),
    "multi-rack-rebalance": (1053256841, 10),
    "multi-rack-rkv": (3754918783, 80),
    "multi-tenant-mixed": (1883217323, 2164),
    "paper-testbed": (2234586504, 1692),
}


@pytest.mark.parametrize("name", shipped_specs())
def test_shipped_spec_reply_timing_is_pinned(name, monkeypatch):
    import zlib
    from repro.scenario.build import ClientPort
    assert name in _PINNED_REPLY_TIMING, f"pin a reply timing for {name}"
    folded = [0, 0]
    receive = ClientPort.receive

    def timed(port, packet):
        record = (repr(port.sim.now), packet.src, packet.kind, packet.size)
        folded[0] = zlib.crc32(repr(record).encode(), folded[0])
        folded[1] += 1
        receive(port, packet)

    monkeypatch.setattr(ClientPort, "receive", timed)
    run_scenario(load_shipped(name), duration_us=1_000.0)
    assert tuple(folded) == _PINNED_REPLY_TIMING[name]


# -- spec-built vs hand-wired equivalence ------------------------------------

def test_spec_build_matches_hand_wired_testbed():
    """build(spec) and the imperative Testbed surface must produce the
    same simulation: identical traffic, latency, and switch counters."""
    from repro.apps.rkv import RkvNode
    from repro.experiments.testbed import make_testbed
    from repro.workloads import KvWorkload

    spec_result = run_scenario(_rkv_spec(), duration_us=3_000.0)

    bed = make_testbed(bandwidth_gbps=10)
    server = bed.add_server("s0", host_workers=4)
    RkvNode(server.runtime, [], initial_leader="s0")
    runtime = server.runtime
    original = runtime.on_packet

    def routed(packet, original=original):
        if isinstance(packet.payload, dict) and "kind" in packet.payload \
                and "payload" not in packet.payload:
            packet.kind = packet.payload["kind"]
        original(packet)

    runtime.nic.packet_handler = routed
    port = bed.add_client("client")
    wl = KvWorkload(packet_size=256)
    gen = port.closed_loop(dst="s0", clients=4, size=256,
                           payload_factory=wl.next_request, rng=Rng(9))
    bed.sim.run(until=3_000.0)
    gen.stop()
    runtime.stop()

    assert (gen.sent, gen.completed) == (spec_result.sent,
                                         spec_result.completed)
    assert port.received == spec_result.client_received["client"]
    tor = bed.network.switch
    assert (tor.forwarded, tor.dropped) == spec_result.switch_counters["tor"]
    assert gen.latency.mean == pytest.approx(spec_result.mean_latency_us,
                                             rel=1e-12)


def test_fig16_point_matches_pre_refactor_fingerprint():
    """The scheduler study built through ScenarioSpec reproduces the
    hand-wired seed implementation bit-for-bit (golden captured before
    the scenario refactor)."""
    from repro.experiments.scheduler_study import run_point
    mean, p99 = run_point(LIQUIDIO_CN2350, "ipipe", "high", 0.9,
                          duration_us=4_000.0, seed=1)
    assert mean == pytest.approx(46.639209659452774, rel=1e-12)
    assert p99 == pytest.approx(77.48686991602294, rel=1e-12)


def test_chaos_point_matches_pre_refactor_fingerprint():
    """One chaos point through the spec-built path keeps the pre-refactor
    fault schedule and recovery telemetry."""
    from repro.exec.grids import chaos_point
    point = chaos_point("rkv", seed=42, duration_us=10_000.0)
    assert (point["answered"], point["lost"],
            point["client_retransmits"]) == (45, 0, 3)
    schedule = point["fingerprint"][0]
    assert schedule[0] == (9.7228, "link_loss", "s0.up")
    assert schedule[-1] == (7005.481183, "dma_torn", "s0.chan.to_host")


# -- client port demux -------------------------------------------------------

def test_client_port_demuxes_replies_to_owning_generator():
    scenario = build(ScenarioSpec(
        name="demux", seed=5, duration_us=2_000.0,
        racks=(RackSpec(name="rack0",
                        servers=(ServerSpec(name="s0", host_workers=2),),
                        clients=(ClientSpec("client"),)),),
        apps=(AppSpec(kind="rkv", servers=("s0",)),),
        fleets=(FleetSpec(client="client", dst="s0", mode="closed",
                          clients=2, size=256, workload="kv", seed=1),
                FleetSpec(client="client", dst="s0", mode="closed",
                          clients=2, size=256, workload="kv", seed=2))))
    port = scenario.clients["client"]
    stray = []
    port.add_sink(stray.append)
    scenario.run(until=2_000.0)
    scenario.stop()
    first, second = scenario.generators
    # both loops make progress: replies reach their owners, not whichever
    # generator happened to register first
    assert first.completed > 0
    assert second.completed > 0
    assert port.received == first.completed + second.completed
    assert not stray  # every reply found its owner
    assert first.tag != second.tag


def test_client_port_untagged_replies_fall_through_to_sinks():
    sim = Simulator()
    from repro.scenario.build import ClientPort
    from repro.net import Network
    net = Network(sim, bandwidth_gbps=10)
    port = ClientPort(sim, net, "client")
    seen = []
    port.add_sink(seen.append)
    port.receive(Packet("s0", "client", 64, created_at=0.0))
    assert len(seen) == 1
    assert port.received == 1
