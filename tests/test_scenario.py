"""Tests for the declarative scenario layer: spec validation,
serialisation round-trips, build equivalence with hand-wired testbeds,
and the shipped spec registry."""

import json

import pytest

from repro.cli import main
from repro.net import Packet
from repro.nic import LIQUIDIO_CN2350
from repro.scenario import (
    AppSpec,
    ClientSpec,
    FabricSpec,
    FleetSpec,
    RackSpec,
    RkvOptions,
    RtaOptions,
    ScenarioError,
    ScenarioSpec,
    ServerSpec,
    build,
    from_dict,
    from_json,
    load_shipped,
    run_scenario,
    shipped_specs,
    single_rack,
    three_servers,
    to_dict,
    to_json,
)
from repro.sim import FaultSpec, Rng, Simulator


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
    (dict(racks=[]), "no racks"),
    (dict(racks=[{"name": "r", "servers": [{"name": "x", "nic": "nope"}]}],
          apps=[], fleets=[]), "unknown NIC"),
    (dict(apps=[{"kind": "rkv", "servers": ["ghost"]}]), "unknown server"),
    (dict(apps=[{"kind": "warp", "servers": ["s0"]}]), "unknown kind"),
    (dict(fleets=[{"client": "ghost", "dst": "s0"}]), "unknown client"),
    (dict(fleets=[{"client": "client", "dst": "ghost"}]), "unknown dst"),
    (dict(fleets=[{"client": "client", "dst": "shard:dt"}]),
     "names no declared app"),
    (dict(duration_us=0.0), "duration_us"),
    # a fleet's workload feeds one app kind, and every server it reaches
    # must host it: its dst, each shard leader, each service backend
    (dict(fleets=[{"client": "client", "dst": "s0", "workload": "twitter"}]),
     "workload 'twitter' feeds app 'rta', but ['s0'] host no rta app"),
    (dict(apps=[]), "workload 'kv' feeds app 'rkv', but ['s0'] host no"),
    (dict(apps=[{"kind": "rta", "servers": ["s0"]}],
          fleets=[{"client": "client", "dst": "shard:rta"}]),
     "feeds app 'rkv', but ['s0'] host no rkv app"),
    (dict(apps=[{"kind": "rta", "servers": ["s0"]}],
          steering=[{"service": "web", "backends": ["s0"]}],
          fleets=[{"client": "client", "dst": "svc:web"}]),
     "feeds app 'rkv', but ['s0'] host no rkv app"),
])
def test_validate_rejects(mutation, fragment):
    # a rule on one field fails where the spec is read (unknown NIC and
    # kind, duration_us, no racks); a rule across specs in validate()
    with pytest.raises(ScenarioError) as exc:
        from_dict({**to_dict(_rkv_spec()), **mutation}).validate()
    assert fragment in str(exc.value)


def test_unknown_fault_kind_is_rejected_on_load():
    # FaultSpec refuses an unknown kind at construction, so the check
    # lives on the JSON path and names the entry
    text = to_json(_rkv_spec()).replace(
        '"faults": []', '"faults": [{"kind": "meteor", "target": "*"}]')
    with pytest.raises(ScenarioError) as exc:
        from_json(text)
    assert str(exc.value) == "faults[0]: unknown fault kind 'meteor'"


def _set(*path_and_value):
    """Set one value in a spec's plain data (missing objects made)."""
    *path, key, value = path_and_value

    def mutate(data):
        node = data
        for step in path:
            node = node[step] if isinstance(node, list) \
                else node.setdefault(step, {})
        node[key] = value
    return mutate


def _each(*mutations):
    """Apply several mutations in order."""
    def mutate(data):
        for change in mutations:
            change(data)
    return mutate


_SERVER0 = ("racks", 0, "servers", 0)


@pytest.mark.parametrize("mutate, message", [
    (_set("fleets", 0, "clients", 0), "closed-loop needs clients >= 1"),
    (_set("fleets", 0, "think_time_us", -1.0), "think_time_us must be >= 0"),
    (_set(*_SERVER0, "scheduler", [["no_such_knob", 1]]),
     "racks[0].servers[0].scheduler: unknown field(s) ['no_such_knob']"),
    (_set(*_SERVER0, "scheduler", [["alpha", "x"]]),
     "racks[0].servers[0].scheduler.alpha: must be a number, not 'x'"),
    (_set(*_SERVER0, "scheduler", [["isolation", 5]]),
     "racks[0].servers[0].scheduler.isolation: must be an object, not 5"),
    (_set(*_SERVER0, "scheduler", [["stats_alpha", 0]]),
     "racks[0].servers[0].scheduler: stats_alpha must lie in (0, 1]"),
    (_set("apps", 0, "options", "prefill_keys", "x"),
     "apps[0].options.prefill_keys: must be an integer, not 'x'"),
    (_set("apps", 0, "options", "no_such_option", 1),
     "apps[0].options: unknown field(s) ['no_such_option']"),
    (_set("apps", 0, "options", "prefill_keys", -5),
     "apps[0].options: prefill_keys must be >= 0 (got -5)"),
    (_set("fabric", "bandwidth_gbps", 0),
     "fabric: bandwidth_gbps must be positive (got 0)"),
    (_set("fabric", "propagation_us", -1),
     "fabric: propagation_us must be >= 0 (got -1)"),
    (_set("fabric", "tor_latency_us", -1),
     "fabric: tor_latency_us must be >= 0 (got -1)"),
    (_set("fleets", 0, "size", -5), "fleets[0]: size must be >= 64 (got -5)"),
    (_set("fleets", 0, "size", 63), "fleets[0]: size must be >= 64 (got 63)"),
    (_set(*_SERVER0, "host_workers", -1),
     "racks[0].servers[0]: host_workers must be >= 0 (got -1)"),
    (_set(*_SERVER0, "host_cores", 0),
     "racks[0].servers[0]: host_cores must be >= 1 (got 0)"),
    (_set(*_SERVER0, "host_cores", -2),
     "racks[0].servers[0]: host_cores must be >= 1 (got -2)"),
    (_set("apps", [{"kind": "firewall", "servers": ["s0"]}]),
     "fleet client: workload 'kv' feeds app 'rkv', but ['s0'] host no "
     "rkv app"),
    (_set("apps", [{"kind": "rkv", "servers": ["s0"]}] * 2),
     "app rkv: server 's0' hosts two rkv apps"),
    (_each(_set("apps", [{"kind": "dt", "servers": ["s0"]}]),
           _set("fleets", 0, "workload", "txn")),
     "app dt: the replica groups of ['s0'] have no participant"),
    (_each(_set("apps", [{"kind": "firewall", "servers": ["s0"]}]),
           _set("fleets", 0, "workload", "none")),
     "fleet client: workload 'none' sends frames with no payload, which "
     "the firewall or ipsec app on ['s0'] cannot read"),
    (_each(_set("apps", [{"kind": "ipsec", "servers": ["s0"]}]),
           _set("fleets", 0, "workload", "none")),
     "fleet client: workload 'none' sends frames with no payload, which "
     "the firewall or ipsec app on ['s0'] cannot read"),
    (_set("fleets", 0, "workload", "none"),
     "fleet client: workload 'none' sends frames with no request, which "
     "the rkv, dt or rta app on ['s0'] cannot answer"),
    (_each(_set("racks", 0, "servers", [{"name": "s0"}, {"name": "s1"}]),
           _set("apps", [{"kind": "dt", "servers": ["s0", "s1"]}]),
           _set("fleets", 0, "workload", "none")),
     "fleet client: workload 'none' sends frames with no request, which "
     "the rkv, dt or rta app on ['s0'] cannot answer"),
    (_each(_set("apps", [{"kind": "rta", "servers": ["s0"]}]),
           _set("fleets", 0, "workload", "none")),
     "fleet client: workload 'none' sends frames with no request, which "
     "the rkv, dt or rta app on ['s0'] cannot answer"),
    (_set("apps", [{"kind": kind, "servers": ["s0"]}
                   for kind in ("rkv", "firewall", "ipsec")]),
     "app ipsec: server 's0' also hosts a firewall app, and only one app "
     "can take its 'data' frames"),
], ids=["closed-fleet-without-clients", "negative-think-time",
        "unknown-scheduler-key", "scheduler-value-type",
        "scheduler-isolation-type", "scheduler-value-range", "option-type",
        "unknown-option", "negative-prefill-keys", "zero-bandwidth",
        "negative-propagation",
        "negative-tor-latency", "negative-fleet-size", "runt-fleet-size",
        "negative-host-workers", "zero-host-cores", "negative-host-cores",
        "fleet-workload-its-dst-does-not-serve", "two-apps-of-one-kind",
        "dt-group-without-participant", "none-fleet-drives-a-firewall",
        "none-fleet-drives-an-ipsec-gateway", "none-fleet-asks-an-rkv-app",
        "none-fleet-asks-a-dt-app", "none-fleet-asks-an-rta-app",
        "firewall-and-ipsec-share-a-server"])
def test_validate_rejects_what_build_or_run_would_raise_on(
        capsys, tmp_path, mutate, message):
    # each of these used to validate and then fail in build() or run()
    # with a ValueError, SimulationError or TypeError, or run as if it
    # were some other value; now it is one ScenarioError naming its path
    data = to_dict(_rkv_spec())
    mutate(data)
    try:
        spec = from_dict(data)
    except ScenarioError as exc:       # the field's own type/range check
        problems = [exc.problems]
    else:
        problems = []
        for check in (spec.validate,
                      lambda: run_scenario(spec, duration_us=500.0)):
            with pytest.raises(ScenarioError) as exc:
                check()
            problems.append(exc.value.problems)
    for found in problems:
        assert len(found) == 1 and message in found[0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    for verb, code in (("validate", 1), ("run", 2)):
        assert main(["scenario", verb, str(path)]) == code
        out, err = capsys.readouterr()
        assert (out + err).count("\n") == 1 and message in out + err


@pytest.mark.parametrize("shards", [2, 3])
def test_every_dt_group_needs_a_participant(shards):
    spec = single_rack("dt", three_servers(), apps=(
        AppSpec(kind="dt", servers=("s0", "s1", "s2"), shards=shards),))
    with pytest.raises(ScenarioError, match="have no participant"):
        spec.validate()


def test_every_pair_of_app_kinds_builds_on_the_same_servers():
    from itertools import combinations
    from repro.scenario.spec import APP_KINDS, DATA_APPS
    for pair in combinations(APP_KINDS, 2):
        spec = single_rack("pair", three_servers(), apps=tuple(
            AppSpec(kind=kind, servers=("s0", "s1", "s2"))
            for kind in pair))
        if set(pair) == set(DATA_APPS):
            # both would take every "data" frame: rejected, not built
            with pytest.raises(ScenarioError, match="'data' frames"):
                build(spec)
        else:
            build(spec)


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
                      options=RkvOptions(prefill_keys=10)),),
        fleets=(FleetSpec(client="c0", dst="shard:rkv", mode="open",
                          rate_mpps=0.05, workload="kv"),),
        faults=(FaultSpec(kind="link_loss", target="*", probability=0.01),))
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
    assert gen.answered > 0


def test_one_rack_spec_runs_under_any_rack_name():
    # the ToR is "tor" and the links keep their names whatever the rack
    # is called, so the run is the same
    rack = _rkv_spec().racks[0]
    renamed = _rkv_spec(racks=(RackSpec(name="edge", servers=rack.servers,
                                        clients=rack.clients),))
    base = run_scenario(_rkv_spec(), duration_us=1_000.0)
    result = run_scenario(renamed, duration_us=1_000.0)
    assert result.completed > 0
    assert result.fingerprint() == base.fingerprint()


@pytest.mark.parametrize("name", shipped_specs() + ["dpdk-rkv"])
def test_every_server_takes_ingress_through_its_runtime(name):
    # the runtime decodes the request wire format itself: nothing wraps
    # its on_packet (iPipe: the NIC's packet_handler; DPDK: the ToR
    # egress link's receiver)
    from repro.core import IPipeRuntime
    from repro.experiments.applications import deployment_spec
    spec = (deployment_spec("dpdk", "rkv", LIQUIDIO_CN2350, 512, 4,
                            1_000.0, seed=1)
            if name == "dpdk-rkv" else load_shipped(name))
    scenario = build(spec)
    for server_name, server in scenario.servers.items():
        runtime = server.runtime
        if isinstance(runtime, IPipeRuntime):
            assert server.nic.packet_handler == runtime.on_packet
        else:
            receiver = scenario.network.egress(server_name).receiver
            assert receiver == runtime.on_packet


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


def test_every_app_kind_has_options_and_a_node_factory():
    from repro.scenario.build import APP_NODES
    from repro.scenario.spec import APP_KINDS, APP_OPTIONS
    assert set(APP_NODES) == set(APP_OPTIONS) == set(APP_KINDS)


@pytest.mark.parametrize("kind", ["dt", "rta"])
def test_every_kind_follows_the_declared_leader(kind):
    spec = single_rack("lead", three_servers(), apps=(
        AppSpec(kind=kind, servers=("s0", "s1", "s2"), leader="s1"),))
    app = build(spec).app(kind)
    assert app.leaders == ["s1"]
    if kind == "dt":
        assert type(app.nodes["s1"]).__name__ == "DtCoordinatorNode"
        assert app.nodes["s1"].participant_nodes == ["s0", "s2"]
    else:
        assert all(node.aggregate_node == "s1"
                   for node in app.nodes.values())


def test_options_of_another_kind_are_rejected():
    spec = _rkv_spec(apps=(AppSpec(kind="rkv", servers=("s0",),
                                   options=RtaOptions()),))
    with pytest.raises(ScenarioError) as exc:
        spec.validate()
    assert "options must be RkvOptions, not RtaOptions" in str(exc.value)


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


class _BareChecker:
    """A ``Simulator.checker`` with only the engine hooks, the shape of
    a profiling observer that watches no plane."""

    def __init__(self):
        self.steps = 0

    def on_schedule(self, when, seq, fn):
        pass

    def after_step(self, when, seq, fn):
        self.steps += 1


@pytest.mark.parametrize("name", shipped_specs())
def test_shipped_spec_runs_under_a_checker_with_only_engine_hooks(name):
    sim = Simulator()
    sim.checker = checker = _BareChecker()
    scenario = build(load_shipped(name), sim=sim)
    scenario.run(until=200.0)
    scenario.stop()
    assert checker.steps > 0


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
    "multi-rack-rebalance": (1536819330, 420),
    "multi-rack-rkv": (2421585986, 2224),
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


# The shipped specs place only rkv and rta; these pin the other app
# kinds' builds (dt coordinator and participants, the firewall ruleset,
# the IPsec ingress shim) to the same standard.

def test_dt_deployment_fingerprint_is_pinned():
    from repro.experiments.applications import deployment_spec
    result = run_scenario(deployment_spec(
        "ipipe", "dt", LIQUIDIO_CN2350, 512, 12, seed=7, duration_us=1000.0))
    assert result.fingerprint() == (
        "ipipe-dt", 7, 421, 409, 28.72518533, 31.22, (("client", 409),),
        (("tor", (4382, 0)),), 0, 0)


def test_firewall_latency_is_pinned():
    from repro.experiments.netfns import firewall_latency_vs_load
    points = firewall_latency_vs_load(rule_count=512, loads=(0.2, 0.9),
                                      duration_us=3000.0)
    assert [(load, round(latency, 9)) for load, latency in points] \
        == [(0.2, 4.8090313), (0.9, 8.02402861)]


def test_ipsec_goodput_is_pinned():
    from repro.experiments.netfns import ipsec_goodput_gbps
    goodput = ipsec_goodput_gbps(duration_us=3000.0, clients=64)
    assert round(goodput, 9) == 9.66656


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
    port = bed.add_client("client")
    wl = KvWorkload(packet_size=256)
    gen = port.closed_loop(dst="s0", clients=4, size=256,
                           payload_factory=wl.next_request, rng=Rng(9))
    bed.sim.run(until=3_000.0)
    gen.stop()
    runtime.stop()

    assert (gen.sent, gen.answered) == (spec_result.sent,
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
    scenario.run(until=2_000.0)
    scenario.stop()
    first, second = scenario.generators
    # both loops make progress: replies reach their owners, not whichever
    # generator happened to register first
    assert first.answered > 0
    assert second.answered > 0
    assert port.received == first.answered + second.answered
    assert port.unmatched == 0  # every reply found its owner
    assert first.tag != second.tag


def test_client_port_counts_untagged_packets_as_unmatched():
    sim = Simulator()
    from repro.scenario.build import ClientPort
    from repro.net import Fabric
    net = Fabric(sim, bandwidth_gbps=10)
    port = ClientPort(sim, net, "client")
    client = port.scripted()
    port.receive(Packet("s0", "client", 64, created_at=0.0))
    stray = Packet("s0", "client", 64, created_at=0.0)
    stray.meta["client"] = ("client#7", 0)     # a tag no local client has
    port.receive(stray)
    assert (port.received, port.unmatched) == (2, 2)
    assert (client.answered, client.duplicates) == (0, 0)
