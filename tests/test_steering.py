"""SteerPlane: Maglev increments, epoch steering, cross-rack migration.

Covers the steering layer end to end: incremental MaglevTable changes
(minimal disruption, property-tested), the epoch-versioned
SteeringController, rack_down fault expansion, the CrossRackMigrator's
four-phase protocol (buffered phase-3 arrivals, duplicate suppression,
idempotent restart after a destination failure), the SteeringMonitor,
spec round-trips, and the shipped ``multi-rack-rebalance`` scenario.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import CheckPlane
from repro.core.migration import CrossRackMigrator, MigrationInterrupted
from repro.experiments.steering_study import (
    SteeredChaosClient,
    rebalance_spec,
    run_rebalance_chaos,
)
from repro.net import MaglevTable, Packet, SteeringController
from repro.scenario import (
    RebalanceSpec,
    ScenarioError,
    SteeringSpec,
    build,
    from_dict,
    load_shipped,
    run_scenario,
    to_dict,
)
from repro.sim import FaultKind, FaultSpec, Simulator, Timeout, spawn

TABLE = 251

backend_lists = st.integers(min_value=2, max_value=8).map(
    lambda n: [f"b{i}" for i in range(n)])


# -- Maglev incremental updates ------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(backend_lists, st.integers(min_value=0, max_value=7))
def test_maglev_remove_touches_only_freed_slots(backends, victim_idx):
    victim = backends[victim_idx % len(backends)]
    table = MaglevTable(backends, table_size=TABLE)
    before = list(table.lookup_table)
    table.remove_backend(victim)
    moved = sum(1 for old, new in zip(before, table.lookup_table)
                if old != new)
    # only the victim's slots are remapped: disruption is exactly the
    # victim's share (~T/M), comfortably under the 2T/M bound
    assert moved == sum(1 for owner in before if owner == victim)
    assert moved <= 2 * TABLE // len(backends) + 1
    for old, new in zip(before, table.lookup_table):
        if old != victim:
            assert new == old
    assert all(owner is not None for owner in table.lookup_table)


@settings(max_examples=30, deadline=None)
@given(backend_lists)
def test_maglev_add_steals_at_most_fair_share(backends):
    table = MaglevTable(backends, table_size=TABLE)
    before = list(table.lookup_table)
    table.add_backend("newcomer")
    moved = [i for i, (old, new) in enumerate(zip(before, table.lookup_table))
             if old != new]
    fair = TABLE // (len(backends) + 1)
    assert len(moved) <= 2 * TABLE // (len(backends) + 1) + 1
    # every remapped slot went to the newcomer, nothing shuffled sideways
    for i in moved:
        assert table.lookup_table[i] == "newcomer"
    assert sum(1 for b in table.lookup_table if b == "newcomer") == fair


@settings(max_examples=30, deadline=None)
@given(backend_lists, st.integers(min_value=0, max_value=7))
def test_maglev_replace_is_zero_disruption(backends, victim_idx):
    old = backends[victim_idx % len(backends)]
    table = MaglevTable(backends, table_size=TABLE)
    before = list(table.lookup_table)
    table.replace_backend(old, "replacement")
    for prev, now in zip(before, table.lookup_table):
        assert now == ("replacement" if prev == old else prev)


def test_maglev_remove_rebalances_share():
    table = MaglevTable([f"b{i}" for i in range(5)], table_size=TABLE)
    table.remove_backend("b2")
    for b in table.backends:
        assert table.share(b) == pytest.approx(1 / 4, abs=0.05)


def test_maglev_replace_rejects_duplicate():
    table = MaglevTable(["a", "b"], table_size=TABLE)
    with pytest.raises(ValueError):
        table.replace_backend("a", "b")
    with pytest.raises(ValueError):
        table.add_backend("b")


def test_maglev_reexported_from_microbench():
    from repro.apps.microbench import MaglevTable as Shim
    assert Shim is MaglevTable


# -- SteeringController --------------------------------------------------------

def _controller():
    sim = Simulator()
    ctrl = SteeringController(sim)
    ctrl.add_service("kv", ["s0", "s1", "s2"], table_size=TABLE)
    return sim, ctrl


def _vip_packet(flow: str, uid=None) -> Packet:
    pkt = Packet("client", "svc:kv", 128)
    pkt.meta["steer_key"] = flow
    if uid is not None:
        pkt.meta["req_uid"] = uid
    return pkt


def test_route_rewrites_and_pins():
    _, ctrl = _controller()
    pkt = _vip_packet("conn0")
    assert ctrl.route(pkt)
    backend = pkt.dst
    assert backend in ("s0", "s1", "s2")
    assert pkt.meta["steer_epoch"] == 0
    # second packet of the flow sticks to the pin
    pkt2 = _vip_packet("conn0")
    ctrl.route(pkt2)
    assert pkt2.dst == backend
    assert ctrl.pinned_hits == 1
    # non-VIP traffic passes through untouched
    plain = Packet("client", "s1", 64)
    assert not ctrl.route(plain)


def test_repoint_bumps_epoch_and_keeps_window_pins():
    _, ctrl = _controller()
    pkt = _vip_packet("conn0")
    ctrl.route(pkt)
    old = pkt.dst
    new_epoch = ctrl.replace_backend("kv", old, "s9")
    assert new_epoch == 1
    # the pin survives the repoint (it IS the forwarding window) ...
    again = _vip_packet("conn0")
    ctrl.route(again)
    assert again.dst == old and again.meta["steer_epoch"] == 0
    # ... until the flush closes it; then the flow re-steers to the
    # renamed backend in the new epoch
    assert ctrl.flush("kv", old) == 1
    fresh = _vip_packet("conn0")
    ctrl.route(fresh)
    assert fresh.dst == "s9" and fresh.meta["steer_epoch"] == 1


def test_owner_at_answers_per_epoch():
    _, ctrl = _controller()
    pkt = _vip_packet("conn0")
    ctrl.route(pkt)
    old = pkt.dst
    ctrl.replace_backend("kv", old, "s9")
    assert ctrl.owner_at("kv", 0, "conn0") == old
    assert ctrl.owner_at("kv", 1, "conn0") == "s9"
    assert ctrl.owner_at("kv", 7, "conn0") is None
    assert ctrl.owner_at("nope", 0, "conn0") is None


def test_note_delivery_ledger():
    _, ctrl = _controller()
    pkt = _vip_packet("conn0", uid=("req", 4))
    ctrl.route(pkt)
    ctrl.note_delivery(pkt.dst, pkt)
    ((_, svc, uid, backend, epoch, flow),) = ctrl.deliveries
    assert (svc, uid, backend, epoch, flow) == (
        "kv", ("req", 4), pkt.dst, 0, "conn0")
    # unsteered packets are not noted
    ctrl.note_delivery("s0", Packet("client", "s0", 64))
    assert len(ctrl.deliveries) == 1


# -- SteeringMonitor -----------------------------------------------------------

def test_steering_monitor_flags_wrong_owner_and_double_delivery():
    sim = Simulator()
    plane = CheckPlane(sim, strict=False, every=1)
    ctrl = SteeringController(sim)
    ctrl.add_service("kv", ["s0", "s1", "s2"], table_size=TABLE)
    monitor = plane.watch_steering(ctrl)
    assert plane.watch_steering(ctrl) is monitor  # singleton
    pkt = _vip_packet("conn0", uid=("req", 0))
    ctrl.route(pkt)
    owner = pkt.dst
    wrong = next(b for b in ("s0", "s1", "s2") if b != owner)
    # planted: a delivery on a backend that does not own the flow's key
    ctrl.deliveries.append((sim.now, "kv", ("req", 1), wrong, 0, "conn0"))
    # planted: the same uid handed to two different backends in one epoch
    ctrl.deliveries.append((sim.now, "kv", ("req", 2), owner, 0, "conn0"))
    ctrl.deliveries.append((sim.now, "kv", ("req", 2), wrong, 0, "conn0"))
    plane.check_now()
    messages = [v.message for v in plane.violations
                if v.monitor == "steering"]
    assert any("epoch owner" in m for m in messages)
    assert any("exactly-once" in m for m in messages)


def test_steering_monitor_accepts_clean_ledgers():
    sim = Simulator()
    plane = CheckPlane(sim, strict=False, every=1)
    ctrl = SteeringController(sim)
    ctrl.add_service("kv", ["s0", "s1"], table_size=TABLE)
    plane.watch_steering(ctrl)
    for i in range(8):
        pkt = _vip_packet(f"conn{i % 3}", uid=("req", i))
        ctrl.route(pkt)
        ctrl.note_delivery(pkt.dst, pkt)
    # a same-backend retransmit is the retry path, not a violation
    pkt = _vip_packet("conn0", uid=("req", 0))
    ctrl.route(pkt)
    ctrl.note_delivery(pkt.dst, pkt)
    plane.check_now()
    assert not plane.violations


# -- rack_down faults ----------------------------------------------------------

def test_rack_down_expands_to_rack_links():
    spec = rebalance_spec(seed=7, duration_us=6_000.0, notice_us=500.0)
    sim = Simulator()
    bed = build(spec, sim=sim)
    plane = bed.fault_plane
    assert plane.rack_schedule() == [("rack1", 2_700.0, 1_500.0)]
    events = []
    plane.rack_listeners.append(lambda kind, rack: events.append((kind, rack)))
    n_specs = len(plane.specs)
    bed.sim.run(until=6_000.0)
    # 2 server uplinks + 2 ToR downlinks + ToR uplink + spine downlink
    assert len(plane.specs) == n_specs + 6
    added = plane.specs[n_specs:]
    assert all(s.kind == FaultKind.LINK_LOSS and s.probability == 1.0
               for s in added)
    names = {s.target for s in added}
    assert {"r1s0.up", "r1s1.up", "rack1.spine-up",
            "rack1.spine-down"} <= names
    assert ("down", "rack1") in events and ("up", "rack1") in events
    log_kinds = [(kind, comp) for _, kind, comp in plane.schedule_log]
    assert ("rack_down", "rack1") in log_kinds
    assert ("rack_up", "rack1") in log_kinds


def test_rack_down_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(kind=FaultKind.RACK_DOWN, target="rack0",
                  at_us=(100.0,))                       # no duration
    with pytest.raises(ValueError):
        FaultSpec(kind=FaultKind.RACK_DOWN, target="rack0",
                  probability=0.5, duration_us=10.0)    # not probabilistic
    FaultSpec(kind=FaultKind.RACK_DOWN, target="rack0",
              at_us=(100.0,), duration_us=10.0)


def test_fault_plane_rack_down_convenience():
    spec = rebalance_spec(seed=7, duration_us=6_000.0)
    bed = build(spec)
    bed.fault_plane.rack_down("rack2", at_us=1_000.0, duration_us=200.0)
    assert ("rack2", 1_000.0, 200.0) in bed.fault_plane.rack_schedule()


# -- cross-rack migration ------------------------------------------------------

def _steered_bed(seed=11):
    """A steered 3-rack deployment with no scheduled faults/rebalance."""
    spec = rebalance_spec(seed=seed, duration_us=60_000.0)
    spec = from_dict({**to_dict(spec), "faults": [], "rebalance": None})
    sim = Simulator()
    CheckPlane(sim, strict=False)
    bed = build(spec, sim=sim)
    client = SteeredChaosClient(bed.sim, bed.network, name="client0",
                                timeout_us=2_500.0,
                                port=bed.clients["client0"],
                                connections=1)
    return bed, client


def _flow_on(bed, backend: str) -> str:
    table = bed.steering.service("rkv").table
    for i in range(1000):
        if table.pick(f"client0:conn{i}") == backend:
            return f"conn{i}"
    raise AssertionError(f"no flow hashing to {backend}")


def _movable(bed, node_name: str):
    node = bed.app("rkv").nodes[node_name]
    return (["consensus", "memtable", "sst_read", "compaction"],
            node.detach, node.attach)


def test_cross_rack_migration_zero_loss_and_handoff():
    bed, client = _steered_bed()
    migrator = CrossRackMigrator(bed.sim, steering=bed.steering)
    flow = _flow_on(bed, "r1s0")
    client.decorate = lambda pkt, rid: pkt.meta.update(
        req_uid=("req", rid), steer_key=f"client0:{flow}")
    actors, detach, attach = _movable(bed, "r1s0")
    src = bed.server("r1s0").runtime
    dst = bed.server("r0s1").runtime

    def driver():
        for i in range(4):
            client.request("svc:rkv", "rkv-put",
                           {"key": f"k{i}", "value": b"x" * 32}, size=160)
            yield Timeout(300.0)
        yield from migrator.migrate(src, dst, actors, service="rkv",
                                    detach=detach, attach=attach,
                                    window_us=1_000.0)
        for i in range(4, 8):
            client.request("svc:rkv", "rkv-put",
                           {"key": f"k{i}", "value": b"x" * 32}, size=160)
            yield Timeout(300.0)

    spawn(bed.sim, driver(), name="driver")
    bed.sim.run(until=30_000.0)
    assert client.lost == 0 and client.answered == 8
    assert client.duplicate_replies == 0
    # the backend now lives on the destination
    assert src.actors.lookup("consensus") is None
    assert dst.actors.lookup("consensus") is not None
    assert bed.steering.service("rkv").epoch == 1
    # post-flush requests steered straight to the new home, and the
    # monitor saw nothing illegal
    assert not [v for v in bed.sim.checker.violations
                if v.monitor == "steering"]
    # migrated state survived: the keys written pre-move are readable
    node = bed.app("rkv").nodes["r1s0"]
    assert node.memtable.get("k0") == b"x" * 32


def test_phase3_arrival_is_buffered_then_forwarded():
    bed, client = _steered_bed()
    migrator = CrossRackMigrator(bed.sim, steering=bed.steering)
    flow = _flow_on(bed, "r1s0")
    client.decorate = lambda pkt, rid: pkt.meta.update(
        req_uid=("req", rid), steer_key=f"client0:{flow}")
    node = bed.app("rkv").nodes["r1s0"]
    node.prefill(2_000, 64)  # fatten the checkpoint: long phase 3
    actors, detach, attach = _movable(bed, "r1s0")
    src = bed.server("r1s0").runtime
    dst = bed.server("r2s1").runtime
    assert migrator.wire_transfer_us(
        src, len(node.detach()["memtable"]) * 80) > 40.0

    def mover():
        yield from migrator.migrate(src, dst, actors, service="rkv",
                                    detach=detach, attach=attach,
                                    window_us=1_500.0)

    t0 = 1_000.0
    bed.sim.post_at(t0, lambda: spawn(bed.sim, mover(), name="mover"))
    # lands mid-transfer: after drain, before the phase-4 hand-over
    bed.sim.post_at(t0 + 45.0, client.request, "svc:rkv", "rkv-get",
                    {"key": "key0000000000001"})
    bed.sim.run(until=20_000.0)
    assert client.lost == 0 and client.answered == 1
    report = migrator.reports[0]
    assert report.forwarded_requests >= 1
    assert report.moved_bytes > 100_000
    assert client.replies[0].payload["value"] is not None


def test_retransmit_racing_repoint_is_suppressed():
    bed, client = _steered_bed()
    client.timeout_us = 40.0  # retransmit while the move is in flight
    migrator = CrossRackMigrator(bed.sim, steering=bed.steering)
    flow = _flow_on(bed, "r1s0")
    client.decorate = lambda pkt, rid: pkt.meta.update(
        req_uid=("req", rid), steer_key=f"client0:{flow}")
    node = bed.app("rkv").nodes["r1s0"]
    node.prefill(2_000, 64)
    actors, detach, attach = _movable(bed, "r1s0")
    src = bed.server("r1s0").runtime
    dst = bed.server("r2s1").runtime

    def mover():
        yield from migrator.migrate(src, dst, actors, service="rkv",
                                    detach=detach, attach=attach,
                                    window_us=1_500.0)

    t0 = 1_000.0
    bed.sim.post_at(t0, lambda: spawn(bed.sim, mover(), name="mover"))
    bed.sim.post_at(t0 + 30.0, client.request, "svc:rkv", "rkv-put",
                    {"key": "kk", "value": b"v" * 16}, 140)
    bed.sim.run(until=20_000.0)
    assert client.answered == 1 and client.lost == 0
    assert client.retransmits >= 1
    # both copies reached the wire; exactly one was delivered
    assert src.steer_suppressed + dst.steer_suppressed >= 1
    assert client.duplicate_replies == 0
    assert not [v for v in bed.sim.checker.violations
                if v.monitor == "steering"]


def test_interrupted_migration_restarts_idempotently():
    bed, client = _steered_bed()
    migrator = CrossRackMigrator(bed.sim, steering=bed.steering)
    node = bed.app("rkv").nodes["r1s0"]
    node.prefill(2_000, 64)
    detach_calls = []
    actors, detach, attach = _movable(bed, "r1s0")

    def counting_detach():
        detach_calls.append(bed.sim.now)
        return detach()

    src = bed.server("r1s0").runtime
    dst_a = bed.server("r2s1").runtime
    dst_b = bed.server("r0s1").runtime
    outcome = {}

    def mover():
        try:
            yield from migrator.migrate(src, dst_a, actors, service="rkv",
                                        detach=counting_detach,
                                        attach=attach, window_us=1_000.0)
        except MigrationInterrupted as exc:
            outcome["interrupted"] = exc.dst_node
        report = yield from migrator.migrate(
            src, dst_b, actors, service="rkv",
            detach=counting_detach, attach=attach, window_us=1_000.0)
        outcome["report"] = report

    bed.sim.post_at(100.0, lambda: spawn(bed.sim, mover(), name="mover"))
    bed.sim.post_at(160.0, dst_a.stop)  # dies mid-transfer
    bed.sim.run(until=20_000.0)
    assert outcome["interrupted"] == "r2s1"
    # the checkpoint was taken exactly once: the retry resumed from the
    # recorded milestone instead of re-draining a deleted source
    assert len(detach_calls) == 1
    assert outcome["report"].direction == "xrack:r1s0->r0s1"
    assert src.actors.lookup("consensus") is None
    assert dst_b.actors.lookup("consensus") is not None
    assert bed.steering.service("rkv").table.pick("anything") != "r1s0"


# -- scenario spec plumbing ----------------------------------------------------

def test_steering_spec_roundtrip():
    spec = rebalance_spec(seed=5)
    again = from_dict(to_dict(spec))
    assert again == spec
    assert again.steering[0].window_us == 1_500.0
    assert again.rebalance.notice_us == 6_000.0


def test_steering_spec_validation_errors():
    base = to_dict(rebalance_spec(seed=5))
    bad = {**base, "steering": [{"service": "kv", "app": "nope"}]}
    with pytest.raises(ScenarioError, match="app 'nope' not"):
        from_dict(bad).validate()
    bad = {**base, "steering": [], "rebalance": None, "fleets": [
        {"client": "client0", "dst": "svc:rkv"}]}
    with pytest.raises(ScenarioError, match="steering service"):
        from_dict(bad).validate()
    bad = {**base, "steering": []}
    with pytest.raises(ScenarioError, match="rebalance: needs a steering"):
        from_dict(bad).validate()
    bad = {**base, "faults": [{"kind": "rack_down", "target": "rack9",
                               "at_us": [10.0], "duration_us": 5.0}]}
    with pytest.raises(ScenarioError, match="rack9"):
        from_dict(bad).validate()


def test_shipped_rebalance_spec_runs_deterministically():
    spec = load_shipped("multi-rack-rebalance")
    spec.validate()
    a = run_scenario(spec).fingerprint()
    b = run_scenario(spec).fingerprint()
    assert a == b
    assert a[2] > 0  # traffic actually flowed


# -- the acceptance study ------------------------------------------------------

QUICK = dict(seed=42, duration_us=20_000.0, n_requests=40,
             send_gap_us=300.0, notice_us=3_000.0)


def test_rebalance_chaos_quick_invariants():
    report = run_rebalance_chaos(**QUICK)
    assert report.ok, report.invariants
    assert report.invariants == {"zero_loss": True, "steering_safety": True,
                                 "evacuated": True, "returned": True}
    assert report.answered == report.requests == 40
    assert report.duplicate_replies == 0
    moves = report.steering["moves"]
    assert len(moves) == 2
    assert moves[0][3:] == ("r1s0", "r0s1")   # evacuation
    assert moves[1][3:] == ("r0s1", "r1s0")   # repatriation
    assert report.steering["epochs"] == 2


def test_rebalance_chaos_replays_bit_identically():
    a = run_rebalance_chaos(**QUICK)
    b = run_rebalance_chaos(**QUICK)
    assert a.telemetry_fingerprint() == b.telemetry_fingerprint()
    # the steering telemetry is folded into the fingerprint
    assert any("epochs" in str(part) for part in a.telemetry_fingerprint())


def test_cli_exposes_steering_chaos_target():
    from repro.cli import CHECK_TARGETS, _check_run_fn
    assert "steering-chaos" in CHECK_TARGETS
    assert "scenario-multi-rack-rebalance" in CHECK_TARGETS
    point = _check_run_fn("steering-chaos", quick=True, seed=42)()
    assert point["ok"] and point["invariants"]["zero_loss"]
