"""Equivalence tests for the rack-sharded parallel-in-time executor.

The contract under test: running a multi-rack spec through
:class:`repro.exec.shard.RackShardExecutor` produces a
:class:`ScenarioResult` whose ``fingerprint()`` is bit-identical to the
serial single-simulator run, and the canonical per-event digest
(:mod:`repro.check.equiv`) matches — every event fires at the same
virtual time running the same code in both decompositions.
"""

from dataclasses import replace

import pytest

from repro.check import session_digest
from repro.check.sanitizer import SanitizerSession
from repro.core.dmo import DmoError
from repro.exec.shard import RackShardExecutor, serial_twin
from repro.scenario import (
    AppSpec,
    ClientSpec,
    FabricSpec,
    FleetSpec,
    RackSpec,
    ScenarioError,
    ScenarioSpec,
    ServerSpec,
    TenantSpec,
    load_shipped,
    run_scenario,
)
from repro.scenario.spec import ExecSpec
from repro.sim import FaultSpec

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:          # pragma: no cover - hypothesis is optional
    HAVE_HYPOTHESIS = False

def _sharded(spec):
    return replace(spec, execution=replace(spec.execution, shards="by-rack"))


# -- shipped multi-rack specs ------------------------------------------------

@pytest.mark.parametrize("name", ["multi-rack-rkv", "multi-rack-chaos"])
def test_shipped_spec_fingerprints_match(name):
    spec = load_shipped(name)
    serial = run_scenario(serial_twin(spec), duration_us=2_000.0)
    executor = RackShardExecutor(_sharded(spec), duration_us=2_000.0)
    sharded = executor.run()
    assert sharded.fingerprint() == serial.fingerprint()
    assert executor.rounds > 0
    assert executor.transfers > 0


def test_canonical_event_digest_matches():
    spec = load_shipped("multi-rack-rkv")
    with SanitizerSession(guard_hazards=False) as serial_session:
        serial = run_scenario(serial_twin(spec), duration_us=1_500.0)
    with SanitizerSession(guard_hazards=False) as shard_session:
        sharded = run_scenario(_sharded(spec), duration_us=1_500.0)
    assert sharded.fingerprint() == serial.fingerprint()
    assert session_digest(shard_session) == session_digest(serial_session)


def test_rack_down_fault_equivalence():
    spec = load_shipped("multi-rack-rkv")
    spec = replace(spec, faults=spec.faults + (
        FaultSpec(kind="rack_down", target="rack1",
                  at_us=(800.0,), duration_us=400.0),))
    serial = run_scenario(serial_twin(spec), duration_us=3_000.0)
    sharded = RackShardExecutor(spec, duration_us=3_000.0).run()
    assert serial.faults_injected > 0
    assert sharded.fingerprint() == serial.fingerprint()


# -- build-time planes: one construction path for both decompositions -------

def test_tenant_dmo_budget_applies_to_sharded_builds():
    spec = load_shipped("multi-rack-rkv")
    spec = replace(spec, tenants=(TenantSpec(name="t", dmo_budget_bytes=1),),
                   apps=(replace(spec.apps[0], tenant="t"),))
    with pytest.raises(DmoError, match="budget"):
        run_scenario(serial_twin(spec), duration_us=1_000.0)
    with pytest.raises(DmoError, match="budget"):
        RackShardExecutor(spec, duration_us=1_000.0).run()


def test_run_scenario_dispatches_by_rack():
    spec = load_shipped("multi-rack-rkv")
    serial = run_scenario(serial_twin(spec), duration_us=1_000.0)
    sharded = run_scenario(_sharded(spec), duration_us=1_000.0)
    assert sharded.fingerprint() == serial.fingerprint()


def test_tight_lookahead_stresses_protocol_not_results():
    spec = load_shipped("multi-rack-rkv")
    base = spec.fabric.inter_rack_propagation_us
    loose = RackShardExecutor(spec, duration_us=1_000.0)
    tight = RackShardExecutor(spec, duration_us=1_000.0,
                              lookahead_us=base / 4)
    assert tight.lookahead_us == pytest.approx(base / 4)
    # an override can only tighten the fabric-derived bound
    assert RackShardExecutor(
        spec, lookahead_us=base * 10).lookahead_us == pytest.approx(base)
    reference = loose.run().fingerprint()
    assert tight.run().fingerprint() == reference
    assert tight.rounds > loose.rounds


# -- degenerate and invalid decompositions -----------------------------------

def test_single_rack_spec_degenerates_to_serial():
    spec = ScenarioSpec(
        name="one-rack", seed=11, duration_us=1_500.0,
        racks=(RackSpec(name="rack0",
                        servers=(ServerSpec(name="s0", host_workers=2),
                                 ServerSpec(name="s1", host_workers=2)),
                        clients=(ClientSpec("c0"),)),),
        apps=(AppSpec(kind="rkv", servers=("s0", "s1")),),
        fleets=(FleetSpec(client="c0", dst="shard:rkv", mode="open",
                          rate_mpps=0.05, seed=3),))
    serial = run_scenario(serial_twin(spec))
    executor = RackShardExecutor(_sharded(spec))
    sharded = executor.run()
    assert sharded.fingerprint() == serial.fingerprint()
    assert executor.transfers == 0


@pytest.mark.parametrize("mutation, fragment", [
    (dict(shards="by-rack", fault_streams="shared"), "per-component"),
    (dict(shards="by-rack", processes=3), "processes"),
])
def test_by_rack_validation_rejections(mutation, fragment):
    # processes is a rule on one field, so ExecSpec itself refuses it
    with pytest.raises(ScenarioError, match=fragment):
        replace(load_shipped("multi-rack-rkv"),
                execution=ExecSpec(**mutation)).validate()


def test_by_rack_rejects_tracing():
    spec = load_shipped("multi-rack-rkv")
    spec = _sharded(replace(
        spec, observability=replace(spec.observability, trace=True)))
    with pytest.raises(ScenarioError, match="tracing"):
        RackShardExecutor(spec)


def test_executor_forces_by_rack_validation_on_serial_specs():
    spec = replace(load_shipped("multi-rack-rkv"),
                   execution=ExecSpec(shards="none", fault_streams="shared"))
    with pytest.raises(ScenarioError, match="per-component"):
        RackShardExecutor(spec)


# -- randomized cross-rack traffic (hypothesis) ------------------------------

def _random_grid_spec(racks: int, rate_mpps: float, seed: int,
                      rack_down: bool) -> ScenarioSpec:
    """A small multi-rack RKV deployment with all cross-rack traffic:
    the only client lives on rack0 while the replica group spans every
    rack, so every request and every Paxos round crosses the spine."""
    rack_specs = []
    for idx in range(racks):
        rack_specs.append(RackSpec(
            name=f"rack{idx}",
            servers=(ServerSpec(name=f"r{idx}s0", host_workers=2),),
            clients=(ClientSpec(f"c{idx}"),) if idx == 0 else ()))
    faults = ()
    if rack_down:
        faults = (FaultSpec(kind="rack_down", target="rack1",
                            at_us=(250.0,), duration_us=150.0),)
    return ScenarioSpec(
        name=f"grid-{racks}r", seed=seed, duration_us=800.0,
        racks=tuple(rack_specs), fabric=FabricSpec(),
        apps=(AppSpec(kind="rkv",
                      servers=tuple(f"r{i}s0" for i in range(racks))),),
        fleets=(FleetSpec(client="c0", dst="shard:rkv", mode="open",
                          rate_mpps=rate_mpps, seed=seed + 1),),
        faults=faults)


if HAVE_HYPOTHESIS:
    @settings(max_examples=6, deadline=None)
    @given(racks=st.integers(min_value=2, max_value=3),
           rate=st.sampled_from([0.02, 0.05, 0.1]),
           seed=st.integers(min_value=0, max_value=2**16),
           rack_down=st.booleans())
    def test_random_cross_rack_traffic_is_equivalent(racks, rate, seed,
                                                     rack_down):
        spec = _random_grid_spec(racks, rate, seed, rack_down)
        serial = run_scenario(serial_twin(spec))
        sharded = RackShardExecutor(spec).run()
        assert sharded.fingerprint() == serial.fingerprint()
else:                        # pragma: no cover - hypothesis is optional
    @pytest.mark.skip(reason="hypothesis not installed")
    def test_random_cross_rack_traffic_is_equivalent():
        pass
