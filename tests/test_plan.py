"""Tests for the PlanPlane placement compiler (``repro.plan``)."""

import dataclasses
import json

import pytest

from repro.experiments.applications import deployment_spec
from repro.nic import LIQUIDIO_CN2350, host_for
from repro.plan import (
    ActorPlacement,
    PlacementSpec,
    PlanError,
    ShardAssignment,
    apply_placement,
    compute_plan,
    from_dict,
    from_json,
    profile_scenario,
    solve,
    to_json,
)
from repro.plan.profile import ActorProfile, PlanProfile
from repro.plan.solver import APP_ACTORS, NIC_UTIL_CAP
from repro.scenario import from_json as spec_from_json
from repro.scenario import run_scenario
from repro.scenario import to_json as spec_to_json


def _small_spec(app="rta", duration_us=4_000.0):
    return deployment_spec("ipipe", app, LIQUIDIO_CN2350,
                           packet_size=512, clients=8,
                           duration_us=duration_us, seed=3)


# -- determinism ---------------------------------------------------------------

def test_same_profile_solves_to_byte_identical_plan():
    spec = _small_spec()
    profile = profile_scenario(spec, duration_us=1_000.0)
    first, second = solve(profile, spec), solve(profile, spec)
    assert to_json(first) == to_json(second)
    assert first.fingerprint() == second.fingerprint()


def test_reprofiling_is_deterministic_end_to_end():
    spec = _small_spec()
    plans = [compute_plan(spec, profile_duration_us=1_000.0)
             for _ in range(2)]
    assert plans[0].profile_fingerprint == plans[1].profile_fingerprint
    assert to_json(plans[0]) == to_json(plans[1])


# -- capacity constraints ------------------------------------------------------

def _overload_profile(spec, load_per_actor=5.0):
    """A synthetic profile whose NIC-resident load exceeds the cap on
    every server, so the solver is forced to spill actors host-side."""
    rows = []
    for server in spec.server_names():
        for actor in APP_ACTORS["rta"]:
            rows.append(ActorProfile(
                server=server, actor=actor, device="nic", pinned=False,
                rate_per_us=1.0, service_us=load_per_actor,
                request_bytes=512.0))
    return PlanProfile(scenario=spec.name, seed=spec.seed,
                       duration_us=1_000.0, actors=tuple(rows))


def test_solver_respects_nic_capacity_cap():
    spec = _small_spec()
    nic_cores = float(LIQUIDIO_CN2350.cores)
    # 3 actors x 5µs x 1/µs = 15 busy cores offered per 12-core NIC:
    # well past the 0.7 cap, so a pure-NIC placement is infeasible
    profile = _overload_profile(spec)
    plan = solve(profile, spec)
    assert any(p.device == "host" for p in plan.actors)
    busy = {}
    for p in plan.actors:
        if p.device == "nic":
            # synthetic rows: nic service time == measured service time
            busy[p.server] = busy.get(p.server, 0.0) + 1.0 * 5.0
    for server, b in busy.items():
        assert b / nic_cores <= NIC_UTIL_CAP + 1e-9, server


def test_solver_never_moves_pinned_actors():
    spec = _small_spec("rkv")
    profile = profile_scenario(spec, duration_us=1_000.0)
    pinned = {(r.server, r.actor): r.device
              for r in profile.actors if r.pinned}
    assert pinned, "rkv profiles at least one pinned storage actor"
    plan = solve(profile, spec)
    for p in plan.actors:
        want = pinned.get((p.server, p.actor))
        if want is not None:
            assert p.device == want


# -- PlacementSpec serialisation ----------------------------------------------

def _tiny_plan():
    return PlacementSpec(
        scenario="toy", seed=7, profile_fingerprint="cafe1234",
        objective_p99_us=12.5,
        assignments=(ShardAssignment("rta", 0, ("s0", "s1", "s2")),),
        actors=(ActorPlacement("s0", "filter", "nic"),
                ActorPlacement("s0", "ranker", "host")))


def test_plan_json_round_trip_preserves_fingerprint():
    plan = _tiny_plan()
    again = from_json(to_json(plan))
    assert again == plan
    assert again.fingerprint() == plan.fingerprint()


def test_plan_unknown_fields_rejected_at_every_level():
    base = json.loads(to_json(_tiny_plan()))
    for mutate in (
        lambda d: d.update(surprise=1),
        lambda d: d["assignments"][0].update(surprise=1),
        lambda d: d["actors"][0].update(surprise=1),
    ):
        data = json.loads(json.dumps(base))
        mutate(data)
        with pytest.raises(PlanError, match="unknown field"):
            from_dict(data)


def test_plan_validate_lists_every_problem():
    plan = dataclasses.replace(
        _tiny_plan(),
        actors=(ActorPlacement("s0", "filter", "gpu"),
                ActorPlacement("s0", "filter", "gpu")),
        objective_p99_us=-1.0)
    with pytest.raises(PlanError) as err:
        plan.validate()
    text = str(err.value)
    assert "unknown device" in text
    assert "placed twice" in text
    assert "objective_p99_us" in text


# -- the ScenarioSpec transform ------------------------------------------------

def test_apply_placement_is_stable_and_round_trips():
    spec = _small_spec()
    plan = compute_plan(spec, profile_duration_us=1_000.0)
    planned = apply_placement(plan, spec)
    planned.validate()
    # deterministic transform: byte-identical spec JSON both times
    assert spec_to_json(planned) == spec_to_json(apply_placement(plan, spec))
    # the placement field survives the spec's own JSON round trip, and
    # so does the NicSpec object the deployment was built with
    text = spec_to_json(planned)
    reloaded = spec_from_json(text)
    assert spec_to_json(reloaded) == text
    assert reloaded == planned
    assert tuple(a.placement for a in reloaded.apps) \
        == tuple(a.placement for a in planned.apps)


def test_apply_placement_rejects_a_foreign_plan():
    spec = _small_spec()
    plan = dataclasses.replace(
        compute_plan(spec, profile_duration_us=1_000.0),
        scenario="some-other-scenario")
    with pytest.raises(PlanError, match="plan is for scenario"):
        apply_placement(plan, spec)


def test_planned_run_replays_bit_identically():
    spec = _small_spec(duration_us=3_000.0)
    plan = compute_plan(spec, profile_duration_us=1_000.0)
    planned = apply_placement(plan, spec)
    first = run_scenario(planned)
    second = run_scenario(planned)
    assert first.fingerprint() == second.fingerprint()


# -- CLI -----------------------------------------------------------------------

def test_plan_cli_exit_codes(tmp_path, capsys, monkeypatch):
    from repro.cli import main
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    # 2: usage error (argparse)
    with pytest.raises(SystemExit) as exit_info:
        main(["plan"])
    assert exit_info.value.code == 2

    # 2: unknown scenario, one line
    capsys.readouterr()
    assert main(["plan", "no-such-scenario"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("plan failed: no shipped scenario 'no-such-scenario'")
    assert err.count("\n") == 1

    # 0: plan a shipped scenario and write the artifact
    out = tmp_path / "plan.json"
    assert main(["plan", "multi-rack-rkv", "--out", str(out),
                 "--profile-us", "500", "--no-cache"]) == 0
    assert out.stat().st_size > 0
    emitted = from_json(out.read_text())
    assert emitted.validate() is emitted

    # 0: the emitted plan re-validates against its scenario from disk
    assert main(["plan", "multi-rack-rkv", "--validate", str(out)]) == 0

    # 1: a corrupt plan fails validation
    bad = tmp_path / "bad.json"
    data = json.loads(out.read_text())
    data["actors"][0]["device"] = "gpu"
    bad.write_text(json.dumps(data))
    assert main(["plan", "multi-rack-rkv", "--validate", str(bad)]) == 1
    assert "plan failed" in capsys.readouterr().err
