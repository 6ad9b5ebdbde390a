"""TenantPlane tests (docs/TENANCY.md): spec round-trip and validation,
per-tenant DRR conservation under random share splits, cross-tenant DMO
denial under random op interleavings, quota-map eviction, and the
TenantMonitor injection checks (each planted violation is caught and
names the offending tenant/actor)."""

import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import TenantMonitor
from repro.core import Actor, ActorTable, DmoManager, Message, SchedulerConfig
from repro.core.dmo import DmoError
from repro.core.isolation import IsolationPolicy, QuotaEnforcer
from repro.core.scheduler import NicScheduler, WorkItem
from repro.nic import TrafficManager
from repro.scenario import (
    ScenarioError,
    TenantSpec,
    build,
    from_dict,
    load_shipped,
    to_dict,
)
from repro.sim import Simulator, Timeout


# -- spec layer --------------------------------------------------------------

def _tenant_spec_dict():
    return {
        "name": "tenancy-test",
        "racks": [{
            "name": "rack0",
            "servers": [{"name": "s0"}, {"name": "s1"}],
            "clients": [{"name": "c0"}],
        }],
        "apps": [
            {"kind": "rkv", "servers": ["s0", "s1"], "leader": "s0",
             "tenant": "gold"},
            {"kind": "rta", "servers": ["s1"], "tenant": "bronze"},
        ],
        "tenants": [
            {"name": "gold", "nic_core_share": 0.6,
             "dmo_budget_bytes": 1 << 20,
             "slos": ["rkv p99 < 500us over 2ms"]},
            {"name": "bronze", "nic_core_share": 0.4},
        ],
        "fleets": [{"client": "c0", "dst": "s0", "clients": 4,
                    "tenant": "gold"}],
        "observability": {"pulse": {"period_us": 500.0}},
        "duration_us": 5000.0,
    }


def test_tenant_spec_round_trips_through_dict():
    spec = from_dict(_tenant_spec_dict())
    spec.validate()
    assert spec.tenant_names() == ["gold", "bronze"]
    assert spec.tenant_of("gold").dmo_budget_bytes == 1 << 20
    again = from_dict(to_dict(spec))
    assert again == spec


def test_unknown_tenant_field_is_rejected():
    bad = _tenant_spec_dict()
    bad["tenants"][0]["bogus_knob"] = 1
    with pytest.raises(ScenarioError, match="bogus_knob"):
        from_dict(bad)


def test_app_with_undeclared_tenant_fails_validation():
    bad = _tenant_spec_dict()
    bad["apps"][1]["tenant"] = "nobody"
    with pytest.raises(ScenarioError, match="nobody"):
        from_dict(bad).validate()


def test_untenanted_app_fails_validation_when_tenants_declared():
    bad = _tenant_spec_dict()
    bad["apps"][1]["tenant"] = ""
    with pytest.raises(ScenarioError, match="no tenant"):
        from_dict(bad).validate()


def test_share_total_above_one_fails_validation():
    bad = _tenant_spec_dict()
    bad["tenants"][1]["nic_core_share"] = 0.6
    with pytest.raises(ScenarioError, match="exceeds 1"):
        from_dict(bad).validate()


def test_zero_share_tenant_is_allowed():
    # 0 = "declared but unshared": ledgers and monitors run, the
    # scheduler serves the tenant flat (the tenant-study's flat leg)
    flat = _tenant_spec_dict()
    for tenant in flat["tenants"]:
        tenant["nic_core_share"] = 0.0
    from_dict(flat).validate()


@pytest.mark.parametrize("text", [
    "rkv p150 < 40us over 2ms",        # pct out of (0, 100]
    "rkv p99 < 40us over 1us",         # window shorter than the pulse
    "rkv p99 < 0us over 2ms",          # used to raise in build()
])
def test_tenant_slos_are_checked_like_observability_slos(text):
    base = to_dict(load_shipped("multi-tenant-mixed"))
    as_observed = {**base, "observability": {
        **base["observability"], "slos": [text]}}
    with pytest.raises(ScenarioError) as observed:
        from_dict(as_observed).validate()
    (problem,) = observed.value.problems
    assert problem.startswith("slo rkv-p")
    base["tenants"][0]["slos"] = [text]
    with pytest.raises(ScenarioError) as tenant:
        from_dict(base).validate()
    assert tenant.value.problems == [f"tenant gold: {problem}"]


def test_tenant_slo_without_pulse_fails_validation():
    bad = _tenant_spec_dict()
    bad["observability"] = {}
    with pytest.raises(ScenarioError, match="pulse"):
        from_dict(bad).validate()


def test_tenant_timeout_must_be_positive():
    with pytest.raises(ValueError, match="timeout"):
        IsolationPolicy(tenant_timeout_us={"gold": 0.0})


# -- scheduler: hierarchical DRR conservation --------------------------------

class _Harness:
    """Scripted scheduler fixture (same shape as test_scheduler_unit)."""

    def __init__(self, cores=2, quantum=5.0):
        self.sim = Simulator()
        self.queue = TrafficManager(self.sim, hardware=True)
        self.table = ActorTable()
        self.scheduler = NicScheduler(
            self.sim, num_cores=cores, work_queue=self.queue,
            actor_table=self.table, executor=self._executor,
            config=SchedulerConfig(migration_enabled=False,
                                   downgrade_enabled=False,
                                   autoscale=False,
                                   # threshold 0: no dispersion-driven
                                   # upgrades; actors stay where scripted
                                   tail_thresh_us=0.0),
            quantum_fn=lambda actor: quantum)

    def _executor(self, core_id, actor, msg):
        yield from actor.exec_handler(actor, msg, None)

    def add_drr_actor(self, name, tenant, service_us):
        actor = self.add_fcfs_actor(name, tenant, service_us)
        actor.is_drr = True
        actor.service.record(service_us)
        self.scheduler.drr_runnable.append(actor)
        return actor

    def add_fcfs_actor(self, name, tenant, service_us):
        def handler(actor, msg, ctx):
            yield Timeout(service_us)

        actor = Actor(name, handler, concurrent=True, tenant=tenant)
        self.table.register(actor)
        return actor

    def push(self, actor_name, at):
        msg = Message(target=actor_name)
        msg.meta["nic_arrival"] = at
        item = WorkItem(message=msg, arrived_at=at)
        self.sim.post_at(at, self.queue.push, item)


def _monitor_for(sched, dmo=None):
    monitor = TenantMonitor()
    monitor.watch("s0", types.SimpleNamespace(nic_scheduler=sched,
                                              dmo=dmo or DmoManager()))
    return monitor


@given(share=st.floats(min_value=0.05, max_value=0.95),
       arrivals=st.lists(
           st.tuples(st.integers(min_value=0, max_value=3),
                     st.floats(min_value=0.0, max_value=80.0)),
           min_size=1, max_size=16))
@settings(max_examples=25, deadline=None)
def test_per_tenant_drr_conservation_under_random_share_splits(
        share, arrivals):
    h = _Harness(cores=2)
    h.scheduler.core_mode[1] = "drr"
    h.scheduler.set_tenant_shares({"gold": share, "bronze": 1.0 - share})
    names = []
    for i, (tenant, service) in enumerate((
            ("gold", 3.0), ("gold", 9.0), ("bronze", 2.0), ("bronze", 7.0))):
        names.append(f"{tenant}{i}")
        h.add_drr_actor(names[-1], tenant, service)
    for idx, at in arrivals:
        h.push(names[idx], at)
    h.sim.run(until=400.0)
    h.scheduler.stop()
    monitor = _monitor_for(h.scheduler)
    assert list(monitor.check(h.sim.now)) == []
    sched = h.scheduler
    # the per-tenant dicts partition the global ledger exactly
    assert sum(sched.tenant_granted_us.values()) == pytest.approx(
        sched.quantum_granted_us)
    assert sum(sched.tenant_spent_us.values()) == pytest.approx(
        sched.deficit_spent_us)
    assert set(sched.tenant_granted_us) <= {"gold", "bronze"}


def test_tenant_quantum_grants_scale_with_the_share():
    h = _Harness(cores=2, quantum=10.0)
    h.scheduler.core_mode[1] = "drr"
    h.scheduler.set_tenant_shares({"gold": 0.8, "bronze": 0.2})
    h.add_drr_actor("gold0", "gold", 4.0)
    h.add_drr_actor("bronze0", "bronze", 4.0)
    # the FCFS core is saturated with its own (implicit-tenant) traffic,
    # so DRR work is served through the quantum economy, not stolen
    h.add_fcfs_actor("bg", "", 5.0)
    for at in range(0, 200, 4):
        h.push("bg", float(at))
    for at in range(0, 200, 2):
        h.push("gold0", float(at))
        h.push("bronze0", float(at))
    h.sim.run(until=400.0)
    h.scheduler.stop()
    sched = h.scheduler
    # equal demand, 4:1 shares -> gold's pool is granted several times
    # bronze's quantum per scan (scale = share * runnable / members)
    assert sched.tenant_granted_us["gold"] > \
        2.0 * sched.tenant_granted_us["bronze"]
    assert list(_monitor_for(sched).check(h.sim.now)) == []


# -- DMO: cross-tenant denial under random interleavings ---------------------

_OPS = st.lists(
    st.tuples(st.sampled_from(["malloc", "read_own", "read_other", "free"]),
              st.integers(min_value=0, max_value=3),
              st.integers(min_value=32, max_value=512)),
    min_size=1, max_size=40)


@given(ops=_OPS)
@settings(max_examples=40, deadline=None)
def test_cross_tenant_dmo_denied_under_random_interleavings(ops):
    dmo = DmoManager(region_bytes=1 << 20)
    actors = {0: ("a0", "t1"), 1: ("a1", "t1"), 2: ("b0", "t2"),
              3: ("b1", "t2")}
    for name, tenant in actors.values():
        dmo.create_region(name, tenant=tenant)
    owned = {name: [] for name, _ in actors.values()}
    denials = 0
    for op, idx, size in ops:
        name, tenant = actors[idx]
        other = actors[(idx + 2) % 4][0]      # an actor of the other tenant
        if op == "malloc":
            owned[name].append(dmo.malloc(name, size))
        elif op == "free" and owned[name]:
            dmo.free(name, owned[name].pop().object_id)
        elif op == "read_own" and owned[name]:
            dmo.read(name, owned[name][-1].object_id)
        elif op == "read_other" and owned[other]:
            with pytest.raises(DmoError, match="cross-tenant"):
                dmo.read(name, owned[other][-1].object_id)
            denials += 1
    assert dmo.cross_tenant_denials == denials
    # usage ledgers always equal the live bytes, interleaving-independent
    for tenant in ("t1", "t2"):
        live = sum(o.size for objs in owned.values() for o in objs
                   if dmo.tenant_of(o.actor) == tenant)
        assert dmo.tenant_bytes_used(tenant) == live


def test_tenant_dmo_budget_exhaustion():
    dmo = DmoManager(region_bytes=1 << 20)
    dmo.create_region("a", tenant="t1")
    dmo.create_region("b", tenant="t1")
    dmo.set_tenant_budget("t1", 1000)
    dmo.malloc("a", 600)
    with pytest.raises(DmoError, match="budget exhausted"):
        dmo.malloc("b", 600)                  # 600+600 > 1000, cross-region
    obj = dmo.malloc("b", 400)
    dmo.free("b", obj.object_id)
    assert dmo.tenant_bytes_used("t1") == 600


# -- QuotaEnforcer -----------------------------------------------------------

def test_quota_enforcer_evicts_stale_entries():
    quota = QuotaEnforcer(window_us=100.0, max_share=0.5)
    quota.charge("a", 10.0, now=0.0, tenant="t1")
    quota.charge("b", 10.0, now=50.0, tenant="t1")
    assert quota.tracked_actors() == 2
    # a's last charge is 200µs stale by now=250: evicted on next charge
    quota.charge("c", 10.0, now=250.0, tenant="t2")
    assert quota.tracked_actors() == 1
    assert quota.share("a", now=250.0, total_cores=1) == 0.0
    # t1's window also rolled over; only t2 is live
    assert quota.tenant_share("t1", now=250.0, total_cores=1) == 0.0
    assert quota.tenant_share("t2", now=250.0, total_cores=1) > 0.0


def test_tenant_over_quota_uses_the_tenant_cap():
    quota = QuotaEnforcer(window_us=1000.0, max_share=0.9,
                          tenant_shares={"t1": 0.2})
    for now in (10.0, 20.0, 30.0):
        quota.charge("a", 3.0, now=now, tenant="t1")
    # ~39% of one core over the window: past t1's 20% cap, but well
    # under the 90% per-actor default
    assert quota.tenant_over_quota("t1", now=30.0, total_cores=1)
    assert not quota.over_quota("a", now=30.0, total_cores=1)


# -- TenantMonitor injection tests -------------------------------------------

def test_monitor_names_the_cross_tenant_offender():
    dmo = DmoManager(region_bytes=1 << 20)
    dmo.create_region("good", tenant="gold")
    dmo.create_region("evil", tenant="bronze")
    obj = dmo.malloc("good", 128)
    sched = _Harness().scheduler
    monitor = _monitor_for(sched, dmo)
    assert list(monitor.check(0.0)) == []
    with pytest.raises(DmoError):
        dmo.read("evil", obj.object_id)       # the planted access
    messages = list(monitor.check(1.0))
    assert len(messages) == 1
    assert "cross-tenant DMO access" in messages[0]
    assert "'evil'" in messages[0] and "'bronze'" in messages[0]
    assert "'good'" in messages[0] and "'gold'" in messages[0]
    # reported once, not on every later sweep
    assert list(monitor.check(2.0)) == []


def test_monitor_flags_a_planted_share_overrun():
    sched = _Harness(cores=2).scheduler
    sched.set_tenant_shares({"gold": 0.5, "bronze": 0.5})
    monitor = _monitor_for(sched)
    assert list(monitor.check(0.0)) == []
    # plant: gold spends quantum it was never granted, conservation
    # untouched (spent+forfeited constant) -> only the overrun fires
    sched.tenant_spent_us["gold"] = \
        sched.tenant_spent_us.get("gold", 0.0) + 50.0
    sched.tenant_forfeited_us["gold"] = \
        sched.tenant_forfeited_us.get("gold", 0.0) - 50.0
    sched.deficit_spent_us += 50.0
    sched.deficit_forfeited_us -= 50.0
    messages = list(monitor.check(1.0))
    assert len(messages) == 1
    assert "share overrun" in messages[0] and "'gold'" in messages[0]


def test_monitor_flags_a_planted_conservation_break():
    sched = _Harness(cores=2).scheduler
    sched.set_tenant_shares({"gold": 1.0})
    monitor = _monitor_for(sched)
    sched.tenant_granted_us["gold"] = \
        sched.tenant_granted_us.get("gold", 0.0) + 25.0   # nobody holds it
    messages = list(monitor.check(1.0))
    assert any("not conserved" in m and "'gold'" in m for m in messages)
    assert any("global ledger" in m for m in messages)


def test_monitor_flags_a_busted_byte_budget():
    dmo = DmoManager(region_bytes=1 << 20)
    dmo.create_region("a", tenant="gold")
    dmo.malloc("a", 512)
    dmo.set_tenant_budget("gold", 100)        # budget lowered under usage
    monitor = _monitor_for(_Harness().scheduler, dmo)
    messages = list(monitor.check(0.0))
    assert len(messages) == 1
    assert "exceeds the 100B budget" in messages[0]
    assert "'gold'" in messages[0]


# -- builder integration -----------------------------------------------------

def test_build_threads_tenancy_through_the_testbed():
    from repro.check import CheckPlane
    spec = from_dict(_tenant_spec_dict())
    sim = Simulator()
    CheckPlane(sim, strict=False)
    bed = build(spec, sim=sim)
    s0 = bed.servers["s0"].runtime
    s1 = bed.servers["s1"].runtime
    assert all(a.tenant == "gold" for a in s0.actors)
    kinds = {a.tenant for a in s1.actors}
    assert kinds == {"gold", "bronze"}        # rkv replica + rta pipeline
    assert s0.nic_scheduler.tenant_shares == {"gold": 0.6, "bronze": 0.4}
    assert all(s0.dmo.tenant_of(a.name) == "gold" for a in s0.actors)
    checker = bed.sim.checker
    assert checker is not None
    tenancy = [m for m in checker.monitors if m.name == "tenancy"]
    assert len(tenancy) == 1 and tenancy[0].watched == 2


def test_tenant_study_single_leg_smoke():
    from repro.experiments.tenant_study import run_tenant_chaos
    report = run_tenant_chaos(isolation=True, aggressor=False,
                              duration_us=6_000.0, n_requests=6)
    assert report.ok
    assert report.invariants["tenants_tagged"]
    assert report.invariants["tenant_invariants"]
    assert dict(report.pulse["tenant_busy_us"])["victim"] > 0.0


def test_tenant_study_feeds_the_victim_slo():
    # the victim's client names its service, so the victim tenant's
    # "rkv p99 < 400us over 2ms" SLO evaluates real samples
    from repro.experiments.tenant_study import run_tenant_chaos
    from repro.obs.metrics import no_data
    report = run_tenant_chaos(isolation=True, aggressor=False,
                              duration_us=6_000.0, n_requests=6)
    pulse = report.pulse_plane
    assert pulse.latency["rkv"].count == 6
    values = pulse.store.get("slo.victim.rkv-p99.value").values()
    assert values and any(not no_data(v) for v in values)
