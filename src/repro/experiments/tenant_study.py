"""Tenant study: noisy-neighbor isolation under hierarchical DRR.

The TenantPlane acceptance scenario (see ``docs/TENANCY.md``): one
SmartNIC server hosting three tenants' apps side by side — a *victim*
tenant running RKV, a *batch* tenant running DT, and an *aggressor*
tenant running RTA — plus a chaos fault schedule (wire loss + torn DMA)
so isolation is proved under recovery traffic, not just clean load.
The study runs the same workload three ways:

1. **solo** — victim + batch only: the victim's baseline p99;
2. **isolation off** — the aggressor floods its RTA pipeline; tenants
   are declared (so every ledger and monitor runs) but carry *no*
   shares, so the scheduler serves everyone flat and the victim's p99
   collapses;
3. **isolation on** — identical traffic, but the tenants carry
   NIC-core shares: hierarchical DRR scales the aggressor's quantum
   grants down to its share, the aggressor's accelerator use is
   rate-limited, and its DMO bytes are capped.

The acceptance criteria: with isolation on the victim's p99 stays
within 25% of solo; with isolation off it degrades at least 2x; the
:class:`~repro.check.monitors.TenantMonitor` reports zero violations
throughout (no cross-tenant DMO access, per-tenant quantum
conservation); and the whole study replays bit-identically (the
per-run ChaosReport fingerprints fold into one study fingerprint).

Usage::

    PYTHONPATH=src python -m repro tenant-study --quick
    PYTHONPATH=src python -m repro check --replay 2 tenant-study --quick

or, in code, ``repro.exec.grids.chaos_point("tenant", seed=42)`` (the
whole three-leg study as one record).
"""

from __future__ import annotations

from typing import Dict, List

from ..scenario import (
    AppSpec,
    ClientSpec,
    DtOptions,
    ObsSpec,
    PulseSpec,
    RackSpec,
    RkvOptions,
    ScenarioSpec,
    ServerSpec,
    TenantSpec,
)
from ..sim import FaultKind, FaultSpec, spawn
from .chaos_study import ChaosReport, flood, paced, rkv_requests, run_leg

#: NIC-core shares when isolation is on (sum <= 1 by spec validation).
VICTIM_SHARE = 0.85
AGGRESSOR_SHARE = 0.05
BATCH_SHARE = 0.1


def _p99(values: List[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(int(0.99 * len(ordered)), len(ordered) - 1)
    return ordered[idx]


def tenant_spec(isolation: bool, seed: int = 42,
                duration_us: float = 40_000.0, loss: float = 0.0,
                alive_cores: int = 2, core_fail_at_us: float = 1_000.0,
                period_us: float = 500.0,
                trace: bool = False) -> ScenarioSpec:
    """One rack, two servers; every tenant's app homes on s0 (the
    contended NIC), the DT participant rides on s1.  The *same* tenants
    are declared in both modes — isolation off only drops the shares,
    so actor tagging, ledgers and monitors are identical and the p99
    delta is attributable to the shares alone."""
    if isolation:
        tenants = (
            TenantSpec(name="victim", nic_core_share=VICTIM_SHARE,
                       dmo_budget_bytes=64 << 20,
                       slos=("rkv p99 < 400us over 2ms",)),
            TenantSpec(name="aggressor", nic_core_share=AGGRESSOR_SHARE,
                       dmo_budget_bytes=64 << 20),
            TenantSpec(name="batch", nic_core_share=BATCH_SHARE),
        )
    else:
        tenants = (
            TenantSpec(name="victim",
                       slos=("rkv p99 < 400us over 2ms",)),
            TenantSpec(name="aggressor"),
            TenantSpec(name="batch"),
        )
    return ScenarioSpec(
        name=f"tenant-{'isolated' if isolation else 'flat'}",
        seed=seed, duration_us=duration_us,
        racks=(RackSpec(
            name="rack0",
            servers=tuple(
                # a low tail threshold pushes every actor into the DRR
                # pool once the flood queues build, so the per-tenant
                # quantum scaling (not FCFS luck) decides who runs
                ServerSpec(name=n, host_workers=2, reliable=True,
                           scheduler=(("migration_enabled", False),
                                      ("tail_thresh_us", 8.0),
                                      ("mean_thresh_us", 4.0)))
                for n in ("s0", "s1")),
            clients=(ClientSpec("victim0"), ClientSpec("aggr0"),
                     ClientSpec("batch0"))),),
        apps=(
            AppSpec(kind="rkv", servers=("s0",), shards=1, tenant="victim",
                    options=RkvOptions(memtable_limit=256 * 1024)),
            AppSpec(kind="dt", servers=("s0", "s1"), tenant="batch",
                    options=DtOptions(log_segment_bytes=1 << 20)),
            AppSpec(kind="rta", servers=("s0",), tenant="aggressor"),
        ),
        tenants=tenants,
        faults=tuple(
            [FaultSpec(kind=FaultKind.LINK_LOSS, target="*",
                       probability=loss)] if loss > 0 else []
        ) + (
            FaultSpec(kind=FaultKind.DMA_TORN, target="s0.chan.*",
                      every_nth=400),
        ) + tuple(
            # the chaos leg of the study: most of s0's NIC cores fail
            # early, so every tenant is squeezed onto a sliver of the
            # NIC and the share split actually decides who gets served
            FaultSpec(kind=FaultKind.CORE_FAIL, target=str(core),
                      node="s0", at_us=(core_fail_at_us,))
            for core in range(alive_cores, 12)
        ),
        observability=ObsSpec(
            trace=trace,
            recovery_restart_delay_us=100.0,
            pulse=PulseSpec(period_us=period_us)))


def run_tenant_chaos(isolation: bool, aggressor: bool = True,
                     seed: int = 42, duration_us: float = 40_000.0,
                     n_requests: int = 60, send_gap_us: float = 400.0,
                     aggressor_start_us: float = 4_000.0,
                     aggressor_stop_us: float = 36_000.0,
                     aggressor_gap_us: float = 1.5,
                     loss: float = 0.0, alive_cores: int = 2,
                     trace: bool = False) -> ChaosReport:
    """One leg of the study: victim + batch traffic, optionally the
    aggressor flood, with or without tenant shares."""
    spec = tenant_spec(isolation, seed=seed, duration_us=duration_us,
                       loss=loss, alive_cores=alive_cores, trace=trace)

    def setup(bed):
        victim = bed.clients["victim0"].scripted(timeout_us=2_500.0)
        batch = bed.clients["batch0"].scripted(timeout_us=3_000.0)

        def judge(violations):
            runtime = bed.servers["s0"].runtime
            busy = runtime.nic_scheduler.tenant_busy_us
            return {
                "invariants": {
                    "batch_answered": batch.answered > 0,
                    "tenants_tagged": all(a.tenant for a in runtime.actors),
                    "no_cross_tenant_dmo":
                        runtime.dmo.cross_tenant_denials == 0,
                    "tenant_invariants": not violations,
                },
                # study riders: run_tenant_study compares the p99s
                "pulse": {
                    "victim_p99_us": round(_p99(victim.latency.samples), 6),
                    "tenant_busy_us": tuple(
                        (t, round(us, 3)) for t, us in sorted(busy.items())),
                },
            }

        spawn(bed.sim, paced(victim, n_requests, send_gap_us, rkv_requests(
            "s0", lambda i: f"k{i % 7}")), name="tenant-victim")
        # a light transactional trickle: the mixed-tenant background
        spawn(bed.sim, paced(
            batch, max(n_requests // 6, 1), send_gap_us * 6, lambda i: (
                "s0", "dt-txn", {"reads": [f"x{i % 4}"],
                                 "writes": {f"y{i % 4}": f"v{i}".encode()}},
                160)), name="tenant-batch")
        if aggressor:
            # analytics tuples straight at the shared server: without
            # shares the RTA pipeline's downgraded actors soak up every
            # DRR grant the victim needs
            spawn(bed.sim, flood(
                bed, "aggr0", "s0", "rta-tuple",
                lambda i: {"tuples": [f"#tag{i % 5} flood {i}"]},
                aggressor_start_us, aggressor_stop_us, aggressor_gap_us),
                name="tenant-aggressor")
        return victim, judge

    return run_leg("tenant", spec, n_requests, setup, monitor="tenancy")


def run_tenant_study(seed: int = 42, duration_us: float = 40_000.0,
                     n_requests: int = 60, send_gap_us: float = 400.0,
                     aggressor_stop_us: float = 36_000.0,
                     aggressor_gap_us: float = 1.5,
                     loss: float = 0.0, alive_cores: int = 2,
                     degradation_min: float = 2.0,
                     isolation_slack: float = 1.25,
                     trace: bool = False) -> Dict[str, object]:
    """The full three-leg comparison, as one plain record."""
    kwargs = dict(seed=seed, duration_us=duration_us,
                  n_requests=n_requests, send_gap_us=send_gap_us,
                  aggressor_stop_us=aggressor_stop_us,
                  aggressor_gap_us=aggressor_gap_us, loss=loss,
                  alive_cores=alive_cores, trace=trace)
    legs = {
        "solo": run_tenant_chaos(isolation=False, aggressor=False, **kwargs),
        "flat": run_tenant_chaos(isolation=False, aggressor=True, **kwargs),
        "isolated": run_tenant_chaos(isolation=True, aggressor=True,
                                     **kwargs),
    }
    solo_p99, flat_p99, iso_p99 = (leg.pulse["victim_p99_us"]
                                   for leg in legs.values())
    legs_ok = all(leg.ok for leg in legs.values())
    checks = {
        "legs_ok": legs_ok,
        "interference_shown": flat_p99 >= degradation_min * solo_p99,
        "isolation_holds": iso_p99 <= isolation_slack * solo_p99,
    }
    return {
        "workload": "tenant-study",
        "seed": seed,
        "victim_p99_solo_us": solo_p99,
        "victim_p99_flat_us": flat_p99,
        "victim_p99_isolated_us": iso_p99,
        "degradation_x": round(flat_p99 / solo_p99, 3) if solo_p99 else 0.0,
        "isolated_x": round(iso_p99 / solo_p99, 3) if solo_p99 else 0.0,
        "invariants": {**{f"{name}_{k}": v for name, leg in legs.items()
                          for k, v in leg.invariants.items()},
                       **checks},
        "ok": legs_ok and all(checks.values()),
        "fingerprint": tuple(leg.telemetry_fingerprint()
                             for leg in legs.values()),
    }
