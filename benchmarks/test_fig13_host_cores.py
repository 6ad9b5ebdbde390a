"""Figure 13: host CPU cores used by DPDK vs iPipe per role and size.

The paper drives each application to max throughput and reports the host
CPU usage of every role.  Here both systems run closed-loop at their
natural maximum; see EXPERIMENTS.md for the methodology note (our DPDK
baseline is host-bound rather than line-rate bound, so absolute savings
exceed the paper's while the orderings match).
"""

import pytest

from repro.exec import ParallelSweep
from repro.exec.grids import build_grid
from repro.experiments.applications import ROLES
from repro.experiments.report import render_table
from repro.nic import LIQUIDIO_CN2350, LIQUIDIO_CN2360


def _sweep(nic_spec):
    """The full fig13 grid (the one ``repro fig13`` runs) on one NIC:
    (system, app, size) -> AppRunResult."""
    points = build_grid("fig13", run_kwargs={"nic_spec": nic_spec})
    results = ParallelSweep().run(points).results
    return {key[1:]: result for key, result in results.items()}


def _report(cache, nic_spec, emit, title):
    sizes = sorted({size for _, _, size in cache})
    rows = [("role", "system") + tuple(f"{s}B" for s in sizes)]
    for role, (app, idx) in ROLES.items():
        for system in ("dpdk", "ipipe"):
            cells = tuple(
                f"{cache[(system, app, size)].host_cores[f's{idx}']:.2f}"
                for size in sizes)
            rows.append((role, system) + cells)
    emit(render_table(rows, title=title))


@pytest.mark.parametrize("nic_spec,label", [
    (LIQUIDIO_CN2350, "10GbE w/ LiquidIOII CN2350 (Figure 13a)"),
    (LIQUIDIO_CN2360, "25GbE w/ LiquidIOII CN2360 (Figure 13b)"),
])
def test_fig13_host_cores(once, emit, nic_spec, label):
    cache = once(_sweep, nic_spec)
    _report(cache, nic_spec, emit, f"Figure 13: host cores used, {label}")
    # iPipe saves host cores at 256B-1KB on every role
    for role, (app, idx) in ROLES.items():
        for size in (256, 512, 1024):
            dpdk = cache[("dpdk", app, size)].host_cores[f"s{idx}"]
            ipipe = cache[("ipipe", app, size)].host_cores[f"s{idx}"]
            assert ipipe <= dpdk + 0.25, (role, size, dpdk, ipipe)
