"""Experiment grids: the paper's figures expressed as sweep points.

:data:`GRID_DEFS` is the one definition of each figure grid — its axes
and its ``quick``/full presets.  :func:`build_grid` turns one into a
list of independent :class:`~repro.exec.sweep.SweepPoint` cells ready
for :class:`~repro.exec.sweep.ParallelSweep`; the experiment helpers
(``figure5_panel``, ``latency_throughput_curve``,
``overhead_comparison``, ``scheduler_study.sweep``), ``repro fig*`` and
``repro sweep`` all build their points here, narrowing a grid through
keyword overrides.  Experiment modules are imported lazily so this
module can be imported from anywhere (including pool workers unpickling
point functions) without dragging the whole experiment surface in at
import time.

Point functions must return picklable values; runners whose natural
return value holds live simulator state (the chaos studies' ChaosReport
carries a TracePlane) get a thin module-level wrapper here that reduces
the result to plain data — which is also exactly what the determinism
fingerprint tests compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .sweep import SweepPoint

#: Figure 13 per-size client counts: 64B traffic needs more clients to
#: reach max throughput.
_FIG13_CLIENTS = {64: 192, 256: 96, 512: 96, 1024: 96}


# -- picklable point wrappers -------------------------------------------------

def chaos_point(workload: str, **kwargs) -> Dict:
    """Run one acceptance leg of ``chaos_study.STUDIES`` as plain data.

    The record carries the deterministic-replay ``fingerprint``, the
    field the sweep determinism tests and ``repro check`` compare
    byte-for-byte; a composite study (tenant) returns its own record.
    """
    from ..experiments.chaos_study import STUDIES
    study = STUDIES[workload]
    out = study.run(**kwargs)
    return out if study.composite else out.to_record()


def fig18_point(**kwargs) -> List:
    """Figure 18 migration breakdown as picklable rows."""
    from ..experiments.migration_study import (breakdown_rows,
                                               run_migration_breakdown)
    return breakdown_rows(run_migration_breakdown(**kwargs))


# -- the spec-driven grid constructor -----------------------------------------

@dataclass(frozen=True)
class GridDef:
    """One figure grid as data: point function, axes, per-cell kwargs.

    ``axes`` maps (quick, overrides) to ordered ``(name, values)`` pairs;
    cells iterate the cartesian product with the first axis outermost —
    the order the helpers return and ``repro fig*`` prints.  ``key_order``
    permutes axis names into the SweepPoint key tuple when the key order
    differs from the loop order.  ``cell`` maps one cell's
    axis values to the exact kwargs dict the point function receives.
    """

    name: str
    resolve: Callable[[], Callable]
    axes: Callable[[bool, Dict], List[Tuple[str, Sequence]]]
    cell: Callable[[Dict, bool, Dict], Dict]
    key_order: Optional[Tuple[str, ...]] = None


def build_grid(name: str, quick: bool = False, **overrides) -> List[SweepPoint]:
    """Materialise one grid definition into SweepPoint cells, in axis
    order.  ``overrides`` narrow an axis or replace a preset; an override
    of None keeps the grid's own value."""
    gd = GRID_DEFS[name]
    fn = gd.resolve()
    axes = gd.axes(quick, overrides)
    axis_names = [axis for axis, _ in axes]
    key_names = list(gd.key_order or axis_names)
    points = []
    for combo in product(*[values for _, values in axes]):
        cell = dict(zip(axis_names, combo))
        key = (name, *(cell[axis] for axis in key_names))
        points.append(SweepPoint(key, fn, gd.cell(cell, quick, overrides)))
    return points


def _pick(overrides: Dict, key: str, quick: bool, quick_val, full_val):
    value = overrides.get(key)
    if value is not None:
        return value
    return quick_val if quick else full_val


def _resolve(module: str, attr: str) -> Callable[[], Callable]:
    def load():
        mod = import_module(f"repro.experiments.{module}")
        return getattr(mod, attr)
    return load


def _fig16_nic(overrides: Dict):
    from ..nic import LIQUIDIO_CN2350
    return overrides.get("nic") or LIQUIDIO_CN2350


def _app_cell(o: Dict, quick: bool, quick_us: float, full_us: float,
              **cell) -> Dict:
    """``run_app`` kwargs for one cell: the cell's own, the duration
    preset, then the caller's extra ``run_app`` kwargs (override
    ``run_kwargs``, e.g. ``nic_spec`` or ``prefill_keys``)."""
    return {**cell,
            "duration_us": _pick(o, "duration_us", quick, quick_us, full_us),
            **(o.get("run_kwargs") or {})}


def _chaos_cell(cell: Dict, quick: bool, o: Dict) -> Dict:
    from ..experiments.chaos_study import STUDIES
    kwargs: Dict = {"workload": cell["workload"], "seed": cell["seed"],
                    "trace": o.get("trace", False)}
    if quick:
        kwargs.update(STUDIES[cell["workload"]].quick)
    duration = o.get("duration_us")
    if duration is not None:
        kwargs["duration_us"] = duration
    return kwargs


GRID_DEFS: Dict[str, GridDef] = {
    "fig5": GridDef(
        name="fig5",
        resolve=_resolve("characterization", "traffic_manager_experiment"),
        axes=lambda quick, o: [
            ("size", o.get("sizes") or (64, 512, 1024, 1500)),
            ("cores", o.get("cores") or (6, 12)),
        ],
        cell=lambda c, quick, o: dict(
            frame_bytes=c["size"], cores=c["cores"],
            duration_us=_pick(o, "duration_us", quick, 8_000.0, 25_000.0))),
    "fig13": GridDef(
        name="fig13",
        resolve=_resolve("applications", "run_app"),
        axes=lambda quick, o: [
            ("size", _pick(o, "sizes", quick,
                           (512,), (64, 256, 512, 1024))),
            ("system", ("dpdk", "ipipe")),
            ("app", ("rta", "dt", "rkv")),
        ],
        key_order=("system", "app", "size"),
        cell=lambda c, quick, o: _app_cell(
            o, quick, 8_000.0, 15_000.0, system=c["system"], app=c["app"],
            packet_size=c["size"], clients=_FIG13_CLIENTS[c["size"]])),
    "fig14": GridDef(
        name="fig14",
        resolve=_resolve("applications", "run_app"),
        axes=lambda quick, o: [
            ("system", o.get("systems") or ("dpdk", "ipipe")),
            ("app", o.get("apps") or ("rta", "dt", "rkv")),
            ("clients", _pick(o, "client_counts", quick,
                              (2, 16), (2, 8, 24, 64))),
        ],
        cell=lambda c, quick, o: _app_cell(
            o, quick, 8_000.0, 12_000.0, system=c["system"], app=c["app"],
            packet_size=o.get("packet_size", 512), clients=c["clients"])),
    "fig16": GridDef(
        name="fig16",
        resolve=_resolve("scheduler_study", "run_point"),
        axes=lambda quick, o: [
            ("dispersion", o.get("dispersions") or ("low", "high")),
            ("policy", o.get("policies")
             or ("fcfs", "drr", "ipipe")),
            ("load", _pick(o, "loads", quick,
                           (0.5, 0.9), (0.3, 0.5, 0.7, 0.9))),
        ],
        cell=lambda c, quick, o: dict(
            spec=_fig16_nic(o), policy=c["policy"],
            dispersion=c["dispersion"], load=c["load"],
            duration_us=_pick(o, "duration_us", quick,
                              30_000.0, 100_000.0),
            seed=o.get("seed", 1))),
    "fig17": GridDef(
        name="fig17",
        resolve=_resolve("applications", "run_app"),
        axes=lambda quick, o: [
            ("frac", o.get("load_fractions") or (0.5, 1.0)),
            ("system", ("dpdk", "ipipe-hostonly")),
        ],
        key_order=("system", "frac"),
        cell=lambda c, quick, o: _app_cell(
            o, quick, 8_000.0, 15_000.0, system=c["system"], app="rkv",
            packet_size=o.get("packet_size", 512),
            clients=max(1, int(o.get("base_clients", 16) * c["frac"])))),
    "fig18": GridDef(
        name="fig18",
        resolve=lambda: fig18_point,
        axes=lambda quick, o: [],
        cell=lambda c, quick, o: dict(
            warmup_us=2_000.0 if quick else 5_000.0)),
    "chaos": GridDef(
        name="chaos",
        resolve=lambda: chaos_point,
        axes=lambda quick, o: [
            ("workload", o.get("workloads") or ("rkv", "dt", "rta")),
            ("seed", o.get("seeds") or (42,)),
        ],
        cell=_chaos_cell),
}
