"""Experiment grids: the paper's figures expressed as sweep points.

Each builder turns one figure (or study) into a list of independent
:class:`~repro.exec.sweep.SweepPoint` cells ready for
:class:`~repro.exec.sweep.ParallelSweep`.  Experiment modules are
imported lazily inside the builders so this module can be imported from
anywhere (including pool workers unpickling point functions) without
dragging the whole experiment surface in at import time.

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

#: Figure 13 per-size client counts (64B traffic needs more clients to
#: reach max throughput, mirroring cli._fig13).
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
    the loop order of the original hand-written builders.  ``key_order``
    permutes axis names into the SweepPoint key tuple when the original
    key order differed from the loop order.  ``cell`` maps one cell's
    axis values to the exact kwargs dict the point function receives.
    """

    name: str
    resolve: Callable[[], Callable]
    axes: Callable[[bool, Dict], List[Tuple[str, Sequence]]]
    cell: Callable[[Dict, bool, Dict], Dict]
    key_order: Optional[Tuple[str, ...]] = None


def build_grid(name: str, quick: bool = False, **overrides) -> List[SweepPoint]:
    """Materialise one grid definition into SweepPoint cells."""
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


def _fig16_nic():
    from ..nic import LIQUIDIO_CN2350
    return LIQUIDIO_CN2350


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
        cell=lambda c, quick, o: dict(
            system=c["system"], app=c["app"], packet_size=c["size"],
            clients=_FIG13_CLIENTS[c["size"]],
            duration_us=_pick(o, "duration_us", quick,
                              8_000.0, 15_000.0))),
    "fig14": GridDef(
        name="fig14",
        resolve=_resolve("applications", "run_app"),
        axes=lambda quick, o: [
            ("system", ("dpdk", "ipipe")),
            ("app", ("rta", "dt", "rkv")),
            ("clients", _pick(o, "client_counts", quick,
                              (2, 16), (2, 8, 24, 64))),
        ],
        cell=lambda c, quick, o: dict(
            system=c["system"], app=c["app"], packet_size=512,
            clients=c["clients"],
            duration_us=_pick(o, "duration_us", quick,
                              8_000.0, 12_000.0))),
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
            spec=_fig16_nic(), policy=c["policy"],
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
        cell=lambda c, quick, o: dict(
            system=c["system"], app="rkv", packet_size=512,
            clients=max(1, int(o.get("base_clients", 16) * c["frac"])),
            duration_us=_pick(o, "duration_us", quick,
                              8_000.0, 15_000.0))),
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


# -- the historical builder names, now thin spec wrappers ---------------------

def fig5_grid(quick: bool = False,
              sizes: Sequence[int] = (64, 512, 1024, 1500),
              cores: Sequence[int] = (6, 12),
              duration_us: Optional[float] = None) -> List[SweepPoint]:
    return build_grid("fig5", quick, sizes=sizes, cores=cores,
                      duration_us=duration_us)


def fig13_grid(quick: bool = False,
               sizes: Optional[Sequence[int]] = None,
               duration_us: Optional[float] = None) -> List[SweepPoint]:
    return build_grid("fig13", quick, sizes=sizes, duration_us=duration_us)


def fig14_grid(quick: bool = False,
               client_counts: Optional[Sequence[int]] = None,
               duration_us: Optional[float] = None) -> List[SweepPoint]:
    return build_grid("fig14", quick, client_counts=client_counts,
                      duration_us=duration_us)


def fig16_grid(quick: bool = False,
               dispersions: Sequence[str] = ("low", "high"),
               loads: Optional[Sequence[float]] = None,
               policies: Optional[Sequence[str]] = None,
               duration_us: Optional[float] = None,
               seed: int = 1) -> List[SweepPoint]:
    return build_grid("fig16", quick, dispersions=dispersions, loads=loads,
                      policies=policies, duration_us=duration_us, seed=seed)


def fig17_grid(quick: bool = False,
               load_fractions: Sequence[float] = (0.5, 1.0),
               duration_us: Optional[float] = None,
               base_clients: int = 16) -> List[SweepPoint]:
    return build_grid("fig17", quick, load_fractions=load_fractions,
                      duration_us=duration_us, base_clients=base_clients)


def fig18_grid(quick: bool = False) -> List[SweepPoint]:
    return build_grid("fig18", quick)


def chaos_grid(quick: bool = False,
               workloads: Sequence[str] = ("rkv", "dt", "rta"),
               seeds: Sequence[int] = (42,),
               trace: bool = False,
               duration_us: Optional[float] = None) -> List[SweepPoint]:
    return build_grid("chaos", quick, workloads=workloads, seeds=seeds,
                      trace=trace, duration_us=duration_us)


GRIDS = {
    "fig5": fig5_grid,
    "fig13": fig13_grid,
    "fig14": fig14_grid,
    "fig16": fig16_grid,
    "fig17": fig17_grid,
    "fig18": fig18_grid,
    "chaos": chaos_grid,
}
