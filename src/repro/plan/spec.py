"""PlacementSpec: a declarative placement plan over a ScenarioSpec.

A plan is the *output* of the placement compiler (:mod:`repro.plan.solver`)
and the *input* of :func:`apply_placement`, which rewrites a
:class:`~repro.scenario.spec.ScenarioSpec` so the planned placement is
what :func:`repro.scenario.build` assembles — no imperative steps, no
runtime hooks.  Like scenario specs, plans are plain frozen dataclasses:
JSON round-trippable through the scenario spec codec, ``validate()``-checked,
and fingerprint-stable across processes (the fingerprint is a CRC over
the canonical JSON form, so byte-identical plans hash identically and a
cached plan can be trusted by content).

Two decisions make up a plan:

* **shard assignment** — which replica group (and leader) each shard of
  each app lands on, expressed so that
  :meth:`~repro.scenario.spec.AppSpec.replica_groups`'s round-robin deal
  reproduces the planned groups exactly;
* **actor/device placement** — per ``server/actor``, whether the actor
  runs on the SmartNIC cores (``nic``) or the host (``host``).
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from ..scenario.spec import ScenarioSpec, decode, to_dict

PLAN_VERSION = 1

DEVICES = ("nic", "host")


class PlanError(ValueError):
    """A plan failed validation; ``problems`` lists every finding."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class ShardAssignment:
    """One shard's replica group, leader first."""

    app: str                           # app kind (rkv | dt | rta | ...)
    shard: int
    servers: Tuple[str, ...] = ()      # replica group; servers[0] leads


@dataclass(frozen=True)
class ActorPlacement:
    """One actor's device on one server."""

    server: str
    actor: str
    device: str                        # nic | host


@dataclass(frozen=True)
class PlacementSpec:
    """A whole fabric-wide placement, as data."""

    scenario: str                      # name of the scenario planned over
    seed: int = 42
    profile_fingerprint: str = ""      # fingerprint of the input profile
    objective_p99_us: float = 0.0      # solver's predicted p99
    assignments: Tuple[ShardAssignment, ...] = ()
    actors: Tuple[ActorPlacement, ...] = ()
    version: int = PLAN_VERSION

    # -- introspection --------------------------------------------------------
    def groups_for(self, app_kind: str) -> List[List[str]]:
        """Planned replica groups of one app, in shard order."""
        rows = sorted((a for a in self.assignments if a.app == app_kind),
                      key=lambda a: a.shard)
        return [list(a.servers) for a in rows]

    def device_of(self, server: str, actor: str) -> str:
        for p in self.actors:
            if p.server == server and p.actor == actor:
                return p.device
        return ""

    # -- validation -----------------------------------------------------------
    def validate(self) -> "PlacementSpec":
        """Raise :class:`PlanError` listing every problem found."""
        problems: List[str] = []
        if not self.scenario:
            problems.append("plan names no scenario")
        if self.version != PLAN_VERSION:
            problems.append(f"unknown plan version {self.version!r} "
                            f"(expected {PLAN_VERSION})")
        by_app: Dict[str, List[ShardAssignment]] = {}
        for a in self.assignments:
            by_app.setdefault(a.app, []).append(a)
            if not a.servers:
                problems.append(f"{a.app} shard {a.shard}: empty replica "
                                f"group")
            dupes = {s for s in a.servers if a.servers.count(s) > 1}
            if dupes:
                problems.append(f"{a.app} shard {a.shard}: duplicate "
                                f"servers {sorted(dupes)}")
        for app, rows in by_app.items():
            shards = sorted(a.shard for a in rows)
            if shards != list(range(len(rows))):
                problems.append(f"{app}: shard indices {shards} are not "
                                f"0..{len(rows) - 1}")
            placed = [s for a in rows for s in a.servers]
            dupes = {s for s in placed if placed.count(s) > 1}
            if dupes:
                problems.append(f"{app}: servers {sorted(dupes)} appear in "
                                f"more than one replica group")
        seen = set()
        for p in self.actors:
            if p.device not in DEVICES:
                problems.append(f"{p.server}/{p.actor}: unknown device "
                                f"{p.device!r} (have {DEVICES})")
            key = (p.server, p.actor)
            if key in seen:
                problems.append(f"{p.server}/{p.actor}: placed twice")
            seen.add(key)
        if self.objective_p99_us < 0:
            problems.append("objective_p99_us must be >= 0")
        if problems:
            raise PlanError(problems)
        return self

    # -- fingerprint ----------------------------------------------------------
    def fingerprint(self) -> str:
        """Content fingerprint: stable across processes and runs (a CRC
        over the canonical JSON form, like the scenario result digests)."""
        text = json.dumps(to_dict(self), sort_keys=True,
                          separators=(",", ":"))
        return f"{zlib.crc32(text.encode()):08x}"


# -- serialisation ------------------------------------------------------------

def from_dict(data: Dict[str, Any]) -> PlacementSpec:
    """Rebuild a plan from :func:`to_dict` output through the scenario
    spec codec: unknown keys and mistyped values raise :class:`PlanError`
    naming their path, so typos do not silently no-op."""
    return decode(PlacementSpec, data, PlanError)


def to_json(plan: PlacementSpec, indent: int = 2) -> str:
    return json.dumps(to_dict(plan), indent=indent, sort_keys=False) + "\n"


def from_json(text: str) -> PlacementSpec:
    return from_dict(json.loads(text))


def from_file(path: str) -> PlacementSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())


# -- the transform ------------------------------------------------------------

def _dealt_servers(groups: List[List[str]]) -> List[str]:
    """Invert :meth:`AppSpec.replica_groups`'s round-robin deal: a server
    list whose ``servers[i::shards]`` slices reproduce ``groups``."""
    shards = len(groups)
    sizes = [len(g) for g in groups]
    total = sum(sizes)
    expected = [len(range(i, total, shards)) for i in range(shards)]
    if sizes != expected:
        raise PlanError(
            [f"replica group sizes {sizes} cannot come out of a "
             f"{shards}-way round-robin deal over {total} servers "
             f"(expected {expected})"])
    out: List[str] = [""] * total
    for g, group in enumerate(groups):
        for j, server in enumerate(group):
            out[g + shards * j] = server
    return out


def apply_placement(plan: PlacementSpec, spec: ScenarioSpec) -> ScenarioSpec:
    """Rewrite ``spec`` so building it realises ``plan``.

    * each planned app's ``servers`` list is re-dealt so the replica
      groups (and per-group leaders: always ``group[0]``) match the
      plan's shard assignments;
    * every planned ``server/actor`` device lands in the app's
      ``placement`` field, which :func:`repro.scenario.build` applies as
      a build-time pin (before any traffic, so determinism holds).

    Raises :class:`PlanError` when the plan does not fit the spec.
    """
    plan.validate()
    problems: List[str] = []
    if plan.scenario != spec.name:
        problems.append(f"plan is for scenario {plan.scenario!r}, "
                        f"not {spec.name!r}")
    known = set(spec.server_names())
    for a in plan.assignments:
        for server in a.servers:
            if server not in known:
                problems.append(f"{a.app} shard {a.shard}: unknown server "
                                f"{server!r}")
    for p in plan.actors:
        if p.server not in known:
            problems.append(f"actor placement {p.server}/{p.actor}: "
                            f"unknown server {p.server!r}")
    if problems:
        raise PlanError(problems)

    new_apps = []
    for app in spec.apps:
        groups = plan.groups_for(app.kind)
        if not groups:
            new_apps.append(app)
            continue
        old_groups = app.replica_groups(spec.server_names())
        if sorted(s for g in groups for s in g) \
                != sorted(s for g in old_groups for s in g):
            raise PlanError(
                [f"{app.kind}: planned groups place "
                 f"{sorted(s for g in groups for s in g)} but the spec "
                 f"deploys {sorted(s for g in old_groups for s in g)}"])
        pins = tuple(sorted(
            (f"{p.server}/{p.actor}", p.device)
            for p in plan.actors
            if any(p.server in g for g in groups)))
        new_apps.append(dataclasses.replace(
            app, servers=tuple(_dealt_servers(groups)), leader=None,
            placement=pins))
    return dataclasses.replace(spec, apps=tuple(new_apps))
