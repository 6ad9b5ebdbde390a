"""PlanPlane: the profile-driven offload placement compiler.

The reactive DRR scheduler answers "where should this actor run *right
now*"; PlanPlane answers the Lemur question — "where should every actor
and shard run, fabric-wide, given what we measured" — ahead of time:

1. **profile** a scenario under the TracePlane
   (:func:`~repro.plan.profile.profile_scenario`),
2. **solve** placement with the calibrated device cost models
   (:func:`~repro.plan.solver.solve`),
3. **emit** a declarative :class:`~repro.plan.spec.PlacementSpec` and
4. **apply** it as a pure transform over the ScenarioSpec
   (:func:`~repro.plan.spec.apply_placement`) — planned scenarios build,
   run, replay, and sanitize like any other spec.

The whole pipeline is deterministic end to end, so plans are cacheable
through the content-addressed :class:`~repro.exec.cache.ResultCache`.
"""

from __future__ import annotations

from typing import Optional

from ..exec.cache import ResultCache
from ..scenario.spec import ScenarioSpec
from .profile import (ActorProfile, PlanProfile, StageProfile,
                      profile_scenario)
from .spec import (ActorPlacement, PlacementSpec, PlanError,
                   ShardAssignment, apply_placement, from_dict, from_file,
                   from_json, to_dict, to_json)
from .solver import APP_ACTORS, HOST_UTIL_CAP, NIC_UTIL_CAP, solve

__all__ = [
    "ActorPlacement", "ActorProfile", "APP_ACTORS", "HOST_UTIL_CAP",
    "NIC_UTIL_CAP", "PlacementSpec", "PlanError", "PlanProfile",
    "ShardAssignment", "StageProfile", "apply_placement", "compute_plan",
    "from_dict", "from_file", "from_json", "plan_scenario",
    "profile_scenario", "solve", "to_dict", "to_json",
]


def compute_plan(spec: ScenarioSpec,
                 profile_duration_us: Optional[float] = None
                 ) -> PlacementSpec:
    """Profile ``spec`` and compile the placement (uncached)."""
    profile = profile_scenario(spec, profile_duration_us)
    return solve(profile, spec)


def plan_scenario(spec: ScenarioSpec,
                  profile_duration_us: Optional[float] = None,
                  cache: Optional[ResultCache] = None) -> PlacementSpec:
    """Like :func:`compute_plan`, memoized through ``cache`` when given.

    The cache key covers the spec content, the profiling window, and the
    package code fingerprint, so a stale planner never serves a stale
    plan.
    """
    kwargs = {"spec": spec, "profile_duration_us": profile_duration_us}
    if cache is None:
        return compute_plan(**kwargs)
    key = cache.key_for(compute_plan, kwargs)
    hit, value = cache.get(key)
    if hit:
        return value
    value = compute_plan(**kwargs)
    cache.put(key, value)
    return value
