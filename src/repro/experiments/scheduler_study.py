"""Figure 16: hybrid scheduler vs standalone FCFS and DRR (§5.4).

The workload generator replays per-actor request traces with Poisson
arrivals.  Two request-cost regimes:

* **low dispersion** — aggregate service times follow an exponential
  distribution (mean 32µs on the LiquidIOII, 27µs on the Stingray) built
  from many near-deterministic actors with different means;
* **high dispersion** — bimodal-2 (b1/b2 = 35/60µs resp. 25/55µs): a
  population of short actors plus a heavy actor receiving ~10% of traffic.

Three scheduler policies run the identical trace:

* ``fcfs``  — downgrades disabled: pure shared-queue FCFS;
* ``drr``   — every actor pre-downgraded to the DRR runnable queue;
* ``ipipe`` — the full hybrid (ALG 1 + ALG 2) with auto-scaling.

The figure reports client-observed P99 sojourn time as load rises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core import Actor, SchedulerConfig
from ..core.actor import Location
from ..nic import LIQUIDIO_CN2350, STINGRAY_PS225, NicSpec
from ..scenario import (
    ClientSpec,
    FabricSpec,
    ObsSpec,
    RackSpec,
    ScenarioSpec,
    ServerSpec,
    build,
)
from ..sim import LatencyRecorder, Rng, Timeout

POLICIES = ("fcfs", "drr", "ipipe")

#: Mean service times from §5.4.
MEAN_SERVICE_US = {LIQUIDIO_CN2350.model: 32.0, STINGRAY_PS225.model: 27.0}
#: Bimodal-2 (b1, b2) pairs from §5.4.
BIMODAL_US = {LIQUIDIO_CN2350.model: (35.0, 60.0),
              STINGRAY_PS225.model: (25.0, 55.0)}
#: Measured µ+3σ tail thresholds from §5.4.
TAIL_THRESH_US = {LIQUIDIO_CN2350.model: 52.8, STINGRAY_PS225.model: 44.6}


@dataclass(frozen=True)
class TraceActor:
    """One synthetic application actor in the trace."""

    name: str
    mean_us: float
    sigma: float          # lognormal shape of its per-request cost
    weight: float         # share of total traffic


def low_dispersion_actors(mean_us: float) -> List[TraceActor]:
    """A mix of near-deterministic actors whose aggregate is exponential.

    An exponential can be approximated by a hyper-mixture of deterministic
    stages; eight actors with geometric means and matched weights gets the
    aggregate CV close to 1 while each actor stays low-dispersion.
    """
    means = [mean_us * f for f in (0.15, 0.3, 0.5, 0.75, 1.0, 1.4, 2.2, 3.6)]
    # exponential tilted weights renormalized so Σ w·mean = mean_us
    raw = [math.exp(-m / mean_us) for m in means]
    scale = sum(raw)
    weights = [r / scale for r in raw]
    achieved = sum(w * m for w, m in zip(weights, means))
    means = [m * mean_us / achieved for m in means]
    return [TraceActor(f"app{i}", m, 0.10, w)
            for i, (m, w) in enumerate(zip(means, weights))]


def high_dispersion_actors(b1: float, b2: float, p_heavy: float = 0.10,
                           p_burst: float = 0.002) -> List[TraceActor]:
    """Bimodal-2: short actors at b1 plus a heavy actor at b2.

    b1/b2 are the bimodal fit's cluster centers (§5.4).  The underlying
    application trace additionally contains rare long bursts — the paper's
    §4 calls out exactly these (the ranker's quicksort and LSM compaction
    "could impact the NIC's ability to receive new data tuples") — which is
    what makes the workload *high* dispersion rather than the near-
    deterministic two-point mix the centers alone would suggest.  We model
    them as a 0.2% burst class at 100x b1 (~16% of offered CPU load —
    well below the 1% mark, so P99 measures the interference bursts
    inflict on the short classes rather than the bursts' own service), which
    lifts the aggregate CV^2 above 1 — the regime where processor sharing
    beats FCFS and the paper's Figure-16b separation appears.
    """
    p_short = 1.0 - p_heavy - p_burst
    actors = [TraceActor(f"short{i}", b1, 0.05, p_short / 4)
              for i in range(4)]
    actors.append(TraceActor("heavy", b2, 0.05, p_heavy))
    actors.append(TraceActor("burst", 100.0 * b1, 0.3, p_burst))
    return actors


def _make_handler(recorder: LatencyRecorder):
    def handler(actor, msg, ctx):
        yield Timeout(msg.payload["service_us"])
        recorder.record(ctx.sim.now - msg.meta["nic_arrival"])
        ctx.reply(msg, size=64)
    return handler


def _policy_scheduler(policy: str, spec: NicSpec) -> Tuple[Tuple[str, object], ...]:
    """The policy's SchedulerConfig overrides as declarative spec pairs."""
    tail = TAIL_THRESH_US[spec.model]
    if policy == "fcfs":
        return (("downgrade_enabled", False), ("migration_enabled", False),
                ("autoscale", False))
    if policy == "drr":
        return (("tail_thresh_us", 0.0), ("downgrade_enabled", False),
                ("migration_enabled", False), ("autoscale", False))
    if policy == "ipipe":
        # The full iPipe: downgrade/upgrade + push/pull migration.  Unlike
        # the standalone disciplines, iPipe may shed load to the host when
        # the NIC queues build up — that is the point of the framework.
        return (("tail_thresh_us", tail), ("migration_enabled", True),
                ("autoscale", True))
    raise ValueError(f"unknown policy {policy!r}")


def _policy_config(policy: str, spec: NicSpec) -> SchedulerConfig:
    return SchedulerConfig(**dict(_policy_scheduler(policy, spec)))


def run_point(spec: NicSpec, policy: str, dispersion: str, load: float,
              duration_us: float = 60_000.0, seed: int = 1,
              frame_bytes: int = 512,
              traced: bool = False) -> Tuple[float, ...]:
    """One (policy, dispersion, load) cell → (mean, p99) sojourn in µs.

    With ``traced=True`` a :class:`TracePlane` rides along and the return
    grows a third element: the per-stage p50/p99 table
    (``{stage: {count, p50_us, p99_us, ...}}``) attributing where the
    sojourn time went — queue wait vs service vs channel crossing.
    """
    if dispersion == "low":
        trace = low_dispersion_actors(MEAN_SERVICE_US[spec.model])
    elif dispersion == "high":
        trace = high_dispersion_actors(*BIMODAL_US[spec.model])
    else:
        raise ValueError(f"unknown dispersion {dispersion!r}")

    scenario = build(ScenarioSpec(
        name=f"fig16-{policy}-{dispersion}", seed=seed,
        duration_us=duration_us,
        racks=(RackSpec(
            name="rack0",
            servers=(ServerSpec(name="server", nic=spec,
                                host_workers=4,
                                scheduler=_policy_scheduler(policy, spec)),),
            clients=(ClientSpec("client"),)),),
        fabric=FabricSpec(bandwidth_gbps=spec.bandwidth_gbps),
        observability=ObsSpec(trace=traced)))
    tplane = scenario.trace_plane
    server = scenario.servers["server"]
    recorder = LatencyRecorder("sojourn")
    handler = _make_handler(recorder)
    rng = Rng(seed)
    for ta in trace:
        # Trace actors serve requests on any core (the apps provide their
        # own concurrency control, §3.1) — otherwise one hot actor would be
        # single-core bound and the load definition would not hold.
        actor = Actor(ta.name, handler, location=Location.NIC, concurrent=True)
        server.runtime.register_actor(actor)
        if policy == "drr":
            actor.is_drr = True
            server.runtime.nic_scheduler.drr_runnable.append(actor)
    if policy == "drr":
        # all cores run the DRR loop; idle cores pull from the shared
        # queue themselves (work conserving), so no core is sacrificed
        # for dispatch
        modes = server.runtime.nic_scheduler.core_mode
        for core in range(len(modes)):
            modes[core] = "drr"

    mean_service = sum(t.weight * t.mean_us for t in trace)
    rate_mpps = load * spec.cores / mean_service
    cumulative: List[Tuple[float, TraceActor]] = []
    acc = 0.0
    for ta in trace:
        acc += ta.weight
        cumulative.append((acc, ta))

    def payload_factory(i: int):
        u = rng.random()
        chosen = next(ta for threshold, ta in cumulative if u <= threshold + 1e-12)
        return {"kind": chosen.name,
                "service_us": rng.lognormal(chosen.mean_us, chosen.sigma)}

    client = scenario.clients["client"]
    gen = client.open_loop(dst="server", rate_mpps=rate_mpps,
                           size=frame_bytes, payload_factory=payload_factory,
                           rng=rng.fork(99))

    scenario.sim.run(until=duration_us)
    gen.stop()
    server.runtime.stop()
    warm = recorder.samples[len(recorder.samples) // 3:]
    warm_rec = LatencyRecorder("warm")
    warm_rec.samples = warm
    if tplane is not None:
        tplane.tracer.close_all()
        return warm_rec.mean, warm_rec.p99, tplane.stage_report()
    return warm_rec.mean, warm_rec.p99


#: one policy's curve: [(load, mean µs, p99 µs), ...]
Series = List[Tuple[float, float, float]]


def sweep(spec: NicSpec, dispersion: str,
          loads: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.8, 0.9),
          duration_us: float = 60_000.0, seed: int = 1,
          policies: Sequence[str] = POLICIES,
          executor=None) -> Dict[str, Series]:
    """One Figure-16 panel: policy → [(load, mean, p99), ...].

    The points are ``exec.grids.GRID_DEFS["fig16"]`` narrowed to one
    NIC and dispersion, run on ``executor``, a
    :class:`~repro.exec.sweep.ParallelSweep` (default: inline, serial).
    """
    from ..exec import ParallelSweep
    from ..exec.grids import build_grid
    points = build_grid("fig16", nic=spec, dispersions=(dispersion,),
                        policies=policies, loads=loads,
                        duration_us=duration_us, seed=seed)
    results = (executor or ParallelSweep()).run(points).results
    return policy_series(points, results)[dispersion]


def policy_series(points, results) -> Dict[str, Dict[str, Series]]:
    """Fold fig16 grid results: dispersion → policy → [(load, mean,
    p99), ...], in grid order."""
    panels: Dict[str, Dict[str, Series]] = {}
    for point in points:
        kw = point.kwargs
        panel = panels.setdefault(kw["dispersion"], {})
        panel.setdefault(kw["policy"], []).append(
            (kw["load"], *results[point.key]))
    return panels
