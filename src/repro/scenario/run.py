"""Generic scenario runner and the shipped-spec registry.

``run_scenario(spec)`` builds the scenario, drives the simulator to the
spec's horizon, and collects a :class:`ScenarioResult` whose
``fingerprint()`` is a pure function of the simulation — the value the
determinism sanitizer and the round-trip tests compare.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .build import Scenario, build
from .spec import ScenarioSpec, from_file

SPEC_DIR = os.path.join(os.path.dirname(__file__), "specs")


@dataclass
class ScenarioResult:
    """Deterministic counters from one scenario run."""

    name: str
    seed: int
    duration_us: float
    sent: int = 0
    #: replies matched to a request, every fleet (not in the fingerprint)
    answered: int = 0
    #: answers to closed-loop fleets, the ones the fingerprint counts
    completed: int = 0
    mean_latency_us: float = 0.0
    p99_latency_us: float = 0.0
    client_received: Dict[str, int] = field(default_factory=dict)
    switch_counters: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    host_cores: Dict[str, float] = field(default_factory=dict)
    nic_cores: Dict[str, float] = field(default_factory=dict)
    faults_injected: int = 0
    recoveries: int = 0

    @property
    def throughput_mops(self) -> float:
        return self.answered / self.duration_us if self.duration_us else 0.0

    def fingerprint(self) -> Tuple:
        """A compact, order-stable digest of the run's observable state."""
        return (
            self.name, self.seed, self.sent, self.completed,
            round(self.mean_latency_us, 9), round(self.p99_latency_us, 9),
            tuple(sorted(self.client_received.items())),
            tuple(sorted(self.switch_counters.items())),
            self.faults_injected, self.recoveries,
        )


def _collect(scenarios: List[Scenario],
             duration_us: float) -> ScenarioResult:
    """Report one run: a single scenario when serial, one per rack when
    rack-sharded.  Latency samples concatenate by (fleet index,
    construction order) — the serial order, so the float summation in
    the mean is too — and spine counters sum over the per-rack spine
    replicas."""
    spec = scenarios[0].spec
    result = ScenarioResult(name=spec.name, seed=spec.seed,
                            duration_us=duration_us)
    generators = sorted(
        ((fleet_idx, gen) for scenario in scenarios
         for fleet_idx, gen in zip(scenario.gen_fleets, scenario.generators)),
        key=lambda entry: entry[0])
    latencies: List[float] = []
    for _, client in generators:
        result.sent += client.sent
        result.answered += client.answered
        # closed-loop fleets only: hostbench pins completed == 0 on its
        # open-loop workload (test_answered_requests_come_from_the_
        # client_ports); open loops join when that check changes
        if client.mode == "closed":
            result.completed += client.answered
            latencies.extend(client.latency.samples)
    if latencies:
        from ..sim import LatencyRecorder
        rec = LatencyRecorder("scenario")
        rec.samples = latencies
        result.mean_latency_us = rec.mean
        result.p99_latency_us = rec.p99
    spines = [scenario.network.spine for scenario in scenarios
              if scenario.network.spine is not None]
    for scenario in scenarios:
        for name, port in scenario.clients.items():
            result.client_received[name] = port.received
        for tor in scenario.network.switches.values():
            result.switch_counters[tor.name] = (tor.forwarded, tor.dropped)
        for name, server in scenario.servers.items():
            runtime = server.runtime
            result.host_cores[name] = runtime.host_cores_used(duration_us)
            if server.nic is not None:
                result.nic_cores[name] = server.nic.cores_used(duration_us)
        plane = scenario.fault_plane
        if plane is not None:
            result.faults_injected += plane.snapshot().total
            from ..core import recovery_snapshot
            result.recoveries += sum(
                recovery_snapshot(runtime).restarts
                for _, runtime in scenario.ipipe_runtimes())
    if spines:
        result.switch_counters["spine"] = (
            sum(spine.forwarded for spine in spines),
            sum(spine.dropped for spine in spines))
    return result


def run_scenario(spec: ScenarioSpec,
                 duration_us: Optional[float] = None) -> ScenarioResult:
    """Build the spec's scenario, run it to the horizon, report counters.

    A spec with ``execution.shards == "by-rack"`` is dispatched to the
    parallel-in-time :class:`~repro.exec.shard.RackShardExecutor`; the
    result (and its fingerprint) is identical either way — that
    equivalence is the executor's contract.
    """
    if spec.execution.shards == "by-rack":
        from ..exec.shard import RackShardExecutor
        return RackShardExecutor(spec, duration_us=duration_us).run()
    scenario = build(spec)
    horizon = duration_us if duration_us is not None else spec.duration_us
    scenario.run(until=horizon)
    scenario.stop()
    return _collect([scenario], horizon)


# -- shipped specs ------------------------------------------------------------

def shipped_specs() -> List[str]:
    """Names of the specs packaged under ``scenario/specs/``."""
    if not os.path.isdir(SPEC_DIR):
        return []
    return sorted(
        os.path.splitext(entry)[0]
        for entry in os.listdir(SPEC_DIR)
        if entry.endswith(".json")
    )


def load_shipped(name: str) -> ScenarioSpec:
    """Load a packaged spec by name (without extension)."""
    path = os.path.join(SPEC_DIR, f"{name}.json")
    if not os.path.exists(path):
        known = ", ".join(shipped_specs()) or "none"
        raise KeyError(f"no shipped scenario {name!r} (known: {known})")
    return from_file(path)
