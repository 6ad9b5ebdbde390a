"""The name the rack-sharded executor used to have, kept for hostbench.

Every spec runs on one :class:`~repro.sim.Simulator`, whatever
``execution.shards`` says (docs/PERFORMANCE.md).  This wrapper stays only
because ``hostbench/attribution.py`` imports :class:`RackShardExecutor`
and reads its ``rounds`` and ``transfers``, and ``hostbench/`` changes
only with the benchmark itself.
"""

from __future__ import annotations

from typing import Optional

from ..scenario.run import ScenarioResult, run_scenario
from ..scenario.spec import ScenarioSpec


class RackShardExecutor:
    """``run()`` is ``run_scenario(spec, duration_us)``; no windows run,
    so ``rounds`` and ``transfers`` stay 0."""

    def __init__(self, spec: ScenarioSpec,
                 duration_us: Optional[float] = None):
        self.spec = spec
        self.duration_us = duration_us
        self.rounds = 0
        self.transfers = 0

    def run(self) -> ScenarioResult:
        return run_scenario(self.spec, self.duration_us)
