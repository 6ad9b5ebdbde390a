"""TracePlane: one object that turns a simulation observable.

Construct it against a :class:`~repro.sim.Simulator` *before* the
runtimes you want instrumented start executing::

    bed = make_testbed(seed=42)
    plane = TracePlane(bed.sim)            # tracing on
    ... build servers, run ...
    print(plane.render_stages())           # per-stage p50/p99
    plane.export_chrome("trace.json")      # open in Perfetto

Installation is one simulator attribute, ``sim.tracer``, which every
instrumentation site in the dataplane reads and skips while it is
``None`` — so a simulation without a TracePlane runs the exact seed code
path plus one attribute read per site.  Each dataplane stage records
one span, and :meth:`TracePlane.stage_report` is the per-stage view of
them.  Tracing never charges virtual time: two runs with the same seeds
produce identical results traced or not.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from .profiler import (
    fold,
    render_flame,
    render_stages,
    stage_breakdown,
    write_chrome_trace,
)
from .trace import Tracer


class TracePlane:
    """Owns the tracer for one simulation."""

    def __init__(self, sim):
        self.sim = sim
        self.tracer = Tracer(sim)
        sim.tracer = self.tracer

    def uninstall(self) -> None:
        """Detach from the simulator (spans already recorded are kept)."""
        if self.sim.tracer is self.tracer:
            self.sim.tracer = None

    # -- analysis ------------------------------------------------------------
    @property
    def spans(self):
        return self.tracer.spans

    def stage_breakdown(self) -> Dict[str, Any]:
        """Per-stage latency stats, ``{cat: StageStats}``."""
        return stage_breakdown(self.spans)

    def stage_report(self) -> Dict[str, Dict[str, float]]:
        """JSON-friendly per-stage p50/p99 table."""
        return {name: st.as_dict()
                for name, st in self.stage_breakdown().items()}

    def render_stages(self) -> str:
        return render_stages(self.stage_breakdown())

    def flame(self, by: Sequence[str] = ("node", "cat", "actor"),
              limit: int = 40) -> str:
        """The ``repro top`` table: span time folded by ``by``."""
        return render_flame(fold(self.spans, by=by), by=by, limit=limit)

    def export_chrome(self, path: str) -> int:
        """Write Chrome trace_event JSON; returns the event count."""
        self.tracer.close_all()
        return write_chrome_trace(self.spans, path)

    def violations(self):
        """Spans recorded by CheckPlane invariant monitors (category
        ``check.violation``) — one instant span per violation."""
        return [span for span in self.spans if span.cat == "check.violation"]
