"""Virtual-time profiler: fold spans into attribution tables and export
Chrome ``trace_event`` JSON (loadable in Perfetto / chrome://tracing).

The fold answers the §5-style questions the aggregate snapshots cannot:
how many microseconds did requests spend waiting in the shared queue vs
being served, per actor, per core, per stage — and the export lets you
*see* one request's path across nodes on a common virtual-time axis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..sim import percentile
from .trace import Span

#: Stage ordering for reports (unknown categories sort after these).
STAGE_ORDER = ("ingress", "link", "sched.wait", "service", "forward",
               "accel", "channel", "channel.retx", "host", "migration")


def _stage_rank(cat: str) -> Tuple[int, str]:
    try:
        return (STAGE_ORDER.index(cat), cat)
    except ValueError:
        return (len(STAGE_ORDER), cat)


@dataclass
class StageStats:
    """Latency distribution of one pipeline stage."""

    stage: str
    count: int = 0
    total_us: float = 0.0
    durations: List[float] = field(default_factory=list)

    @property
    def mean_us(self) -> float:
        return self.total_us / self.count if self.count else 0.0

    def p(self, pct: float) -> float:
        return percentile(self.durations, pct) if self.durations else 0.0

    @property
    def p50_us(self) -> float:
        return self.p(50)

    @property
    def p99_us(self) -> float:
        return self.p(99)

    def as_dict(self) -> Dict[str, float]:
        return {"count": self.count, "total_us": self.total_us,
                "mean_us": self.mean_us, "p50_us": self.p50_us,
                "p99_us": self.p99_us}


def stage_breakdown(spans: Iterable[Span]) -> Dict[str, StageStats]:
    """Per-stage (span category) latency distribution."""
    stages: Dict[str, StageStats] = {}
    for span in spans:
        if span.end_us is None:
            continue
        st = stages.get(span.cat)
        if st is None:
            st = stages[span.cat] = StageStats(span.cat)
        dur = span.end_us - span.start_us
        st.count += 1
        st.total_us += dur
        st.durations.append(dur)
    return dict(sorted(stages.items(), key=lambda kv: _stage_rank(kv[0])))


def fold(spans: Iterable[Span],
         by: Sequence[str] = ("node", "cat", "actor")) -> List[Dict[str, Any]]:
    """Aggregate span time by a grouping key — the "flame" fold.

    ``by`` names span fields (``node``, ``cat``, ``name``, ``track``) or
    attribute keys (``actor``, ``core``, ``group`` …).  Returns rows with
    the key values plus ``count``, ``total_us``, ``mean_us``, sorted by
    descending total time.
    """
    groups: Dict[Tuple, Dict[str, Any]] = {}
    for span in spans:
        if span.end_us is None:
            continue
        key = []
        for dim in by:
            if dim in ("node", "cat", "name", "track"):
                key.append(getattr(span, dim))
            else:
                key.append(span.attrs.get(dim, "") if span.attrs else "")
        key = tuple(key)
        row = groups.get(key)
        if row is None:
            row = groups[key] = dict(zip(by, key))
            row["count"] = 0
            row["total_us"] = 0.0
        row["count"] += 1
        row["total_us"] += span.end_us - span.start_us
    rows = list(groups.values())
    for row in rows:
        row["mean_us"] = row["total_us"] / row["count"]
    rows.sort(key=lambda r: -r["total_us"])
    return rows


def render_flame(rows: List[Dict[str, Any]], by: Sequence[str],
                 limit: int = 40, total_us: Optional[float] = None) -> str:
    """Terse terminal table of a fold — ``repro top``'s output."""
    if not rows:
        return "(no spans recorded)"
    if total_us is None:
        total_us = sum(r["total_us"] for r in rows) or 1.0
    widths = [max(len(dim), *(len(str(r[dim])) for r in rows))
              for dim in by]
    header = "  ".join(dim.ljust(w) for dim, w in zip(by, widths))
    lines = [f"{header}  {'count':>8s} {'total(µs)':>12s} "
             f"{'mean(µs)':>9s} {'share':>6s}"]
    for row in rows[:limit]:
        key = "  ".join(str(row[dim]).ljust(w) for dim, w in zip(by, widths))
        share = row["total_us"] / total_us
        lines.append(f"{key}  {row['count']:>8d} {row['total_us']:>12.1f} "
                     f"{row['mean_us']:>9.2f} {share:>5.1%}")
    if len(rows) > limit:
        rest = sum(r["total_us"] for r in rows[limit:])
        lines.append(f"... {len(rows) - limit} more rows "
                     f"({rest:.1f}µs, {rest / total_us:.1%})")
    return "\n".join(lines)


def render_stages(stages: Dict[str, StageStats]) -> str:
    """Per-stage p50/p99 table for harness summaries."""
    if not stages:
        return "(no spans recorded)"
    width = max(len(s) for s in stages)
    lines = [f"{'stage'.ljust(width)}  {'count':>8s} {'p50(µs)':>9s} "
             f"{'p99(µs)':>9s} {'mean(µs)':>9s} {'total(µs)':>12s}"]
    for name, st in stages.items():
        lines.append(f"{name.ljust(width)}  {st.count:>8d} {st.p50_us:>9.2f} "
                     f"{st.p99_us:>9.2f} {st.mean_us:>9.2f} "
                     f"{st.total_us:>12.1f}")
    return "\n".join(lines)


# -- Chrome trace_event export -------------------------------------------------
def to_chrome_trace(spans: Iterable[Span]) -> Dict[str, Any]:
    """Chrome ``trace_event`` JSON object (Perfetto-loadable).

    Nodes map to processes, per-node tracks (core, host worker, wire,
    ring) to threads; every span becomes a complete ("X") event carrying
    its trace id and attributes in ``args`` so Perfetto's query/filter
    UI can follow one request across processes.
    """
    pids: Dict[str, int] = {}
    tids: Dict[Tuple[str, str], int] = {}
    events: List[Dict[str, Any]] = []

    def pid_of(node: str) -> int:
        node = node or "sim"
        if node not in pids:
            pids[node] = len(pids) + 1
            events.append({
                "name": "process_name", "ph": "M", "pid": pids[node],
                "tid": 0, "args": {"name": node}})
        return pids[node]

    def tid_of(node: str, track: str) -> int:
        key = (node or "sim", track or "main")
        if key not in tids:
            tids[key] = len(tids) + 1
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid_of(key[0]),
                "tid": tids[key], "args": {"name": key[1]}})
        return tids[key]

    for span in spans:
        if span.end_us is None:
            continue
        args: Dict[str, Any] = {"trace_id": span.trace_id,
                                "span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.attrs:
            for k, v in span.attrs.items():
                if isinstance(v, (str, int, float, bool)) or v is None:
                    args[k] = v
                else:
                    args[k] = repr(v)
        events.append({
            "name": span.name,
            "cat": span.cat or "span",
            "ph": "X",
            "ts": span.start_us,
            "dur": max(span.end_us - span.start_us, 0.001),
            "pid": pid_of(span.node),
            "tid": tid_of(span.node, span.track),
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"clock": "virtual-us"}}


def write_chrome_trace(spans: Iterable[Span], path: str) -> int:
    """Serialize to ``path``; returns the number of events written."""
    doc = to_chrome_trace(spans)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return len(doc["traceEvents"])
