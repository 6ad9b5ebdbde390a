"""Distributed tracing over virtual time.

A *trace* follows one request through the dataplane: wire → NIC ingress →
scheduler queue → actor handler → host↔NIC channel → host worker → reply.
Each hop contributes a :class:`Span` — a named, categorized interval of
virtual time with free-form attributes.  Spans sharing a ``trace_id``
belong to the same request, no matter which node (or side of the PCIe
bus) recorded them; the context rides in ``Message.meta["trace"]`` /
``Packet.meta["trace"]`` so it survives channel crossings, retransmits,
and cross-node Paxos/RDMA hops.

Two recording styles:

* **live spans** (:meth:`Tracer.start_span` … :meth:`Tracer.end`) for
  intervals that enclose other instrumentation — handler execution wraps
  accelerator invocations, so the accelerator span can name its parent;
* **retrospective spans** (:meth:`Tracer.record_span`) for intervals
  whose bounds are only known after the fact — queue wait is recorded in
  one call at service start, a link span at transmit time (its delivery
  instant is already computed).

Parenthood is only asserted where true interval containment holds (child
⊆ parent); cross-stage causality within a trace is carried by the shared
``trace_id`` plus virtual-time ordering.

The tracer is installed on the simulator (``sim.tracer``) by
:class:`~repro.obs.plane.TracePlane`; instrumentation sites use::

    tracer = self.sim.tracer
    if tracer is not None:
        ...

so a run without a TracePlane — or with a disabled one — pays a single
attribute lookup per event and allocates nothing.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

#: Trace context as carried in message/packet metadata.
SpanContext = Tuple[int, int]          # (trace_id, span_id)

_trace_ids = itertools.count(1)
_span_ids = itertools.count(1)


class Span:
    """One named interval of virtual time within a trace."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "cat",
                 "start_us", "end_us", "node", "track", "attrs")

    def __init__(self, trace_id: int, span_id: int, parent_id: Optional[int],
                 name: str, cat: str, start_us: float,
                 node: str = "", track: str = "",
                 attrs: Optional[Dict[str, Any]] = None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.cat = cat
        self.start_us = start_us
        self.end_us: Optional[float] = None
        self.node = node
        self.track = track
        self.attrs = attrs or {}

    @property
    def ctx(self) -> SpanContext:
        return (self.trace_id, self.span_id)

    @property
    def duration_us(self) -> float:
        return (self.end_us - self.start_us) if self.end_us is not None else 0.0

    @property
    def closed(self) -> bool:
        return self.end_us is not None

    def __repr__(self) -> str:
        end = f"{self.end_us:.2f}" if self.end_us is not None else "open"
        return (f"Span({self.cat}:{self.name} trace={self.trace_id} "
                f"[{self.start_us:.2f}, {end}]µs @{self.node}/{self.track})")


class Tracer:
    """Collects spans against a simulator's virtual clock.

    Finished spans land in :attr:`spans`, a bounded deque — when
    ``max_spans`` is exceeded the oldest spans are evicted and counted in
    :attr:`dropped` (long soak runs must not grow without bound).
    """

    def __init__(self, sim, max_spans: int = 200_000):
        self.sim = sim
        self.spans: Deque[Span] = deque(maxlen=max_spans)
        self._open: Dict[int, Span] = {}
        self.dropped = 0
        self.started = 0

    # -- recording -----------------------------------------------------------
    def new_trace(self) -> int:
        return next(_trace_ids)

    def start_span(self, name: str, cat: str,
                   trace: Optional[SpanContext] = None,
                   parent: Optional[Span] = None,
                   node: str = "", track: str = "",
                   **attrs: Any) -> Span:
        """Open a live span; close it with :meth:`end`.

        ``trace`` is the propagated context (the new span joins that
        trace); ``parent`` asserts strict interval containment and must be
        a span that encloses this one.  With neither, a fresh trace
        starts here.
        """
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        elif trace is not None:
            trace_id, parent_id = trace[0], None
        else:
            trace_id, parent_id = next(_trace_ids), None
        span = Span(trace_id, next(_span_ids), parent_id, name, cat,
                    self.sim.now, node=node, track=track, attrs=attrs or None)
        self._open[span.span_id] = span
        self.started += 1
        return span

    def end(self, span: Span) -> Span:
        """Close a live span at the current virtual time."""
        if span.end_us is None:
            span.end_us = self.sim.now
            self._open.pop(span.span_id, None)
            self._store(span)
        return span

    def record_span(self, name: str, cat: str,
                    start_us: float, end_us: float,
                    trace: Optional[SpanContext] = None,
                    parent: Optional[Span] = None,
                    node: str = "", track: str = "",
                    **attrs: Any) -> Span:
        """Record an already-finished interval in one call."""
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        elif trace is not None:
            trace_id, parent_id = trace[0], None
        else:
            trace_id, parent_id = next(_trace_ids), None
        span = Span(trace_id, next(_span_ids), parent_id, name, cat,
                    start_us, node=node, track=track, attrs=attrs or None)
        span.end_us = end_us
        self.started += 1
        self._store(span)
        return span

    def instant(self, name: str, cat: str,
                trace: Optional[SpanContext] = None,
                node: str = "", track: str = "", **attrs: Any) -> Span:
        """A zero-duration marker event."""
        return self.record_span(name, cat, self.sim.now, self.sim.now,
                                trace=trace, node=node, track=track, **attrs)

    def _store(self, span: Span) -> None:
        if (self.spans.maxlen is not None
                and len(self.spans) == self.spans.maxlen):
            self.dropped += 1
        self.spans.append(span)

    # -- introspection -------------------------------------------------------
    @property
    def open_spans(self) -> List[Span]:
        """Live spans not yet closed (should be empty after a drained run)."""
        return list(self._open.values())

    def close_all(self) -> int:
        """Close any still-open spans at the current time (end-of-run
        flush before export); returns how many were force-closed."""
        leftovers = list(self._open.values())
        for span in leftovers:
            self.end(span)
        return len(leftovers)

    def traces(self) -> Dict[int, List[Span]]:
        """Finished spans grouped by trace id, in start order."""
        grouped: Dict[int, List[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.trace_id, []).append(span)
        for spans in grouped.values():
            spans.sort(key=lambda s: (s.start_us, s.span_id))
        return grouped
