"""CheckPlane: one object that turns a simulation self-checking.

Construct it against a :class:`~repro.sim.Simulator` *before* the
runtimes you want monitored, exactly like
:class:`~repro.obs.plane.TracePlane`::

    sim = Simulator()
    plane = CheckPlane(sim)                # monitors on, strict
    runtime = IPipeRuntime(sim, ...)       # auto-registers its monitors
    sim.run()
    assert not plane.violations

Installation is one simulator attribute (``sim.checker``) the engine
checks per event; without a CheckPlane a run pays a single attribute
read per event and nothing else.  Monitors never charge virtual time,
so checked and unchecked runs produce identical results.

Violations carry the active trace context when a tracer is installed
(the enclosing handler span for synchronous Paxos checks, the most
recent open span otherwise), emit a ``check.violation`` instant span
and a ``check.violations`` metric, and — in strict mode (default) —
raise :class:`~repro.check.monitors.InvariantViolation` at the point
of detection.

The same object is the engine-side channel of the determinism
sanitizer: when constructed with a ``recorder``
(:class:`~repro.check.sanitizer.StepRecorder`), every schedule and
every fired event is forwarded into the rolling step digest.
"""

from __future__ import annotations

from typing import Dict, List

from .monitors import (
    ChannelMonitor,
    DmoMonitor,
    InvariantViolation,
    PaxosMonitor,
    PulseMonitor,
    RequestMonitor,
    RingMonitor,
    SchedulerMonitor,
    SteeringMonitor,
    TenantMonitor,
    Violation,
)

#: Default monitor sweep period, in engine events.  Monitors are
#: incremental-cost observers; every-event checking is only worth it in
#: targeted tests (pass ``every=1``).
DEFAULT_EVERY = 256


class CheckPlane:
    """Owns the invariant monitors (and optional sanitizer channel) for
    one simulator."""

    def __init__(self, sim, every: int = DEFAULT_EVERY, strict: bool = True,
                 recorder=None, sim_index: int = 0, monitors: bool = True):
        self.sim = sim
        self.every = max(int(every), 1)
        self.strict = strict
        self.recorder = recorder
        self.sim_index = sim_index
        self.monitoring = monitors
        self.monitors: List = []
        self.violations: List[Violation] = []
        self._tick = self.every
        #: monitor class -> the one instance the watch_* methods share
        self._singletons: Dict[type, object] = {}
        sim.checker = self

    def uninstall(self) -> None:
        """Detach from the simulator (recorded violations are kept)."""
        if self.sim.checker is self:
            self.sim.checker = None

    # -- engine hook (called by Simulator.run) ----------------------------
    def on_schedule(self, when: float, seq: int, fn) -> None:
        rec = self.recorder
        if rec is not None:
            rec.on_schedule(self.sim_index, self.sim._running, when, seq, fn)

    def after_step(self, when: float, seq: int, fn) -> None:
        rec = self.recorder
        if rec is not None:
            rec.after_step(self.sim_index, when, seq, fn)
        if self.monitors and self.monitoring:
            self._tick -= 1
            if self._tick <= 0:
                self._tick = self.every
                self.check_now()

    # -- monitor management ----------------------------------------------
    def add_monitor(self, monitor) -> None:
        self.monitors.append(monitor)

    def wire_runtime(self, runtime) -> None:
        """Attach the full monitor set for one IPipeRuntime.

        Called automatically from ``IPipeRuntime.__init__`` when the
        runtime's simulator already carries this CheckPlane.
        """
        if not self.monitoring:
            return
        self.add_monitor(SchedulerMonitor(runtime.nic_scheduler))
        self.add_monitor(DmoMonitor(runtime.dmo,
                                    component=runtime.node_name))
        self.add_monitor(RingMonitor(runtime.channel.to_host))
        self.add_monitor(RingMonitor(runtime.channel.to_nic))
        if runtime.rchannel is not None:
            self.add_monitor(ChannelMonitor(runtime.rchannel))

    def _monitor(self, cls, *args):
        """The plane's one monitor of ``cls``, made on first use."""
        monitor = self._singletons.get(cls)
        if monitor is None:
            monitor = self._singletons[cls] = cls(*args)
            self.add_monitor(monitor)
        return monitor

    def watch_paxos(self, group: str, *nodes) -> PaxosMonitor:
        """Watch a Paxos replica group for conflicting chosen values."""
        monitor = self._monitor(PaxosMonitor, self)
        for node in nodes:
            monitor.watch(group, node)
        return monitor

    def watch_scenario(self, scenario) -> None:
        """Register the plane monitors a built scenario calls for, in
        this order: tenancy (when the spec declares tenants), steering,
        pulse, Paxos over every rkv replica group with more than one
        member, then request accounting over the client ports.  Called
        once, at the end of :func:`repro.scenario.build`."""
        if not self.monitoring:
            return
        spec = scenario.spec
        if spec.tenants:
            tenancy = self._monitor(TenantMonitor)
            for name, runtime in scenario.ipipe_runtimes():
                tenancy.watch(name, runtime)
        if scenario.steering is not None:
            self._monitor(SteeringMonitor, scenario.steering)
        if scenario.pulse_plane is not None:
            self._monitor(PulseMonitor, scenario.pulse_plane)
        for a, app in enumerate(scenario.apps):
            for g, group in enumerate(app.groups if app.kind == "rkv"
                                      else ()):
                if len(group) > 1:
                    self.watch_paxos(f"apps[{a}].groups[{g}]",
                                     *(app.nodes[n].paxos for n in group
                                       if n in app.nodes))
        if scenario.clients:
            self._monitor(RequestMonitor, scenario.clients)

    # -- checking ---------------------------------------------------------
    def check_now(self) -> None:
        """Run every monitor once, immediately."""
        now = self.sim.now
        for monitor in self.monitors:
            for message in monitor.check(now):
                self.report(monitor, message)

    def report(self, monitor, message: str, component: str = "") -> None:
        """Record one violation (and raise it when strict)."""
        trace_ctx = None
        tracer = self.sim.tracer
        if tracer is not None:
            open_spans = tracer.open_spans
            if open_spans:
                trace_ctx = open_spans[-1].ctx
        violation = Violation(
            monitor=monitor.name,
            component=component or getattr(monitor, "component", ""),
            message=message,
            time_us=self.sim.now,
            trace=trace_ctx,
        )
        self.violations.append(violation)
        if tracer is not None:
            tracer.instant(f"violation:{monitor.name}", "check.violation",
                           trace=trace_ctx, node=violation.component,
                           track="check", monitor=monitor.name,
                           message=message)
        if self.strict:
            raise InvariantViolation(violation)
