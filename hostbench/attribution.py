"""Per-layer host-time attribution, installed from outside the program.

A traced repetition calls :meth:`Attribution.install` before it builds
the scenario.  No file of the program changes; the hooks go in at run
time:

* every :class:`~repro.sim.Simulator` gets an event observer on its
  ``checker`` seam, which the run loop calls after each fired callback;
* ``Simulator.run`` is wrapped to split host time into build, run,
  between-run (shard synchronisation) and collect phases;
* public entry points are wrapped as layer boundaries:
  ``Process._resume`` (resolved to the generator function's module),
  ``Actor.exec_handler`` (its generator steps included),
  ``Link.transmit``, switch ingress, ``SmartNic.receive`` and
  ``PulsePlane.after_step``.

Self time is charged to the innermost active boundary.  Time inside a
callback that no boundary covers goes to the package of the callback's
code.  The engine's dispatch cost is measured on process resumes, which
are most events; for other events it is charged with the callback.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import defaultdict

_clock = time.monotonic

#: the program's packages, each reported with its self time and the
#: number of fired events whose callback is its code
PACKAGES = ("sim", "net", "nic", "core", "apps", "obs", "scenario", "exec")

#: generator functions that are layers of their own: (file, function)
_SUBLAYERS = {
    ("core/runtime.py", "_host_worker"): "core.host_worker",
    ("core/scheduler.py", "_core_loop"): "core.nic_sched",
}

_PKG_DIR = os.sep + "repro" + os.sep

#: ``_hb_layer`` value marking the ``Process._resume`` wrapper
_PROCESS = "process"

#: layer of the wrappers' own code: the wrapped layer is ``_hb_layer``
_WRAPPER = "wrapper"


def code_layer(code) -> str:
    """The layer owning ``code``: its package under ``repro``, with
    ``apps`` split per application and the host-worker and NIC-core
    loops split out of ``core``; ``other`` outside the program."""
    path = code.co_filename
    cut = path.rfind(_PKG_DIR)
    if cut < 0:
        return "other"
    rel = path[cut + len(_PKG_DIR):].replace(os.sep, "/")
    sub = _SUBLAYERS.get((rel, code.co_name))
    if sub is not None:
        return sub
    parts = rel.split("/")
    if len(parts) == 1:
        return "other"
    if parts[0] == "apps" and len(parts) > 2:
        return "apps." + parts[1]
    return parts[0]


class _Observer:
    """The ``Simulator.checker`` seam: one per simulator."""

    __slots__ = ("attr", "sim")

    def __init__(self, attr: "Attribution", sim) -> None:
        self.attr = attr
        self.sim = sim

    def on_schedule(self, when, seq, fn) -> None:
        pass

    def after_step(self, when, seq, fn) -> None:
        a = self.attr
        pending = a.pending + _clock() - a.mark
        func = getattr(fn, "__func__", fn)
        layer = a.callable_layer(func)
        if layer != _WRAPPER:
            a.self_s[layer] += pending
        else:
            layer = func._hb_layer
            # a wrapped boundary charged its own time; what is left is
            # the engine's dispatch and the wrapper's return
            a.self_s["sim"] += pending
            if layer == _PROCESS:
                layer = a.gen_layer(fn.__self__.gen)
        a.events[layer] += 1
        live = self.sim.pending()
        if live > a.peak_pending:
            a.peak_pending = live
        a.pending = 0.0
        a.mark = _clock()


class Attribution:
    """Host self time, events and counts per layer for one repetition."""

    def __init__(self) -> None:
        self.self_s = defaultdict(float)   # layer -> host seconds in runs
        self.events = defaultdict(int)     # layer -> events fired
        self.counts = defaultdict(int)     # boundary counters
        self.stack = []                    # active boundary layers
        self.mark = 0.0                    # clock at the last charge
        self.pending = 0.0                 # run time awaiting its event
        self.in_run = False
        self.first_run = None              # clock at first Simulator.run
        self.last_exit = None              # clock at last run's return
        self.between_s = 0.0               # host time between runs
        self.dispatch_s = 0.0
        self.dispatch_n = 0
        self.peak_pending = 0
        self.pulses = []
        self.executors = []
        self._code_layers = {}
        self.resumes = defaultdict(int)    # layer -> process resumes
        self._idle = {}                    # host-worker process -> idle
        self._idle_lines = {}              # (code, line) -> idle wait

    # -- charging ---------------------------------------------------------
    def _charge(self, now: float) -> None:
        if self.in_run:
            if self.stack:
                self.self_s[self.stack[-1]] += now - self.mark
            else:
                self.pending += now - self.mark
        self.mark = now

    def enter(self, layer: str) -> None:
        self._charge(_clock())
        self.stack.append(layer)

    def exit(self) -> None:
        self._charge(_clock())
        self.stack.pop()

    # -- layer resolution -------------------------------------------------
    def callable_layer(self, fn) -> str:
        code = getattr(getattr(fn, "__func__", fn), "__code__", None)
        return self._layer_of_code(code) if code is not None else "other"

    def gen_layer(self, gen) -> str:
        code = getattr(gen, "gi_code", None)
        return self._layer_of_code(code) if code is not None else "other"

    def _layer_of_code(self, code) -> str:
        layer = self._code_layers.get(code)
        if layer is None:
            layer = self._code_layers[code] = code_layer(code)
        return layer

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        """Hook into the program's classes; call before building."""
        from repro.core.actor import Actor
        from repro.exec.shard import RackShardExecutor
        from repro.net.link import Link
        from repro.net.switch import SpineSwitch, ToRSwitch
        from repro.nic.device import SmartNic
        from repro.obs.pulse import PulsePlane
        from repro.sim import Process, Simulator

        self._wrap_simulator(Simulator)
        self._wrap_resume(Process)
        self._wrap_actor(Actor)
        links = [Link]
        while links:
            cls = links.pop()
            links.extend(cls.__subclasses__())
            self.wrap_method(cls, "transmit", "net", "net.frames")
        self.wrap_method(ToRSwitch, "ingest", "net")
        self.wrap_method(ToRSwitch, "deliver_local", "net")
        self.wrap_method(SpineSwitch, "ingest", "net")
        self.wrap_method(SmartNic, "receive", "nic", "nic.receives")
        self._wrap_pulse(PulsePlane)
        self._register_run(RackShardExecutor, self.executors)

    def _boundary(self, wrapper, layer: str):
        """Tag ``wrapper`` with the layer it bounds; fired as an event
        callback, its own code resolves to ``_WRAPPER``."""
        wrapper._hb_layer = layer
        self._code_layers[wrapper.__code__] = _WRAPPER
        return wrapper

    def wrap_method(self, cls, name: str, layer: str, counter=None) -> None:
        """Make ``cls.name`` a ``layer`` boundary, counted under
        ``counter``; a no-op when ``cls`` does not define ``name``."""
        orig = cls.__dict__.get(name)
        if orig is None:
            return
        enter, exit_, counts = self.enter, self.exit, self.counts

        def boundary(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            enter(layer)
            try:
                return orig(*args, **kwargs)
            finally:
                exit_()

        setattr(cls, name, self._boundary(boundary, layer))

    def _wrap_simulator(self, Simulator) -> None:
        orig_init, orig_run = Simulator.__init__, Simulator.run
        a = self

        def __init__(sim, *args, **kwargs):
            orig_init(sim, *args, **kwargs)
            sim.checker = _Observer(a, sim)

        def run(sim, until=None):
            start = _clock()
            if a.first_run is None:
                a.first_run = start
            else:
                a.between_s += start - a.last_exit
            a.in_run, a.pending, a.mark = True, 0.0, start
            try:
                return orig_run(sim, until)
            finally:
                end = _clock()
                a.self_s["sim"] += a.pending + end - a.mark
                a.in_run, a.pending = False, 0.0
                a.last_exit = a.mark = end

        Simulator.__init__ = __init__
        Simulator.run = run

    def _wrap_resume(self, Process) -> None:
        orig = Process._resume
        a = self

        def _resume(proc, value):
            now = _clock()
            if a.in_run and not a.stack:
                # an event of its own: the time since the last event is
                # the engine's dispatch
                spent = a.pending + now - a.mark
                a.self_s["sim"] += spent
                a.dispatch_s += spent
                a.dispatch_n += 1
                a.pending = 0.0
                a.mark = now
            else:
                a._charge(now)
            layer = a.gen_layer(proc.gen)
            a.stack.append(layer)
            try:
                orig(proc, value)
            finally:
                a._charge(_clock())
                a.stack.pop()
            a.resumes[layer] += 1
            if layer == "core.host_worker":
                a._note_host_worker(proc)
                a.mark = _clock()

        Process._resume = self._boundary(_resume, _PROCESS)

    def _note_host_worker(self, proc) -> None:
        """Count the resume as useful unless the worker woke from its
        idle ring poll and went back to it with nothing taken: the
        worker's ``msg`` and ``polled`` locals are both None only while
        it sleeps on an empty ring."""
        started_idle = self._idle.get(proc, False)
        frame = proc.gen.gi_frame
        ended_idle = False
        if frame is not None:
            # whether a suspension line is the idle wait never changes,
            # so the locals are read once per line
            key = (frame.f_code, frame.f_lineno)
            ended_idle = self._idle_lines.get(key)
            if ended_idle is None:
                local = frame.f_locals
                ended_idle = self._idle_lines[key] = (
                    local.get("msg", 0) is None
                    and local.get("polled", 0) is None)
        self._idle[proc] = ended_idle
        if not (started_idle and ended_idle):
            self.counts["core.host_worker.useful"] += 1

    def _wrap_actor(self, Actor) -> None:
        orig_init = Actor.__init__
        wrap = self.wrap_handler

        def __init__(actor, *args, **kwargs):
            orig_init(actor, *args, **kwargs)
            handler = actor.exec_handler
            if handler is not None and not hasattr(handler, "_hb_layer"):
                actor.exec_handler = wrap(handler)

        Actor.__init__ = __init__

    def wrap_handler(self, handler):
        """An ``exec_handler`` boundary in the handler's layer; a
        generator result is wrapped so each of its steps is timed."""
        layer = self.callable_layer(handler)
        enter, exit_, counts, steps = (self.enter, self.exit, self.counts,
                                       self._steps)

        def exec_handler(*args, **kwargs):
            counts[layer + ".calls"] += 1
            enter(layer)
            try:
                result = handler(*args, **kwargs)
            finally:
                exit_()
            if inspect.isgenerator(result):
                return steps(result, layer)
            return result

        return self._boundary(exec_handler, layer)

    def _steps(self, gen, layer: str):
        # Yields exactly the handler's commands.  The program never
        # throws into handler generators, so only close() is forwarded.
        value = None
        try:
            while True:
                self.enter(layer)
                try:
                    command = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self.exit()
                value = yield command
        finally:
            gen.close()

    def _wrap_pulse(self, PulsePlane) -> None:
        orig_init, orig_step = PulsePlane.__init__, PulsePlane.after_step
        a = self

        def __init__(plane, *args, **kwargs):
            orig_init(plane, *args, **kwargs)
            a.pulses.append(plane)

        def after_step(plane, now):
            if not a.in_run or a.stack:
                return orig_step(plane, now)
            # the run loop calls this between events, so the time since
            # the last event is the cost of the call itself
            try:
                orig_step(plane, now)
            finally:
                end = _clock()
                a.self_s["obs.pulse"] += a.pending + end - a.mark
                a.pending = 0.0
                a.mark = end

        PulsePlane.__init__ = __init__
        PulsePlane.after_step = after_step

    @staticmethod
    def _register_run(cls, into: list) -> None:
        orig = cls.run

        def run(obj, *args, **kwargs):
            into.append(obj)
            return orig(obj, *args, **kwargs)

        cls.run = run

    # -- results ----------------------------------------------------------
    def package_total(self, table, pkg: str):
        return sum(v for k, v in table.items()
                   if k == pkg or k.startswith(pkg + "."))

    def metrics(self, sent: int) -> dict:
        """Per-layer metrics of the run phase (``sent`` = requests)."""
        s, counts = self.self_s, self.counts
        events = sum(self.events.values())
        resumes = self.resumes["core.host_worker"]
        total = sum(s.values())
        out = {
            "sim.events": events,
            "sim.events_per_req": events / sent if sent else 0.0,
            "sim.dispatch_us_per_event": (
                1e6 * self.dispatch_s / self.dispatch_n
                if self.dispatch_n else 0.0),
            "sim.peak_pending": self.peak_pending,
            "core.host_worker.resumes": resumes,
            "core.host_worker.useful_share": (
                counts["core.host_worker.useful"] / resumes
                if resumes else 0.0),
            "core.host_worker.self_s": s["core.host_worker"],
            "core.nic_sched.resumes": self.resumes["core.nic_sched"],
            "core.nic_sched.self_s": s["core.nic_sched"],
            "apps.rkv.calls": counts["apps.rkv.calls"],
            "apps.rkv.self_s": s["apps.rkv"],
            "apps.rta.calls": counts["apps.rta.calls"],
            "apps.rta.self_s": s["apps.rta"],
            "net.frames": counts["net.frames"],
            "nic.receives": counts["nic.receives"],
            "obs.pulse.samples": sum(p.samples for p in self.pulses),
            "obs.pulse.self_s": s["obs.pulse"],
            "exec.shard.rounds": sum(e.rounds for e in self.executors),
            "exec.shard.transfers": sum(e.transfers for e in self.executors),
            "exec.shard.sync_s": self.between_s if self.executors else 0.0,
            "trace.unattributed_share": s["other"] / total if total else 0.0,
        }
        for pkg in PACKAGES:
            out[pkg + ".self_s"] = self.package_total(s, pkg)
            out[pkg + ".callbacks"] = self.package_total(self.events, pkg)
        return out
