"""One repetition of a workload, in a fresh interpreter.

Spawned by ``run.py``; prints one JSON object as its last line.  Exits
2 when the program cannot be imported, 1 when the repetition fails.

Untraced repetitions install only build-time hooks (client-port
capture) and a one-shot hook on the first ``Simulator.run`` call that
marks the end of set-up; nothing else runs on the event path.  Traced
repetitions install :class:`attribution.Attribution`.

Set-up and run are also timed on the process CPU clock, which leaves
out time the machine gave to other work.  An untraced repetition starts
with a fixed reference loop, timed on the same clock, that prices how
fast the machine runs Python at that moment.
"""

import argparse
import hashlib
import heapq
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: host microseconds the ``rta-busy`` plant spins in each Regex.search
BUSY_US = 50.0

#: events of the reference loop (about 0.17 s of CPU on a 2-vCPU Xeon)
REF_EVENTS = 150_000


def reference_loop(events: int = REF_EVENTS) -> float:
    """CPU seconds of a fixed event loop in the simulator's own pattern
    (a heap of timed generator resumes) that uses none of its code."""
    def proc(i):
        k = i
        while True:
            k = (k * 1103515245 + 12345) & 0x7FFFFFFF
            yield 0.5 + (k % 997) / 997.0

    heap = [(0.0, i, proc(i)) for i in range(64)]
    seq = len(heap)
    start = time.process_time()
    for _ in range(events):
        now, _, gen = heapq.heappop(heap)
        seq += 1
        heapq.heappush(heap, (now + next(gen), seq, gen))
    return time.process_time() - start


def digest(result) -> str:
    """Short stable digest of ``ScenarioResult.fingerprint()``."""
    return hashlib.sha256(repr(result.fingerprint()).encode()).hexdigest()[:16]


def capture_ports(ClientPort) -> list:
    """Record every (port name, generator) that a client port creates."""
    made = []

    def wrap(orig):
        def method(port, *args, **kwargs):
            gen = orig(port, *args, **kwargs)
            made.append((port.name, gen))
            return gen
        return method

    ClientPort.closed_loop = wrap(ClientPort.closed_loop)
    ClientPort.open_loop = wrap(ClientPort.open_loop)
    return made


def mark_first_run(Simulator, marks: dict) -> None:
    """Stamp the first ``Simulator.run`` call, then step aside."""
    orig = Simulator.run

    def run(sim, until=None):
        marks["cpu"] = time.process_time()
        marks["wall"] = time.monotonic()
        Simulator.run = orig
        return orig(sim, until)

    Simulator.run = run


def plant(kind: str) -> None:
    """Defects the benchmark's self-test plants from outside."""
    if kind == "rta-busy":
        from repro.apps.rta.filter import Regex
        orig = Regex.search

        def search(self, text):
            until = time.perf_counter() + BUSY_US * 1e-6
            while time.perf_counter() < until:
                pass
            return orig(self, text)

        Regex.search = search
    elif kind == "drop-reply":
        from repro.scenario.build import ClientPort
        orig_receive = ClientPort.receive
        dropped = set()

        def receive(port, packet):
            if port.name not in dropped:
                dropped.add(port.name)
                return
            orig_receive(port, packet)

        ClientPort.receive = receive
    else:
        raise ValueError(f"unknown plant {kind!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--serial", action="store_true",
                        help="run a sharded workload on one simulator")
    parser.add_argument("--plant", default=None)
    args = parser.parse_args(argv)

    ref_s = None if args.trace else reference_loop()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        from repro.scenario.build import ClientPort
        from repro.scenario.run import load_shipped, run_scenario
        from repro.sim import LatencyRecorder, Simulator
    except ImportError as exc:
        print(f"cannot import the simulator: {exc}", file=sys.stderr)
        return 2
    from attribution import Attribution
    from workloads import WORKLOADS, prepare

    workload = WORKLOADS[args.workload]
    if args.serial:
        from dataclasses import replace
        workload = replace(workload, sharded=False)
    if args.plant:
        plant(args.plant)
    ports = capture_ports(ClientPort)
    attr = marks = None
    if args.trace:
        attr = Attribution()
        attr.install()
    else:
        marks = {}
        mark_first_run(Simulator, marks)

    t_load = time.monotonic()
    spec = prepare(load_shipped(workload.spec), workload, args.seed)
    t_call = time.monotonic()
    result = run_scenario(spec, duration_us=workload.horizon_us)
    t_end = time.monotonic()
    cpu_end = time.process_time()

    sent, latencies = {}, []
    for port, gen in ports:
        sent[port] = sent.get(port, 0) + gen.sent
        if hasattr(gen, "latency"):
            latencies.extend(gen.latency.samples)
    answered = dict(result.client_received)
    rec = LatencyRecorder()
    rec.samples = latencies
    out = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest(result),
        "sent": sent,
        "answered": answered,
        "completed": result.completed,
        "sim_p50_us": rec.p50 if latencies else None,
        "sim_p99_us": rec.p99 if latencies else None,
        "sim_goodput_mrps": sum(answered.values()) / workload.horizon_us,
    }
    if attr is None:
        out.update({
            # CPU seconds from process start, less the reference loop
            "setup_s": marks["cpu"] - ref_s,
            "wall_s": t_end - marks["wall"],
            "cpu_s": cpu_end - marks["cpu"],
            "ref_s": ref_s,
        })
    else:
        out["wall_s"] = t_end - attr.first_run
        layers = attr.metrics(sum(sent.values()))
        layers.update({
            "scenario.load_s": t_call - t_load,
            "scenario.build_s": attr.first_run - t_call,
            "scenario.collect_s": t_end - attr.last_exit,
            "nic.cores_used_sim": sum(result.nic_cores.values()),
            "host.cores_used_sim": sum(result.host_cores.values()),
        })
        out["layers"] = layers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
