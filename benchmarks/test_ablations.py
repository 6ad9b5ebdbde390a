"""Ablation benches for iPipe's design choices (DESIGN.md §4).

* hybrid vs pure FCFS vs pure DRR (the central claim, cf. Figure 16);
* µ+3σ EWMA tail estimator vs the true P99;
* push-only vs push+pull migration under a load trough;
* hardware traffic manager vs software shared queue;
* DMA scatter/gather batching vs per-message transfers (implication I6).
"""

import pytest

from repro.core import Actor, Message, SchedulerConfig
from repro.core.actor import Location
from repro.core.channel import Ring
from repro.experiments.report import render_table
from repro.experiments.scheduler_study import run_point
from repro.experiments.testbed import make_testbed
from repro.nic import DmaEngine, LIQUIDIO_CN2350, STINGRAY_PS225, WorkloadProfile
from repro.sim import LatencyRecorder, LatencyTracker, Rng, Simulator


def test_ablation_hybrid_vs_standalone(once, emit):
    def run():
        return {policy: run_point(LIQUIDIO_CN2350, policy, "high", 0.8,
                                  duration_us=80_000.0)
                for policy in ("fcfs", "drr", "ipipe")}
    results = once(run)
    rows = [("policy", "mean (µs)", "p99 (µs)")]
    for policy, (mean, p99) in results.items():
        rows.append((policy, f"{mean:.1f}", f"{p99:.1f}"))
    emit(render_table(rows, title="Ablation: scheduler discipline at 0.8 "
                                  "load, high dispersion"))
    assert results["ipipe"][1] <= min(results["fcfs"][1],
                                      results["drr"][1]) * 1.15


def test_ablation_tail_estimator(once, emit):
    """µ+3σ EWMA (what firmware can afford) vs the exact P99."""
    def run():
        rng = Rng(12)
        tracker = LatencyTracker(alpha=0.05)
        recorder = LatencyRecorder()
        for _ in range(30_000):
            sample = rng.lognormal(30.0, sigma=0.4)
            tracker.record(sample)
            recorder.record(sample)
        return tracker.tail, recorder.p99
    estimate, true_p99 = once(run)
    emit(f"Ablation: tail estimator µ+3σ={estimate:.1f}µs vs true "
         f"P99={true_p99:.1f}µs (error {abs(estimate / true_p99 - 1) * 100:.1f}%)")
    assert estimate == pytest.approx(true_p99, rel=0.35)


def test_ablation_pull_migration(once, emit):
    """Push-only strands actors on the host after a burst; push+pull
    recovers the NIC's latency advantage."""

    def run_one(pull_enabled: bool) -> float:
        bed = make_testbed()
        config = SchedulerConfig(migration_enabled=True,
                                 migration_cooldown_us=500.0)
        server = bed.add_server("server", LIQUIDIO_CN2350, config=config)
        if not pull_enabled:
            server.runtime.nic_scheduler.on_pull_migration = None

        def handler(actor, msg, ctx):
            yield ctx.compute(us=3.0)
            ctx.reply(msg, size=msg.size)

        actor = Actor("svc", handler, concurrent=True,
                      profile=WorkloadProfile("svc", 3.0, 1.2, 0.8))
        server.runtime.register_actor(actor, steering_keys=["data"])
        client = bed.add_client("client")
        # burst phase: overload pushes the actor to the host
        burst = client.open_loop(dst="server", rate_mpps=3.5, size=512,
                                 rng=Rng(3))
        bed.sim.run(until=8_000.0)
        burst.stop()
        bed.sim.run(until=12_000.0)
        # trough phase: light traffic; pull should bring the actor home
        gen = client.closed_loop(dst="server", clients=2, size=512)
        bed.sim.run(until=60_000.0)
        gen.stop()
        server.runtime.stop()
        return gen.latency.mean, actor.location

    def run():
        return {"push-only": run_one(False), "push+pull": run_one(True)}

    results = once(run)
    rows = [("policy", "trough mean latency (µs)", "final location")]
    for name, (latency, location) in results.items():
        rows.append((name, f"{latency:.1f}", location.value))
    emit(render_table(rows, title="Ablation: push-only vs push+pull "
                                  "migration after a burst"))
    assert results["push+pull"][1] is Location.NIC
    assert results["push+pull"][0] <= results["push-only"][0] * 1.05


def test_ablation_traffic_manager(once, emit):
    """Hardware shared queue vs software spinlock queue (implication I2)."""
    from repro.experiments.characterization import traffic_manager_experiment
    from repro.nic.calibration import SW_SHARED_QUEUE_SYNC_US

    def run():
        hw = traffic_manager_experiment(512, cores=12, duration_us=20_000.0)
        # same experiment with the software queue's sync tax
        import repro.nic.traffic as traffic_mod
        from repro.nic import SmartNic, TrafficManager
        from repro.net import Packet, line_rate_pps
        from repro.sim import Simulator, Timeout, spawn
        sim = Simulator()
        tm = TrafficManager(sim, hardware=False)
        recorder = LatencyRecorder()
        cost = 2.34  # echo cost for 512B
        rate = 0.95 * min(12 * 1e6 / cost, line_rate_pps(10, 512)) / 1e6
        rng = Rng(3)

        def worker():
            while True:
                pkt, _ = yield tm.pop(lambda _: cost)
                recorder.record(sim.now - pkt.created_at)

        for _ in range(12):
            spawn(sim, worker())

        def generator():
            while True:
                yield Timeout(rng.poisson_interarrival(rate))
                tm.push(Packet("g", "n", 512, created_at=sim.now))

        spawn(sim, generator())
        sim.run(until=20_000.0)
        sw_rec = LatencyRecorder()
        sw_rec.samples = recorder.samples[len(recorder.samples) // 5:]
        return hw, sw_rec

    hw, sw = once(run)
    emit(render_table(
        [("queue", "avg (µs)", "p99 (µs)"),
         ("hardware TM", f"{hw.avg_us:.2f}", f"{hw.p99_us:.2f}"),
         ("software spinlock", f"{sw.mean:.2f}", f"{sw.p99:.2f}")],
        title="Ablation: hardware traffic manager vs software shared queue"))
    assert sw.mean > hw.avg_us


def test_ablation_dma_batching(once, emit):
    """Scatter/gather aggregation vs per-message DMA (implication I6)."""
    def run():
        dma = DmaEngine(Simulator())
        chunks = [128] * 16
        separate = sum(dma.write_latency_us(c) for c in chunks)
        gathered = dma.write_latency_us(sum(chunks))
        return separate, gathered
    separate, gathered = once(run)
    emit(f"Ablation: 16x128B DMA — per-message {separate:.2f}µs vs "
         f"scatter/gather {gathered:.2f}µs ({separate / gathered:.1f}x)")
    assert gathered < separate / 3
