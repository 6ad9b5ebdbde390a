"""Tests for NIC memory, accelerators, DMA, RDMA, cost model, traffic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nic import (
    ACCELERATORS,
    AcceleratorBank,
    AccessProfile,
    DmaEngine,
    HOST_XEON_E5_2680,
    LIQUIDIO_CN2350,
    LIQUIDIO_CN2360,
    MemoryHierarchy,
    MICROBENCH_PROFILES,
    NicDram,
    PacketBuffer,
    RdmaEngine,
    Scratchpad,
    STINGRAY_PS225,
    TrafficManager,
    NicSwitch,
    host_speedup,
    time_on_host,
    time_on_nic,
)
from repro.net import Packet
from repro.sim import Simulator, Timeout, spawn


# -- memory hierarchy (Table 2) -------------------------------------------------

def test_pointer_chase_matches_table2_levels():
    mem = MemoryHierarchy.for_nic(LIQUIDIO_CN2350)
    assert mem.chase_latency_ns(16 * 1024) == 8.3          # fits in L1
    assert mem.chase_latency_ns(1 * 1024 * 1024) == 55.8   # fits in L2
    assert mem.chase_latency_ns(64 * 1024 * 1024) == 115.0 # spills to DRAM


def test_host_chase_has_l3_level():
    mem = MemoryHierarchy.for_host(HOST_XEON_E5_2680)
    assert mem.chase_latency_ns(10 * 1024 * 1024) == 22.4
    assert mem.chase_latency_ns(100 * 1024 * 1024) == 62.2


def test_working_set_spill_raises_access_cost():
    # Implication I5: spilling out of the NIC L2 degrades performance.
    mem = MemoryHierarchy.for_nic(LIQUIDIO_CN2350)
    small = AccessProfile(accesses=100, working_set_bytes=1 << 20)
    big = AccessProfile(accesses=100, working_set_bytes=1 << 26)
    assert mem.access_cost_us(big) > mem.access_cost_us(small)


def test_scratchpad_capacity_54_lines_of_128b():
    pad = Scratchpad(54, 128)
    assert pad.capacity_bytes == 6912
    assert pad.reserve(6000)
    assert not pad.reserve(2000)
    pad.release(6000)
    assert pad.free_bytes == pad.capacity_bytes


def test_scratchpad_over_release_raises():
    pad = Scratchpad(54, 128)
    with pytest.raises(ValueError):
        pad.release(1)


def test_packet_buffer_alloc_cost_hw_vs_sw():
    hw = PacketBuffer.for_nic(LIQUIDIO_CN2350)
    sw = PacketBuffer.for_nic(STINGRAY_PS225)
    assert hw.alloc_cost_us < sw.alloc_cost_us


def test_packet_buffer_accounting_and_exhaustion():
    buf = PacketBuffer(capacity_bytes=1000, hardware_managed=True)
    assert buf.allocate(600)
    assert not buf.allocate(600)
    assert buf.failures == 1
    buf.free(600)
    assert buf.allocate(600)


def test_nic_dram_regions_enforce_capacity():
    dram = NicDram(capacity_bytes=1 << 20)
    region = dram.create_region("actor-a", 1 << 19)
    assert region.capacity == 1 << 19
    with pytest.raises(MemoryError):
        dram.create_region("actor-b", 1 << 20)


def test_memory_region_bump_allocation():
    dram = NicDram(capacity_bytes=1 << 20)
    region = dram.create_region("a", 1024)
    first = region.allocate(512)
    second = region.allocate(256)
    assert (first, second) == (0, 512)
    assert region.allocate(512) is None  # over budget
    assert region.contains(700)
    assert not region.contains(4096)


# -- accelerators (Table 3) ------------------------------------------------------

def test_accelerator_profiles_match_table3():
    assert ACCELERATORS["md5"].lat_us_b1 == 5.0
    assert ACCELERATORS["aes"].lat_us_b1 == 2.7
    assert ACCELERATORS["zip"].lat_us_b1 == 190.9
    assert ACCELERATORS["zip"].lat_us_b8 is None


def test_batching_amortizes_invocation_cost():
    crc = ACCELERATORS["crc"]
    assert crc.latency_us(batch=1) > crc.latency_us(batch=8) > crc.latency_us(batch=32)


def test_latency_scales_with_payload():
    aes = ACCELERATORS["aes"]
    assert aes.latency_us(nbytes=2048) == pytest.approx(2 * aes.latency_us(nbytes=1024))


def test_md5_engine_7x_faster_than_host():
    md5 = ACCELERATORS["md5"]
    assert md5.host_software_us / md5.lat_us_b1 == pytest.approx(7.0)


def test_aes_engine_2_5x_faster_than_host():
    aes = ACCELERATORS["aes"]
    assert aes.host_software_us / aes.lat_us_b1 == pytest.approx(2.5)


def test_accelerator_bank_invoke_charges_time():
    sim = Simulator()
    bank = AcceleratorBank(sim, units_per_engine=1)
    done = []

    def user():
        yield from bank.invoke("aes", nbytes=1024)
        done.append(sim.now)

    spawn(sim, user())
    spawn(sim, user())
    sim.run()
    # one unit → serialized invocations at 2.7 µs each
    assert done == [pytest.approx(2.7), pytest.approx(5.4)]
    assert bank.invocations["aes"] == 2


def test_accelerator_bank_unknown_engine():
    bank = AcceleratorBank(Simulator())
    with pytest.raises(KeyError):
        bank.cost_us("quantum")


# -- DMA engine (Figures 7/8) -----------------------------------------------------

def test_dma_nonblocking_latency_flat():
    dma = DmaEngine(Simulator())
    assert dma.read_latency_us(4, blocking=False) == dma.read_latency_us(2048, blocking=False)


def test_dma_blocking_latency_grows_with_payload():
    dma = DmaEngine(Simulator())
    assert dma.write_latency_us(2048) > dma.write_latency_us(64)


def test_dma_2kb_write_reaches_2_1_gb_per_s():
    dma = DmaEngine(Simulator())
    mops = dma.write_throughput_mops(2048)
    assert mops * 2048 / 1e3 == pytest.approx(2.1, abs=0.2)  # GB/s


def test_dma_write_64b_vs_2kb_ratio_8_7x():
    dma = DmaEngine(Simulator())
    gbs_2k = dma.write_throughput_mops(2048) * 2048
    gbs_64 = dma.write_throughput_mops(64) * 64
    assert gbs_2k / gbs_64 == pytest.approx(8.7, abs=1.0)


def test_dma_read_64b_vs_2kb_ratio_6x():
    dma = DmaEngine(Simulator())
    gbs_2k = dma.read_throughput_mops(2048) * 2048
    gbs_64 = dma.read_throughput_mops(64) * 64
    assert gbs_2k / gbs_64 == pytest.approx(6.0, abs=0.8)


def test_dma_nonblocking_throughput_much_higher_for_small():
    dma = DmaEngine(Simulator())
    assert dma.write_throughput_mops(64, blocking=False) > \
        2 * dma.write_throughput_mops(64, blocking=True)


def test_dma_nonblocking_capped_by_pcie_at_large_sizes():
    dma = DmaEngine(Simulator())
    mops = dma.write_throughput_mops(2048, blocking=False)
    assert mops < dma.timings.nb_issue_mops  # bent by the PCIe cap


def test_dma_gather_cheaper_than_separate_writes():
    sim = Simulator()
    dma = DmaEngine(Simulator())
    chunks = [128] * 8
    gathered = dma.write_latency_us(sum(chunks))
    separate = sum(dma.write_latency_us(c) for c in chunks)
    assert gathered < separate  # implication I6


def test_dma_simulated_ops_move_bytes():
    sim = Simulator()
    dma = DmaEngine(sim)
    done = []

    def mover():
        yield from dma.write(1024)
        yield from dma.read(512, blocking=False)
        done.append(sim.now)

    spawn(sim, mover())
    sim.run()
    assert dma.ops == 2
    assert dma.bytes_moved == 1536
    assert done[0] == pytest.approx(dma.write_latency_us(1024) + 0.30)


def test_dma_bulk_transfer_scales_with_size():
    dma = DmaEngine(Simulator())
    assert dma.bulk_transfer_us(32 << 20) > dma.bulk_transfer_us(1 << 20)
    # 32MB at ~2.6 GB/s effective ≈ 12–35 ms (Figure 18's phase-3 scale)
    assert 10_000 < dma.bulk_transfer_us(32 << 20) < 40_000


# -- RDMA engine (Figures 9/10) ------------------------------------------------------

def test_rdma_latency_doubles_dma():
    sim = Simulator()
    rdma = RdmaEngine(sim)
    dma = DmaEngine(sim)
    for size in (4, 64, 512, 2048):
        assert rdma.read_latency_us(size) == pytest.approx(2 * dma.read_latency_us(size))


def test_rdma_small_message_throughput_one_third_of_dma():
    rdma = RdmaEngine(Simulator())
    dma = DmaEngine(Simulator())
    ratio = dma.write_throughput_mops(64) / rdma.write_throughput_mops(64)
    assert ratio == pytest.approx(3.0, abs=0.5)


def test_rdma_converges_with_dma_for_large_messages():
    rdma = RdmaEngine(Simulator())
    dma = DmaEngine(Simulator())
    ratio = dma.write_throughput_mops(2048) / rdma.write_throughput_mops(2048)
    assert ratio < 1.5


# -- compute cost model (Table 3 workloads) ---------------------------------------

def test_profiles_reproduce_reference_times():
    for prof in MICROBENCH_PROFILES.values():
        assert time_on_nic(prof, LIQUIDIO_CN2350) == pytest.approx(prof.exec_us)


def test_cn2360_faster_than_cn2350():
    echo = MICROBENCH_PROFILES["echo"]
    assert time_on_nic(echo, LIQUIDIO_CN2360) < echo.exec_us


def test_host_speedup_lower_for_memory_bound_tasks():
    # Implication I3: low IPC / high MPKI → good offload candidates.
    classifier = MICROBENCH_PROFILES["flow_classifier"]  # MPKI 15.2
    ranker = MICROBENCH_PROFILES["top_ranker"]           # MPKI 0.1
    assert host_speedup(classifier, HOST_XEON_E5_2680) < \
        host_speedup(ranker, HOST_XEON_E5_2680)


def test_host_always_faster_than_wimpy_nic():
    for prof in MICROBENCH_PROFILES.values():
        assert time_on_host(prof, HOST_XEON_E5_2680) < prof.exec_us


def test_host_speedup_bounded():
    for prof in MICROBENCH_PROFILES.values():
        s = host_speedup(prof, HOST_XEON_E5_2680)
        assert 1.0 < s < 5.0


@given(st.floats(min_value=0.3, max_value=2.0), st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=60, deadline=None)
def test_cost_model_monotone_in_mpki(ipc, mpki):
    from repro.nic import WorkloadProfile
    low = WorkloadProfile("w", 10.0, ipc, mpki)
    # same measured time, higher MPKI → more of it is memory stalls →
    # smaller host speedup
    high = WorkloadProfile("w", 10.0, ipc, mpki * 1.5)
    assert host_speedup(high, HOST_XEON_E5_2680) <= \
        host_speedup(low, HOST_XEON_E5_2680) + 1e-9


# -- traffic manager / NIC switch ---------------------------------------------------

def test_traffic_manager_hw_sync_cost_lower_than_sw():
    sim = Simulator()
    hw = TrafficManager(sim, hardware=True)
    sw = TrafficManager(sim, hardware=False)
    assert hw.dequeue_sync_us < sw.dequeue_sync_us


def test_traffic_manager_push_pop_fifo():
    sim = Simulator()
    tm = TrafficManager(sim)
    got = []

    def core():
        while len(got) < 2:
            pkt, t = yield tm.pop()
            got.append((pkt.payload, t, sim.now))

    spawn(sim, core())
    tm.push(Packet("a", "b", 64, payload=1))
    tm.push(Packet("a", "b", 64, payload=2))
    sim.run()
    sync = tm.dequeue_sync_us
    # each pop is handed its item when it asks, and pays the sync
    assert got == [(1, 0.0, 0.0 + sync), (2, sync, sync + sync)]
    assert tm.enqueued == 2 and len(tm) == 0


@pytest.mark.parametrize("hardware,sync", [(True, 0.02), (False, 0.18)])
def test_traffic_manager_blocked_cores_resume_once_in_fifo_order(hardware,
                                                                 sync):
    sim = Simulator()
    tm = TrafficManager(sim, hardware=hardware)
    assert tm.dequeue_sync_us == sync
    resumed = []

    def core(name):
        pkt, t = yield tm.pop(lambda pkt: pkt.payload)
        resumed.append((name, pkt.src, t, sim.now))

    calls = {}
    for name in ("c0", "c1", "c2"):
        proc = spawn(sim, core(name))
        calls[name] = 0

        def counted(value, proc=proc, name=name, resume=proc._resume):
            calls[name] += 1
            resume(value)

        proc._resume = counted
    # (push time, service): the float sums are not associative, so
    # only the old chain's order of additions reproduces them
    pushes = [(0.1, 0.3), (0.3, 0.1), (2.9, 0.0)]
    for i, (at, service) in enumerate(pushes):
        sim.post_at(at, tm.push, Packet(f"p{i}", "b", 64, payload=service))
    sim.run()
    expected = []
    for i, (name, (at, service)) in enumerate(zip(("c0", "c1", "c2"),
                                                  pushes)):
        # what Timeout(sync) and then Timeout(service) from `at` reach
        when = at + sync
        if service > 0:
            when = when + service
        expected.append((name, f"p{i}", at, when))
    # (sorted by core: with the SW sync, c1 resumes a hair before c0)
    assert sorted(resumed) == expected
    # the start was posted before the wrap: one resume per handed item
    assert calls == {"c0": 1, "c1": 1, "c2": 1}


def test_try_pop_core_pays_its_own_sync():
    from repro.core.actor import ActorTable
    from repro.core.scheduler import NicScheduler, SchedulerConfig, WorkItem
    sim = Simulator()
    tm = TrafficManager(sim, hardware=False)
    done = []

    def item(cost):
        return WorkItem(forward_cost_us=cost,
                        forward_action=lambda: done.append(sim.now))

    # two items queued before the core starts: it takes both with
    # try_pop and charges Timeout(sync), Timeout(cost) itself; the third
    # arrives while it blocks in pop(), which charges the same sum
    tm.push(item(0.3))
    tm.push(item(0.1))
    sched = NicScheduler(
        sim, num_cores=1, work_queue=tm, actor_table=ActorTable(),
        executor=None, config=SchedulerConfig(
            migration_enabled=False, downgrade_enabled=False,
            autoscale=False))
    sim.post_at(2.9, tm.push, item(0.1))
    sim.run(until=10.0)
    sched.stop()
    sync = tm.dequeue_sync_us
    first = (0.0 + sync) + 0.3
    second = (first + sync) + 0.1
    third = (2.9 + sync) + 0.1
    assert done == [first, second, third]
    assert sched.forwards_completed == 3


def test_nic_switch_steers_by_rule():
    sim = Simulator()
    nic_q, host_q = [], []
    switch = NicSwitch(sim, to_nic=nic_q.append, to_host=host_q.append)
    switch.install_rule("bypass", "host")
    p1 = Packet("a", "b", 64)
    p2 = Packet("a", "b", 64)
    p2.meta["steer_key"] = "bypass"
    switch.ingest(p1)
    switch.ingest(p2)
    sim.run()
    assert len(nic_q) == 1 and len(host_q) == 1
    assert switch.steered_nic == 1 and switch.steered_host == 1


def test_nic_switch_rejects_bad_targets():
    sim = Simulator()
    switch = NicSwitch(sim, to_nic=lambda p: None, to_host=lambda p: None)
    with pytest.raises(ValueError):
        switch.install_rule("k", "moon")
