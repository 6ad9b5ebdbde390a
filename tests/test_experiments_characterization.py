"""Tests pinning the §2 characterization harness to the paper's numbers."""

import pytest

from repro.experiments.characterization import (
    bandwidth_vs_cores,
    bandwidth_with_processing,
    computing_headroom_us,
    cores_to_saturate,
    figure2_series,
    figure6_series,
    figure7_series,
    figure8_series,
    figure9_series,
    figure10_series,
    table2_rows,
    table3_rows,
    traffic_manager_experiment,
)
from repro.nic import LIQUIDIO_CN2350, STINGRAY_PS225


# -- Figures 2/3 ------------------------------------------------------------------

def test_fig2_core_counts_match_paper():
    assert cores_to_saturate(LIQUIDIO_CN2350, 256) == 10
    assert cores_to_saturate(LIQUIDIO_CN2350, 512) == 6
    assert cores_to_saturate(LIQUIDIO_CN2350, 1024) == 4
    assert cores_to_saturate(LIQUIDIO_CN2350, 1500) == 3
    assert cores_to_saturate(LIQUIDIO_CN2350, 64) == 0
    assert cores_to_saturate(LIQUIDIO_CN2350, 128) == 0


def test_fig3_core_counts_match_paper():
    assert cores_to_saturate(STINGRAY_PS225, 256) == 3
    assert cores_to_saturate(STINGRAY_PS225, 512) == 2
    assert cores_to_saturate(STINGRAY_PS225, 1024) == 1
    assert cores_to_saturate(STINGRAY_PS225, 1500) == 1
    assert cores_to_saturate(STINGRAY_PS225, 64) == 0


def test_bandwidth_monotone_in_cores():
    series = figure2_series()
    for size, points in series.items():
        gbps = [g for _, g in points]
        assert all(b >= a - 1e-9 for a, b in zip(gbps, gbps[1:]))


def test_bandwidth_capped_at_payload_rate():
    # Achieved Gbps counts frame bytes only; wire overhead means the cap is
    # below the nominal link rate, especially for small frames.
    assert bandwidth_vs_cores(LIQUIDIO_CN2350, 64, 12) < 10.0
    full = bandwidth_vs_cores(LIQUIDIO_CN2350, 1500, 12)
    assert full == pytest.approx(10.0 * 1500 / 1520, rel=1e-3)


# -- Figure 4 ---------------------------------------------------------------------------

def test_fig4_headroom_matches_paper():
    assert computing_headroom_us(LIQUIDIO_CN2350, 256) == pytest.approx(2.5, abs=0.15)
    assert computing_headroom_us(LIQUIDIO_CN2350, 1024) == pytest.approx(9.8, abs=0.3)
    assert computing_headroom_us(STINGRAY_PS225, 256) == pytest.approx(0.7, abs=0.1)
    assert computing_headroom_us(STINGRAY_PS225, 1024) == pytest.approx(2.6, abs=0.15)


def test_fig4_bandwidth_falls_beyond_headroom():
    headroom = computing_headroom_us(LIQUIDIO_CN2350, 1024)
    at_limit = bandwidth_with_processing(LIQUIDIO_CN2350, 1024, headroom)
    beyond = bandwidth_with_processing(LIQUIDIO_CN2350, 1024, headroom * 2)
    assert at_limit > beyond


# -- Figure 5 ------------------------------------------------------------------------------

def test_fig5_shared_queue_scales_with_little_latency_penalty():
    six = traffic_manager_experiment(512, cores=6, duration_us=20_000)
    twelve = traffic_manager_experiment(512, cores=12, duration_us=20_000)
    # Paper: going 6 → 12 cores adds only ~4% avg latency; allow slack for
    # the short simulation but insist the penalty stays small even though
    # throughput doubled.
    assert twelve.avg_us < six.avg_us * 1.35
    assert twelve.p99_us < six.p99_us * 1.6
    # exact values: a change to how the shared queue charges its sync
    # must not move virtual time
    assert (six.avg_us, six.p99_us) == (3.4675695448161945, 9.348778661922363)
    assert (twelve.avg_us, twelve.p99_us) == (2.3624085442466383,
                                              2.360000000000582)


# -- Figures 6-10 ---------------------------------------------------------------------------

def test_fig6_smartnic_messaging_fastest():
    series = figure6_series()
    for size_idx in range(3):
        nic = series["SmartNIC-send"][size_idx][1]
        assert nic < series["DPDK-send"][size_idx][1]
        assert nic < series["RDMA-send"][size_idx][1]


def test_fig7_blocking_grows_nonblocking_flat():
    series = figure7_series()
    blocking = [v for _, v in series["DMA blocking write"]]
    nonblocking = [v for _, v in series["DMA non-blocking write"]]
    assert blocking[-1] > blocking[0]
    assert nonblocking[0] == nonblocking[-1]


def test_fig8_nonblocking_dominates_small_messages():
    series = figure8_series()
    nb = dict(series["DMA non-blocking write"])
    b = dict(series["DMA blocking write"])
    assert nb[64] > 2 * b[64]


def test_fig9_rdma_latency_about_double_dma():
    rdma = dict(figure9_series()["RDMA one-sided read"])
    dma = dict(figure7_series()["DMA blocking read"])
    for size in (64, 512, 2048):
        assert rdma[size] == pytest.approx(2 * dma[size], rel=0.01)


def test_fig10_rdma_small_message_penalty():
    rdma = dict(figure10_series()["RDMA one-sided write"])
    dma = dict(figure8_series()["DMA blocking write"])
    assert dma[64] / rdma[64] == pytest.approx(3.0, abs=0.5)
    assert dma[2048] / rdma[2048] < 1.5


# -- Tables ------------------------------------------------------------------------------------

def test_table2_values():
    rows = {r[0]: r for r in table2_rows()[1:]}
    assert rows["LiquidIOII CNXX"][1] == "8.3"
    assert rows["LiquidIOII CNXX"][4] == "115.0"
    assert rows["Stingray PS225"][2] == "25.1"
    assert rows["Host Intel server"][3] == "22.4"
    assert rows["LiquidIOII CNXX"][3] == "N/A"  # no L3 on the NIC


def test_table3_rows_cover_all_workloads():
    rows = table3_rows()
    assert len(rows) == 12  # header + 11 workloads
    names = {r[0] for r in rows[1:]}
    assert "flow_classifier" in names and "echo" in names
