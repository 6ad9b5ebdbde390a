"""The benchmark's own tests: output checks, seeds, and a sensitivity
self-test proving that the benchmark measures.

    python3 -m pytest -q hostbench

Takes about a minute; every repetition runs in a fresh
interpreter, as in the benchmark itself.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _bound(metric: str) -> float:
    return next(m["bound"] for m in _benchmark_json()["end_to_end"]
                if m["name"] == metric)


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_seed_zero_keeps_the_shipped_seeds():
    from repro.scenario.run import load_shipped
    for workload in WORKLOADS.values():
        shipped = load_shipped(workload.spec)
        same = prepare(shipped, workload, 0)
        assert same.seed == shipped.seed
        assert [f.seed for f in same.fleets] == [f.seed for f in shipped.fleets]
        other = prepare(shipped, workload, 3)
        assert other.seed == shipped.seed + 3
        assert [f.seed for f in other.fleets] == [f.seed + 3
                                                  for f in shipped.fleets]
        shards = "by-rack" if workload.sharded else "none"
        assert other.execution.shards == shards


def test_answered_requests_come_from_the_client_ports():
    # The open-loop fleet leaves ScenarioResult.completed at 0; counting
    # from it would report nearly every request as failed.
    rep = bench.run_rep("rkv-open-3rack", 0, False)
    sent = rep["sent"]["client0"]
    assert rep["completed"] == 0
    assert 0 < rep["answered"]["client0"] <= sent
    share = bench.failed_share(rep["sent"], rep["answered"])
    assert share == (sent - rep["answered"]["client0"]) / sent
    assert share < 0.01


def test_check_flags_more_answers_than_requests():
    good = {"digest": "d", "sent": {"c": 5}, "answered": {"c": 5}}
    bad = {"digest": "d", "sent": {"c": 5}, "answered": {"c": 6}}
    assert bench.check([dict(good), dict(good)]) == []
    problems = bench.check([dict(good), bad])
    assert len(problems) == 1 and "answered more than sent" in problems[0]


def test_planted_output_change_fails_the_digest_check():
    out = bench.measure("testbed-closed", 0, 0, False,
                        plant="drop-reply", plant_rep=1)
    assert not out["result"]["correct"]
    assert out["result"]["failed"] > 0
    assert any("digest" in p for p in out["problems"])


def test_sharded_digest_must_equal_the_serial_digest():
    out = bench.measure("rkv-open-3rack-sharded", 0, 0, False,
                        plant="drop-reply", min_reps=1)
    assert not out["result"]["correct"]
    assert any("serial run" in p for p in out["problems"])


def test_planted_busy_wait_in_rta_moves_cost_and_only_rta():
    bound = _bound("cpu_vs_ref")
    cost = {}
    for plant in (None, "rta-busy"):
        out = bench.measure("tenant-mixed", 0, 0, False, plant=plant)
        assert out["result"]["correct"]
        cost[plant] = out["result"]["metrics"]["cpu_vs_ref"]["value"]
    assert cost["rta-busy"] > cost[None] * (1 + bound)

    rta = {}
    for plant in (None, "rta-busy"):
        out = bench.measure("tenant-mixed", 0, 0, True, plant=plant,
                            min_reps=1)
        assert out["result"]["correct"]
        rta[plant] = out["result"]["metrics"]["apps.rta.self_s"]["value"]
    assert rta["rta-busy"] > 2 * rta[None] > 0

    out = bench.measure("rkv-open-3rack", 0, 0, True, plant="rta-busy",
                        min_reps=1)
    assert out["result"]["correct"]
    assert out["result"]["metrics"]["apps.rta.self_s"]["value"] == 0


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "tenant-mixed",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode not in (0, 1)
    assert proc.stdout == ""
