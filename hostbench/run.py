"""Host-time benchmark of the iPipe simulator (see BENCHMARK.md).

    python3 hostbench/run.py --workload tenant-mixed --seed 0 --seconds 25 --trace 0

Runs repetitions of one workload, each in a fresh interpreter, until
``--seconds`` are spent (at least three), checks every repetition's
simulated outputs and prints the metrics as the last line of standard
output.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics.

Exit codes: 0 all checks passed; 1 a repetition failed or an output
check failed (the result line says ``"correct": false``); 2 the
simulator cannot be found or imported (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REP = os.path.join(HERE, "rep.py")
sys.path.insert(0, HERE)

from attribution import PACKAGES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 3
REP_TIMEOUT_S = 150

#: end-to-end metrics (host clocks, untraced repetitions): name -> unit
END_TO_END = {"cpu_vs_ref": "ratio", "setup_s": "s", "peak_rss_mb": "MiB"}

#: per-layer metrics (traced repetitions): name -> unit
PER_LAYER = {
    "sim.events": "count",
    "sim.events_per_req": "events/req",
    "sim.dispatch_us_per_event": "us",
    "sim.peak_pending": "count",
    "core.host_worker.resumes": "count",
    "core.host_worker.useful_share": "share",
    "core.host_worker.self_s": "s",
    "core.nic_sched.resumes": "count",
    "core.nic_sched.self_s": "s",
    "apps.rkv.calls": "count",
    "apps.rkv.self_s": "s",
    "apps.rta.calls": "count",
    "apps.rta.self_s": "s",
    "net.frames": "count",
    "nic.receives": "count",
    "obs.pulse.samples": "count",
    "obs.pulse.self_s": "s",
    "scenario.load_s": "s",
    "scenario.build_s": "s",
    "scenario.collect_s": "s",
    "exec.shard.rounds": "count",
    "exec.shard.transfers": "count",
    "exec.shard.sync_s": "s",
    "nic.cores_used_sim": "cores",
    "host.cores_used_sim": "cores",
    "trace.overhead": "ratio",
    "trace.unattributed_share": "share",
}
for _pkg in PACKAGES:
    PER_LAYER[_pkg + ".self_s"] = "s"
    PER_LAYER[_pkg + ".callbacks"] = "count"


class ProgramMissing(Exception):
    """The simulator under ``src/`` cannot be imported."""


def run_rep(workload: str, seed: int, trace: bool, plant=None,
            serial: bool = False) -> dict:
    """One repetition in a fresh interpreter; its JSON report, or a
    report with an ``error`` key when it failed."""
    cmd = [sys.executable, REP, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    if serial:
        cmd.append("--serial")
    if plant:
        cmd += ["--plant", plant]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition timed out after {REP_TIMEOUT_S} s"}
    if proc.returncode == 2:
        raise ProgramMissing(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: "
                         + proc.stderr.strip()[-2000:]}
    return json.loads(lines[-1])


def check(reps: list, reference=None) -> list:
    """Output checks; marks each failing repetition with ``problem``.

    Every repetition must carry the same digest as the first one (or as
    ``reference``, the serial twin of a sharded workload), answer no
    more requests than it sent at any client, and answer some."""
    expect = reference.get("digest") if reference is not None else None
    problems = []
    for i, rep in enumerate(reps):
        if "error" in rep:
            rep["problem"] = rep["error"]
        else:
            if expect is None:
                expect = rep["digest"]
            over = sorted(c for c, n in rep["answered"].items()
                          if n > rep["sent"].get(c, 0))
            if over:
                rep["problem"] = f"answered more than sent at {over}"
            elif not sum(rep["answered"].values()):
                rep["problem"] = "no request was answered"
            elif rep["digest"] != expect:
                what = ("the serial run's" if reference is not None
                        else "the first repetition's")
                rep["problem"] = (f"digest {rep['digest']} differs from "
                                  f"{what} {expect}")
        if "problem" in rep:
            problems.append(f"repetition {i}: {rep['problem']}")
    return problems


def failed_share(sent: dict, answered: dict) -> float:
    """Requests sent but not answered by the horizon, counted at the
    client ports, as a share of requests sent."""
    total = sum(sent.values())
    return (total - sum(answered.get(c, 0) for c in sent)) / total


def measure(name: str, seed: int, seconds: float, trace: bool,
            plant=None, plant_rep=None, min_reps: int = MIN_REPS) -> dict:
    """Run ``name`` for ``seconds``, and at least ``min_reps`` untraced
    repetitions, and return the result object.

    ``plant`` (self-test only) is applied to every timed repetition, or
    to repetition ``plant_rep`` alone; never to the serial reference."""
    workload = WORKLOADS[name]
    reference = None
    if workload.sharded:
        reference = run_rep(name, seed, False, serial=True)
    start = time.monotonic()
    untraced, traced = [], []
    longest = 0.0      # the longest round so far
    while True:
        round_start = time.monotonic()
        for traced_now in ((False, True) if trace else (False,)):
            index = len(untraced) + len(traced)
            planted = plant if plant_rep in (None, index) else None
            rep = run_rep(name, seed, traced_now, plant=planted)
            (traced if traced_now else untraced).append(rep)
        if any("error" in rep for rep in untraced + traced):
            break
        now = time.monotonic()
        longest = max(longest, now - round_start)
        if len(untraced) >= min_reps and now - start + longest > seconds:
            break

    everything = untraced + traced
    problems = []
    if reference is not None:
        problems = [f"serial reference: {p}" for p in check([reference])]
        if problems:
            reference.pop("digest", None)
    problems += check(everything, reference)
    if reference is not None:
        everything.append(reference)
    attempted = failed = 0
    for rep in everything:
        sent = sum(rep.get("sent", {}).values())
        attempted += max(sent, 1)
        if "problem" in rep:
            failed += max(sent, 1)

    good = [r for r in untraced if "error" not in r]
    good_traced = [r for r in traced if "error" not in r]
    host = {key: statistics.median(r[key] for r in good)
            for key in ("wall_s", "cpu_s", "ref_s") if good and not trace}
    metrics = {}
    if good and (good_traced or not trace):
        if trace:
            layers = [r["layers"] for r in good_traced]
            for metric, unit in PER_LAYER.items():
                if metric == "trace.overhead":
                    value = (statistics.median(r["wall_s"] for r in good_traced)
                             / statistics.median(r["wall_s"] for r in good))
                else:
                    value = statistics.median(l[metric] for l in layers)
                metrics[metric] = {"value": value, "unit": unit}
        else:
            for metric, unit in END_TO_END.items():
                if metric == "cpu_vs_ref":
                    value = host["cpu_s"] / host["ref_s"]
                else:
                    value = statistics.median(r[metric] for r in good)
                metrics[metric] = {"value": value, "unit": unit}
    simulated = None
    if good:
        first = good[0]
        simulated = {
            "digest": first["digest"],
            "sim_p50_us": first["sim_p50_us"],
            "sim_p99_us": first["sim_p99_us"],
            "sim_goodput_mrps": first["sim_goodput_mrps"],
            "failed_share": failed_share(first["sent"], first["answered"]),
            "sent": sum(first["sent"].values()),
            "answered": sum(first["answered"].values()),
        }
    return {
        "result": {"correct": not problems, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
        "simulated": simulated,
        "host": host,
        "problems": problems,
        "reps": len(untraced),
        "traced_reps": len(traced),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the iPipe simulator.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="0 keeps the shipped seeds")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("hostbench: no simulator under src/repro", file=sys.stderr)
        return 2
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", HERE],
                   cwd=ROOT, stdout=subprocess.DEVNULL, check=False)
    try:
        out = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    except ProgramMissing as exc:
        print(f"hostbench: cannot import the simulator: {exc}",
              file=sys.stderr)
        return 2
    for problem in out["problems"]:
        print(f"hostbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"simulated_not_gated": out["simulated"],
                      "host_not_gated": out["host"],
                      "reps": out["reps"],
                      "traced_reps": out["traced_reps"]}))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
