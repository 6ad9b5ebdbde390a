"""Command-line entry point: regenerate any paper table/figure.

Usage::

    python -m repro list
    python -m repro fig2 fig4 table2
    python -m repro fig16 --quick
    python -m repro all --quick
    python -m repro trace --workload rkv --out trace.json
    python -m repro top --by node,cat,actor
    python -m repro fig16 --jobs 4
    python -m repro sweep fig16 --jobs 4 --quick
    python -m repro bench --out BENCH_sweep.json
    python -m repro check --replay 2 fig16 --quick
    python -m repro lint
    python -m repro scenario list
    python -m repro scenario validate
    python -m repro scenario run multi-rack-rkv --duration-us 5000
    python -m repro run multi-rack-rkv

``--jobs N`` fans a figure's grid out to N worker processes through the
sweep executor (results are bit-identical to a serial run); ``sweep``
additionally caches point results on disk so re-runs only recompute
dirty points; ``bench`` emits the perf baseline ``BENCH_sweep.json``;
``check`` replays one experiment under the determinism sanitizer and
``lint`` runs the static nondeterminism-hazard pass (docs/CHECKING.md);
``scenario`` lists, validates, and runs declarative deployment specs
(docs/SCENARIOS.md) — shipped specs are also ``check`` targets as
``scenario-<name>``; ``run`` is shorthand for ``scenario run``.

``--quick`` shrinks simulation durations ~4x for a fast look; the
benchmark suite (``pytest benchmarks/ --benchmark-only``) remains the
canonical reproduction run.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, Optional

from .experiments.report import render_series, render_table


def _table1() -> None:
    from .nic import table1_rows
    print(render_table(table1_rows(), title="Table 1: SmartNIC specifications"))


def _table2() -> None:
    from .experiments.characterization import table2_rows
    print(render_table(table2_rows(), title="Table 2: memory latencies (ns)"))


def _table3() -> None:
    from .experiments.characterization import table3_accel_rows, table3_rows
    print(render_table(table3_rows(), title="Table 3: offloaded workloads"))
    print(render_table(table3_accel_rows(), title="Table 3: accelerators"))


def _fig2(quick: bool, executor) -> None:
    from .experiments.characterization import figure2_series
    from .nic import LIQUIDIO_CN2350
    print("Figure 2: bandwidth (Gbps) vs cores, LiquidIOII CN2350")
    for size, points in figure2_series(LIQUIDIO_CN2350).items():
        print(" ", render_series(f"{size}B", *zip(*points)))


def _fig3(quick: bool, executor) -> None:
    from .experiments.characterization import figure2_series
    from .nic import STINGRAY_PS225
    print("Figure 3: bandwidth (Gbps) vs cores, Stingray PS225")
    for size, points in figure2_series(STINGRAY_PS225).items():
        print(" ", render_series(f"{size}B", *zip(*points)))


def _fig4(quick: bool, executor) -> None:
    from .experiments.characterization import computing_headroom_us
    from .nic import LIQUIDIO_CN2350, STINGRAY_PS225
    print("Figure 4: computing headroom (µs/packet at line rate)")
    for spec in (LIQUIDIO_CN2350, STINGRAY_PS225):
        print(f"  {spec.model}: "
              f"256B={computing_headroom_us(spec, 256):.2f} "
              f"1024B={computing_headroom_us(spec, 1024):.2f}")


def _grid(name: str, quick: bool, executor):
    """One figure grid of ``exec.grids.GRID_DEFS`` at its ``--quick`` or
    full preset, run on ``executor``: (points, results by point key)."""
    from .exec.grids import build_grid
    points = build_grid(name, quick)
    return points, executor.run(points).results


def _fig5(quick: bool, executor) -> None:
    print("Figure 5: avg/p99 latency at max throughput (CN2350)")
    points, results = _grid("fig5", quick, executor)
    for point in points:
        p = results[point.key]
        print(f"  {p.frame_bytes:5d}B {p.cores:2d} cores: avg={p.avg_us:6.2f}µs "
              f"p99={p.p99_us:6.2f}µs")


def _fig6(quick: bool, executor) -> None:
    from .experiments.characterization import figure6_series
    print("Figure 6: messaging latency (µs)")
    for name, points in figure6_series().items():
        print(" ", render_series(name, *zip(*points)))


def _fig7_10(quick: bool, executor) -> None:
    from .experiments.characterization import (
        figure7_series, figure8_series, figure9_series, figure10_series)
    for title, series in (
        ("Figure 7: DMA latency (µs)", figure7_series()),
        ("Figure 8: DMA throughput (Mops)", figure8_series()),
        ("Figure 9: RDMA latency (µs)", figure9_series()),
        ("Figure 10: RDMA throughput (Mops)", figure10_series()),
    ):
        print(title)
        for name, points in series.items():
            print(" ", render_series(name, *zip(*points)))


def _fig13(quick: bool, executor) -> None:
    from .experiments.applications import ROLES
    points, results = _grid("fig13", quick, executor)
    print("Figure 13: host cores used (10GbE CN2350)")
    for point in points:
        r = results[point.key]
        for role, (app, idx) in ROLES.items():
            if app == r.app:
                print(f"  {r.packet_size:5d}B {r.system:5s} {role:15s} "
                      f"{r.host_cores[f's{idx}']:5.2f}")


def _fig14(quick: bool, executor) -> None:
    from .experiments.applications import latency_curves
    points, results = _grid("fig14", quick, executor)
    print("Figure 14: latency vs per-core throughput (10GbE, 512B)")
    for (system, app), curve in latency_curves(points, results).items():
        pts = " ".join(f"{t:.2f}Mops@{l:.1f}µs" for t, l in curve)
        print(f"  {app}-{system}: {pts}")


def _fig16(quick: bool, executor) -> None:
    from .experiments.scheduler_study import policy_series, run_point
    points, results = _grid("fig16", quick, executor)
    for dispersion, panel in policy_series(points, results).items():
        print(f"Figure 16 ({dispersion} dispersion, CN2350): p99 (µs)")
        for policy, series in panel.items():
            print(" ", render_series(policy, [l for l, _, _ in series],
                                     [p for _, _, p in series],
                                     xfmt="{:.1f}"))
    # where the sojourn time goes at the knee: a traced rerun of the
    # hybrid at the highest swept load, attributed per pipeline stage
    knee = max((p.kwargs for p in points if p.key[1:3] == ("high", "ipipe")),
               key=lambda kwargs: kwargs["load"])
    _, _, stages = run_point(**knee, traced=True)
    print(f"Figure 16 stage breakdown (ipipe, high dispersion, "
          f"load={knee['load']:.1f}):")
    for stage, st in stages.items():
        print(f"  {stage:14s} n={st['count']:<8d} p50={st['p50_us']:8.2f}µs "
              f"p99={st['p99_us']:8.2f}µs")


def _fig17(quick: bool, executor) -> None:
    from .experiments.applications import overhead_rows
    print("Figure 17: host-only RKV CPU with vs without iPipe")
    points, results = _grid("fig17", quick, executor)
    for load, dpdk, ipipe in overhead_rows(points, results):
        print(f"  load={load:.2f}: w/o iPipe {dpdk:.2f} cores, "
              f"w/ iPipe {ipipe:.2f} cores")


def _fig18(quick: bool, executor) -> None:
    print("Figure 18: migration breakdown")
    (point,), results = _grid("fig18", quick, executor)
    for row in results[point.key]:
        print(f"  {row.actor:10s} p1={row.phase1_us:6.0f}µs "
              f"p2={row.phase2_us:6.0f}µs p3={row.phase3_us:8.0f}µs "
              f"p4={row.phase4_us:8.0f}µs  total={row.total_ms:.2f}ms")


def _sec56(quick: bool, executor) -> None:
    from .experiments.netfns import floem_vs_ipipe
    duration = 8_000.0 if quick else 12_000.0
    for size in (1024, 64):
        floem, ipipe = floem_vs_ipipe(packet_size=size, clients=96,
                                      duration_us=duration)
        print(f"§5.6 {size}B: Floem {floem.gbps_per_core:.2f} vs "
              f"iPipe {ipipe.gbps_per_core:.2f} Gbps/core")


def _sec57(quick: bool, executor) -> None:
    from .experiments.netfns import firewall_latency_vs_load, ipsec_goodput_gbps
    from .nic import LIQUIDIO_CN2360
    duration = 8_000.0 if quick else 15_000.0
    print("§5.7 firewall (8K rules):")
    for load, latency in firewall_latency_vs_load(duration_us=duration):
        print(f"  load={load:.2f}: {latency:.2f}µs")
    print(f"§5.7 IPsec: 10GbE={ipsec_goodput_gbps(duration_us=duration):.1f} "
          f"Gbps, 25GbE={ipsec_goodput_gbps(spec=LIQUIDIO_CN2360, duration_us=duration):.1f} Gbps")


def _tenant_study(quick: bool, executor) -> None:
    run, kwargs = _leg("tenant", quick)
    record = run(**kwargs)
    print("TenantPlane: noisy neighbor vs hierarchical DRR shares "
          "(docs/TENANCY.md)")
    print(f"  victim p99 solo      {record['victim_p99_solo_us']:8.1f}µs")
    print(f"  victim p99 flat      {record['victim_p99_flat_us']:8.1f}µs "
          f"({record['degradation_x']:.2f}x)")
    print(f"  victim p99 isolated  {record['victim_p99_isolated_us']:8.1f}µs "
          f"({record['isolated_x']:.2f}x)")
    bad = [k for k, good in record["invariants"].items() if not good]
    if bad:
        raise SystemExit(f"tenant-study: violated {', '.join(bad)}")
    print("  all isolation invariants hold")


def _leg(name: str, quick: bool = False, seed: Optional[int] = None):
    """``(runner, kwargs)`` for one acceptance leg of the
    ``experiments.chaos_study.STUDIES`` registry: the leg's default seed
    unless ``seed`` is given, plus its ``--quick`` preset when asked."""
    from .experiments.chaos_study import STUDIES
    study = STUDIES[name]
    kwargs = {"seed": study.seed if seed is None else seed}
    if quick:
        kwargs.update(study.quick)
    return study.run, kwargs


def _traced_leg(verb: str, description: str, argv, add_args=None):
    """The parser ``repro trace`` and ``repro top`` share: pick one leg
    that yields a single report (``--workload``), run it traced."""
    from .experiments.chaos_study import STUDIES
    parser = argparse.ArgumentParser(prog=f"python -m repro {verb}",
                                     description=description)
    parser.add_argument("--workload", default="rkv", choices=sorted(
        name for name, study in STUDIES.items() if not study.composite))
    parser.add_argument("--seed", type=int, default=None)
    if add_args is not None:
        add_args(parser)
    args = parser.parse_args(argv)
    run, kwargs = _leg(args.workload, seed=args.seed)
    return args, run(trace=True, **kwargs)


def _cmd_trace(argv) -> int:
    """``repro trace``: run a traced workload, export Chrome trace JSON."""
    args, report = _traced_leg(
        "trace", "Run one traced workload and export a Perfetto-loadable "
                 "Chrome trace (open it at https://ui.perfetto.dev). Exit "
                 "code 0: every invariant held; 1 otherwise.", argv,
        lambda parser: parser.add_argument(
            "--out", default="trace.json", metavar="PATH",
            help="output path for the trace_event JSON"))
    print(report.summary())
    events = report.trace_plane.export_chrome(args.out)
    print(f"\n{events} trace events -> {args.out} "
          f"(drag into https://ui.perfetto.dev)")
    return 0 if report.ok else 1


def _cmd_top(argv) -> int:
    """``repro top``: flame-style fold of span time by node/stage/actor."""
    def add_args(parser):
        parser.add_argument("--by", default="node,cat,actor",
                            help="comma-separated fold key (span fields "
                                 "node/cat/name/track or attribute names)")
        parser.add_argument("--limit", type=int, default=40)
    args, report = _traced_leg(
        "top", "Run one traced workload and print where the virtual time "
               "went, folded by span fields.", argv, add_args)
    by = tuple(dim.strip() for dim in args.by.split(",") if dim.strip())
    print(report.trace_plane.flame(by=by, limit=args.limit))
    print()
    print(report.trace_plane.render_stages())
    return 0


def _cmd_slo(argv) -> int:
    """``repro slo``: run the SLO study, print the burn-rate report and
    export the sampled series."""
    from .obs import render_slo_report
    parser = argparse.ArgumentParser(
        prog="python -m repro slo",
        description="Run the PulsePlane SLO study (aggressor vs victim) "
                    "and print each SLO's burn-rate evaluation: state, "
                    "breach/recovery transitions, and budget math "
                    "(docs/OBSERVABILITY.md); --csv/--out export the "
                    "continuous telemetry. Exit code 0: the whole "
                    "breach -> load-driven migration -> recovery loop "
                    "closed; 1 otherwise.")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threshold", type=float, default=150.0,
                        metavar="US", help="victim p99 SLO threshold")
    parser.add_argument("--quick", action="store_true",
                        help="shorter run (~1s)")
    parser.add_argument("--csv", default=None, metavar="PATH",
                        help="write the sampled series as a "
                             "series,t_us,value table")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write Chrome trace_event counter tracks "
                             "(open at https://ui.perfetto.dev)")
    args = parser.parse_args(argv)
    run, kwargs = _leg("slo", args.quick, args.seed)
    report = run(threshold_us=args.threshold, **kwargs)
    print(report.summary())
    pulse = report.pulse_plane
    print(render_slo_report(pulse.slo_report()))
    if args.csv:
        rows = pulse.export_csv(args.csv)
        print(f"{rows} samples -> {args.csv}")
    if args.out:
        events = pulse.export_chrome(args.out)
        print(f"{events} counter events -> {args.out} "
              f"(drag into https://ui.perfetto.dev)")
    return 0 if report.ok else 1


def _cmd_sweep(argv) -> int:
    """``repro sweep``: run one experiment grid through the executor."""
    from .exec import DEFAULT_CACHE_DIR, ParallelSweep, ResultCache, grids
    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Run an experiment grid through the parallel sweep "
                    "executor, caching point results on disk so re-runs "
                    "only recompute dirty points.")
    parser.add_argument("grid", choices=sorted(grids.GRID_DEFS),
                        help="which figure/study grid to run")
    parser.add_argument("--quick", action="store_true",
                        help="shorter simulations for a fast look")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (0 = one per CPU; default 1)")
    parser.add_argument("--cache-dir", default=None,
                        metavar="DIR", help="result cache directory "
                        "(default: $REPRO_CACHE_DIR, else "
                        f"{DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every point; do not touch the cache")
    args = parser.parse_args(argv)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    with ParallelSweep(jobs=args.jobs, cache=cache) as executor:
        report = executor.run(grids.build_grid(args.grid, args.quick))
    for key, value in report.results.items():
        text = repr(value)
        if len(text) > 110:
            text = text[:107] + "..."
        print(f"  {key}: {text}")
    print(report.summary())
    return 0


def _cmd_bench(argv) -> int:
    """``repro bench``: kernel + sweep benchmarks -> BENCH_sweep.json."""
    import json
    from .exec.bench import (REGRESSION_THRESHOLD, check_regression,
                             run_bench, write_bench)
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="DES-kernel and sweep-executor benchmarks; writes the "
                    "BENCH_sweep.json perf baseline and optionally gates "
                    "against a committed one.")
    parser.add_argument("--out", default="BENCH_sweep.json", metavar="PATH")
    parser.add_argument("--pool", type=int, default=4, metavar="N",
                        help="pool size for the sweep benchmark (default 4)")
    parser.add_argument("--full", action="store_true",
                        help="full-size sweep grid instead of the quick one")
    parser.add_argument("--figures", action="store_true",
                        help="also time per-figure grid wall-clock")
    # argparse help strings are %-interpolated: escape the threshold
    threshold = f"{REGRESSION_THRESHOLD:.0%}".replace("%", "%%")
    parser.add_argument("--check", metavar="BASELINE", default=None,
                        help="compare *_eps metrics against a baseline "
                             "JSON file. Exit code 0: every metric is "
                             f"within {threshold} of the baseline (the "
                             "fresh results are still written to --out). "
                             "Exit code 1: at least one metric regressed "
                             "beyond the threshold; each failing metric "
                             "is printed with its baseline and current "
                             "value")
    args = parser.parse_args(argv)
    # Load the baseline first: a bad path should fail in a second, not
    # after minutes of benchmarking.
    baseline = None
    if args.check:
        try:
            with open(args.check) as fh:
                baseline = json.load(fh)
            if not isinstance(baseline, dict):
                raise ValueError("not a JSON object")
        except (OSError, ValueError) as exc:
            print(f"bench --check: cannot load baseline {args.check}: "
                  f"{exc}", file=sys.stderr)
            return 2
    bench = run_bench(pool=args.pool, quick=not args.full,
                      figures=args.figures)
    # The file is written before any printing or gating: a section that
    # errored is stamped into it, and CI uploads it ``if: always()``.
    write_bench(bench, args.out)
    errored = sorted(section for section, metrics in bench.items()
                     if isinstance(metrics, dict) and "error" in metrics)
    kern, sw = bench["kernel"], bench["sweep"]
    cores = bench.get("meta", {}).get("runner_cores", "?")
    print(f"wrote {args.out} ({cores} runner core(s))")
    if "kernel" not in errored:
        print(f"  kernel: post chain {kern['post_chain_eps']:,.0f} ev/s "
              f"(seed kernel {kern['seed_chain_eps']:,.0f}; "
              f"{kern['speedup_post_vs_seed']:.2f}x)")
    if "sweep" not in errored:
        speedup = sw.get("pool_speedup")
        pool_txt = (f"pool x{sw['pool']} {speedup:.2f}x"
                    if speedup is not None
                    else f"pool x{sw['pool']} skipped "
                         f"({sw.get('pool_note', 'single-core host')})")
        print(f"  sweep ({sw['points']} pts): {pool_txt}, "
              f"warm cache {sw['cached_speedup']:.2f}x "
              f"(hit rate {sw['cache_hit_rate']:.0%}), "
              f"identical={sw['identical']}")
    for section in errored:
        print(f"  {section}: ERRORED: {bench[section]['error']}")
    if baseline is not None:
        failures = check_regression(bench, baseline)
        if failures:
            print("PERF REGRESSION vs " + args.check + ":")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(f"  no regression vs {args.check}")
    return 1 if errored else 0


def _scenario_names() -> tuple:
    """Shipped scenario spec names, found on disk so listing them does
    not import the (heavy) scenario layer at CLI start."""
    spec_dir = os.path.join(os.path.dirname(__file__), "scenario", "specs")
    if not os.path.isdir(spec_dir):
        return ()
    return tuple(sorted(
        os.path.splitext(entry)[0]
        for entry in os.listdir(spec_dir) if entry.endswith(".json")))


#: ``repro check`` target -> acceptance leg of ``chaos_study.STUDIES``
_STUDY_TARGETS = {
    "chaos-rkv": "rkv", "chaos-dt": "dt", "chaos-rta": "rta",
    "steering-chaos": "steering", "slo-study": "slo",
    "tenant-study": "tenant",
}

#: ``repro check`` targets: representative runs covering the scheduler
#: study (fig16), the characterization dataplane (fig5), the six
#: acceptance legs (full fault-injection + recovery paths, steering,
#: SLO and tenant planes), and every shipped scenario spec (as
#: ``scenario-<name>``).
CHECK_TARGETS = ("fig5", "fig16", *_STUDY_TARGETS) \
    + tuple(f"scenario-{name}" for name in _scenario_names())


def _check_run_fn(target: str, quick: bool, seed: int | None):
    """A self-contained zero-arg runner for one ``repro check`` target.

    ``--quick`` shrinks durations to sanitizer-smoke size (a two-replay
    check finishes in about a second); without it the experiment's
    default duration is used.
    """
    if target == "fig16":
        from .experiments.scheduler_study import run_point
        from .nic import LIQUIDIO_CN2350
        kwargs = {"seed": 1 if seed is None else seed}
        if quick:
            kwargs["duration_us"] = 4_000.0
        return lambda: run_point(LIQUIDIO_CN2350, "ipipe", "high", 0.9,
                                 **kwargs)
    if target == "fig5":
        from .experiments.characterization import traffic_manager_experiment
        kwargs = {"seed": 3 if seed is None else seed}
        if quick:
            kwargs["duration_us"] = 3_000.0
        return lambda: traffic_manager_experiment(frame_bytes=512, cores=6,
                                                  **kwargs)
    leg = _STUDY_TARGETS.get(target)
    if leg is not None:
        from .exec.grids import chaos_point
        _, kwargs = _leg(leg, quick, seed)
        return lambda: chaos_point(leg, **kwargs)
    if target.startswith("scenario-"):
        import dataclasses
        from .scenario import load_shipped, run_scenario
        spec = load_shipped(target[len("scenario-"):])
        if seed is not None:
            spec = dataclasses.replace(spec, seed=seed)
        duration = 5_000.0 if quick else None
        return lambda: run_scenario(spec, duration_us=duration).fingerprint()


def _cmd_check(argv) -> int:
    """``repro check``: N-replay determinism sanitizer over one target."""
    from .check import replay_check
    parser = argparse.ArgumentParser(
        prog="python -m repro check",
        description="Replay one experiment N times under the determinism "
                    "sanitizer and compare rolling event digests; on a "
                    "mismatch, binary-search to the first divergent event "
                    "and name the offending callback. Exit code 0: all "
                    "replays bit-identical and no nondeterminism hazard "
                    "observed; exit code 1 otherwise.")
    parser.add_argument("target", choices=CHECK_TARGETS,
                        help="which experiment to replay")
    parser.add_argument("--replay", type=int, default=2, metavar="N",
                        help="replays to compare (minimum 2; default 2)")
    parser.add_argument("--seed", type=int, default=None,
                        help="experiment seed (default: the target's own)")
    parser.add_argument("--quick", action="store_true",
                        help="sanitizer-smoke durations (~1s per check)")
    parser.add_argument("--monitors", action="store_true",
                        help="also sweep the runtime invariant monitors "
                             "during each replay (violations fail the "
                             "check)")
    args = parser.parse_args(argv)
    if args.replay < 2:
        parser.error("--replay must be at least 2")
    run_fn = _check_run_fn(args.target, args.quick, args.seed)
    result = replay_check(run_fn, replays=args.replay,
                          monitors=args.monitors)
    print(f"check {args.target}"
          + (f" --seed {args.seed}" if args.seed is not None else "")
          + (" --monitors" if args.monitors else ""))
    print(result.describe())
    return 0 if result.ok else 1


class _BadFile(Exception):
    """A spec file that is missing, unreadable or undecodable; the CLI
    prints its one-line message and exits 2."""


def _resolve_spec(ref: str):
    """A spec from a shipped name or a ``.json``/``.toml`` path, raising
    :class:`_BadFile` for a file that cannot be read or is not JSON/TOML
    (content problems still raise ScenarioError)."""
    from .scenario import from_file, load_shipped
    if not (ref.endswith(".json") or ref.endswith(".toml") or os.sep in ref):
        return load_shipped(ref)
    import json
    decode_errors = (json.JSONDecodeError, UnicodeDecodeError)
    try:
        import tomllib
        decode_errors += (tomllib.TOMLDecodeError,)
    except ImportError:  # pragma: no cover - Python < 3.11
        pass
    try:
        return from_file(ref)
    except OSError as exc:
        raise _BadFile(f"cannot read {ref}: {exc.strerror or exc}") from None
    except decode_errors as exc:
        raise _BadFile(f"cannot parse {ref}: {exc}") from None


def _cmd_scenario(argv) -> int:
    """``repro scenario``: list, validate, and run declarative specs."""
    parser = argparse.ArgumentParser(
        prog="python -m repro scenario",
        description="Work with declarative deployment scenarios "
                    "(docs/SCENARIOS.md). Specs ship under "
                    "repro/scenario/specs/ and load from JSON or TOML.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("list", help="shipped scenario specs with a summary")
    p_val = sub.add_parser(
        "validate", help="validate spec files (default: all shipped)")
    p_val.add_argument("specs", nargs="*", metavar="SPEC",
                       help="shipped names or .json/.toml paths")
    p_run = sub.add_parser("run", help="build one scenario and run it")
    p_run.add_argument("spec", metavar="SPEC",
                       help="shipped name or .json/.toml path")
    p_run.add_argument("--duration-us", type=float, default=None,
                       help="override the spec's horizon")
    args = parser.parse_args(argv)

    if args.cmd == "list":
        from .scenario import load_shipped, shipped_specs
        for name in shipped_specs():
            spec = load_shipped(name)
            servers = sum(len(r.servers) for r in spec.racks)
            apps = ",".join(a.kind for a in spec.apps) or "none"
            print(f"{name}: {len(spec.racks)} rack(s), {servers} server(s), "
                  f"apps [{apps}], {len(spec.fleets)} fleet(s), "
                  f"{len(spec.tenants)} tenant(s), {len(spec.faults)} "
                  f"fault(s)")
            if spec.description:
                print(f"  {spec.description}")
        return 0

    if args.cmd == "validate":
        from .scenario import ScenarioError, shipped_specs
        refs = args.specs or shipped_specs()
        if not refs:
            print("no specs to validate", file=sys.stderr)
            return 2
        failures = unreadable = 0
        for ref in refs:
            try:
                spec = _resolve_spec(ref)
                spec.validate()
            except _BadFile as exc:
                unreadable += 1
                print(exc, file=sys.stderr)
            except (ScenarioError, KeyError) as exc:
                failures += 1
                print(f"FAIL {ref}: {exc}")
            else:
                print(f"ok   {ref} ({spec.name})")
        return 2 if unreadable else 1 if failures else 0

    from .scenario import ScenarioError, run_scenario
    try:
        try:
            spec = _resolve_spec(args.spec)
        except (_BadFile, KeyError) as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        result = run_scenario(spec, duration_us=args.duration_us)
    except ScenarioError as exc:
        print(f"invalid spec {args.spec}: {exc}", file=sys.stderr)
        return 2
    print(f"scenario {result.name} (seed {result.seed}, "
          f"{result.duration_us:.0f}µs)")
    print(f"  sent {result.sent}, answered {result.answered} "
          f"({result.throughput_mops:.3f} Mops)")
    if result.completed:
        print(f"  closed-loop latency mean {result.mean_latency_us:.3f}µs "
              f"p99 {result.p99_latency_us:.3f}µs "
              f"over {result.completed} answers")
    for client, count in sorted(result.client_received.items()):
        print(f"  client {client}: {count} replies")
    for switch, (fwd, dropped) in sorted(result.switch_counters.items()):
        print(f"  switch {switch}: forwarded {fwd}, dropped {dropped}")
    if result.faults_injected or result.recoveries:
        print(f"  faults {result.faults_injected}, "
              f"recoveries {result.recoveries}")
    print(f"  fingerprint {result.fingerprint()}")
    return 0


def _cmd_lint(argv) -> int:
    """``repro lint``: static nondeterminism-hazard pass over src/repro."""
    from .check import RULES, lint_file, lint_tree
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Static pass banning nondeterminism hazards (host "
                    "clocks, module-level random, set iteration feeding "
                    "event scheduling) in simulation code. Exit code 0: "
                    "clean; 1: findings; 2: a path does not exist.")
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="files or directories to lint (default: the "
                             "installed repro package)")
    parser.add_argument("--rules", action="store_true",
                        help="list the lint rules and exit")
    args = parser.parse_args(argv)
    if args.rules:
        for rule, description in sorted(RULES.items()):
            print(f"{rule:15s} {description}")
        return 0
    roots = args.paths or [os.path.dirname(os.path.abspath(__file__))]
    findings = []
    for root in roots:
        if not os.path.exists(root):
            print(f"no such path: {root}", file=sys.stderr)
            return 2
        if os.path.isfile(root):
            findings.extend(lint_file(root))
        else:
            findings.extend(lint_tree(root))
    for finding in findings:
        print(finding)
    checked = ", ".join(args.paths) if args.paths else "src/repro"
    if findings:
        print(f"repro lint: {len(findings)} finding(s) in {checked}")
        return 1
    print(f"repro lint: clean ({checked})")
    return 0


EXPERIMENTS: Dict[str, Callable[..., None]] = {
    "table1": lambda quick, executor: _table1(),
    "table2": lambda quick, executor: _table2(),
    "table3": lambda quick, executor: _table3(),
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7-10": _fig7_10,
    "fig13": _fig13,
    "fig14": _fig14,
    "fig16": _fig16,
    "fig17": _fig17,
    "fig18": _fig18,
    "sec5.6": _sec56,
    "sec5.7": _sec57,
    "tenant-study": _tenant_study,
}

#: ``python -m repro <verb> ...``; any other first word is an experiment id
COMMANDS: Dict[str, Callable[[list], int]] = {
    "trace": _cmd_trace,
    "top": _cmd_top,
    "sweep": _cmd_sweep,
    "bench": _cmd_bench,
    "check": _cmd_check,
    "lint": _cmd_lint,
    "scenario": _cmd_scenario,
    # shorthand: ``repro run SPEC ...`` == ``repro scenario run ...``
    "run": lambda argv: _cmd_scenario(["run"] + argv),
    "slo": _cmd_slo,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in COMMANDS:
        return COMMANDS[argv[0]](argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures from the iPipe paper.")
    parser.add_argument("experiments", nargs="+",
                        help="experiment ids (see 'list'), or 'all'")
    parser.add_argument("--quick", action="store_true",
                        help="shorter simulations for a fast look")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan experiment grids out to N worker "
                             "processes (results identical to serial)")
    args = parser.parse_args(argv)

    if args.experiments == ["list"]:
        for name in EXPERIMENTS:
            print(name)
        return 0
    targets = (list(EXPERIMENTS) if args.experiments == ["all"]
               else args.experiments)
    from .exec import ParallelSweep
    # one worker pool for the whole invocation, released on the way out
    with ParallelSweep(jobs=args.jobs) as executor:
        for name in targets:
            fn = EXPERIMENTS.get(name)
            if fn is None:
                print(f"unknown experiment {name!r}; try 'list'",
                      file=sys.stderr)
                return 2
            fn(quick=args.quick, executor=executor)
            print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
