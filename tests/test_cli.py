"""Tests for the ``python -m repro`` command-line interface."""

import json
import textwrap

import pytest

from repro.cli import CHECK_TARGETS, EXPERIMENTS, main


def test_list_prints_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert set(out) == set(EXPERIMENTS)


def test_unknown_experiment_errors(capsys):
    assert main(["fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_table_experiments_print(capsys):
    assert main(["table1", "table2", "table3"]) == 0
    out = capsys.readouterr().out
    assert "LiquidIOII CN2350" in out
    assert "8.3" in out               # Table 2 L1 latency
    assert "flow_classifier" in out   # Table 3 workload


def test_fig2_fig4_print_series(capsys):
    assert main(["fig2", "fig4"]) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out and "1500B" in out
    assert "Figure 4" in out


def test_fig6_to_10_print(capsys):
    assert main(["fig6", "fig7-10"]) == 0
    out = capsys.readouterr().out
    assert "DPDK-send" in out
    assert "RDMA one-sided read" in out


def test_quick_fig17_runs(capsys):
    assert main(["fig17", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "w/o iPipe" in out


def test_experiments_share_one_executor_closed_on_exit(monkeypatch, capsys):
    from repro.exec import SweepPoint
    seen = []

    def stub(quick, executor):
        # two points on two jobs: the run starts the executor's pool
        executor.run([SweepPoint((n,), dict, {"n": n}) for n in (1, 2)])
        seen.append((executor, executor._pool is not None))

    monkeypatch.setitem(EXPERIMENTS, "stub-a", stub)
    monkeypatch.setitem(EXPERIMENTS, "stub-b", stub)
    assert main(["stub-a", "stub-b", "--jobs", "2"]) == 0
    (first, pooled_a), (second, pooled_b) = seen
    assert first is second and pooled_a and pooled_b
    assert first._pool is None


def test_sweep_cache_dir_defaults_to_repro_cache_dir(monkeypatch, tmp_path,
                                                     capsys):
    cache_dir, cwd = tmp_path / "cache", tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    monkeypatch.chdir(cwd)
    assert main(["sweep", "fig5", "--quick"]) == 0
    assert len(list(cache_dir.rglob("*.pkl"))) == 8
    assert not (cwd / ".sweep_cache").exists()


# -- repro lint -----------------------------------------------------------------

def test_lint_clean_on_package_exits_zero(capsys):
    assert main(["lint"]) == 0
    assert "clean" in capsys.readouterr().out


def test_lint_findings_exit_one(capsys, tmp_path):
    path = tmp_path / "dirty.py"
    path.write_text(textwrap.dedent("""\
        import random
        def f():
            return random.random()
    """))
    assert main(["lint", str(path)]) == 1
    out = capsys.readouterr().out
    assert "[module-random]" in out and "1 finding(s)" in out


def test_lint_missing_path_exits_two(capsys, tmp_path):
    assert main(["lint", str(tmp_path / "nope")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_lint_rules_listing(capsys):
    assert main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("wall-clock", "module-random", "unordered-iter"):
        assert rule in out


# -- repro check ----------------------------------------------------------------

def test_check_quick_fig16_exits_zero(capsys):
    assert main(["check", "fig16", "--quick", "--replay", "2"]) == 0
    out = capsys.readouterr().out
    assert "determinism: OK" in out


def test_check_rejects_single_replay(capsys):
    with pytest.raises(SystemExit):
        main(["check", "fig16", "--quick", "--replay", "1"])


def test_check_targets_cover_scheduler_dataplane_chaos_and_scenarios():
    assert {"fig5", "fig16", "chaos-rkv", "chaos-dt",
            "chaos-rta"} <= set(CHECK_TARGETS)
    # every shipped scenario spec is a check target
    from repro.scenario import shipped_specs
    names = shipped_specs()
    assert names  # the package ships specs
    for name in names:
        assert f"scenario-{name}" in CHECK_TARGETS
    assert "slo-study" in CHECK_TARGETS
    assert "steering-chaos" in CHECK_TARGETS


def test_trace_and_top_offer_every_single_report_leg(capsys):
    # the --workload choices come from the study registry: the steering
    # and SLO legs are traceable, the composite tenant study is not
    for verb in ("trace", "top"):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "{dt,rkv,rta,slo,steering}" in out


def test_slo_quick_prints_the_burn_rate_report(capsys, tmp_path):
    csv, trace = tmp_path / "series.csv", tmp_path / "trace.json"
    assert main(["slo", "--quick", "--csv", str(csv),
                 "--out", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "[slo:rkv-p99]" in out
    assert "breach @" in out and "recover @" in out
    # the sampled series export: a CSV table and Perfetto counter tracks
    assert csv.read_text().startswith("series,t_us,value\n")
    assert json.loads(trace.read_text())["traceEvents"]


# -- repro bench --check --------------------------------------------------------

_CANNED_BENCH = {
    "meta": {},
    "kernel": {
        "post_chain_eps": 1_000_000.0,
        "seed_chain_eps": 800_000.0,
        "speedup_post_vs_seed": 1.25,
    },
    "sweep": {
        "points": 4, "pool": 2, "pool_speedup": 1.8,
        "cached_speedup": 5.0, "cache_hit_rate": 1.0, "identical": True,
    },
}


def test_bench_check_regression_gate_failure_path(capsys, tmp_path,
                                                  monkeypatch):
    import repro.exec.bench as bench_mod
    monkeypatch.setattr(bench_mod, "run_bench",
                        lambda **kwargs: _CANNED_BENCH)
    baseline = tmp_path / "baseline.json"
    # baseline far above the canned result: the 30% gate must trip
    inflated = {"kernel": {"post_chain_eps": 10_000_000.0,
                           "seed_chain_eps": 800_000.0}}
    baseline.write_text(json.dumps(inflated))
    out_path = tmp_path / "BENCH_sweep.json"
    code = main(["bench", "--out", str(out_path),
                 "--check", str(baseline)])
    assert code == 1
    out = capsys.readouterr().out
    assert "PERF REGRESSION" in out and "post_chain_eps" in out
    # fresh results are still written even when the gate fails
    assert json.loads(out_path.read_text())["kernel"]["post_chain_eps"] == (
        1_000_000.0)


def test_bench_check_passing_gate_exits_zero(capsys, tmp_path, monkeypatch):
    import repro.exec.bench as bench_mod
    monkeypatch.setattr(bench_mod, "run_bench",
                        lambda **kwargs: _CANNED_BENCH)
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(
        {"kernel": {"post_chain_eps": 1_000_000.0}}))
    code = main(["bench", "--out", str(tmp_path / "out.json"),
                 "--check", str(baseline)])
    assert code == 0
    assert "no regression" in capsys.readouterr().out


def test_bench_check_help_states_exit_codes(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "--help"])
    out = " ".join(capsys.readouterr().out.split())   # undo help wrapping
    assert "Exit code 0" in out and "Exit code 1" in out


#: bad input files: missing, garbled, and decodable but not an object
BAD_FILES = [None, "{not json", "[1, 2]"]


def _bad_file(tmp_path, content) -> str:
    path = tmp_path / "bad.json"
    if content is not None:
        path.write_text(content)
    return str(path)


@pytest.mark.parametrize("content", BAD_FILES)
def test_bench_check_bad_baseline_exits_two_before_benchmarking(
        capsys, tmp_path, monkeypatch, content):
    import repro.exec.bench as bench_mod

    def never(**kwargs):
        raise AssertionError("benchmarked before loading the baseline")

    monkeypatch.setattr(bench_mod, "run_bench", never)
    baseline = _bad_file(tmp_path, content)
    code = main(["bench", "--out", str(tmp_path / "out.json"),
                 "--check", baseline])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "cannot load baseline" in err
    assert not (tmp_path / "out.json").exists()


#: every command that reads a spec file; {} is the bad file. The last
#: field is the exit code for a file that decodes but holds no object:
#: ``run`` rejects any unusable spec as a usage error (2), while
#: ``validate`` reports it as a failed spec (1).
SPEC_FILE_COMMANDS = [
    (["run", "{}"], 2),
    (["scenario", "run", "{}"], 2),
    (["scenario", "validate", "{}"], 1),
]


@pytest.mark.parametrize("content", BAD_FILES)
@pytest.mark.parametrize("argv,not_object_code", SPEC_FILE_COMMANDS)
def test_spec_file_commands_reject_bad_files_in_one_line(
        capsys, tmp_path, monkeypatch, argv, not_object_code, content):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    path = _bad_file(tmp_path, content)
    code = main([arg.format(path) for arg in argv])
    out, err = capsys.readouterr()
    assert (out + err).count("\n") == 1         # one line, no traceback
    if content == "[1, 2]":
        assert code == not_object_code and "must be an object" in out + err
    else:
        # missing or garbled: a usage error naming the file
        assert code == 2 and path in err


def test_run_unknown_spec_exits_two_listing_known_specs(capsys):
    from repro.scenario import shipped_specs
    assert main(["run", "no-such-spec"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no-such-spec" in err
    assert all(name in err for name in shipped_specs())


def test_a_spec_that_sets_placement_is_refused_in_one_line(capsys,
                                                          tmp_path):
    # AppSpec has no placement field, so the codec names it as unknown
    from repro.scenario import load_shipped
    from repro.scenario.spec import to_dict
    data = to_dict(load_shipped("paper-testbed"))
    data["apps"][0]["placement"] = [["s0/consensus", "nic"]]
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps(data))
    message = "apps[0]: unknown field(s) ['placement']"
    assert main(["scenario", "validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.startswith("FAIL ")
    assert message in out
    assert main(["scenario", "run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and message in err


def test_run_rejects_process_shards_in_one_line(capsys, tmp_path):
    from repro.scenario import load_shipped
    from repro.scenario.spec import to_dict
    data = to_dict(load_shipped("multi-rack-rkv"))
    data["execution"] = {"shards": "by-rack", "processes": 3}
    path = tmp_path / "proc.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert "process-backed shards were removed" in err


@pytest.mark.parametrize("name, sent, answered", [
    ("multi-rack-rkv", 1624, 1623),
    ("multi-rack-rebalance", 290, 290),
])
def test_scenario_run_prints_answered_of_sent_on_open_loop_specs(
        capsys, name, sent, answered):
    # the open-loop fleets' answers come from the client ledgers, so the
    # summary agrees with the replies the client port received
    assert main(["scenario", "run", name]) == 0
    out = capsys.readouterr().out
    assert f"  sent {sent}, answered {answered} (" in out
    assert f"  client client0: {answered} replies" in out
    assert "completed 0" not in out
