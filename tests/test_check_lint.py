"""The ``repro lint`` static pass: rules, allowlists, and a clean tree."""

import os
import textwrap

import repro
from repro.check import RULES, LintFinding, lint_file, lint_source, lint_tree


def _rules(source):
    return [(f.rule, f.line) for f in lint_source(textwrap.dedent(source))]


# -- wall-clock ------------------------------------------------------------------

def test_wall_clock_calls_flagged():
    findings = _rules("""\
        import time
        def f(sim):
            start = time.time()
            time.monotonic_ns()
            return time.perf_counter()
    """)
    assert findings == [("wall-clock", 3), ("wall-clock", 4),
                        ("wall-clock", 5)]


def test_wall_clock_through_alias_and_from_import():
    findings = _rules("""\
        import time as t
        from time import monotonic as mono
        def f():
            return t.time() + mono()
    """)
    assert findings == [("wall-clock", 4), ("wall-clock", 4)]


def test_datetime_now_flagged():
    findings = _rules("""\
        import datetime
        from datetime import datetime as dt
        def f():
            return datetime.datetime.now(), dt.utcnow()
    """)
    assert [rule for rule, _ in findings] == ["wall-clock", "wall-clock"]


def test_sim_now_not_flagged():
    assert _rules("""\
        def f(sim):
            return sim.now
    """) == []


# -- module-random ---------------------------------------------------------------

def test_module_random_calls_flagged():
    findings = _rules("""\
        import random
        def f():
            random.shuffle([1, 2])
            return random.random()
    """)
    assert findings == [("module-random", 3), ("module-random", 4)]


def test_seeded_random_instances_allowed():
    assert _rules("""\
        import random
        def f(seed):
            rng = random.Random(seed)
            return rng.random()
    """) == []


def test_from_random_import_flagged():
    findings = _rules("""\
        from random import choice, Random
        def f():
            Random(1)
            return choice([1, 2])
    """)
    assert findings == [("module-random", 4)]


# -- unordered-iter --------------------------------------------------------------

def test_set_iteration_feeding_scheduler_flagged():
    findings = _rules("""\
        def f(sim, names):
            pending = set(names)
            for name in pending:
                sim.post(1.0, print, name)
    """)
    assert findings == [("unordered-iter", 3)]


def test_set_literal_and_comprehension_flagged():
    findings = _rules("""\
        def f(sim):
            for x in {1, 2, 3}:
                sim.post_at(1.0, print, x)
        def g(sim, xs):
            for x in {x for x in xs}:
                sim.post(1.0, print, x)
    """)
    assert [rule for rule, _ in findings] == ["unordered-iter"] * 2


def test_sorted_set_iteration_not_flagged():
    assert _rules("""\
        def f(sim, names):
            for name in sorted(set(names)):
                sim.post(1.0, print, name)
    """) == []


def test_set_iteration_without_scheduling_not_flagged():
    assert _rules("""\
        def f(names):
            total = 0
            for name in set(names):
                total += len(name)
            return total
    """) == []


def test_dataclass_set_field_feeding_send_flagged():
    # the shape of a coordinator aborting every participant of a txn
    findings = _rules("""\
        from dataclasses import dataclass, field
        from typing import List, Set

        @dataclass
        class State:
            participants: Set[str] = field(default_factory=set)
            order: List[str] = field(default_factory=list)

        class Coordinator:
            def abort(self, state):
                for node in state.participants:
                    self.send(node, "abort")
                for node in sorted(state.participants):
                    self.send(node, "abort")
                for node in state.order:
                    self.send(node, "abort")
                rest = state.participants
                for node in rest:
                    self.send(node, "abort")
    """)
    assert findings == [("unordered-iter", 11), ("unordered-iter", 18)]


def test_plain_set_annotation_and_non_dataclass_fields():
    findings = _rules("""\
        import dataclasses

        @dataclasses.dataclass(frozen=True)
        class Spec:
            racks: set

        class Plain:
            nodes: set

        def f(sim, spec, plain):
            for rack in spec.racks:
                sim.post(1.0, print, rack)
            for node in plain.nodes:
                sim.post(1.0, print, node)
    """)
    assert findings == [("unordered-iter", 11)]


def test_dict_iteration_not_flagged():
    # dicts are insertion-ordered in CPython: deliberately exempt
    assert _rules("""\
        def f(sim, table):
            for name in table:
                sim.post(1.0, print, name)
    """) == []


# -- builtin-hash ----------------------------------------------------------------

def test_builtin_hash_flagged():
    # str hashes are salted per process; crc32 and method calls named
    # hash (hashlib objects, user classes) are not the builtin
    findings = _rules("""\
        import zlib
        def owner(key, nodes):
            a = nodes[hash(key) % len(nodes)]
            b = nodes[zlib.crc32(key.encode()) % len(nodes)]
            return a, b, key.hash()
    """)
    assert findings == [("builtin-hash", 3)]


# -- allowlists ------------------------------------------------------------------

def test_inline_allow_suppresses_named_rule(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent("""\
        import time
        def f():
            a = time.time()  # lint: allow[wall-clock]
            b = time.time()  # lint: allow
            return time.time()
    """))
    findings = lint_file(str(path), rel_path="mod.py")
    assert [(f.rule, f.line) for f in findings] == [("wall-clock", 5)]


def test_inline_allow_for_other_rule_does_not_suppress(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent("""\
        import time
        def f():
            return time.time()  # lint: allow[module-random]
    """))
    findings = lint_file(str(path), rel_path="mod.py")
    assert [f.rule for f in findings] == ["wall-clock"]


def test_path_allowlist_exempts_exec_wall_clock(tmp_path):
    source = textwrap.dedent("""\
        import time
        import random
        def f():
            random.random()
            return time.perf_counter()
    """)
    exec_dir = tmp_path / "exec"
    exec_dir.mkdir()
    (exec_dir / "bench.py").write_text(source)
    findings = lint_file(str(exec_dir / "bench.py"),
                         rel_path="exec/bench.py")
    # wall-clock is exempt under exec/ (benchmarking); module-random never
    assert [f.rule for f in findings] == ["module-random"]
    findings = lint_file(str(exec_dir / "bench.py"), rel_path="other/bench.py")
    assert sorted(f.rule for f in findings) == ["module-random", "wall-clock"]


def test_syntax_error_reported_as_parse_finding(tmp_path):
    findings = lint_source("def f(:\n")
    assert [f.rule for f in findings] == ["parse"]


# -- the tree gate ---------------------------------------------------------------

def test_src_repro_is_lint_clean():
    root = os.path.dirname(os.path.abspath(repro.__file__))
    findings = lint_tree(root)
    assert findings == [], "\n".join(str(f) for f in findings)


def test_findings_are_ordered_and_printable():
    findings = lint_source(textwrap.dedent("""\
        import time
        def f():
            time.monotonic()
            time.time()
    """), path="x.py")
    assert [f.line for f in findings] == [3, 4]
    rendered = str(findings[0])
    assert "x.py:3" in rendered and "[wall-clock]" in rendered
    assert set(f.rule for f in findings) <= set(RULES)
