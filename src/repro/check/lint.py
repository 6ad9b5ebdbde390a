"""``repro lint``: a static pass banning nondeterminism hazards.

Five rules, enforced over ``src/repro/``:

* **wall-clock** — calls to host clocks (``time.time``, ``time.time_ns``,
  ``time.monotonic[_ns]``, ``time.perf_counter[_ns]``,
  ``time.process_time``, ``datetime.now``/``utcnow``/``today``).
  Virtual time comes from ``sim.now``; a host clock read anywhere in
  simulation code is a determinism leak.  Allowlisted under ``exec/``,
  whose job is wall-clock benchmarking.
* **module-random** — calls through the ``random`` *module's* hidden
  global generator (``random.random()``, ``random.shuffle()``,
  ``random.seed()``, ...).  All randomness must flow through seeded
  :class:`~repro.sim.Rng` / ``random.Random(seed)`` instances;
  constructing ``random.Random`` is explicitly allowed.
* **unordered-iter** — ``for`` loops over ``set`` expressions (literals,
  comprehensions, ``set()``/``frozenset()`` calls, local names bound
  to them, or attributes named after a field that a dataclass in the
  same module annotates ``Set[...]``/``set``) inside functions that
  schedule events or send messages (``post``, ``post_at``, ``spawn``,
  ``push``, ``send``).  Set iteration order
  depends on ``PYTHONHASHSEED`` for str-keyed sets, so feeding it into
  the event heap breaks cross-process bit-identity; wrap the iterable in
  ``sorted(...)``.  Dict iteration is insertion-ordered in every
  supported CPython and is deliberately not flagged — the sanitizer's
  replay digest covers insertion-order regressions dynamically.
* **builtin-hash** — calls to the builtin ``hash()``.  ``str`` and
  ``bytes`` hashes are salted per process (``PYTHONHASHSEED``), so a
  partition, bucket or seed derived from them differs between two runs
  of the same seed in fresh interpreters — invisible to an in-process
  replay.  Use ``zlib.crc32(key.encode())``; an int-only hash that is
  stable across processes may carry an inline allow with its reason.
* **clock-write** — assignments to an attribute named ``now``
  (``sim.now = t``, ``x.now += dt``, ``setattr(x, "now", t)``).
  ``Simulator.now`` is a plain attribute, read on every event; only
  the run loop may move the clock, so the one allowed file is
  ``sim/engine.py``.

Suppression: a finding on a line containing ``# lint: allow[rule]`` (or
a bare ``# lint: allow``) is dropped — reserve it for sites with a
written justification.  The path allowlist lives in
:data:`PATH_ALLOW`; policy discussion in ``docs/CHECKING.md``.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: rule id -> one-line description (shown by ``repro lint --rules``)
RULES: Dict[str, str] = {
    "wall-clock": "host clock call (time.time & co); use sim.now",
    "module-random": "module-level random call; use a seeded Rng",
    "unordered-iter": "set iteration feeding event scheduling or sends; "
                      "sort it",
    "builtin-hash": "builtin hash() is salted per process; use zlib.crc32",
    "clock-write": "assignment to .now; only the run loop in sim/engine.py "
                   "moves the clock",
}

#: path-prefix allowlist (POSIX-style, relative to the linted root):
#: prefix -> rules exempted beneath it.
PATH_ALLOW: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    # exec/ is the benchmarking/executor layer: wall-clock measurement
    # is its purpose, never an input to virtual time.
    ("exec/", ("wall-clock",)),
    # the run loop owns the virtual clock
    ("sim/engine.py", ("clock-write",)),
)

_WALL_CLOCK_ATTRS = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "clock_gettime",
}
_DATETIME_ATTRS = {"now", "utcnow", "today"}
#: the only attribute of the random module simulation code may touch
_RANDOM_ALLOWED_ATTRS = {"Random"}
_SCHEDULING_CALLS = {"post", "post_at", "spawn", "push", "send"}
_SET_CONSTRUCTORS = {"set", "frozenset"}
_SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet"}


@dataclass(frozen=True)
class LintFinding:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class _ModuleImports:
    """Which local names refer to the time/random/datetime modules (or
    their members) in one file."""

    def __init__(self) -> None:
        self.module_alias: Dict[str, str] = {}   # alias -> module name
        self.banned_name: Dict[str, Tuple[str, str]] = {}  # alias -> (rule, detail)

    def scan(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    if item.name in ("time", "random", "datetime"):
                        self.module_alias[item.asname or item.name] = item.name
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "time":
                    for item in node.names:
                        if item.name in _WALL_CLOCK_ATTRS:
                            self.banned_name[item.asname or item.name] = (
                                "wall-clock", f"time.{item.name}")
                elif node.module == "random":
                    for item in node.names:
                        if item.name not in _RANDOM_ALLOWED_ATTRS:
                            self.banned_name[item.asname or item.name] = (
                                "module-random", f"random.{item.name}")
                elif node.module == "datetime":
                    for item in node.names:
                        # `from datetime import datetime` makes the class
                        # available under an alias; .now()/.utcnow() on it
                        # are wall-clock reads.
                        if item.name in ("datetime", "date"):
                            self.module_alias[item.asname or item.name] = (
                                "datetime")


def _call_finding(node: ast.Call, imports: _ModuleImports) -> Optional[Tuple[str, str]]:
    """(rule, detail) for a banned call expression, else None."""
    func = node.func
    if isinstance(func, ast.Name):
        if func.id == "hash":
            return ("builtin-hash", "hash")
        return imports.banned_name.get(func.id)
    if not isinstance(func, ast.Attribute):
        return None
    base = func.value
    attr = func.attr
    if isinstance(base, ast.Name):
        module = imports.module_alias.get(base.id)
        if module == "time" and attr in _WALL_CLOCK_ATTRS:
            return ("wall-clock", f"time.{attr}")
        if module == "random" and attr not in _RANDOM_ALLOWED_ATTRS:
            return ("module-random", f"random.{attr}")
        if module == "datetime" and attr in _DATETIME_ATTRS:
            return ("wall-clock", f"datetime.{attr}")
    elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
        # datetime.datetime.now() / datetime.date.today()
        if (imports.module_alias.get(base.value.id) == "datetime"
                and attr in _DATETIME_ATTRS):
            return ("wall-clock", f"datetime.{base.attr}.{attr}")
    return None


def _writes_now(target: ast.AST) -> bool:
    """Whether an assignment target (or any element of an unpacking
    target) is an attribute named ``now``."""
    if isinstance(target, ast.Attribute):
        return target.attr == "now"
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_writes_now(elt) for elt in target.elts)
    if isinstance(target, ast.Starred):
        return _writes_now(target.value)
    return False


def _clock_write(node: ast.AST) -> bool:
    """Whether ``node`` assigns an attribute named ``now``."""
    if isinstance(node, ast.Assign):
        return any(_writes_now(t) for t in node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return _writes_now(node.target)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "setattr" and len(node.args) >= 2):
        name = node.args[1]
        return isinstance(name, ast.Constant) and name.value == "now"
    return False


def _is_setish(node: ast.AST, set_names: Set[str],
               set_fields: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _SET_CONSTRUCTORS):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.Attribute) and node.attr in set_fields:
        return True
    return False


def _terminal_name(node: ast.AST) -> Optional[str]:
    """``Set`` for ``Set``, ``typing.Set`` or ``Set[str]``; else None."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _dataclass_set_fields(tree: ast.AST) -> Set[str]:
    """Names of the fields that a dataclass in ``tree`` annotates as a
    set: ``Set[...]``, ``FrozenSet[...]``, ``set`` or ``frozenset``."""
    fields: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not any(_terminal_name(d.func if isinstance(d, ast.Call) else d)
                   == "dataclass" for d in node.decorator_list):
            continue
        for stmt in node.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and _terminal_name(stmt.annotation) in _SET_ANNOTATIONS):
                fields.add(stmt.target.id)
    return fields


def _schedules_events(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Attribute) and callee.attr in _SCHEDULING_CALLS:
            return True
        if isinstance(callee, ast.Name) and callee.id == "spawn":
            return True
    return False


def _set_bound_names(func: ast.AST, set_fields: Set[str]) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (isinstance(target, ast.Name)
                    and _is_setish(node.value, names, set_fields)):
                names.add(target.id)
    return names


def lint_source(source: str, path: str = "<string>") -> List[LintFinding]:
    """Lint one file's source text; returns raw findings (no allowlists)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as err:
        return [LintFinding(path=path, line=err.lineno or 0, rule="parse",
                            message=f"syntax error: {err.msg}")]
    imports = _ModuleImports()
    imports.scan(tree)
    set_fields = _dataclass_set_fields(tree)
    findings: List[LintFinding] = []

    for node in ast.walk(tree):
        if _clock_write(node):
            findings.append(LintFinding(
                path=path, line=node.lineno, rule="clock-write",
                message="assignment to .now outside the run loop"))
        if isinstance(node, ast.Call):
            hit = _call_finding(node, imports)
            if hit is not None:
                rule, detail = hit
                findings.append(LintFinding(
                    path=path, line=node.lineno, rule=rule,
                    message=f"call to {detail}()"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _schedules_events(node):
                continue
            set_names = _set_bound_names(node, set_fields)
            for inner in ast.walk(node):
                if (isinstance(inner, ast.For)
                        and _is_setish(inner.iter, set_names, set_fields)):
                    findings.append(LintFinding(
                        path=path, line=inner.lineno, rule="unordered-iter",
                        message=(f"iterating a set in {node.name}(), which "
                                 f"schedules events or sends; wrap in "
                                 f"sorted(...)")))
    # nested functions are walked once per enclosing def: dedupe
    return sorted(set(findings), key=lambda f: (f.path, f.line, f.rule))


def _inline_allowed(line: str, rule: str) -> bool:
    marker = "# lint: allow"
    idx = line.find(marker)
    if idx < 0:
        return False
    rest = line[idx + len(marker):].strip()
    if not rest.startswith("["):
        return True                # bare allow: suppresses every rule
    if "]" not in rest:
        return False
    allowed = [item.strip() for item in rest[1:rest.find("]")].split(",")]
    return rule in allowed


def _path_allowed(rel_path: str, rule: str) -> bool:
    for prefix, rules in PATH_ALLOW:
        if rel_path.startswith(prefix) and rule in rules:
            return True
    return False


def lint_file(path: str, rel_path: Optional[str] = None) -> List[LintFinding]:
    """Lint one file, applying inline and path allowlists."""
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    rel = (rel_path or path).replace(os.sep, "/")
    lines = source.splitlines()
    kept = []
    for finding in lint_source(source, path=rel):
        if _path_allowed(rel, finding.rule):
            continue
        if 0 < finding.line <= len(lines) and _inline_allowed(
                lines[finding.line - 1], finding.rule):
            continue
        kept.append(finding)
    return kept


def lint_tree(root: str) -> List[LintFinding]:
    """Lint every ``.py`` file under ``root`` (paths reported relative)."""
    findings: List[LintFinding] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, root).replace(os.sep, "/")
            findings.extend(lint_file(full, rel_path=rel))
    return findings
