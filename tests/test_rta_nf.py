"""Tests for the analytics pipeline and the network functions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.nf import Firewall, FirewallNode, IpsecGateway, IpsecNode, generate_ruleset
from repro.apps.rta import (
    CounterWorker,
    PatternFilter,
    Regex,
    RegexError,
    RtaWorkerNode,
    SlidingWindowCounter,
)
from repro.core import SchedulerConfig
from repro.experiments.testbed import make_testbed
from repro.net import Packet
from repro.nic import LIQUIDIO_CN2350


# -- regex engine ---------------------------------------------------------------

@pytest.mark.parametrize("pattern,text,expect", [
    ("abc", "xxabcxx", True),
    ("abc", "ab", False),
    ("a.c", "azc", True),
    ("", "", True),
    ("a*", "", True),
    ("x", "", False),
    ("ab*c", "ac", True),
    ("ab*c", "abbbc", True),
    ("ab+c", "ac", False),
    ("ab+c", "abbc", True),
    ("ab?c", "abc", True),
    ("ab?c", "ac", True),
    ("a|b", "zzbzz", True),
    ("(ab)+", "abab", True),
    ("[abc]+", "cab", True),
    ("[a-z]+", "HELLO", False),
    ("[^0-9]", "5a", True),
    ("#[a-z]+", "look #tag here", True),
    ("#[a-z]+", "no tags", False),
])
def test_regex_search(pattern, text, expect):
    assert Regex(pattern).search(text) is expect


def _reference_search(regex: Regex, text: str) -> bool:
    """The per-offset NFA walk: an anchored lock-step simulation restarted
    at every offset.  Quadratic, but obviously right — the oracle the
    one-pass lazy DFA in ``Regex.search`` must agree with."""
    def match_here(suffix: str) -> bool:
        current = Regex._closure({regex.start})
        if any(s.accepting for s in current):
            return True
        for ch in suffix:
            nxt = {target for state in current
                   for predicate, target in state.edges
                   if predicate is not None and predicate(ch)}
            if not nxt:
                return False
            current = Regex._closure(nxt)
            if any(s.accepting for s in current):
                return True
        return False
    return any(match_here(text[start:]) for start in range(len(text) + 1))


_ALPHABET = "abc"
_texts = st.text(alphabet=_ALPHABET + "d\n", max_size=12)


@st.composite
def _patterns(draw, depth=2):
    """Random patterns from the filter's subset over a 3-letter alphabet."""
    def atom(level):
        kinds = ["lit", "dot", "class", "escape"]
        if level > 0:
            kinds.append("group")
        kind = draw(st.sampled_from(kinds))
        if kind == "lit":
            return draw(st.sampled_from(_ALPHABET))
        if kind == "dot":
            return "."
        if kind == "escape":
            return "\\" + draw(st.sampled_from(_ALPHABET + ".*d|"))
        if kind == "class":
            items = draw(st.lists(st.sampled_from(
                list(_ALPHABET) + ["a-b", "b-c", "a-c"]), min_size=1, max_size=3))
            negate = draw(st.booleans())
            return "[" + ("^" if negate else "") + "".join(items) + "]"
        return "(" + alternation(level - 1) + ")"

    def concat(level):
        quantifiers = draw(st.lists(st.sampled_from(["", "", "*", "+", "?"]),
                                    max_size=3))
        return "".join(atom(level) + quant for quant in quantifiers)

    def alternation(level):
        branches = draw(st.integers(min_value=1, max_value=2))
        return "|".join(concat(level) for _ in range(branches))

    return alternation(depth)


@given(_patterns(), _texts)
@settings(max_examples=200, deadline=None)
def test_regex_search_agrees_with_per_offset_walk(pattern, text):
    regex = Regex(pattern)
    assert regex.search(text) is _reference_search(regex, text)


@given(_patterns(), st.lists(_texts, min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_regex_warm_cache_agrees_with_fresh(pattern, texts):
    warm = Regex(pattern)
    for text in texts:
        assert warm.search(text) is Regex(pattern).search(text)


@given(st.lists(_patterns(), max_size=4), _texts)
@settings(max_examples=200, deadline=None)
def test_pattern_filter_union_agrees_with_each_pattern(patterns, text):
    # one union DFA over all patterns (top-level `|` included) answers
    # what searching each pattern alone would; no patterns match nothing
    expect = any(_reference_search(Regex(p), text) for p in patterns)
    assert PatternFilter(patterns).interesting(text) is expect


def test_regex_rejects_malformed():
    for bad in ("(", "[abc", "*a", "a\\"):
        with pytest.raises(RegexError):
            Regex(bad)


def test_regex_no_backtracking_blowup():
    # classic pathological case for backtrackers: linear here
    pattern = "a?" * 15 + "a" * 15
    assert Regex(pattern).search("a" * 15)


def test_pattern_filter_counts():
    f = PatternFilter(["#[a-z]+", "http"])
    assert f.interesting("see http://x")
    assert not f.interesting("boring tuple")
    assert f.passed == 1 and f.discarded == 1


# -- sliding window counter ------------------------------------------------------------

def test_window_counts_within_window():
    window = SlidingWindowCounter(window_us=1000.0, slots=10)
    window.observe("x", now=0.0)
    window.observe("x", now=50.0)
    assert window.count("x", now=100.0) == 2


def test_window_expires_old_observations():
    window = SlidingWindowCounter(window_us=1000.0, slots=10)
    window.observe("x", now=0.0)
    assert window.count("x", now=500.0) == 1
    assert window.count("x", now=1500.0) == 0


def test_window_snapshot_sorted_by_count():
    window = SlidingWindowCounter(window_us=1000.0)
    for _ in range(3):
        window.observe("hot", now=10.0)
    window.observe("cold", now=10.0)
    snap = window.snapshot(now=20.0)
    assert snap[0] == ("hot", 3)


def test_counter_worker_emits_periodically():
    worker = CounterWorker(emit_every_us=100.0)
    assert worker.observe("a", now=0.0) is False  # first sets the epoch...
    emitted = worker.observe("a", now=150.0)
    assert emitted
    assert worker.emit(now=150.0)[0][0] == "a"


# -- RTA pipeline over the testbed ------------------------------------------------------

def test_rta_pipeline_end_to_end():
    bed = make_testbed()
    replies = []
    bed.network.attach("client", lambda p: replies.append(p))
    server = bed.add_server("w0", LIQUIDIO_CN2350,
                            config=SchedulerConfig(migration_enabled=False))
    worker = RtaWorkerNode(server.runtime, emit_every_us=200.0)

    for i in range(30):
        pkt = Packet("client", "w0", 512, kind="rta-tuple",
                     payload={"tuples": [f"tweet #topic{i % 3}", "noise"]},
                     created_at=bed.sim.now)
        bed.network.send(pkt)
        bed.sim.run(until=bed.sim.now + 100.0)
    bed.sim.run(until=bed.sim.now + 2_000.0)

    assert worker.tuples_in == 60
    assert worker.filter.passed == 30      # hashtag tuples pass
    assert worker.filter.discarded == 30   # noise dropped
    assert worker.counter.emissions >= 1
    assert worker.top                      # aggregated ranking produced
    names = [item for item, _ in worker.top]
    assert any(name.startswith("tweet #topic") for name in names)


# -- firewall ----------------------------------------------------------------------------

def test_ruleset_generation_size_and_priorities():
    rules = generate_ruleset(count=100)
    assert len(rules) == 100
    priorities = [r.priority for r in rules]
    assert len(set(priorities)) == 100


def test_firewall_default_deny():
    fw = Firewall(rules=[])
    assert fw.process(1, 2, 3, 4, 6) == "deny"
    assert fw.denied == 1


def test_firewall_matches_installed_rule():
    from repro.apps.microbench import TcamRule, field_mask, pack_key
    rule = TcamRule(
        value=pack_key(0x0A000001, 0, 0, 80, 6),
        mask=field_mask((False, True, True, False, False)),
        priority=99, action="allow")
    fw = Firewall(rules=[rule])
    assert fw.process(0x0A000001, 0x01020304, 5555, 80, 6) == "allow"
    assert fw.process(0x0B000001, 0x01020304, 5555, 80, 6) == "deny"


def test_firewall_actor_replies():
    bed = make_testbed()
    replies = []
    bed.network.attach("client", lambda p: replies.append(p))
    server = bed.add_server("fw", LIQUIDIO_CN2350,
                            config=SchedulerConfig(migration_enabled=False))
    FirewallNode(server.runtime, rules=generate_ruleset(256))
    pkt = Packet("client", "fw", 1024, kind="fw-pkt",
                 payload={"src_ip": 1, "dst_ip": 2, "src_port": 3,
                          "dst_port": 4, "proto": 6},
                 created_at=bed.sim.now)
    bed.network.send(pkt)
    bed.sim.run(until=1_000.0)
    assert len(replies) == 1
    assert replies[0].payload["action"] in ("allow", "deny")


# -- IPsec -----------------------------------------------------------------------------------

def test_ipsec_roundtrip():
    tx = IpsecGateway()
    rx = IpsecGateway()
    esp = tx.encapsulate(b"secret payload")
    assert esp.ciphertext != b"secret payload"
    assert rx.decapsulate(esp) == b"secret payload"


def test_ipsec_detects_tampering():
    tx, rx = IpsecGateway(), IpsecGateway()
    esp = tx.encapsulate(b"data")
    esp.ciphertext = b"X" + esp.ciphertext[1:]
    assert rx.decapsulate(esp) is None
    assert rx.auth_failures == 1


def test_ipsec_replay_protection():
    tx, rx = IpsecGateway(), IpsecGateway()
    esp = tx.encapsulate(b"data")
    assert rx.decapsulate(esp) == b"data"
    assert rx.decapsulate(esp) is None
    assert rx.replay_drops == 1


def test_ipsec_wrong_key_fails_auth():
    tx = IpsecGateway(auth_key=b"\x02" * 20)
    rx = IpsecGateway(auth_key=b"\x03" * 20)
    assert rx.decapsulate(tx.encapsulate(b"data")) is None


@given(st.binary(min_size=0, max_size=512))
@settings(max_examples=40, deadline=None)
def test_ipsec_roundtrip_any_payload(payload):
    tx, rx = IpsecGateway(), IpsecGateway()
    assert rx.decapsulate(tx.encapsulate(payload)) == payload


def test_ipsec_rejects_short_key():
    with pytest.raises(ValueError):
        IpsecGateway(key=b"short")


def test_ipsec_actor_uses_accelerators():
    bed = make_testbed()
    replies = []
    bed.network.attach("client", lambda p: replies.append(p))
    server = bed.add_server("gw", LIQUIDIO_CN2350,
                            config=SchedulerConfig(migration_enabled=False))
    IpsecNode(server.runtime)
    pkt = Packet("client", "gw", 1024, kind="esp-pkt",
                 payload={"data": b"x" * 1024}, created_at=bed.sim.now)
    bed.network.send(pkt)
    bed.sim.run(until=1_000.0)
    assert len(replies) == 1
    assert replies[0].payload["esp"].ciphertext
    accel = server.nic.accelerators
    assert accel.invocations["aes"] == 1
    assert accel.invocations["sha1"] == 1
