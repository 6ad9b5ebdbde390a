"""Tests for the Table-3 microbenchmark workload implementations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.microbench import (
    CountMinSketch,
    KvCache,
    LpmRouter,
    MaglevTable,
    NaiveBayesClassifier,
    PFabricScheduler,
    QueuedPacket,
    RateLimiter,
    ReplicationChain,
    SoftwareTcam,
    TcamRule,
    TopRanker,
    field_mask,
    ip,
    pack_key,
    packet_features,
    FEATURE_CARDINALITIES,
    WORKLOAD_IMPLEMENTATIONS,
)


# -- count-min sketch -----------------------------------------------------------

def test_sketch_never_undercounts():
    sketch = CountMinSketch(width=512, depth=4)
    for i in range(200):
        sketch.update(f"flow{i % 20}")
    for i in range(20):
        assert sketch.estimate(f"flow{i}") >= 10


def test_sketch_heavy_hitters():
    sketch = CountMinSketch(width=2048, depth=4)
    for _ in range(100):
        sketch.update("elephant")
    sketch.update("mouse")
    hh = sketch.heavy_hitters(["elephant", "mouse"], threshold=50)
    assert hh == ["elephant"]


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=300))
@settings(max_examples=50, deadline=None)
def test_sketch_estimate_at_least_true_count(keys):
    sketch = CountMinSketch(width=256, depth=3)
    for k in keys:
        sketch.update(k)
    from collections import Counter
    for key, count in Counter(keys).items():
        assert sketch.estimate(key) >= count


def test_sketch_rejects_bad_shape():
    with pytest.raises(ValueError):
        CountMinSketch(width=0)


# -- KV cache ----------------------------------------------------------------------

def test_kvcache_read_write_delete():
    cache = KvCache(capacity_bytes=10_000)
    cache.write(b"k", b"v")
    assert cache.read(b"k") == b"v"
    assert cache.delete(b"k")
    assert cache.read(b"k") is None
    assert not cache.delete(b"k")


def test_kvcache_lru_eviction_order():
    cache = KvCache(capacity_bytes=3 * (2 + 32))
    cache.write(b"a", b"1")
    cache.write(b"b", b"1")
    cache.write(b"c", b"1")
    cache.read(b"a")          # a becomes MRU
    cache.write(b"d", b"1")   # evicts b (LRU)
    assert cache.read(b"b") is None
    assert cache.read(b"a") == b"1"
    assert cache.evictions == 1


def test_kvcache_overwrite_accounts_bytes():
    cache = KvCache(capacity_bytes=1000)
    cache.write(b"k", b"x" * 100)
    used = cache.used_bytes
    cache.write(b"k", b"y" * 10)
    assert cache.used_bytes < used


def test_kvcache_rejects_oversized_entry():
    cache = KvCache(capacity_bytes=50)
    with pytest.raises(ValueError):
        cache.write(b"k", b"v" * 100)


@given(st.lists(st.tuples(st.binary(min_size=1, max_size=8),
                          st.binary(max_size=64)), max_size=100))
@settings(max_examples=50, deadline=None)
def test_kvcache_never_exceeds_budget(ops):
    cache = KvCache(capacity_bytes=500)
    for key, value in ops:
        try:
            cache.write(key, value)
        except ValueError:
            continue
        assert cache.used_bytes <= 500


# -- top ranker ----------------------------------------------------------------------

def test_ranker_returns_top_n_descending():
    ranker = TopRanker(n=3)
    data = [(f"w{i}", i) for i in range(20)]
    top = ranker.rank(data)
    assert [c for _, c in top] == [19, 18, 17]
    assert ranker.comparisons > 0


def test_ranker_merge_across_workers():
    ranker = TopRanker(n=2)
    merged = ranker.merge([("a", 5), ("b", 3)], [("c", 9), ("d", 1)])
    assert merged == [("c", 9), ("a", 5)]


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_ranker_matches_sorted(counts):
    ranker = TopRanker(n=5)
    data = [(i, c) for i, c in enumerate(counts)]
    expected = sorted(counts, reverse=True)[:5]
    assert [c for _, c in ranker.rank(data)] == expected


# -- rate limiter ------------------------------------------------------------------------

def test_rate_limiter_admits_within_burst_then_drops():
    rl = RateLimiter(rate_bytes_per_us=10.0, burst_bytes=1000.0)
    assert rl.admit("f", 900, now=0.0)
    assert not rl.admit("f", 900, now=0.0)
    # after draining 50 µs → 500 bytes of room
    assert rl.admit("f", 400, now=50.0)
    assert rl.admitted == 2 and rl.dropped == 1


def test_rate_limiter_flows_independent():
    rl = RateLimiter(rate_bytes_per_us=1.0, burst_bytes=100.0)
    assert rl.admit("a", 100, now=0.0)
    assert rl.admit("b", 100, now=0.0)
    assert rl.flows() == 2


# -- TCAM ------------------------------------------------------------------------------------

def test_tcam_priority_wins():
    tcam = SoftwareTcam()
    key = pack_key(ip_a := 0x0A000001, 0x0A000002, 1000, 80, 6)
    tcam.install(TcamRule(value=key, mask=field_mask((False,) * 5),
                          priority=10, action="allow"))
    tcam.install(TcamRule(value=0, mask=0, priority=1, action="deny"))
    assert tcam.lookup(key).action == "allow"
    # non-matching key falls to the catch-all
    other = pack_key(0x0B000001, 0x0A000002, 1000, 80, 6)
    assert tcam.lookup(other).action == "deny"


def test_tcam_wildcard_fields():
    tcam = SoftwareTcam()
    rule_key = pack_key(0x0A000001, 0, 0, 443, 6)
    mask = field_mask((False, True, True, False, False))
    tcam.install(TcamRule(rule_key, mask, priority=5, action="allow"))
    probe = pack_key(0x0A000001, 0x22222222, 9999, 443, 6)
    assert tcam.lookup(probe).action == "allow"


def test_tcam_no_match_returns_none():
    tcam = SoftwareTcam()
    assert tcam.lookup(12345) is None


_TCAM_RULES = st.builds(
    TcamRule,
    value=st.integers(0, 0x3FF),          # bits outside every mask too
    mask=st.sampled_from([0x00, 0x0F, 0xF0, 0xFF, 0x3C]),
    priority=st.integers(0, 3),           # duplicate priorities
    action=st.sampled_from(["allow", "deny"]))
_TCAM_OPS = st.lists(st.one_of(
    st.tuples(st.just("install"), _TCAM_RULES),
    st.tuples(st.just("install_many"), st.lists(_TCAM_RULES, max_size=6)),
    st.tuples(st.just("remove"), st.integers(0, 50))), max_size=25)


@settings(max_examples=200)
@given(ops=_TCAM_OPS)
def test_tcam_lookup_equals_the_linear_scan(ops):
    tcam = SoftwareTcam()
    installed = []                        # install order

    def scan(key):
        # stable sort: among equal priorities the earlier install wins
        for rule in sorted(installed, key=lambda r: -r.priority):
            if rule.matches(key):
                return rule
        return None

    for op, arg in ops:
        if op == "install":
            tcam.install(arg)
            installed.append(arg)
        elif op == "install_many":
            tcam.install_many(arg)
            installed.extend(arg)
        elif installed:
            rule = installed[arg % len(installed)]
            tcam.remove(rule)
            installed.remove(rule)
        assert len(tcam) == len(installed)
        for key in range(256):
            assert tcam.lookup(key) == scan(key)


# -- LPM router ---------------------------------------------------------------------------------

def test_lpm_longest_prefix_wins():
    router = LpmRouter()
    router.add_route(ip(10, 0, 0, 0), 8, "coarse")
    router.add_route(ip(10, 1, 0, 0), 16, "fine")
    assert router.lookup(ip(10, 1, 2, 3)) == "fine"
    assert router.lookup(ip(10, 2, 2, 3)) == "coarse"
    assert router.lookup(ip(11, 0, 0, 1)) is None


def test_lpm_default_route():
    router = LpmRouter()
    router.add_route(0, 0, "default")
    assert router.lookup(ip(1, 2, 3, 4)) == "default"


def test_lpm_rejects_bad_prefix_len():
    with pytest.raises(ValueError):
        LpmRouter().add_route(0, 40, "x")


# -- Maglev --------------------------------------------------------------------------------------

def test_maglev_fills_whole_table_evenly():
    table = MaglevTable(["b0", "b1", "b2"], table_size=503)
    assert all(slot is not None for slot in table.lookup_table)
    for b in ("b0", "b1", "b2"):
        assert table.share(b) == pytest.approx(1 / 3, abs=0.05)


def test_maglev_consistent_pick():
    table = MaglevTable(["b0", "b1", "b2"], table_size=503)
    assert table.pick("flow-x") == table.pick("flow-x")


def test_maglev_minimal_disruption_on_failure():
    backends = [f"b{i}" for i in range(5)]
    table = MaglevTable(backends, table_size=503)
    flows = [f"flow{i}" for i in range(300)]
    before = {f: table.pick(f) for f in flows}
    table.remove_backend("b3")
    moved = sum(1 for f in flows
                if before[f] != "b3" and table.pick(f) != before[f])
    # consistent hashing: flows not owned by the failed backend mostly stay
    assert moved / len(flows) < 0.25


# -- pFabric --------------------------------------------------------------------------------------

def test_pfabric_srpt_order():
    sched = PFabricScheduler()
    sched.enqueue(QueuedPacket(flow_id=1, remaining_bytes=5000))
    sched.enqueue(QueuedPacket(flow_id=2, remaining_bytes=100))
    sched.enqueue(QueuedPacket(flow_id=3, remaining_bytes=2000))
    assert sched.dequeue().flow_id == 2
    assert sched.dequeue().flow_id == 3
    assert sched.dequeue().flow_id == 1
    assert sched.dequeue() is None


def test_pfabric_fifo_within_same_size():
    sched = PFabricScheduler()
    sched.enqueue(QueuedPacket(flow_id=1, remaining_bytes=100, payload="first"))
    sched.enqueue(QueuedPacket(flow_id=2, remaining_bytes=100, payload="second"))
    assert sched.dequeue().payload == "first"


@given(st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_pfabric_dequeues_in_nondecreasing_size(sizes):
    sched = PFabricScheduler()
    for i, s in enumerate(sizes):
        sched.enqueue(QueuedPacket(flow_id=i, remaining_bytes=s))
    out = []
    while len(sched):
        out.append(sched.dequeue().remaining_bytes)
    assert out == sorted(sizes)


# -- naive Bayes -------------------------------------------------------------------------------------

def test_nbayes_learns_separable_classes():
    clf = NaiveBayesClassifier(["web", "bulk"], FEATURE_CARDINALITIES)
    for _ in range(50):
        clf.train(packet_features(100, 1.0, 443), "web")
        clf.train(packet_features(1400, 100.0, 50000), "bulk")
    assert clf.classify(packet_features(120, 2.0, 443)) == "web"
    assert clf.classify(packet_features(1300, 80.0, 40000)) == "bulk"


def test_nbayes_validates_features():
    clf = NaiveBayesClassifier(["a"], (4,))
    with pytest.raises(ValueError):
        clf.train([9], "a")
    with pytest.raises(ValueError):
        clf.classify([1, 2])


# -- chain replication ---------------------------------------------------------------------------------

def test_chain_write_propagates_read_at_tail():
    chain = ReplicationChain(["r1", "r2", "r3"])
    hops = chain.write("k", "v")
    assert hops == 3
    assert chain.read("k") == "v"
    assert chain.consistent("k")


def test_chain_survives_node_failure():
    chain = ReplicationChain(["r1", "r2", "r3"])
    chain.write("k", "v")
    chain.fail_node("r2")
    assert len(chain) == 2
    assert chain.read("k") == "v"
    chain.write("k2", "v2")
    assert chain.consistent("k2")


def test_chain_tail_failure_promotes_predecessor():
    chain = ReplicationChain(["r1", "r2"])
    chain.write("k", "v")
    chain.fail_node("r2")
    assert chain.tail.name == "r1"
    assert chain.read("k") == "v"


def test_chain_cannot_fail_last_replica():
    chain = ReplicationChain(["r1"])
    with pytest.raises(RuntimeError):
        chain.fail_node("r1")


def test_workload_registry_complete():
    assert len(WORKLOAD_IMPLEMENTATIONS) == 10  # echo is the 11th (baseline)
