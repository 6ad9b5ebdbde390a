"""Unit tests for the RKV building blocks: skip list, LSM tree, Multi-Paxos."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.rkv import DmoSkipList, LsmTree, MultiPaxosNode
from repro.apps.rkv.skiplist import MAX_LEVEL, NIL
from repro.core import DmoError, DmoManager, Location
from repro.sim import Rng


# -- skip list ------------------------------------------------------------------

@pytest.fixture
def dmo():
    mgr = DmoManager(region_bytes=32 << 20)
    mgr.create_region("memtable")
    return mgr


def test_skiplist_insert_get(dmo):
    sl = DmoSkipList(dmo, "memtable", rng=Rng(1))
    sl.insert("b", b"2")
    sl.insert("a", b"1")
    sl.insert("c", b"3")
    assert sl.get("a") == b"1"
    assert sl.get("b") == b"2"
    assert sl.get("missing") is None
    assert len(sl) == 3


def test_skiplist_overwrite_frees_old_value(dmo):
    sl = DmoSkipList(dmo, "memtable", rng=Rng(1))
    sl.insert("k", b"old-value")
    sl.insert("k", b"new")
    assert sl.get("k") == b"new"
    assert len(sl) == 1


def test_skiplist_tombstone(dmo):
    sl = DmoSkipList(dmo, "memtable", rng=Rng(1))
    sl.insert("k", b"v")
    sl.delete("k")
    assert sl.get("k") is None
    assert sl.is_tombstoned("k")


def test_skiplist_items_sorted(dmo):
    sl = DmoSkipList(dmo, "memtable", rng=Rng(1))
    for key in ("delta", "alpha", "charlie", "bravo"):
        sl.insert(key, key.encode())
    assert [k for k, _, _ in sl.items()] == ["alpha", "bravo", "charlie", "delta"]


def test_skiplist_nodes_are_dmos(dmo):
    sl = DmoSkipList(dmo, "memtable", rng=Rng(1))
    sl.insert("k", b"v")
    # head + node + value objects all live in the NIC object table
    assert len(dmo.tables[Location.NIC]) >= 3


@given(st.dictionaries(st.text(alphabet="abcdefgh", min_size=1, max_size=6),
                       st.binary(min_size=0, max_size=20), max_size=40))
@settings(max_examples=40, deadline=None)
def test_skiplist_matches_dict_semantics(mapping):
    mgr = DmoManager(region_bytes=32 << 20)
    mgr.create_region("m")
    sl = DmoSkipList(mgr, "m", rng=Rng(5))
    for k, v in mapping.items():
        sl.insert(k, v)
    for k, v in mapping.items():
        assert sl.get(k) == v
    assert [k for k, _, _ in sl.items()] == sorted(mapping)


def _oracle_node_id(sl, key):
    """The skip list's search walk, node by node through the DMO table:
    the lookup every exact-match op made before the key index."""
    node = sl.dmo.read(sl.owner, sl._head_id)
    for level in range(MAX_LEVEL - 1, -1, -1):
        while True:
            forwards = node["forwards"]
            nxt = forwards[level] if level < len(forwards) else NIL
            if nxt == NIL:
                break
            nxt_node = sl.dmo.read(sl.owner, nxt)
            if nxt_node["key"] is not None and nxt_node["key"] < key:
                node = nxt_node
            else:
                break
    candidate = node["forwards"][0] if node["forwards"] else NIL
    if candidate == NIL:
        return None
    return candidate if sl.dmo.read(sl.owner, candidate)["key"] == key else None


def _oracle_get(sl, key):
    node_id = _oracle_node_id(sl, key)
    if node_id is None:
        return None
    node = sl.dmo.read(sl.owner, node_id)
    if node["deleted"] or node["value_obj"] == NIL:
        return None
    return sl.dmo.read(sl.owner, node["value_obj"])


_KEYS = st.sampled_from(["a", "ab", "b", "ba", "c"])
_OPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), _KEYS, st.binary(max_size=8)),
    st.tuples(st.just("delete"), _KEYS),
    st.tuples(st.just("get"), _KEYS),
    st.tuples(st.just("tombstoned"), _KEYS),
    st.tuples(st.just("migrate"), st.sampled_from([Location.HOST,
                                                   Location.NIC])),
), max_size=60)


@given(_OPS)
@settings(max_examples=60, deadline=None)
def test_skiplist_index_agrees_with_walk_and_dict(ops):
    """Property: across random inserts, deletes, lookups and whole-list
    migrations, the indexed lookups answer exactly what the search walk
    and a plain dict model answer, and items() stays in key order."""
    mgr = DmoManager(region_bytes=32 << 20)
    mgr.create_region("memtable")
    sl = DmoSkipList(mgr, "memtable", rng=Rng(5))
    model = {}                       # key -> (value, deleted)
    for op in ops:
        if op[0] == "insert":
            sl.insert(op[1], op[2])
            model[op[1]] = (op[2], False)
        elif op[0] == "delete":
            sl.delete(op[1])
            value, deleted = model.get(op[1], (b"", True))
            model[op[1]] = (b"" if deleted else value, True)
        elif op[0] == "migrate":
            mgr.migrate_all("memtable", op[1])
        else:
            key = op[1]
            assert sl.is_tombstoned(key) == model.get(key, (b"", False))[1]
            value, deleted = model.get(key, (None, True))
            assert sl.get(key) == _oracle_get(sl, key) \
                == (None if deleted else value)
        for key in model:
            value, deleted = model[key]
            assert sl.get(key) == _oracle_get(sl, key) \
                == (None if deleted else value)
            assert sl.is_tombstoned(key) == deleted
        assert list(sl.items()) == [(k, *model[k]) for k in sorted(model)]
        assert len(sl) == len(model)

    # a foreign owner's read still traps in the DMO access check
    mgr.create_region("intruder")
    intruder = copy.copy(sl)
    intruder.owner = "intruder"
    for key in model:
        with pytest.raises(DmoError):
            intruder.get(key)
        with pytest.raises(DmoError):
            intruder.is_tombstoned(key)


# -- LSM tree ----------------------------------------------------------------------

def test_lsm_flush_and_get():
    lsm = LsmTree()
    lsm.flush_run([("a", b"1", False), ("b", b"2", False)])
    assert lsm.get("a") == (True, b"1")
    assert lsm.get("z") == (False, None)


def test_lsm_newer_run_shadows_older():
    lsm = LsmTree()
    lsm.flush_run([("k", b"old", False)])
    lsm.flush_run([("k", b"new", False)])
    assert lsm.get("k") == (True, b"new")


def test_lsm_tombstone_shadows_value():
    lsm = LsmTree()
    lsm.flush_run([("k", b"v", False)])
    lsm.flush_run([("k", None, True)])
    found, value = lsm.get("k")
    assert found and value is None


def test_lsm_l0_compaction_trigger_and_merge():
    lsm = LsmTree(l0_table_limit=2)
    for i in range(4):
        lsm.flush_run([(f"k{i}", str(i).encode(), False)])
    assert lsm.needs_compaction() == 0
    lsm.compact(0)
    assert len(lsm.levels[0]) == 0
    assert len(lsm.levels[1]) == 1
    for i in range(4):
        assert lsm.get(f"k{i}") == (True, str(i).encode())


def test_lsm_compaction_preserves_newest_value():
    lsm = LsmTree(l0_table_limit=1)
    lsm.flush_run([("k", b"v1", False)])
    lsm.flush_run([("k", b"v2", False)])
    lsm.compact_until_stable()
    assert lsm.get("k") == (True, b"v2")


def test_lsm_tombstones_dropped_at_bottom():
    lsm = LsmTree(l0_table_limit=1, max_levels=2)
    lsm.flush_run([("k", b"v", False)])
    lsm.compact(0)
    lsm.flush_run([("k", None, True)])
    lsm.compact(0)
    assert lsm.stats.tombstones_dropped == 1
    assert lsm.get("k") == (False, None)
    assert "k" not in lsm.all_keys()


@given(st.lists(st.tuples(st.text(alphabet="abcd", min_size=1, max_size=4),
                          st.binary(min_size=1, max_size=8)),
                min_size=1, max_size=60))
@settings(max_examples=40, deadline=None)
def test_lsm_equals_dict_after_compactions(writes):
    lsm = LsmTree(l0_table_limit=2, l1_byte_limit=256)
    expected = {}
    batch = []
    for key, value in writes:
        batch.append((key, value, False))
        expected[key] = value
        if len(batch) >= 5:
            batch.sort(key=lambda t: t[0])
            dedup = {k: (v, d) for k, v, d in batch}
            lsm.flush_run([(k, v, d) for k, (v, d) in sorted(dedup.items())])
            batch = []
            lsm.compact_until_stable()
    if batch:
        dedup = {k: (v, d) for k, v, d in batch}
        lsm.flush_run([(k, v, d) for k, (v, d) in sorted(dedup.items())])
    lsm.compact_until_stable()
    for key, value in expected.items():
        assert lsm.get(key) == (True, value)


# -- Multi-Paxos ---------------------------------------------------------------------

class Cluster:
    """Direct-wired Paxos cluster with controllable message delivery."""

    def __init__(self, n=3, initial_leader="n0"):
        self.names = [f"n{i}" for i in range(n)]
        self.queue = []
        self.dropped = set()
        self.applied = {name: [] for name in self.names}
        self.nodes = {}
        for name in self.names:
            peers = [p for p in self.names if p != name]
            self.nodes[name] = MultiPaxosNode(
                name, peers,
                send=lambda dst, m, src=name: self.queue.append((src, dst, m)),
                on_commit=lambda i, v, n=name: self.applied[n].append((i, v)),
                initial_leader=initial_leader)

    def deliver_all(self, max_rounds=100):
        rounds = 0
        while self.queue and rounds < max_rounds:
            batch, self.queue = self.queue, []
            for src, dst, msg in batch:
                if dst in self.dropped or src in self.dropped:
                    continue
                self.nodes[dst].handle(msg)
            rounds += 1


def test_paxos_single_command_commits_everywhere():
    cluster = Cluster()
    cluster.nodes["n0"].client_request({"op": "put", "key": "a"})
    cluster.deliver_all()
    for name in cluster.names:
        assert cluster.applied[name] == [(0, {"op": "put", "key": "a"})]


def test_paxos_commands_applied_in_order():
    cluster = Cluster()
    for i in range(5):
        cluster.nodes["n0"].client_request(i)
    cluster.deliver_all()
    for name in cluster.names:
        assert [v for _, v in cluster.applied[name]] == [0, 1, 2, 3, 4]


def test_paxos_commits_with_one_replica_down():
    cluster = Cluster()
    cluster.dropped.add("n2")
    cluster.nodes["n0"].client_request("x")
    cluster.deliver_all()
    assert cluster.applied["n0"] == [(0, "x")]
    assert cluster.applied["n1"] == [(0, "x")]
    assert cluster.applied["n2"] == []


def test_paxos_no_commit_without_quorum():
    cluster = Cluster()
    cluster.dropped.update({"n1", "n2"})
    cluster.nodes["n0"].client_request("x")
    cluster.deliver_all()
    assert cluster.applied["n0"] == []


def test_paxos_leader_election_after_failure():
    cluster = Cluster()
    cluster.nodes["n0"].client_request("committed-before-crash")
    cluster.deliver_all()
    cluster.dropped.add("n0")
    cluster.nodes["n1"].start_election()
    cluster.deliver_all()
    assert cluster.nodes["n1"].is_leader
    # the new leader can commit new commands
    cluster.nodes["n1"].client_request("after-crash")
    cluster.deliver_all()
    assert ("after-crash" in [v for _, v in cluster.applied["n1"]])


def test_paxos_election_preserves_accepted_values():
    # n0 gets a value accepted at n1 but crashes before LEARN spreads.
    cluster = Cluster()
    node0 = cluster.nodes["n0"]
    node0.client_request("maybe-lost")
    # deliver only the accept to n1, drop everything else
    accepts = [(s, d, m) for (s, d, m) in cluster.queue
               if m.kind == "accept" and d == "n1"]
    cluster.queue = []
    for src, dst, msg in accepts:
        cluster.nodes[dst].handle(msg)
    cluster.queue = []          # drop the accepted-replies: n0 never learns
    cluster.dropped.add("n0")
    cluster.nodes["n1"].start_election()
    cluster.deliver_all()
    # safety: the possibly-chosen value must be re-proposed, not lost
    assert [v for _, v in cluster.applied["n1"]] == ["maybe-lost"]
    assert [v for _, v in cluster.applied["n2"]] == ["maybe-lost"]


def test_paxos_nonleader_queues_until_elected():
    cluster = Cluster()
    cluster.nodes["n1"].client_request("queued")
    cluster.deliver_all()
    assert cluster.applied["n1"] == []   # not leader yet
    cluster.nodes["n1"].start_election()
    cluster.deliver_all()
    assert [v for _, v in cluster.applied["n1"]] == ["queued"]


def test_paxos_stale_ballot_rejected():
    cluster = Cluster()
    cluster.nodes["n1"].start_election()
    cluster.deliver_all()
    # old leader n0 tries to commit with its stale ballot
    cluster.nodes["n0"].client_request("stale")
    cluster.deliver_all()
    # value must not commit anywhere under the old ballot
    assert all("stale" not in [v for _, v in cluster.applied[n]]
               for n in ("n1", "n2"))
