"""Workload generators matching the paper's evaluation setup (§5.1).

* **RKV** — <key, value> pairs: 16B keys, 95% read / 5% write, zipf(0.99)
  over 1M keys; value size grows with the packet size.
* **DT** — multi-key read-write transactions: two reads and one write per
  request (the FaSST-style mix [29]).
* **RTA** — tweet-like tuples from a synthetic Twitter stream; the number
  of tuples per request varies with the packet size.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..sim import Rng, ZipfGenerator

KEY_SPACE = 1_000_000
KEY_BYTES = 16
READ_FRACTION = 0.95
ZIPF_THETA = 0.99


def _key_string(index: int) -> str:
    return f"key{index:0{KEY_BYTES - 3}d}"


def value_bytes_for_packet(packet_size: int) -> int:
    """Value payload available in a request frame after headers/keys."""
    return max(8, packet_size - 64 - KEY_BYTES)


class KvWorkload:
    """The RKV request stream: 95/5 read/write, zipf keys."""

    def __init__(self, packet_size: int = 512, seed: int = 11,
                 key_space: int = KEY_SPACE,
                 read_fraction: float = READ_FRACTION):
        self.rng = Rng(seed)
        self.zipf = ZipfGenerator(key_space, theta=ZIPF_THETA,
                                  rng=self.rng.fork(1))
        self.packet_size = packet_size
        self.read_fraction = read_fraction
        self.value_bytes = value_bytes_for_packet(packet_size)
        self.reads = 0
        self.writes = 0

    def next_request(self, _i: int = 0) -> Dict:
        key = _key_string(self.zipf.draw())
        if self.rng.random() < self.read_fraction:
            self.reads += 1
            return {"kind": "rkv-get", "key": key}
        self.writes += 1
        return {"kind": "rkv-put", "key": key,
                "value": bytes(self.value_bytes)}


class TxnWorkload:
    """The DT request stream: 2 reads + 1 write per transaction."""

    def __init__(self, packet_size: int = 512, seed: int = 13,
                 key_space: int = KEY_SPACE, reads_per_txn: int = 2,
                 writes_per_txn: int = 1):
        self.rng = Rng(seed)
        self.zipf = ZipfGenerator(key_space, theta=ZIPF_THETA,
                                  rng=self.rng.fork(2))
        self.packet_size = packet_size
        self.reads_per_txn = reads_per_txn
        self.writes_per_txn = writes_per_txn
        self.value_bytes = value_bytes_for_packet(packet_size)

    def next_request(self, _i: int = 0) -> Dict:
        keys = set()
        while len(keys) < self.reads_per_txn + self.writes_per_txn:
            keys.add(_key_string(self.zipf.draw()))
        keys = sorted(keys)
        reads = keys[: self.reads_per_txn]
        writes = {k: bytes(self.value_bytes)
                  for k in keys[self.reads_per_txn:]}
        return {"kind": "dt-txn", "reads": reads, "writes": writes}


#: Vocabulary for the synthetic Twitter stream (the paper replays a SNAP
#: Twitter dataset [35]; we generate a zipf-popular hashtag mix).
_HASHTAGS = [f"#tag{i}" for i in range(64)]
_WORDS = ["the", "quick", "brown", "fox", "http", "lol", "RT", "breaking",
          "news", "game", "score", "live"]


class TwitterWorkload:
    """The RTA tuple stream: tweets with zipf-distributed hashtags."""

    def __init__(self, packet_size: int = 512, seed: int = 17,
                 tuple_bytes: int = 48):
        self.rng = Rng(seed)
        self.zipf = ZipfGenerator(len(_HASHTAGS), theta=0.9,
                                  rng=self.rng.fork(3))
        self.packet_size = packet_size
        self.tuples_per_request = max(1, (packet_size - 64) // tuple_bytes)

    def next_tuple(self) -> str:
        words = self.rng.picks(_WORDS, 3)
        if self.rng.random() < 0.6:
            words.append(_HASHTAGS[self.zipf.draw()])
        return " ".join(words)

    def next_request(self, _i: int = 0) -> Dict:
        return {"kind": "rta-tuple",
                "tuples": [self.next_tuple()
                           for _ in range(self.tuples_per_request)]}


def payload_factory(workload) -> Callable[[int], Dict]:
    """Adapt a workload to the pktgen payload-factory interface."""
    return workload.next_request
