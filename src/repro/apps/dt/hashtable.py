"""Extensible hash table data store (§4, per uthash [22]).

The participants' data store: versioned, lockable entries in a hash table
that doubles its bucket directory when load grows (extensible hashing).
Versions drive OCC validation; locks are per-key write locks held between
phase 1 and commit/abort.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass
class Entry:
    key: str
    value: bytes
    version: int = 1
    locked_by: Optional[str] = None


class ExtensibleHashTable:
    """Bucketed hash table with directory doubling at load factor 4."""

    LOAD_FACTOR = 4

    def __init__(self, initial_buckets: int = 8):
        if initial_buckets <= 0 or initial_buckets & (initial_buckets - 1):
            raise ValueError("bucket count must be a positive power of two")
        self._buckets: List[List[Entry]] = [[] for _ in range(initial_buckets)]
        self._count = 0
        self.resizes = 0

    def _bucket(self, key: str) -> List[Entry]:
        # crc32, not hash(): bucket placement must not depend on the
        # per-process str hash salt
        crc = zlib.crc32(key.encode())
        return self._buckets[crc & (len(self._buckets) - 1)]

    def _find(self, key: str) -> Optional[Entry]:
        for entry in self._bucket(key):
            if entry.key == key:
                return entry
        return None

    def _maybe_grow(self) -> None:
        if self._count <= len(self._buckets) * self.LOAD_FACTOR:
            return
        old = [e for bucket in self._buckets for e in bucket]
        self._buckets = [[] for _ in range(len(self._buckets) * 2)]
        for entry in old:
            self._bucket(entry.key).append(entry)
        self.resizes += 1

    # -- plain store operations --------------------------------------------
    def get(self, key: str) -> Optional[Tuple[bytes, int]]:
        """(value, version) or None."""
        entry = self._find(key)
        return (entry.value, entry.version) if entry else None

    def put(self, key: str, value: bytes) -> int:
        """Unconditional write; returns the new version."""
        entry = self._find(key)
        if entry is None:
            self._bucket(key).append(Entry(key=key, value=value))
            self._count += 1
            self._maybe_grow()
            return 1
        entry.value = value
        entry.version += 1
        return entry.version

    # -- transactional operations ---------------------------------------------
    def is_locked(self, key: str) -> bool:
        entry = self._find(key)
        return entry is not None and entry.locked_by is not None

    def try_lock(self, key: str, owner: str) -> bool:
        """Acquire the write lock; creates a placeholder entry if absent."""
        entry = self._find(key)
        if entry is None:
            entry = Entry(key=key, value=b"", version=0)
            self._bucket(key).append(entry)
            self._count += 1
            self._maybe_grow()
        if entry.locked_by is not None and entry.locked_by != owner:
            return False
        entry.locked_by = owner
        return True

    def unlock(self, key: str, owner: str) -> None:
        entry = self._find(key)
        if entry is not None and entry.locked_by == owner:
            entry.locked_by = None

    def commit_write(self, key: str, value: bytes, owner: str) -> int:
        """Apply a prepared write and release the lock."""
        entry = self._find(key)
        if entry is None or entry.locked_by != owner:
            raise RuntimeError(f"commit without lock on {key!r}")
        entry.value = value
        entry.version += 1
        entry.locked_by = None
        return entry.version

    def __len__(self) -> int:
        return self._count

    @property
    def buckets(self) -> int:
        return len(self._buckets)
