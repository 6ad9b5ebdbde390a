"""Content-addressed on-disk result cache for sweep points.

Every experiment point in a sweep is a pure function of its keyword
arguments plus the code that computes it, so its result can be cached
under ``sha256(code_fingerprint, fn qualname, canonical(kwargs))``:

* the **code fingerprint** hashes the source of every ``.py`` file in the
  ``repro`` package — any code change, anywhere in the package,
  invalidates the whole cache (coarse but sound: an engine tweak can
  shift any figure);
* the **config hash** canonicalises the point's kwargs into a stable
  string (sorted dict order, dataclasses by field, no memory addresses),
  so logically-equal configs hit the same entry across processes and
  interpreter restarts regardless of ``PYTHONHASHSEED``.

Entries are pickles written atomically (temp file + ``os.replace``), so
a sweep killed mid-write never corrupts the cache, and concurrent
workers publishing the same key simply race to an identical value.

See ``docs/PERFORMANCE.md`` for the invalidation rules.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

#: Default cache location; ``$REPRO_CACHE_DIR`` overrides it, and an
#: explicit ``ResultCache(root)`` (``--cache-dir``) overrides both.
DEFAULT_CACHE_DIR = ".sweep_cache"

_CODE_FP_CACHE: Dict[str, str] = {}


def code_fingerprint(package_root: Optional[str] = None) -> str:
    """SHA-256 over the sources of the ``repro`` package (memoised)."""
    if package_root is None:
        import repro
        package_root = os.path.dirname(os.path.abspath(repro.__file__))
    cached = _CODE_FP_CACHE.get(package_root)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    root = Path(package_root)
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    fp = digest.hexdigest()
    _CODE_FP_CACHE[package_root] = fp
    return fp


def canonical(obj: Any) -> str:
    """A stable, process-independent string form of a config value.

    Dicts are serialised in sorted-key order, sets sorted, dataclasses by
    (qualified class name, field values).  Values whose ``repr`` embeds a
    memory address are rejected — they cannot produce stable keys.
    """
    if isinstance(obj, Mapping):
        inner = ",".join(f"{canonical(k)}:{canonical(v)}"
                         for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0])))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        inner = ",".join(canonical(v) for v in obj)
        return ("[" if isinstance(obj, list) else "(") + inner + \
               ("]" if isinstance(obj, list) else ")")
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(canonical(v) for v in obj)) + "}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        body = ",".join(f"{f.name}={canonical(getattr(obj, f.name))}"
                        for f in dataclasses.fields(obj))
        return f"{cls.__module__}.{cls.__qualname__}({body})"
    text = repr(obj)
    if " object at 0x" in text:
        raise TypeError(
            f"cannot build a stable cache key from {type(obj).__name__}: "
            f"its repr embeds a memory address; pass primitives or "
            f"dataclasses instead")
    return text


class ResultCache:
    """Pickle-backed content-addressed store under one root directory."""

    def __init__(self, root: Optional[str] = None,
                 code_fp: Optional[str] = None):
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
        self.root = Path(root)
        self.code_fp = code_fp if code_fp is not None else code_fingerprint()
        self.hits = 0
        self.misses = 0
        self.puts = 0

    # -- keys ----------------------------------------------------------
    def key_for(self, fn: Callable, kwargs: Mapping[str, Any]) -> str:
        spec = f"{fn.__module__}.{fn.__qualname__}({canonical(dict(kwargs))})"
        digest = hashlib.sha256()
        digest.update(self.code_fp.encode())
        digest.update(b"\0")
        digest.update(spec.encode())
        return digest.hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # -- access --------------------------------------------------------
    def get(self, key: str) -> Tuple[bool, Any]:
        """(hit, value); a corrupt or missing entry is a miss."""
        try:
            with open(self._path(key), "rb") as fh:
                value = pickle.load(fh)
        except (OSError, pickle.PickleError, EOFError, AttributeError):
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def put(self, key: str, value: Any) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.puts += 1

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.rglob("*.pkl"):
                path.unlink()
                removed += 1
        return removed

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
