"""Persistent, content-addressed artifact cache for experiment work.

Every figure driver needs the same expensive intermediates — prepared
kernels (the CTXBack compiler pass), dynamic-PC weight histograms, reference
run profiles and preemption-experiment measurements.  All of them are
deterministic functions of their inputs, so they are stored on disk keyed by
a **content hash** of everything the computation depends on: the kernel's
assembly text and resource declaration, the full :class:`GPUConfig`, the
mechanism (and its :class:`CtxBackConfig`, where applicable), iteration
count and a schema version.  Two presets that differ in *any* field — e.g.
``radeon_vii`` vs ``radeon_vii_contended``, which share a warp size — can
therefore never alias (the bug the old per-process dict keys had).
Prepared kernels are the one narrower key: compiling reads only the
register-file spec, so they key on that instead of the full config (see
:func:`repro.analysis.engine.prepared_parts`).

Layout (default root ``~/.cache/repro``, override ``REPRO_CACHE_DIR``)::

    <root>/<kind>/<sha256>.pkl     pickled artifact + integrity footer
    <root>/stats.json              cumulative hit/miss counters
    <root>/stats.lock              fcntl lockfile guarding stats.json merges

Entry format (schema 2): the pickled payload followed by a fixed-size
footer — a 4-byte magic (``RCK2``) and the sha256 digest of the payload.
The footer catches *both* truncated and bit-flipped entries, where the old
format only detected payloads that failed to unpickle.  Entries are written
atomically (temp file + ``os.replace``), so concurrent engine workers may
race to create the same key but never corrupt it.  Unreadable, truncated or
checksum-mismatching entries are deleted on access and counted as
*invalidations*.

Capacity: set ``REPRO_CACHE_MAX_BYTES`` to cap the on-disk size; after
every store the least-recently-used entries (by mtime — hits refresh it)
are evicted until the store fits, counted as *evictions*.  Set
``REPRO_CACHE=0`` to disable persistence (an in-memory layer still dedups
within the process).

``python -m repro cache`` prints the inventory and counters;
``python -m repro cache --clear`` empties the store.
"""

from __future__ import annotations

import atexit
import contextlib
import dataclasses
import enum
import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

try:  # POSIX only; the lock degrades to best-effort elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-posix
    fcntl = None  # type: ignore[assignment]

#: bump when the pickled artifact representation or key layout changes;
#: part of every content hash, so old entries are simply never hit again.
#: 2: integrity footer (payload sha256) appended to every entry.
#: 3: resume delivered exactly at resume_at (experiment timings changed)
#:    and experiment profiles carry ``resume: None`` for absent data.
#: 4: ``recovery_cycles`` is Optional (``None`` = no recovery data, 0 = a
#:    legitimate zero-cost fallback); cached experiment/chaos profiles sum
#:    it with an ``is None`` filter instead of coercing absent to 0.
SCHEMA_VERSION = 4

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_ENABLED = "REPRO_CACHE"
_ENV_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"

#: entry footer: magic + sha256(payload); appended after the pickled payload
_FOOTER_MAGIC = b"RCK2"
_FOOTER_LEN = len(_FOOTER_MAGIC) + 32


def default_cache_dir() -> Path:
    env = os.environ.get(_ENV_DIR, "").strip()
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


def cache_enabled_by_env() -> bool:
    return os.environ.get(_ENV_ENABLED, "1").strip().lower() not in (
        "0",
        "off",
        "false",
        "no",
    )


def cache_max_bytes_by_env() -> int:
    """On-disk size cap from ``REPRO_CACHE_MAX_BYTES`` (0 = unlimited)."""
    raw = os.environ.get(_ENV_MAX_BYTES, "").strip()
    try:
        return max(0, int(raw)) if raw else 0
    except ValueError:
        return 0


# -- canonical content description ---------------------------------------------


def canonical(value):
    """JSON-representable canonical form of *value* for content hashing."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__} for cache key")


def describe_kernel(kernel) -> dict:
    """Content description of a kernel: assembly text + resource footprint."""
    from ..isa.assembler import serialize

    return {
        "asm": serialize(kernel.program),
        "vgprs_used": kernel.vgprs_used,
        "sgprs_used": kernel.sgprs_used,
        "lds_bytes": kernel.lds_bytes,
        "noalias": kernel.noalias,
        "warps_per_block": kernel.warps_per_block,
    }


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            self.hits, self.misses, self.stores, self.invalidations, self.evictions
        )

    def delta(self, before: "CacheStats") -> "CacheStats":
        return CacheStats(
            self.hits - before.hits,
            self.misses - before.misses,
            self.stores - before.stores,
            self.invalidations - before.invalidations,
            self.evictions - before.evictions,
        )


_COUNTER_KEYS = ("hits", "misses", "stores", "invalidations", "evictions")


@contextlib.contextmanager
def _stats_lock(root: Path):
    """Exclusive fcntl lock on ``<root>/stats.lock`` (no-op without fcntl)."""
    if fcntl is None:  # pragma: no cover - non-posix
        yield
        return
    root.mkdir(parents=True, exist_ok=True)
    with open(root / "stats.lock", "a+") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


class ArtifactCache:
    """Content-addressed pickle store with an in-memory front."""

    def __init__(
        self,
        root: Path | str | None = None,
        enabled: bool | None = None,
        max_bytes: int | None = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.enabled = cache_enabled_by_env() if enabled is None else enabled
        self.max_bytes = cache_max_bytes_by_env() if max_bytes is None else max_bytes
        self.stats = CacheStats()
        self._memory: dict[tuple[str, str], object] = {}

    # -- keys -----------------------------------------------------------------

    def key_for(self, kind: str, parts: dict) -> str:
        payload = json.dumps(
            {"schema": SCHEMA_VERSION, "kind": kind, "parts": canonical(parts)},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, kind: str, digest: str) -> Path:
        return self.root / kind / f"{digest}.pkl"

    # -- entry encoding --------------------------------------------------------

    @staticmethod
    def encode_entry(value) -> bytes:
        """Pickled payload + integrity footer (magic + payload sha256)."""
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        return payload + _FOOTER_MAGIC + hashlib.sha256(payload).digest()

    @staticmethod
    def decode_entry(blob: bytes):
        """Inverse of :meth:`encode_entry`; raises ``ValueError`` on a
        missing footer or checksum mismatch (truncation, bit flips)."""
        if len(blob) <= _FOOTER_LEN or blob[-_FOOTER_LEN:-32] != _FOOTER_MAGIC:
            raise ValueError("cache entry missing integrity footer")
        payload = blob[:-_FOOTER_LEN]
        if hashlib.sha256(payload).digest() != blob[-32:]:
            raise ValueError("cache entry checksum mismatch")
        return pickle.loads(payload)

    # -- store ----------------------------------------------------------------

    def get(self, kind: str, digest: str):
        """Returns (hit, value); the in-memory layer fronts the disk store."""
        memory_key = (kind, digest)
        if memory_key in self._memory:
            self.stats.hits += 1
            return True, self._memory[memory_key]
        if self.enabled:
            path = self._path(kind, digest)
            try:
                value = self.decode_entry(path.read_bytes())
            except FileNotFoundError:
                pass
            except Exception:
                # truncated/bit-flipped/incompatible entry: drop and recompute
                self.stats.invalidations += 1
                try:
                    path.unlink()
                except OSError:
                    pass
            else:
                self.stats.hits += 1
                self._memory[memory_key] = value
                try:  # refresh recency so LRU eviction spares hot entries
                    os.utime(path)
                except OSError:
                    pass
                return True, value
        self.stats.misses += 1
        return False, None

    def put(self, kind: str, digest: str, value) -> None:
        self._memory[(kind, digest)] = value
        self.stats.stores += 1
        if not self.enabled:
            return
        path = self._path(kind, digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(self.encode_entry(value))
            os.replace(tmp, path)  # atomic: racing workers write identical bytes
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.evict_to_cap()

    def get_or_create(self, kind: str, parts: dict, factory):
        """The cache's main entry point: lookup by content, else compute."""
        digest = self.key_for(kind, parts)
        hit, value = self.get(kind, digest)
        if hit:
            return value
        value = factory()
        self.put(kind, digest, value)
        return value

    # -- maintenance -----------------------------------------------------------

    def entries(self) -> dict[str, dict]:
        """On-disk inventory: per-kind entry count and byte size."""
        inventory: dict[str, dict] = {}
        if not self.root.is_dir():
            return inventory
        for kind_dir in sorted(self.root.iterdir()):
            if not kind_dir.is_dir():
                continue
            files = list(kind_dir.glob("*.pkl"))
            inventory[kind_dir.name] = {
                "entries": len(files),
                "bytes": sum(f.stat().st_size for f in files),
            }
        return inventory

    def _on_disk(self) -> list[tuple[float, int, str, Path]]:
        """Every entry as (mtime, size, kind, path), oldest first."""
        found: list[tuple[float, int, str, Path]] = []
        if not self.root.is_dir():
            return found
        for kind_dir in self.root.iterdir():
            if not kind_dir.is_dir():
                continue
            for entry in kind_dir.glob("*.pkl"):
                try:
                    stat = entry.stat()
                except OSError:  # racing eviction/invalidation elsewhere
                    continue
                found.append((stat.st_mtime, stat.st_size, kind_dir.name, entry))
        found.sort(key=lambda item: (item[0], item[3].name))
        return found

    def evict_to_cap(self) -> int:
        """LRU-by-mtime eviction until the store fits ``max_bytes``.

        Returns the number of entries removed (0 with no cap configured).
        """
        if not self.enabled or not self.max_bytes:
            return 0
        entries = self._on_disk()
        total = sum(size for _, size, _, _ in entries)
        evicted = 0
        for _, size, kind, path in entries:
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:  # a concurrent run evicted/invalidated it first
                continue
            total -= size
            evicted += 1
            self._memory.pop((kind, path.stem), None)
        self.stats.evictions += evicted
        return evicted

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        self._memory.clear()
        if self.root.is_dir():
            for kind_dir in self.root.iterdir():
                if not kind_dir.is_dir():
                    continue
                for entry in kind_dir.glob("*.pkl"):
                    try:
                        entry.unlink()
                        removed += 1
                    except OSError:
                        pass
        self.stats.invalidations += removed
        return removed

    # -- cumulative counters ----------------------------------------------------

    def flush_stats(self) -> None:
        """Merge this process's counters into ``<root>/stats.json``, under
        the ``stats.lock`` fcntl lock so concurrent engine runs cannot lose
        each other's read-modify-write (used for the CLI's totals)."""
        if not self.enabled:
            return
        current = self.stats
        if not any(getattr(current, key) for key in _COUNTER_KEYS):
            return
        path = self.root / "stats.json"
        totals = dict.fromkeys(_COUNTER_KEYS, 0)
        try:
            with _stats_lock(self.root):
                try:
                    stored = json.loads(path.read_text())
                except (OSError, ValueError):
                    stored = {}
                for key in _COUNTER_KEYS:
                    totals[key] = stored.get(key, 0) + getattr(current, key)
                fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
                with os.fdopen(fd, "w") as handle:
                    json.dump(totals, handle)
                os.replace(tmp, path)
        except OSError:
            return
        self.stats = CacheStats()

    def persisted_stats(self) -> dict:
        totals = dict.fromkeys(_COUNTER_KEYS, 0)
        path = self.root / "stats.json"
        try:
            stored = json.loads(path.read_text())
        except (OSError, ValueError):
            return totals
        for key in _COUNTER_KEYS:
            totals[key] = stored.get(key, 0)
        return totals


# -- process-wide singleton ------------------------------------------------------

_CACHE: ArtifactCache | None = None


def get_cache() -> ArtifactCache:
    """The process-wide cache (created on first use; stats flushed atexit)."""
    global _CACHE
    if _CACHE is None:
        _CACHE = ArtifactCache()
        atexit.register(_CACHE.flush_stats)
    return _CACHE


def configure_cache(
    root: Path | str | None = None,
    enabled: bool | None = None,
    max_bytes: int | None = None,
    flush_previous: bool = True,
) -> ArtifactCache:
    """Point the process at a different cache (tests, CLI, engine workers).

    The replaced cache's atexit hook is unregistered and its counters are
    flushed immediately (they used to flush at exit against a cache object
    nothing referenced anymore, silently dropping the active cache's
    counters).  Engine workers pass ``flush_previous=False``: a forked
    worker inherits the parent's cache object, and flushing it from every
    worker would multiply the parent's counters into ``stats.json``.
    """
    global _CACHE
    previous = _CACHE
    if previous is not None:
        atexit.unregister(previous.flush_stats)
        if flush_previous:
            previous.flush_stats()
    _CACHE = ArtifactCache(root=root, enabled=enabled, max_bytes=max_bytes)
    atexit.register(_CACHE.flush_stats)
    return _CACHE
