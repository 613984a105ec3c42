"""One on-disk record store: the codec, the atomic write and the
namespaced directory that every persistent record goes through.

Standard library only and no ``repro`` imports, so every layer that
persists something — the discharge verdict cache, the width-family
verdict store, the mined-invariant cache, the service journal — can
import it without an import cycle.

* :func:`seal` / :func:`unseal` are the only record codec.  A sealed
  record is a JSON object with a ``version`` field and a ``checksum``:
  the SHA-256 of its canonical JSON form (sorted keys, compact
  separators, the checksum itself left out).  :func:`unseal` accepts
  exactly what :func:`seal` produced for the same version; a truncated,
  hand-edited or version-skewed record raises :class:`ValueError`.
* :func:`atomic_write` is the only way a file is replaced: a temp file
  in the target's directory, then one ``os.replace``, so a reader sees
  the old content or the new, never a torn hybrid.  The temp file is
  unlinked on *any* unwind — an ``OSError``, but also a
  ``KeyboardInterrupt`` or a SIGTERM drain mid-write — so a killed
  writer leaves no litter.
* :class:`Store` is one namespace, ``<root>/<namespace>/``, of sealed
  records with a two-level fan-out on the key's first byte.
  :meth:`Store.load` reads, unseals and decodes a record exactly once
  and *evicts* it on any failure, the decoder's own rejection included,
  so a damaged record is recomputed instead of poisoning every later
  run.  The maintenance half (:meth:`~Store.verify`, :meth:`~Store.gc`,
  :meth:`~Store.clear`, ...) backs ``repro cache``.

A subclass is a thin codec: it names its namespace and version and
turns its values into payloads and back.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import IO, Callable, ClassVar, Mapping, TypeVar

DEFAULT_CACHE_DIR = ".repro-cache"

T = TypeVar("T")


def _digest(payload: Mapping[str, object]) -> str:
    """SHA-256 over the canonical JSON form, ``checksum`` key excluded."""
    body = {key: value for key, value in payload.items() if key != "checksum"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def seal(payload: Mapping[str, object], version: int) -> dict:
    """``payload`` stamped with ``version`` (first) and its checksum
    (last).  Re-sealing an unsealed record replaces both."""
    sealed = {"version": version, **payload}
    sealed["version"] = version
    sealed["checksum"] = _digest(sealed)
    return sealed


def unseal(text: str | bytes, version: int) -> dict:
    """Parse one sealed record; raises :class:`ValueError` unless it is
    an intact object of exactly ``version``."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("record is not an object")
    if payload.get("version") != version:
        raise ValueError("record version mismatch")
    if payload.get("checksum") != _digest(payload):
        raise ValueError("record checksum mismatch")
    return payload


def atomic_write(
    path: Path, write: Callable[[IO[str]], None], fsync: bool = False
) -> None:
    """Replace ``path`` with what ``write`` writes to a temp file.

    ``fsync`` forces the data to disk before the rename, for files that
    cannot be recomputed (the service journal); cache records skip it."""
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.stem[:8]}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            write(handle)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            try:
                os.unlink(tmp)
            except OSError:  # pragma: no cover - unlink race
                pass


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`Store` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0  # corrupt / stale records deleted on load

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class Store:
    """Key-addressed sealed records under ``<root>/<namespace>/``."""

    namespace: ClassVar[str]
    version: ClassVar[int]

    root: str | os.PathLike = DEFAULT_CACHE_DIR
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    @property
    def directory(self) -> Path:
        return Path(self.root) / self.namespace

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def decode(self, payload: dict) -> object:
        """This namespace's value of an unsealed payload; raising
        ``ValueError``/``KeyError``/``TypeError`` rejects the record."""
        return payload

    def load(self, key: str, decode: Callable[[dict], T] | None = None) -> T | None:
        """The record under ``key``, decoded by ``decode`` (default
        :meth:`decode`), or None.  A record that cannot be read, unsealed
        or decoded is evicted and read as a miss."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                value = (decode or self.decode)(unseal(handle.read(), self.version))
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self._evict(path)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def save(self, key: str, payload: Mapping[str, object]) -> bool:
        """Seal ``payload`` and write it atomically; False on an I/O error."""
        path = self._path(key)
        sealed = seal(payload, self.version)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(path, lambda handle: json.dump(sealed, handle, indent=1))
        except OSError:
            return False
        self.stats.stores += 1
        return True

    def _evict(self, path: Path) -> None:
        """Delete a record that failed to load so it gets recomputed."""
        try:
            path.unlink()
        except OSError:
            return
        self.stats.evictions += 1

    # -- offline maintenance (``repro cache``) ---------------------------------

    def entries(self) -> list[Path]:
        """Every record file, sorted for deterministic iteration."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*/*.json"))

    def tmp_files(self) -> list[Path]:
        """Orphaned atomic-write temp files (a crashed writer's litter)."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*/.*.tmp"))

    @staticmethod
    def peek(path: Path) -> dict:
        """A record's raw JSON object, unchecked; ``{}`` if unreadable."""
        try:
            payload = json.loads(path.read_bytes())
        except (OSError, ValueError):
            return {}
        return payload if isinstance(payload, dict) else {}

    def _created(self, path: Path) -> float:
        """A record's ``created`` field when readable, else the file's
        mtime (a corrupt record still needs an age for gc ordering)."""
        created = self.peek(path).get("created")
        if isinstance(created, (int, float)):
            return float(created)
        try:
            return path.stat().st_mtime
        except OSError:  # pragma: no cover - deleted underfoot
            return 0.0

    def disk_stats(self) -> dict[str, object]:
        """On-disk shape of the namespace: record/byte counts and ages."""
        sizes: list[int] = []
        created: list[float] = []
        for path in self.entries():
            try:
                sizes.append(path.stat().st_size)
            except OSError:  # pragma: no cover - deleted underfoot
                continue
            created.append(self._created(path))
        now = time.time()
        return {
            "directory": str(self.directory),
            "records": len(sizes),
            "bytes": sum(sizes),
            "tmp_files": len(self.tmp_files()),
            "oldest_age_s": round(now - min(created), 1) if created else 0.0,
            "newest_age_s": round(now - max(created), 1) if created else 0.0,
        }

    def verify(self) -> dict[str, int]:
        """Load every record through :meth:`load`, evicting exactly what a
        live lookup would evict — the whole namespace healed offline
        instead of one surprise miss at a time."""
        scanned = ok = 0
        evictions_before = self.stats.evictions
        for path in self.entries():
            scanned += 1
            if self.load(path.stem) is not None:
                ok += 1
        return {
            "scanned": scanned,
            "ok": ok,
            "evicted": self.stats.evictions - evictions_before,
        }

    def gc(
        self,
        max_age_s: float | None = None,
        max_bytes: int | None = None,
        dry_run: bool = False,
        now: float | None = None,
    ) -> dict[str, object]:
        """Evict by age and bound the namespace's size, oldest first.

        Orphaned temp files are always pruned.  ``dry_run`` reports what
        would be removed without touching anything.  Eviction goes by
        record creation time, so the warmest records survive a squeeze."""
        now = time.time() if now is None else now
        survivors: list[tuple[float, int, Path]] = []
        removed = removed_bytes = tmp_removed = 0
        for tmp in self.tmp_files():
            if not dry_run:
                try:
                    tmp.unlink()
                except OSError:  # pragma: no cover - unlink race
                    continue
            tmp_removed += 1
        for path in self.entries():
            try:
                size = path.stat().st_size
            except OSError:  # pragma: no cover - deleted underfoot
                continue
            created = self._created(path)
            if max_age_s is not None and now - created > max_age_s:
                removed += 1
                removed_bytes += size
                if not dry_run:
                    self._evict(path)
                continue
            survivors.append((created, size, path))
        if max_bytes is not None:
            survivors.sort()  # oldest first
            total = sum(size for _, size, _ in survivors)
            while survivors and total > max_bytes:
                _, size, path = survivors.pop(0)
                total -= size
                removed += 1
                removed_bytes += size
                if not dry_run:
                    self._evict(path)
        return {
            "removed": removed,
            "removed_bytes": removed_bytes,
            "tmp_removed": tmp_removed,
            "kept": len(survivors),
            "kept_bytes": sum(size for _, size, _ in survivors),
            "dry_run": dry_run,
        }

    def clear(self) -> int:
        """Delete every record; returns how many were removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - unlink race
                pass
        return removed

    def snapshot_stats(self) -> dict[str, float]:
        return {**asdict(self.stats), "hit_rate": self.stats.hit_rate}
