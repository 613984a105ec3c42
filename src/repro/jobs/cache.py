"""On-disk verdict stores for discharged proof obligations.

Two namespaces of the shared record store (:mod:`repro.store`):

* :class:`ResultCache` — ``<root>/discharge/``, one record per obligation
  fingerprint.  A record holds the verdict, the method that produced it,
  the engine parameters and the original compute time: enough to rebuild
  a :class:`repro.proofs.DischargeRecord` on a warm run without touching
  the solver.
* :class:`FamilyCache` — ``<root>/family/``, one record per *family*
  fingerprint (see :mod:`repro.analysis.family`), the same verdict fields
  plus the widths it has served.

Only *successful* verdicts (proved / bounded / trace-ok) are persisted:
failures and unknowns are exactly the outcomes a developer reruns after a
change, and a changed design changes the fingerprint anyway.  Sealing,
atomic writes and the eviction of any record that fails to load are the
store's (:class:`repro.store.Store`), so both namespaces self-heal alike.
"""

from __future__ import annotations

import time
from typing import Mapping

from ..proofs.discharge import DischargeRecord, Status
from ..store import DEFAULT_CACHE_DIR, CacheStats, Store

__all__ = [
    "CACHE_VERSION",
    "DEFAULT_CACHE_DIR",
    "CacheStats",
    "FamilyCache",
    "ResultCache",
]

# 2: record layout gained conflicts/frames profile fields (incremental engine)
# 3: records carry a content checksum; unreadable records are evicted
CACHE_VERSION = 3

_CACHEABLE = (Status.PROVED, Status.BOUNDED, Status.TRACE_OK)


def _record_payload(
    fingerprint: str,
    record: DischargeRecord,
    params: Mapping[str, object] | None,
) -> dict:
    return {
        "fingerprint": fingerprint,
        "oid": record.oid,
        "title": record.title,
        "status": record.status.value,
        "method": record.method,
        "detail": record.detail,
        "seconds": record.seconds,
        "conflicts": record.conflicts,
        "frames": record.frames,
        "params": dict(params or {}),
        "created": time.time(),
    }


def _record_from(payload: dict) -> DischargeRecord:
    record = DischargeRecord(
        oid=payload["oid"],
        title=payload["title"],
        status=Status(payload["status"]),
        method=payload["method"],
        detail=payload.get("detail", ""),
        seconds=float(payload.get("seconds", 0.0)),
        conflicts=int(payload.get("conflicts", 0)),
        frames=int(payload.get("frames", 0)),
    )
    if not record.ok:  # defensive: never reuse a non-verdict
        raise ValueError("stored record is not a verdict")
    return record


class ResultCache(Store):
    """Fingerprint-keyed persistent store of discharge verdicts."""

    namespace = "discharge"
    version = CACHE_VERSION

    def decode(self, payload: dict) -> DischargeRecord:
        return _record_from(payload)

    def get(self, fingerprint: str) -> DischargeRecord | None:
        """Look up a verdict; corrupt or stale records are evicted as misses."""
        return self.load(fingerprint)

    def put(
        self,
        fingerprint: str,
        record: DischargeRecord,
        params: Mapping[str, object] | None = None,
    ) -> bool:
        """Persist a verdict; returns False for non-cacheable statuses."""
        if record.status not in _CACHEABLE:
            return False
        return self.save(fingerprint, _record_payload(fingerprint, record, params))

    def __len__(self) -> int:
        return len(self.entries())


def _widths(payload: dict) -> set[int]:
    return {w for w in payload.get("widths") or () if isinstance(w, int)}


class FamilyCache(Store):
    """Width-erased *family* verdicts, under ``<root>/family/``.

    Keys are family fingerprints (digests of width-generic obligation
    templates), so one record serves the obligation at every width the
    certificate covers.  Besides the verdict, a record journals the
    cutoff (base) width, the sorted widths it has been seeded or served
    at, and the core name.
    """

    namespace = "family"
    version = CACHE_VERSION

    def decode(self, payload: dict) -> DischargeRecord:
        return _record_from(payload)

    def put_family(
        self,
        fingerprint: str,
        record: DischargeRecord,
        base_width: int,
        width: int,
        core: str = "",
        params: Mapping[str, object] | None = None,
    ) -> bool:
        """Store (or widen) a family verdict."""
        if record.status not in _CACHEABLE:
            return False
        widths = {int(width)} | (self.load(fingerprint, _widths) or set())
        return self.save(
            fingerprint,
            {
                **_record_payload(fingerprint, record, params),
                "base_width": int(base_width),
                "widths": sorted(widths),
                "core": core,
            },
        )

    def serve(self, fingerprint: str, width: int) -> DischargeRecord | None:
        """The verdict under ``fingerprint``, noting that it served
        ``width``: one read, plus one write the first time a width is
        served."""
        found = self.load(fingerprint, lambda p: (_record_from(p), p))
        if found is None:
            return None
        record, payload = found
        widths = _widths(payload)
        if width not in widths:
            payload.update(widths=sorted(widths | {width}), created=time.time())
            self.save(fingerprint, payload)
        return record

    def width_histogram(self) -> dict[int, int]:
        """How many family verdicts cover each width (``repro cache stats``)."""
        histogram: dict[int, int] = {}
        for path in self.entries():
            for width in _widths(self.peek(path)):
                histogram[width] = histogram.get(width, 0) + 1
        return dict(sorted(histogram.items()))
