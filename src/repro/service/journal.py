"""Write-ahead job journal for the discharge service.

The service journals every job transition to an append-only NDJSON file
*before* acknowledging it to the client:

* ``accepted`` — the job key, tenant and full request payload, written
  before the first byte of the response stream;
* ``verdict`` — one record per obligation outcome, written before the
  verdict line is fanned out to subscribers;
* ``done`` — the job's terminal summary.

Every line is one record sealed by the same codec as the on-disk caches
(:func:`repro.store.seal`: a version field plus a SHA-256 over canonical
JSON), so a record is either provably intact or ignored.  A
SIGKILLed server leaves at worst one torn final line; :func:`scan`
tolerates torn and corrupted lines by skipping them (counting what it
skipped) and rebuilds the set of *accepted-but-undischarged* jobs, which
the restarted server re-enqueues.  Verdicts recovered from the journal
are never journalled again on the re-run — at-most-once journalling per
(job, obligation) — so replaying a journal never yields a duplicated
result, and a job is only ever dropped if its ``accepted`` record never
reached the disk (in which case the client never got an acknowledgement
either).

Compaction rewrites the file through the store's atomic write
(:func:`repro.store.atomic_write`, fsynced before the rename) keeping
only records of jobs that are still incomplete; the service compacts on
startup (after recovery) and on drain.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..store import atomic_write, seal, unseal

# 2: lines are sealed by repro.store (version + full SHA-256 checksum)
JOURNAL_VERSION = 2
DEFAULT_JOURNAL = "journal.ndjson"


def _line(payload: dict) -> str:
    """One timestamped, sealed journal line (without the newline)."""
    sealed = seal({"t": round(time.time(), 3), **payload}, JOURNAL_VERSION)
    return json.dumps(sealed, sort_keys=True, separators=(",", ":"))


@dataclass
class JournalJob:
    """Everything the journal knows about one job."""

    key: str
    tenant: str = "anon"
    payload: dict = field(default_factory=dict)
    # oid -> outcome dict, in delivery order (dicts preserve insertion)
    verdicts: dict[str, dict] = field(default_factory=dict)
    done: bool = False
    ok: bool | None = None


@dataclass
class JournalState:
    """The result of scanning a journal file."""

    jobs: dict[str, JournalJob] = field(default_factory=dict)
    lines: int = 0
    skipped: int = 0  # torn / corrupt / checksum-failed lines ignored

    def incomplete(self) -> list[JournalJob]:
        """Accepted-but-undischarged jobs, in acceptance order."""
        return [job for job in self.jobs.values() if not job.done]


def scan(path: str | os.PathLike) -> JournalState:
    """Rebuild journal state, skipping any line that fails to parse or
    checksum — a torn tail from a crash mid-append, bytes scribbled by a
    fault, or a half-applied truncation all degrade to skipped lines,
    never to a wrong record."""
    state = JournalState()
    try:
        handle = open(path, "rb")
    except OSError:
        return state
    with handle:
        for raw in handle:
            state.lines += 1
            try:
                payload = unseal(raw.decode("utf-8"), JOURNAL_VERSION)
                kind = payload["type"]
                key = payload["job"]
            except (ValueError, KeyError):
                state.skipped += 1
                continue
            if kind == "accepted":
                state.jobs[key] = JournalJob(
                    key=key,
                    tenant=payload.get("tenant", "anon"),
                    payload=payload.get("payload", {}),
                )
            elif kind == "verdict":
                job = state.jobs.get(key)
                outcome = payload.get("outcome", {})
                oid = outcome.get("oid")
                if job is not None and isinstance(oid, str):
                    job.verdicts[oid] = outcome
            elif kind == "done":
                job = state.jobs.get(key)
                if job is not None:
                    job.done = True
                    job.ok = payload.get("ok")
    return state


class Journal:
    """Append-side handle: checksummed, flushed (optionally fsynced)
    appends with one ``write()`` syscall per record."""

    def __init__(self, path: str | os.PathLike, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")
        self.appended = 0

    def _append(self, payload: dict) -> None:
        self._handle.write(_line(payload) + "\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self.appended += 1

    def accepted(self, key: str, tenant: str, payload: dict) -> None:
        self._append(
            {"type": "accepted", "job": key, "tenant": tenant, "payload": payload}
        )

    def verdict(self, key: str, outcome: dict) -> None:
        self._append({"type": "verdict", "job": key, "outcome": outcome})

    def done(self, key: str, ok: bool, counts: dict[str, int]) -> None:
        self._append({"type": "done", "job": key, "ok": ok, "counts": counts})

    def scan(self) -> JournalState:
        """Scan this journal's current on-disk content (see :func:`scan`)."""
        self._handle.flush()
        return scan(self.path)

    def compact(self, keep: set[str] | None = None) -> int:
        """Atomically rewrite the journal keeping only incomplete jobs
        (plus any explicitly listed in ``keep``); returns lines dropped.

        The rewrite goes through a temp file + rename, so a crash during
        compaction leaves either the old journal or the new one — never
        a half-written hybrid."""
        state = self.scan()
        keep = set(keep or ())
        keep.update(job.key for job in state.incomplete())
        kept_lines: list[str] = []
        for job in state.jobs.values():
            if job.key not in keep:
                continue
            kept_lines.append(
                _line(
                    {
                        "type": "accepted",
                        "job": job.key,
                        "tenant": job.tenant,
                        "payload": job.payload,
                    }
                )
            )
            kept_lines.extend(
                _line({"type": "verdict", "job": job.key, "outcome": outcome})
                for outcome in job.verdicts.values()
            )
        self._handle.close()
        try:
            atomic_write(
                self.path,
                lambda handle: handle.writelines(
                    line + "\n" for line in kept_lines
                ),
                fsync=True,
            )
        finally:
            self._handle = open(self.path, "a", encoding="utf-8")
        return state.lines - len(kept_lines)

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:  # pragma: no cover
            pass
