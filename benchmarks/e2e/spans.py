"""Spans recorded from outside the program, around its public functions.

:func:`install` wraps each layer boundary the benchmark measures — the
lint gates, the absint passes, fingerprinting, cache I/O, the solver
seams of the jobs engine, the family analysis — in a function that
records a :class:`Span` (name, start, end, parent) on a per-thread
stack and bumps named counters.  Nothing under ``src/`` changes: the
wrappers replace the functions' bindings in every loaded ``repro``
module for the duration of one traced round and :func:`install`'s undo
callable puts the originals back.

Spans recorded in forked workers never reach this process, so traced
rounds run the engine inline (``jobs=1``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index into Tracer.spans
    thread: int = 0


class Tracer:
    """In-memory span and counter store for one traced round."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = Span(
            name,
            time.perf_counter(),
            parent=stack[-1] if stack else None,
            thread=threading.get_ident(),
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name, each span counting its duration minus the
    part of its interval its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    totals: dict[str, float] = {}
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[span.name] = (
            totals.get(span.name, 0.0) + (span.end - span.start) - covered
        )
    return totals


def chrome_events(spans: list[Span], origin: float, label: str) -> list[dict]:
    """Chrome trace-event ``X`` records (microseconds since ``origin``)."""
    pid = os.getpid()
    return [
        {
            "name": span.name,
            "cat": label,
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "pid": pid,
            "tid": span.thread,
        }
        for span in spans
    ]


def write_chrome(path: str, events: list[dict]) -> None:
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _wrap(tracer: Tracer, original: Callable, name: str, after=None):
    if inspect.isgeneratorfunction(original):

        @functools.wraps(original)
        def generator(*args, **kwargs):
            if after is not None:
                after(tracer, args, None)
            with tracer.span(name):
                yield from original(*args, **kwargs)

        return generator

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = original(*args, **kwargs)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


def _count(counter: str):
    def after(tracer: Tracer, args, result) -> None:
        tracer.count(counter)

    return after


def _verdict_cache_get(tracer: Tracer, args, result) -> None:
    from repro.jobs.cache import ResultCache

    if type(args[0]) is ResultCache:  # the family store is analysis's
        tracer.count("jobs.cache_hits" if result is not None else "jobs.cache_misses")


def _mined(tracer: Tracer, args, result) -> None:
    tracer.count("absint.candidates", result.candidates)
    tracer.count("absint.proven", len(result.proven))
    if result.from_cache:
        tracer.count("absint.cache_hits")


def _analyzed(tracer: Tracer, args, result) -> None:
    tracer.count("analysis.certified", len(result.certified()))


def _served(tracer: Tracer, args, result) -> None:
    tracer.count("analysis.lookups")
    if result is not None:
        tracer.count("analysis.served")


def _targets():
    """(owner, attribute, span name, after-hook) for every layer seam."""
    # by module path: some packages re-export a function under its
    # submodule's name (repro.formal.bmc)
    (absint_cache, fixpoint, mine, verify, family, transform, bmc, cache,
     engine, registry, taint, discharge, obligations, protocol) = (
        importlib.import_module(f"repro.{path}")
        for path in (
            "absint.cache", "absint.fixpoint", "absint.mine", "absint.verify",
            "analysis.family", "core.transform", "formal.bmc", "jobs.cache",
            "jobs.engine", "lint.registry", "lint.taint", "proofs.discharge",
            "proofs.obligations", "service.protocol",
        )
    )
    return [
        # machine construction is the benchmark's own call for the batch
        # workloads; the service builds through its protocol module
        (protocol, "build_pipelined", "machine.build", None),
        (transform, "transform", "core.transform", None),
        (obligations, "generate_obligations", "proofs.obligations", None),
        (discharge, "resolve_properties", "proofs.obligations", None),
        (obligations.Obligation, "fingerprint", "proofs.fingerprint",
         _count("proofs.fingerprints")),
        (absint_cache.InvariantCache, "key_for", "proofs.fingerprint",
         _count("proofs.fingerprints")),
        (discharge, "build_trace", "proofs.trace", None),
        (discharge, "discharge_trace", "proofs.trace", None),
        (registry, "lint_pipeline", "lint.gate", None),
        (taint, "lint_taint", "lint.taint", None),
        (fixpoint, "analyze", "absint.fixpoint", None),
        (mine, "mine_invariants", "absint.mine", _mined),
        (mine, "generate_candidates", "absint.candidates", None),
        (mine, "_trace_filter", "absint.candidates", None),
        (verify, "verify_candidates", "absint.verify", None),
        (mine, "inject_invariants", "absint.inject", None),
        (bmc.TransitionSystem, "from_module", "formal.system", None),
        (discharge, "discharge_invariant_group", "formal.solve",
         _count("formal.groups")),
        (engine, "_solver_record", "formal.solve", None),
        (cache.ResultCache, "get", "jobs.cache_get", _verdict_cache_get),
        # the engine tests the cache's truth value before each lookup,
        # which counts the entries on disk
        (cache.ResultCache, "__len__", "jobs.cache_get", None),
        (cache.ResultCache, "put", "jobs.cache_put", None),
        (absint_cache.InvariantCache, "get", "jobs.cache_get", None),
        (absint_cache.InvariantCache, "put", "jobs.cache_put", None),
        (family, "analyze_family", "analysis.analyze", _analyzed),
        (family.FamilyContext, "lookup", "analysis.lookup", _served),
        (family.FamilyContext, "seed", "analysis.seed", None),
    ]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer seam; returns the callable that unwraps them.

    Module-level functions are rebound in every loaded ``repro`` module
    that imported them by name; methods and classmethods are rebound on
    their class (subclasses inherit the wrapper).
    """
    undo: list[tuple[object, str, object]] = []
    for owner, attr, name, after in _targets():
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(tracer, raw.__func__, name, after))
            else:
                wrapped = _wrap(tracer, raw, name, after)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, raw))
            continue
        original = getattr(owner, attr)
        wrapped = _wrap(tracer, original, name, after)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    undo.append((module, key, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
