"""Timing at a fixed host pace, for a shared host whose speed drifts.

Other guests on the baseline host slow its vCPUs by up to 2x for seconds
to minutes at a time, with little steal time showing: the same dlx-spec
suite took 4.9 s and 6.6 s a minute apart, with identical solver work.
A raw time mixes the program's work with the host's state, and more
rounds per run cannot remove that, because the host state outlasts a
run.

So the process that runs the program also runs a :class:`Sampler`: a
thread that every ``INTERVAL_S`` times a probe of a fixed reference
workload that allocates and walks a small object graph and hashes tuples
into a dict, as the program's expression layer does.  The probe holds
the interpreter lock throughout, so no Python code of the program runs
while it does, and it runs with the collector off, so it never collects
the program's heap.  Each probe runs the workload twice and times the
second run: a single run straight after the process idled read slower
than one while the program kept the vCPU busy (busy over idle 0.74),
so a program that idled more would have read its host as slower.  With
the warm-up run the ratio is 0.97, within the host's own swings.  The
program then has no way to move a reading; only the host does.  A
:class:`Timeline` built from the samples leaves the probes' own time out
and rescales each stretch of the program's time between two probes to
the reference pace by their readings::

    paced = raw * REFERENCE_S / mean(probe before, probe after)

so a stretch that ran while the host was half as fast counts what it
would have taken at full speed.  Any interval the benchmark timed in that
process — a round, a verdict's latency, a request — is converted
afterwards.  ``REFERENCE_S`` is the probe's time on the baseline host
when no other guest slows it, so there a paced second is close to a raw
one.
"""

from __future__ import annotations

import bisect
import gc
import threading
import time

REFERENCE_S = 0.85e-3  # the probe beside the program on the quiet baseline host
PROBE_NODES = 2000  # short enough to finish inside one interpreter switch
INTERVAL_S = 0.05


class _Node:
    __slots__ = ("left", "right", "value")

    def __init__(self, left, right, value) -> None:
        self.left = left
        self.right = right
        self.value = value


def _reference() -> None:
    nodes = [_Node(None, None, 1)]
    for i in range(PROBE_NODES):
        nodes.append(_Node(nodes[i >> 1], nodes[i], i))
    table: dict[tuple, int] = {}
    for node in nodes:
        key = ("and", node.value & 255, node.left.value & 1023 if node.left else 0)
        table[key] = table.get(key, 0) + 1


def _probe() -> tuple[float, float, float]:
    """``(start, end, seconds)`` of one probe: the reference workload once
    to warm the vCPU up, then once more, timed (``seconds``)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference()
        timed = time.perf_counter()
        _reference()
        end = time.perf_counter()
        return start, end, end - timed
    finally:
        if enabled:
            gc.enable()


def factor(before: float, after: float) -> float:
    """Reference pace over the host's pace between two probe readings."""
    return 2.0 * REFERENCE_S / (before + after)


class Sampler:
    """Probes every ``INTERVAL_S`` from a thread from the start of the
    ``with`` block until it ends or :meth:`stop` is called; ``samples``
    holds each probe's ``(start, end, seconds)``."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="pace", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.samples.append(_probe())

    def __enter__(self) -> "Sampler":
        self.samples.append(_probe())  # so a timeline exists from the start
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def timeline(self) -> "Timeline":
        """The probes so far; the sampler may still be running."""
        return Timeline(list(self.samples))


class Timeline:
    """The program's clock, raw and paced, from a sampler's probes.

    Knots alternate probe start, probe end.  Inside a probe neither
    clock moves; between two probes the raw clock runs at 1 and the paced
    one at their :func:`factor`; before the first and after the last
    probe, at that probe's own reading.
    """

    def __init__(self, samples: list[tuple[float, float, float]]) -> None:
        if not samples:
            raise ValueError("a timeline needs at least one probe")
        readings = [seconds for _, _, seconds in samples]
        self._knots: list[float] = []
        self._raw: list[float] = []
        self._paced: list[float] = []
        self._slopes: list[float] = []  # paced rate after each probe
        raw = paced = 0.0
        for i, (start, end, seconds) in enumerate(samples):
            if i:
                gap = start - self._knots[-1]
                raw += gap
                paced += gap * self._slopes[-1]
            self._knots += [start, end]
            self._raw += [raw, raw]
            self._paced += [paced, paced]
            after = readings[i + 1] if i + 1 < len(readings) else seconds
            self._slopes.append(factor(seconds, after))
        self._first = factor(readings[0], readings[0])

    def _at(self, t: float) -> tuple[float, float]:
        """(raw, paced) program seconds from the first probe to ``t``."""
        i = bisect.bisect_right(self._knots, t) - 1
        if i < 0:
            lead = t - self._knots[0]
            return lead, lead * self._first
        if i % 2 == 0:  # inside probe i // 2
            return self._raw[i], self._paced[i]
        run = t - self._knots[i]
        return self._raw[i] + run, self._paced[i] + run * self._slopes[i // 2]

    def paced(self, start: float, end: float) -> float:
        """Paced program seconds between two ``perf_counter`` readings."""
        return self._at(end)[1] - self._at(start)[1]

    def raw(self, start: float, end: float) -> float:
        """Raw program seconds between two readings: probes left out."""
        return self._at(end)[0] - self._at(start)[0]
