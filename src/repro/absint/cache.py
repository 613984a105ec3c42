"""Persistent cache of SAT-proven mined invariants.

Mining is pure in the module and the trace-filter length, so a proven
set can be reused across runs under the same content-addressed
discipline as the discharge cache: the key hashes the *whole module*
fingerprint (an invariant can mention any register), ``trace_cycles``,
and the solver/engine/absint versions.  The other mining and fixpoint
knobs are constants covered by ``ABSINT_VERSION``, so any change that
could alter the proven set changes the key.

Records are the ``absint`` namespace of the shared record store
(:mod:`repro.store`), next to the discharge records: sealed, written
atomically and evicted on any load failure, exactly like a verdict.
Unchecked mining results (trace-surviving conjectures) are never stored,
and one found on disk is rejected and evicted.
"""

from __future__ import annotations

import hashlib
import time
from typing import TYPE_CHECKING

from ..formal.bmc import ENGINE_VERSION
from ..formal.sat import SOLVER_VERSION
from ..hdl.netlist import Module
from ..proofs.fingerprint import fingerprint_module
from ..store import Store
from .domain import ABSINT_VERSION

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .mine import MiningResult

# 2: keys embed the Merkle module fingerprint (repro.proofs.fingerprint),
# so every version-1 record is unreachable; the bump lets the store evict
# them as version skew instead of leaving them on disk
# 3: keys hash trace_cycles alone, not the whole set of mining knobs, so
# every version-2 record is unreachable for the same reason
# 4: keys carry ENGINE_VERSION 5 (memories as arrays), so every version-3
# record is unreachable; the mined sets themselves did not change
CACHE_VERSION = 4


class InvariantCache(Store):
    """Fingerprint-keyed store of :class:`repro.absint.mine.MiningResult`."""

    namespace = "absint"
    version = CACHE_VERSION

    def key_for(self, module: Module, trace_cycles: int) -> str:
        lines = [
            f"versions:solver={SOLVER_VERSION},engine={ENGINE_VERSION}"
            f",absint={ABSINT_VERSION}",
            f"module:{fingerprint_module(module)}",
            f"trace_cycles:{trace_cycles}",
        ]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def decode(self, payload: dict) -> "MiningResult":
        from .mine import MiningResult

        result = MiningResult.from_dict(payload["result"])
        if not result.checked:
            raise ValueError("unchecked mining result in cache")
        return result

    def get(self, key: str) -> "MiningResult | None":
        return self.load(key)

    def put(self, key: str, result: "MiningResult") -> bool:
        """Persist a mining result; unchecked results are never stored."""
        if not result.checked:
            return False
        return self.save(
            key,
            {
                "key": key,
                "result": result.to_dict(include_exprs=True),
                "created": time.time(),
            },
        )
