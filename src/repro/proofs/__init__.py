"""Generated proof obligations and their mechanical discharge."""

from .discharge import (
    DischargeRecord,
    Status,
    build_trace,
    discharge_equivalence,
    discharge_invariant_group,
    discharge_trace,
    resolve_properties,
)
from .fingerprint import (
    fingerprint_equivalence,
    fingerprint_exprs,
    fingerprint_invariant,
    fingerprint_module,
    fingerprint_trace,
)
from .instrument import counter_name, instrument_scheduling
from .obligations import (
    Obligation,
    ObligationKind,
    ObligationSet,
    generate_obligations,
)

__all__ = [
    "DischargeRecord",
    "Obligation",
    "ObligationKind",
    "ObligationSet",
    "Status",
    "build_trace",
    "counter_name",
    "discharge_equivalence",
    "discharge_invariant_group",
    "discharge_trace",
    "fingerprint_equivalence",
    "fingerprint_exprs",
    "fingerprint_invariant",
    "fingerprint_module",
    "fingerprint_trace",
    "generate_obligations",
    "instrument_scheduling",
    "resolve_properties",
]
