"""The pipeline transformation: stall engine, forwarding, interlock,
speculation, and the associated correctness checks."""

from .consistency import (
    ConsistencyReport,
    LivenessReport,
    PipelinedTrace,
    SpecState,
    SpecStateCache,
    check_data_consistency,
    check_liveness,
    collect_spec_states,
    commit_stream,
    compare_commit_streams,
    run_pipelined,
    seq_commit_side,
)
from .forwarding import (
    FORWARDING_STYLES,
    ForwardingBuilder,
    ForwardingNetwork,
    valid_bit_name,
)
from .scheduling import Lemma1Report, Schedule, check_lemma1, compute_schedule
from .stall_engine import StallEngine, full_bit_name
from .transform import (
    PipelinedMachine,
    SpeculationHardware,
    TransformOptions,
    transform,
)

__all__ = [
    "ConsistencyReport",
    "FORWARDING_STYLES",
    "ForwardingBuilder",
    "ForwardingNetwork",
    "Lemma1Report",
    "LivenessReport",
    "PipelinedMachine",
    "PipelinedTrace",
    "Schedule",
    "SpecState",
    "SpecStateCache",
    "SpeculationHardware",
    "StallEngine",
    "TransformOptions",
    "check_data_consistency",
    "check_lemma1",
    "check_liveness",
    "collect_spec_states",
    "commit_stream",
    "compare_commit_streams",
    "compute_schedule",
    "full_bit_name",
    "run_pipelined",
    "seq_commit_side",
    "transform",
    "valid_bit_name",
]
