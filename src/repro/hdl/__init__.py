"""HDL substrate: bit-vectors, expression IR, netlists, simulation and
structural analysis.

This subpackage plays the role of the authors' in-house HDL front end: the
pipeline transformation of :mod:`repro.core` manipulates these netlists
structurally, and both the simulator (:mod:`repro.hdl.sim`) and the formal
engines (:mod:`repro.formal`) interpret them.
"""

from . import expr
from .analyze import CircuitStats, analyze, analyze_module, count_ops, storage_bits
from .compile import CompiledSimulator, compile_module
from .bitvec import BitVector, bit_length_for, bv, from_signed, mask, to_signed
from .netlist import Memory, Module, ModuleState, NetlistError, Register, WritePort
from .sim import Evaluator, SimulationError, Simulator, Trace, evaluate, simulate
from .subst import substitute

__all__ = [
    "BitVector",
    "CompiledSimulator",
    "CircuitStats",
    "Evaluator",
    "Memory",
    "Module",
    "ModuleState",
    "NetlistError",
    "Register",
    "SimulationError",
    "Simulator",
    "Trace",
    "WritePort",
    "analyze",
    "analyze_module",
    "bit_length_for",
    "bv",
    "compile_module",
    "count_ops",
    "evaluate",
    "expr",
    "from_signed",
    "mask",
    "simulate",
    "storage_bits",
    "substitute",
    "to_signed",
]
