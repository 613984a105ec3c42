"""repro — Automated Pipeline Design (Kroening & Paul, DAC 2001).

A from-scratch reproduction of the DAC 2001 pipeline-synthesis tool: given a
*prepared sequential machine* (a stage-partitioned sequential processor
without forwarding or interlock hardware), the tool generates the stall
engine, forwarding logic, interlock logic and speculation rollback hardware
of an equivalent pipelined machine — together with machine-checkable proof
obligations for data consistency and liveness.

Top-level layout:

* :mod:`repro.hdl` — bit-vectors, expression IR, netlists, simulator,
  structural cost/delay analysis.
* :mod:`repro.formal` — CDCL SAT solver, AIG bit-blaster, bounded model
  checking and k-induction.
* :mod:`repro.machine` — the prepared sequential machine model and its
  elaboration to a round-robin sequential netlist.
* :mod:`repro.core` — the transformation itself: stall engine, forwarding,
  interlock, speculation; scheduling functions and consistency checking.
* :mod:`repro.proofs` — generated proof obligations and their discharge.
* :mod:`repro.dlx` — the DLX case study: ISA, assembler, reference
  simulator, prepared 5-stage machine, workloads.
* :mod:`repro.perf` — CPI metrics, workload generators, cost reporting.
"""

__version__ = "1.0.0"
