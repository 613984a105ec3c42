"""Wire protocol of the discharge service.

A request is one JSON document::

    {
      "tenant":  "team-a",                  # optional; default "anon"
      "machine": {"core": "toy"}            # a catalog core, or
                 {"program": "<asm>",       # DLX assembly source
                  "dmem_bits": 6,
                  "style": "chain"},
      "params":  {"max_k": 2, ...}          # optional engine overrides
    }

and the response is an NDJSON event stream: one ``accepted`` line, one
``verdict`` line per obligation as it lands, one terminal ``done`` line.

The **job key** is a content fingerprint over the machine spec and every
verdict-relevant engine parameter — the same philosophy as the
per-obligation fingerprints of :mod:`repro.proofs.fingerprint`, one
level up: requests with equal keys are the same computation, so the
server coalesces them in flight and serves repeats from its result
window.  The verdict-preserving ``family`` param (``false`` skips
width-family proof reuse: the server passes the engine no
``FamilyContext``) and the robustness knobs stay out of the key, exactly
as they stay out of the obligation fingerprints.  Invariant mining is
not a request param: the engine always mines.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from typing import Mapping

from ..core import transform
from ..core.transform import PipelinedMachine
from ..jobs.engine import EngineParams, JobOutcome

#: request "params" keys a client may override (server-side robustness
#: knobs — retries, rlimits — are deliberately not client-controllable)
PARAM_KEYS = (
    "max_k",
    "bmc_bound",
    "trace_cycles",
    "liveness_bound",
    "max_conflicts",
    "family",
)

#: the subset of PARAM_KEYS that can change a verdict; only these (plus
#: the machine spec) enter the job key
KEY_PARAMS = (
    "max_k",
    "bmc_bound",
    "trace_cycles",
    "liveness_bound",
    "max_conflicts",
)

FORWARDING_STYLES = ("chain", "tree", "bus")


class BadRequest(ValueError):
    """A malformed or unsatisfiable request (HTTP 400)."""


def canonical_machine_spec(spec: object) -> dict:
    """Validate and normalise the ``machine`` field of a request."""
    if not isinstance(spec, Mapping):
        raise BadRequest("machine spec must be an object")
    if "core" in spec:
        from ..faults.catalog import CORES

        core = spec["core"]
        if core not in CORES:
            raise BadRequest(
                f"unknown core {core!r}; available: {', '.join(sorted(CORES))}"
            )
        width = spec.get("width")
        if width is None:
            return {"core": core}
        if not isinstance(width, int) or not 4 <= width <= 128:
            raise BadRequest("machine.width must be an int in [4, 128]")
        return {"core": core, "width": width}
    if "program" in spec:
        program = spec["program"]
        if not isinstance(program, str) or not program.strip():
            raise BadRequest("machine.program must be non-empty DLX assembly")
        dmem_bits = spec.get("dmem_bits", 6)
        if not isinstance(dmem_bits, int) or not 2 <= dmem_bits <= 12:
            raise BadRequest("machine.dmem_bits must be an int in [2, 12]")
        style = spec.get("style", "chain")
        if style not in FORWARDING_STYLES:
            raise BadRequest(
                f"machine.style must be one of {FORWARDING_STYLES}"
            )
        return {"program": program, "dmem_bits": dmem_bits, "style": style}
    raise BadRequest("machine spec needs either 'core' or 'program'")


def resolve_params(
    defaults: EngineParams, overrides: object
) -> tuple[EngineParams, dict]:
    """Apply whitelisted request overrides onto the server defaults.

    Returns the resolved :class:`EngineParams` and the canonical override
    dict (unknown keys rejected, so a typo'd knob is a 400, not a
    silently different computation).  ``family`` is not an engine
    parameter: it stays in the override dict alone."""
    if overrides is None:
        overrides = {}
    if not isinstance(overrides, Mapping):
        raise BadRequest("params must be an object")
    unknown = sorted(set(overrides) - set(PARAM_KEYS))
    if unknown:
        raise BadRequest(f"unknown params: {', '.join(unknown)}")
    clean: dict = {}
    for key in PARAM_KEYS:
        if key not in overrides:
            continue
        value = overrides[key]
        if key == "family":
            if not isinstance(value, bool):
                raise BadRequest(f"params.{key} must be a boolean")
        elif value is not None and (
            not isinstance(value, int) or isinstance(value, bool)
        ):
            raise BadRequest(f"params.{key} must be an integer")
        clean[key] = value
    try:
        params = replace(
            defaults, **{key: clean[key] for key in KEY_PARAMS if key in clean}
        )
    except ValueError as exc:  # out of range: EngineParams.__post_init__
        raise BadRequest(f"params: {exc}") from None
    return params, clean


def job_key(machine_spec: dict, params: EngineParams) -> str:
    """Content fingerprint identifying one discharge computation."""
    body = {
        "machine": machine_spec,
        "params": {key: getattr(params, key) for key in KEY_PARAMS},
    }
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:24]


def machine_label(machine_spec: dict) -> str:
    if "core" in machine_spec:
        width = machine_spec.get("width")
        suffix = f"@{width}" if width is not None else ""
        return f"{machine_spec['core']}{suffix}"
    return f"program[{len(machine_spec['program'])}B]"


def build_pipelined(machine_spec: dict) -> PipelinedMachine:
    """Materialise the machine a request names (catalog core or DLX
    assembly), transformed and ready for obligation generation."""
    if "core" in machine_spec:
        from ..faults.catalog import CORES

        builder = CORES[machine_spec["core"]].build_machine
        width = machine_spec.get("width")
        try:
            machine = builder() if width is None else builder(word=width)
        except ValueError as exc:
            raise BadRequest(f"machine.width: {exc}")
        return transform(machine)
    from ..core import TransformOptions
    from ..dlx import DlxConfig, assemble, build_dlx_machine

    try:
        program = assemble(machine_spec["program"])
    except Exception as exc:
        raise BadRequest(f"assembly error: {exc}")
    # size the instruction memory to the program (the cli sizing rule):
    # smaller memories mean smaller formal state with identical behaviour
    imem_bits = max(4, math.ceil(math.log2(len(program) + 4)))
    machine = build_dlx_machine(
        program,
        config=DlxConfig(
            imem_addr_width=imem_bits,
            dmem_addr_width=machine_spec["dmem_bits"],
        ),
    )
    return transform(
        machine, TransformOptions(forwarding_style=machine_spec["style"])
    )


def outcome_event(key: str, outcome_dict: dict) -> dict:
    """The ``verdict`` NDJSON event for one obligation outcome."""
    return {"type": "verdict", "job": key, **outcome_dict}


def encode_event(event: dict) -> bytes:
    return (json.dumps(event, sort_keys=True) + "\n").encode()


def outcome_to_wire(outcome: JobOutcome) -> dict:
    """The JSON-safe view of a :class:`JobOutcome` that crosses the wire
    (and the journal): the full ``to_dict`` payload."""
    return outcome.to_dict()
