"""The known-answer table every benchmark verdict is checked against.

``expected.json`` pins, for each catalog core, the datapath widths the
workloads discharge it at and the exact obligation-id set with the status
a correct design must reach: ``proved`` for invariant and equivalence
obligations, ``trace-ok`` for trace checks.  The statuses follow from the
obligation kinds, not from a discharge run.  Pinning the id set means a
change that drops obligations cannot look faster.  One table per core
covers all of its widths; :func:`derive` refuses to write the file if
any width generates a different id set.

Regenerate after a deliberate change to obligation generation with::

    PYTHONPATH=src python benchmarks/e2e/known.py
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# every width a workload runs each core at: the catalog widths of the
# batch suites, the dlx-small family of the sweep, and the toy widths the
# service requests
WIDTHS = {
    "toy": tuple(range(8, 57)),
    "dlx-small": (32, 48, 64),
    "dlx-spec": (32,),
}


def machine_key(core: str, width: int) -> str:
    return f"{core}@{width}"


def load(path: Path = EXPECTED_PATH) -> dict[str, dict[str, str]]:
    """``core@width -> {oid: status}`` for every pinned machine."""
    with open(path) as handle:
        cores = json.load(handle)["cores"]
    return {
        machine_key(core, width): entry["obligations"]
        for core, entry in cores.items()
        for width in entry["widths"]
    }


def mismatches(expected: dict[str, str], verdicts: dict[str, str]) -> list[str]:
    """Every way one suite's ``oid -> status`` map departs from the table:
    a missing oid, an extra oid, or a differing status."""
    problems = [f"missing {oid}" for oid in sorted(set(expected) - set(verdicts))]
    problems += [f"extra {oid}" for oid in sorted(set(verdicts) - set(expected))]
    problems += [
        f"{oid}: {verdicts[oid]} != {status}"
        for oid, status in sorted(expected.items())
        if oid in verdicts and verdicts[oid] != status
    ]
    return problems


def derive() -> dict[str, dict]:
    """The table from the obligation kinds of every pinned machine."""
    from repro.core import transform
    from repro.faults.catalog import CORES
    from repro.proofs import generate_obligations
    from repro.proofs.obligations import ObligationKind

    cores: dict[str, dict] = {}
    for core, widths in WIDTHS.items():
        tables = []
        for width in widths:
            pipelined = transform(CORES[core].build_machine(word=width))
            tables.append({
                obligation.oid: "trace-ok"
                if obligation.kind is ObligationKind.TRACE
                else "proved"
                for obligation in generate_obligations(pipelined)
            })
        if any(table != tables[0] for table in tables):
            raise ValueError(f"{core}: the obligation set depends on the width")
        cores[core] = {"widths": list(widths), "obligations": tables[0]}
    return cores


if __name__ == "__main__":
    cores = derive()
    with open(EXPECTED_PATH, "w") as handle:
        json.dump({"cores": cores}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for core, entry in cores.items():
        print(f"{core}: {len(entry['obligations'])} obligations"
              f" at {len(entry['widths'])} width(s)")
