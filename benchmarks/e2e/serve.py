"""``repro serve`` under a host-pace sampler, for the service workload.

Usage (with the source tree on ``PYTHONPATH``)::

    python3 benchmarks/e2e/serve.py SAMPLES [repro serve options]...

Runs the server in this process beside a :class:`pace.Sampler` and, once
the server has drained and returned, writes the sampler's probes to the
JSON file SAMPLES, from which the benchmark paces its request times.
"""

from __future__ import annotations

import json
import sys

from pace import Sampler


def main(argv: list[str]) -> int:
    samples, options = argv[0], argv[1:]
    with Sampler() as sampler:
        from repro.cli import main as repro

        code = repro(["serve", *options])
    with open(samples, "w") as handle:
        json.dump(sampler.samples, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
