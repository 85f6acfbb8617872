#!/usr/bin/env python3
"""Write reference.json: seed-0 values of c_d, sup u and F per workload.

    python3 bench/make_reference.py

Run it only when a change is meant to move the solutions, and say so
where the change is described; the gate in gate.py compares every
seed-0 pass against this file.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets up the import of the package from src/)


def main() -> int:
    from machine import cap_threads

    cap_threads()
    run._import_package()
    from gate import REFERENCE_FILE, reference_values
    from inputs import make_inputs
    from spans import SolveProbe
    from workloads import WORKLOADS

    inputs = make_inputs(0)
    out = {}
    for name, workload in WORKLOADS.items():
        state = workload.setup(inputs)
        probe = SolveProbe()
        try:
            with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=run.ROOT) as tmp:
                workload.run_pass(inputs, state, tmp)
        finally:
            probe.close()
        out[name] = reference_values(probe.solves)
        print(name, {k: len(v) for k, v in out[name].items()}, flush=True)
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
