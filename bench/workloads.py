"""The two benchmark workloads: set-up, one pass, and its fingerprint.

Every workload is a closed loop with one client: the benchmark process
starts the next pass when the previous one has returned.

* ``sweep-cli`` -- ``fracneumann sweep`` run in-process through
  ``cli.main`` into a CSV: the ground state at L = 60, h = 0.05, then the
  first ``SWEEP_POINTS`` points of the default 13-point ladder
  (d = 2.0 down to 0.043, n = 250 to 26 935).  It is the paper's
  headline experiment as a user runs it; its largest grids run on
  scipy's FFT Toeplitz path, so kernel-engine, FFT-count and
  collar-width changes show here.  The last two default points
  (n = 58 020 and 125 000, 51 of the 70 s a full sweep takes on a
  2-core Xeon) are left out so that three passes fit one run.
* ``coarse-ladder`` -- library ``sweep()`` over the first seven ladder
  points (d = 2.0 down to 0.2, n = 250 to 1 250), seeded by a ground
  state solved during set-up.  Every Toeplitz product is on the direct
  path and most solves end on the constant branch, so descent-loop,
  early-exit and per-call-overhead changes show here.

A third workload, ``solve_ground_state`` alone at h = 0.05, 0.025 and
0.0125, was dropped so that the two left fit longer runs; README.md
says why and where its layers are still measured.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass
from typing import Callable

from fracneumann import Params, cli, grids, harness, solvers

from inputs import GROUND_H, GROUND_L, Inputs

SWEEP_POINTS = 11
COARSE_POINTS = 7


@dataclass
class Workload:
    name: str
    # inputs -> state the passes reuse (solved once, during set-up)
    setup: Callable[[Inputs], object]
    # (inputs, state, scratch dir) -> pass output; this call is timed
    run_pass: Callable[[Inputs, object, str], object]
    # (pass output, scratch dir) -> hex digest that must repeat bitwise
    fingerprint: Callable[[object, str], str]


def _no_setup(inputs: Inputs) -> None:
    return None


def _csv_path(tmpdir: str) -> str:
    return os.path.join(tmpdir, "sweep.csv")


def _csv_hash(tmpdir: str) -> str:
    with open(_csv_path(tmpdir), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _sweep_cli_pass(inputs: Inputs, state: None, tmpdir: str) -> None:
    config = os.path.join(tmpdir, "sweep.cfg")
    with open(config, "w") as fh:
        fh.write(f"domain.a = {inputs.a!r}\ndomain.b = {inputs.b!r}\n")
    argv = [
        "--config", config,
        "sweep",
        "--d-max", repr(inputs.ladder[0]),
        "--d-min", repr(inputs.ladder[SWEEP_POINTS - 1]),
        "--points", str(SWEEP_POINTS),
        "--out", _csv_path(tmpdir),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"fracneumann {' '.join(argv)} exited with {status}")


def _sweep_cli_fingerprint(output: None, tmpdir: str) -> str:
    return _csv_hash(tmpdir)


def _ground_seed(inputs: Inputs) -> solvers.GroundStateResult:
    """The ground state a CLI sweep starts from."""
    return solvers.solve_ground_state(
        Params(), grids.build_line_grid(GROUND_L, GROUND_H), solvers.SolverConfig()
    )


def _coarse_pass(
    inputs: Inputs, ground: solvers.GroundStateResult, tmpdir: str
) -> list[solvers.SweepRecord]:
    def policy(params: Params) -> grids.Grid:
        return solvers.default_grid_policy(params, inputs.a, inputs.b)

    return solvers.sweep(
        inputs.ladder[:COARSE_POINTS], Params(), grid_policy=policy, ground=ground
    )


def _coarse_fingerprint(records: list[solvers.SweepRecord], tmpdir: str) -> str:
    harness.write_sweep_csv(_csv_path(tmpdir), records)
    return _csv_hash(tmpdir)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-cli", _no_setup, _sweep_cli_pass, _sweep_cli_fingerprint),
        Workload("coarse-ladder", _ground_seed, _coarse_pass, _coarse_fingerprint),
    )
}
