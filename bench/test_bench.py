"""Tests of the benchmark itself (not of the package).

    python3 -m pytest bench -q

They use small inputs and take a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run._import_package()

from fracneumann import Params, cli, grids, solvers  # noqa: E402

import gate  # noqa: E402
from inputs import make_inputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from spans import (  # noqa: E402
    MATVEC,
    NO_ROLE,
    SGS,
    SLE,
    SolveProbe,
    Tracer,
    annotate,
    layer_metrics,
)

HERE = Path(__file__).resolve().parent


def _traced(fn):
    """Run ``fn`` under a fresh probe and tracer; return (spans, solves, value)."""
    probe, tracer = SolveProbe(), Tracer()
    try:
        tracer.install(1)
        try:
            value = fn()
        finally:
            tracer.uninstall()
    finally:
        probe.close()
    return tracer.spans, probe.solves, value


def _small_cli_sweep(tmp_path):
    """Ground state, two Neumann solves (one on the constant branch)."""
    argv = [
        "sweep", "--d-max", "0.3", "--d-min", "0.2", "--points", "2",
        "--out", str(tmp_path / "s.csv"),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _small_ladder(seed: int):
    inputs = make_inputs(seed)
    ground = solvers.solve_ground_state(Params(), grids.build_line_grid(60.0, 0.05))

    def policy(params):
        return solvers.default_grid_policy(params, inputs.a, inputs.b)

    def once():
        return solvers.sweep([0.4, 0.2], Params(), grid_policy=policy, ground=ground)

    return once


@pytest.fixture(scope="module")
def cli_trace(tmp_path_factory):
    return _traced(lambda: _small_cli_sweep(tmp_path_factory.mktemp("cli")))


def test_every_product_has_a_known_role(cli_trace):
    spans, solves, status = cli_trace
    assert status == 0
    facts = annotate(spans)
    roles = [f.role for sp, f in zip(spans, facts) if sp.name == MATVEC]
    assert roles and NO_ROLE not in roles
    assert {"extend", "seminorm", "residual", "line"} <= set(roles)
    assert [sv.kind for sv in solves] == [SGS, SLE, SLE]


def test_child_spans_stay_inside_their_parent(cli_trace):
    spans, _, _ = cli_trace
    facts = annotate(spans)
    for sp in spans:
        if sp.parent >= 0:
            up = spans[sp.parent]
            assert up.start <= sp.start <= sp.end <= up.end
    # children of one span run one after another, so their durations
    # never add up to more than the parent's: self time is nonnegative
    for sp, fact in zip(spans, facts):
        assert fact.child_time <= sp.duration
    metrics = layer_metrics(spans, [])
    assert metrics["solvers.solve_least_energy.self_s"] >= 0.0
    assert metrics["kernel.matvec.line_s"] > 0.0


def test_counts_repeat_across_traced_runs():
    once = _small_ladder(seed=3)
    counts = []
    for _ in range(2):
        spans, solves, _ = _traced(once)
        m = layer_metrics(spans, solves)
        counts.append(
            (m["kernel.matvec.calls"], m["neumann.extend.calls"], m["solvers.iterations"])
        )
    assert counts[0] == counts[1]
    assert counts[0][0] > 0 and counts[0][2] > 0


def _ground_pass():
    return _traced(
        lambda: solvers.solve_ground_state(Params(), grids.build_line_grid(60.0, 0.05))
    )


def test_perturbed_reference_is_a_failure():
    _, solves, _ = _ground_pass()
    key = "h=0.05"
    value = gate.load_reference("sweep-cli")["ground"][key]
    good = {"least_energy": {}, "ground": {key: value}}
    assert gate.check_pass(solves, good) == {}

    nudged = [value[0] * (1.0 + 100.0 * gate.REFERENCE_RTOL)]
    bad = gate.check_pass(solves, {"least_energy": {}, "ground": {key: nudged}})
    assert list(bad) == [0]

    extra = {"least_energy": {}, "ground": {key: value, "h=0.025": [1.0]}}
    assert list(gate.check_pass(solves, extra)) == [-1]


def test_seeds_keep_the_defaults_and_translate_exactly():
    zero = make_inputs(0)
    assert (zero.a, zero.b) == (0.0, 1.0)
    assert zero.ladder == tuple(float(d) for d in np.geomspace(2.0, 0.02, 13))
    for seed in range(1, 20):
        inp = make_inputs(seed)
        assert inp == make_inputs(seed)
        assert inp.b - inp.a == 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "coarse-ladder",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_benchmark_json_names_what_run_reports(cli_trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"][1] == f"{HERE.name}/run.py"
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    spans, solves, _ = cli_trace
    emitted = set(layer_metrics(spans, solves)) | set(run.SOLVE_PERCENTILES)
    emitted.add("trace.overhead_frac")
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(layer) == emitted
    assert all(layer[k] == run._layer_unit(k) for k in layer)
