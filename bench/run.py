#!/usr/bin/env python3
"""Benchmark of the fracneumann package.

Run from the repository root:

    python3 bench/run.py --workload sweep-cli --seed 0 --seconds 45 --trace 0

The package is imported from ``src/`` next to this directory; nothing
is installed.  Set-up is timed in fresh child processes; passes then
repeat back to back until ``--seconds`` is used up (at least
``MIN_PASSES``).  Pass times are reported as the median pass, solve
latencies from each solve's median repeat.  A fixed reference task
runs after every set-up sample and every pass, for a tenth of its time,
and each of them is divided by the host slowdown measured just before
and just after it (see hostspeed.py): on the shared 2-core VM this
benchmark was built on, the same pass ran 1.3x slower in one set of
runs than in another twenty minutes earlier.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1``
the first half of the time runs untraced and the second half traced,
and the line carries the per-layer metrics.  Lines before it, starting with ``#``, give the
environment, every pass, the gate verdicts and each metric with its
unit and sample count.

Workloads, metrics and what they are for: see README.md here.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
# Untraced passes per run, at least: the repeat check needs two, and the
# first pass of a process runs slower while the allocator and scipy's
# FFT plan cache fill, so a median needs a third.
MIN_PASSES = 3
SETUP_TIMEOUT_S = 120
# Seconds of reference task per second of set-up or pass measured.
CAL_SHARE = 0.1
WORKLOAD_NAMES = ("sweep-cli", "coarse-ladder")

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Per-call solve latency, reported as per-layer metrics of ``solvers``:
# too few repeats per run on sweep-cli to carry a bound (see README.md).
SOLVE_PERCENTILES = {"solvers.solve_p50_s": 0.5, "solvers.solve_p90_s": 0.9}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _import_package() -> None:
    """Import fracneumann from this checkout's src/, never from elsewhere."""
    init = SRC / "fracneumann" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import fracneumann

    if Path(fracneumann.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: fracneumann imported from {fracneumann.__file__}")


def _setup(workload_name: str, seed: int):
    """Everything a pass needs: package import, inputs, reused prerequisites."""
    _import_package()
    from inputs import make_inputs
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    inputs = make_inputs(seed)
    return workload, inputs


def _time_setups(args: argparse.Namespace, host) -> tuple[list[float], list[float]]:
    """Fresh-process set-up times, from spawn to the first pass being ready.

    Returns the raw times and the host slowdown around each.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    samples, slowdowns = [], []
    host.sample(CAL_SHARE)
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe failed: {err.strip()}")
        samples.append(ready - start)
        slowdowns.append(host.after(CAL_SHARE * samples[-1]))
        print(f"# set-up sample {samples[-1]:.6f} s slowdown={slowdowns[-1]:.4f}")
    return samples, slowdowns


def _solve_percentiles(
    latencies: list[list[float]], slowdowns: list[float]
) -> tuple[dict[str, float], str]:
    """Solve latency percentiles of the untraced passes, and their sample count.

    Every pass repeats the same solves.  Each latency is divided by the
    host slowdown around its pass, each solve keeps its median repeat,
    and the percentiles run over the distinct solves.
    """
    import numpy as np

    scaled = [[t / f for t in lat] for lat, f in zip(latencies, slowdowns)]
    typical = [statistics.median(rs) for rs in zip(*scaled)]
    print("# solve_median_s " + json.dumps(typical))
    values = {k: float(np.quantile(typical, q)) for k, q in SOLVE_PERCENTILES.items()}
    return values, f"{len(typical)} solves x {len(latencies)} repeats"


@dataclass
class RunLog:
    """What the passes of one invocation measured and found."""

    untraced_walls: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    host: object = None  # hostspeed.HostSpeed, sampled after every pass
    # host slowdown around each untraced / traced pass
    untraced_slow: list[float] = field(default_factory=list)
    traced_slow: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    latencies: list[list[float]] = field(default_factory=list)  # per pass
    hashes: list[str] = field(default_factory=list)
    per_layer: list[dict[str, float]] = field(default_factory=list)
    spans: list = field(default_factory=list)  # every traced pass, in order
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    broken: bool = False  # a pass raised; no further passes are run


def _run_pass(workload, inputs, state, tmpdir, probe, tracer, reference, log, traced):
    from gate import check_pass
    from spans import layer_metrics

    pass_id = len(log.untraced_walls) + len(log.traced_walls) + 1
    first = len(probe.solves)
    if traced:
        tracer.spans.clear()
        tracer.install(pass_id)
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        output = workload.run_pass(inputs, state, tmpdir)
        error = None
    except Exception as exc:  # a failing pass is reported, not fatal
        output, error = None, exc
    finally:
        t1, c1 = time.perf_counter(), time.process_time()
        if traced:
            tracer.uninstall()
    slow = log.host.after(CAL_SHARE * (t1 - t0))
    solves = probe.solves[first:]
    if traced:
        log.traced_walls.append(t1 - t0)
        log.traced_slow.append(slow)
        log.per_layer.append(layer_metrics(tracer.spans, solves))
        log.spans += tracer.spans
    else:
        log.untraced_walls.append(t1 - t0)
        log.untraced_slow.append(slow)
        log.cpus.append(c1 - c0)
        log.latencies.append([sv.seconds for sv in solves])

    bad = check_pass(solves, reference)
    log.problems += [f"pass {pass_id}: {m}" for ms in bad.values() for m in ms]
    digest = "-"
    if error is not None:
        log.problems.append(f"pass {pass_id}: {type(error).__name__}: {error}")
        # the call that raised was attempted even if no solver saw it
        if not any(sv.error is not None for sv in solves):
            log.attempted += 1
            bad[-1] = []
        log.broken = True
    else:
        digest = workload.fingerprint(output, tmpdir)
        log.hashes.append(digest)
        if digest != log.hashes[0]:
            log.problems.append(f"pass {pass_id}: fingerprint {digest} != {log.hashes[0]}")
            bad.update({i: [] for i in range(len(solves))})
    log.attempted += len(solves)
    log.failed += len(bad)
    print(
        f"# pass {pass_id} traced={int(traced)} wall_s={t1 - t0:.6f} "
        f"cpu_s={c1 - c0:.6f} slowdown={slow:.4f} solves={len(solves)} "
        f"sha256={digest} "
        f"solve_s={json.dumps([round(sv.seconds, 6) for sv in solves])}"
    )


def _write_spans(spans: list, workload: str, seed: int) -> Path:
    """One JSON line per span; ``parent`` indexes the spans of the same pass."""
    out = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.jsonl"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as fh:
        for sp in spans:
            fh.write(json.dumps(asdict(sp)) + "\n")
    return out


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    # let ``finally`` blocks stop the set-up child and remove scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from machine import cap_threads

    cap_threads()
    if args.setup_probe:
        workload, inputs = _setup(args.workload, args.seed)
        workload.setup(inputs)
        print("ready", flush=True)
        return 0

    workload, inputs = _setup(args.workload, args.seed)
    from gate import load_reference, solve_problems
    from hostspeed import HostSpeed
    from machine import environment
    from spans import SolveProbe, Tracer, median_metrics

    host = HostSpeed()
    setup_samples, setup_slow = ([], []) if args.trace else _time_setups(args, host)
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(
        f"# inputs domain=({inputs.a!r}, {inputs.b!r}) ladder={list(inputs.ladder)}"
    )

    reference = load_reference(args.workload)
    log = RunLog(host=host)
    probe = SolveProbe()
    tracer = Tracer()
    try:
        state = workload.setup(inputs)
        for sv in probe.solves:
            reasons = solve_problems(sv)
            log.problems += [f"set-up: {m}" for m in reasons]
            log.failed += bool(reasons)
        log.attempted += len(probe.solves)

        # Untraced passes fill the run, or its first half when a traced
        # half follows (then one pass of each suffices).
        phases = [(False, args.seconds / 2.0 if args.trace else args.seconds)]
        if args.trace:
            phases.append((True, args.seconds))
        host.sample(CAL_SHARE)
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmpdir:
            for traced, until in phases:
                walls = log.traced_walls if traced else log.untraced_walls
                min_passes = 1 if args.trace else MIN_PASSES
                while not log.broken and (
                    len(walls) < min_passes
                    or time.perf_counter() - start
                    + statistics.median(walls) * (1.0 + CAL_SHARE)
                    <= until
                ):
                    _run_pass(
                        workload, inputs, state, tmpdir, probe, tracer, reference,
                        log, traced,
                    )
    finally:
        probe.close()

    for msg in log.problems:
        print(f"# FAIL {msg}")
    attempted, failed = max(log.attempted, 1), log.failed
    print(
        f"# gate: {attempted - failed}/{attempted} solves pass, each checked "
        f"against reference.json; "
        f"{len(log.hashes)} pass fingerprints "
        f"{'identical' if len(set(log.hashes)) <= 1 else 'DIFFER'}"
    )

    if log.spans:
        print(f"# spans written to {_write_spans(log.spans, args.workload, args.seed)}")
    if log.broken:  # a pass raised: no metric describes the program's run
        metrics, units, counts = {}, {}, {}
    elif args.trace:
        metrics = median_metrics(log.per_layer)
        latency, latency_count = _solve_percentiles(log.latencies, log.untraced_slow)
        metrics.update(latency)
        metrics["trace.overhead_frac"] = (
            statistics.median(_scaled(log.traced_walls, log.traced_slow))
            / statistics.median(_scaled(log.untraced_walls, log.untraced_slow))
            - 1.0
        )
        units = {k: _layer_unit(k) for k in metrics}
        counts = {k: f"median of {len(log.per_layer)} traced passes" for k in metrics}
        counts.update({k: latency_count for k in latency})
        counts["trace.overhead_frac"] = (
            f"median of {len(log.traced_walls)} traced / "
            f"{len(log.untraced_walls)} untraced passes"
        )
    else:
        slow = log.untraced_slow
        latency, latency_count = _solve_percentiles(log.latencies, slow)
        for name, value in latency.items():
            print(f"# {name} = {value:.6g} s ({latency_count}; no bound)")
        print(
            f"# host slowdown {host.slowdown():.6g}: {host.units} reference units "
            f"in {host.seconds:.3f} s between set-up samples and passes; unscaled "
            f"medians wall_s={statistics.median(log.untraced_walls):.6g} "
            f"cpu_s={statistics.median(log.cpus):.6g} "
            f"setup_s={statistics.median(setup_samples):.6g}"
        )
        metrics = {
            "wall_s": statistics.median(_scaled(log.untraced_walls, slow)),
            "cpu_s": statistics.median(_scaled(log.cpus, slow)),
            "setup_s": statistics.median(_scaled(setup_samples, setup_slow)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        counts = {
            "wall_s": f"median of {len(log.untraced_walls)} passes",
            "cpu_s": f"median of {len(log.cpus)} passes",
            "setup_s": f"median of {len(setup_samples)} fresh processes",
            "peak_rss_mb": "process high-water mark",
        }
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]} ({counts[name]})")
    print(f"# fail_frac = {failed / attempted:.6g} ratio ({attempted} solves)")
    print(
        json.dumps(
            {
                "correct": failed == 0 and not log.problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    k: {"value": v, "unit": units[k]} for k, v in metrics.items()
                },
            }
        )
    )
    return 0


def _scaled(times: list[float], slowdowns: list[float]) -> list[float]:
    """Times divided by the host slowdown measured around each."""
    return [t / f for t, f in zip(times, slowdowns)]


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("madd_rate"):
        return "madd/s"
    if name.endswith("_frac"):
        return "ratio"
    if "_per_" in name:
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
