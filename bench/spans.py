"""Spans around the calls into each layer, recorded from outside the package.

The package is not edited: every public function of a layer is replaced,
for the length of a traced pass, by a wrapper that appends one span
(name, start, end, parent, pass id, work) to an in-memory list.  A
function is replaced under every name it is bound to in the package, so
calls that go through ``from .x import f`` bindings are seen as well:
``solvers`` imports ``extend``, ``kernel_weights`` and
``frac_laplacian_apply`` by name, ``cli`` imports ``sweep`` and
``solve_ground_state`` by name, and ``J_d`` reaches ``seminorm_T``
through the ``energy`` module globals.

``moser`` is closed-form arithmetic that no timed path calls, so it gets
no span.
"""

from __future__ import annotations

import functools
import statistics
from dataclasses import dataclass
from time import perf_counter
from types import ModuleType
from typing import Callable

import fracneumann
from fracneumann import cli, energy, grids, harness, kernel, moser, neumann, solvers

MODULES: tuple[ModuleType, ...] = (
    fracneumann, grids, kernel, neumann, energy, solvers, harness, cli, moser,
)

SLE = "solvers.solve_least_energy"
SGS = "solvers.solve_ground_state"
MATVEC = "kernel.matvec"
EXTEND = "neumann.extend"

# span name -> (owner, attribute) of the original definition
TRACED: dict[str, tuple[object, str]] = {
    MATVEC: (kernel.KernelTable, "matvec"),
    "kernel.row_sums": (kernel.KernelTable, "row_sums"),
    "kernel.frac_laplacian_apply": (kernel, "frac_laplacian_apply"),
    "kernel.kernel_weights": (kernel, "kernel_weights"),
    EXTEND: (neumann, "extend"),
    "energy.seminorm_T": (energy, "seminorm_T"),
    "energy.J_d": (energy, "J_d"),
    SLE: (solvers, "solve_least_energy"),
    SGS: (solvers, "solve_ground_state"),
    "solvers.sweep": (solvers, "sweep"),
    "grids.build_grid": (grids, "build_grid"),
    "grids.build_line_grid": (grids, "build_line_grid"),
    "harness.write_sweep_csv": (harness, "write_sweep_csv"),
    "cli.main": (cli, "main"),
}

# A Toeplitz product takes the role of its nearest wrapped caller.
ROLE_OF = {
    EXTEND: "extend",
    "energy.seminorm_T": "seminorm",
    SLE: "residual",
    SGS: "line",
    "kernel.frac_laplacian_apply": "line",
}
ROLES = ("extend", "seminorm", "residual", "line")
NO_ROLE = "other"  # a product none of the above called; the tests forbid it


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    pass_id: int
    madds: int  # dense-equivalent rows x cols, Toeplitz products only

    @property
    def duration(self) -> float:
        return self.end - self.start


def _madds(args: tuple, kwargs: dict) -> int:
    # KernelTable.matvec(self, x, row_lo, row_hi, col_lo, col_hi, ...)
    names = ("row_lo", "row_hi", "col_lo", "col_hi")
    vals = list(args[2:6]) + [kwargs[k] for k in names[len(args[2:6]):]]
    row_lo, row_hi, col_lo, col_hi = vals
    return max(row_hi - row_lo, 0) * (col_hi - col_lo)


def rebind(original: Callable, replacement: Callable) -> list[tuple[object, str, Callable]]:
    """Bind ``replacement`` wherever the package binds ``original``.

    Returns the (owner, name, old value) triples that ``restore`` needs.
    """
    undo = []
    owners: list[object] = list(MODULES) + [kernel.KernelTable]
    for owner in owners:
        for name, value in list(vars(owner).items()):
            if value is original:
                undo.append((owner, name, value))
                setattr(owner, name, replacement)
    if not undo:
        raise RuntimeError(f"no binding of {original!r} found in the package")
    return undo


def restore(undo: list[tuple[object, str, Callable]]) -> None:
    for owner, name, value in reversed(undo):
        setattr(owner, name, value)


class Tracer:
    """Collects spans while installed; ``install``/``uninstall`` bracket a pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        count_madds = name == MATVEC

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)  # reserve the slot so children index after it
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                work = _madds(args, kwargs) if count_madds else 0
                spans[idx] = Span(name, start, end, parent, self.pass_id, work)

        return wrapper

    def install(self, pass_id: int) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        self.pass_id = pass_id
        for name, (owner, attr) in TRACED.items():
            original = vars(owner)[attr]
            self._undo += rebind(original, self._wrap(name, original))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []
        if self._stack:
            raise RuntimeError("spans left open after the pass")


@dataclass
class Solve:
    """One outermost solver call seen by ``SolveProbe``."""

    kind: str  # SLE or SGS
    args: tuple
    seconds: float
    result: object = None
    error: BaseException | None = None


class SolveProbe:
    """Times and keeps every outermost solver call, traced or not.

    The per-solve latencies and the correctness gate both read these
    records.  A solve nested in another (the restart inside
    ``solve_least_energy``) belongs to its outer call.
    """

    def __init__(self) -> None:
        self.solves: list[Solve] = []
        self._depth = 0
        self._undo: list[tuple[object, str, Callable]] = []
        for kind in (SLE, SGS):
            owner, attr = TRACED[kind]
            original = vars(owner)[attr]
            self._undo += rebind(original, self._wrap(kind, original))

    def _wrap(self, kind: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.solves.append(Solve(kind, args, perf_counter() - start, error=exc))
                raise
            finally:
                self._depth -= 1
            self.solves.append(Solve(kind, args, perf_counter() - start, result))
            return result

        return wrapper

    def close(self) -> None:
        restore(self._undo)
        self._undo = []


@dataclass
class SpanFacts:
    """What ``annotate`` derives for one span from its ancestors."""

    role: str  # from the nearest ROLE_OF caller, NO_ROLE when there is none
    under_sle: bool  # some ancestor is solve_least_energy
    outer: bool  # no ancestor has the same name
    child_time: float  # summed durations of the direct children


def annotate(spans: list[Span]) -> list[SpanFacts]:
    """Role, nesting and child time of every span, in one forward pass.

    Spans are stored in start order, so a parent always precedes its
    children.
    """
    facts: list[SpanFacts] = []
    names: list[frozenset[str]] = []
    for sp in spans:
        if sp.parent >= 0:
            up, above = facts[sp.parent], names[sp.parent]
            up.child_time += sp.duration
            role = up.role
            under_sle = up.under_sle or spans[sp.parent].name == SLE
        else:
            above, role, under_sle = frozenset(), NO_ROLE, False
        facts.append(
            SpanFacts(ROLE_OF.get(sp.name, role), under_sle, sp.name not in above, 0.0)
        )
        names.append(above | {sp.name})
    return facts


def layer_metrics(spans: list[Span], solves: list[Solve]) -> dict[str, float]:
    """Per-layer totals of one traced pass.

    Busy time counts only the outermost span of a name (the restart of
    ``solve_least_energy`` nests one solve in another); self time is a
    span's duration minus the durations of its direct children, which
    run one after another and so never overlap.
    """
    facts = annotate(spans)
    calls: dict[str, int] = {name: 0 for name in TRACED}
    busy: dict[str, float] = {name: 0.0 for name in TRACED}
    self_s: dict[str, float] = {name: 0.0 for name in TRACED}
    role_s = {r: 0.0 for r in ROLES + (NO_ROLE,)}
    madds = 0
    sle_matvecs = sle_extends = 0
    for sp, fact in zip(spans, facts):
        calls[sp.name] += 1
        if fact.outer:
            busy[sp.name] += sp.duration
        self_s[sp.name] += sp.duration - fact.child_time
        if sp.name == MATVEC:
            madds += sp.madds
            role_s[fact.role] += sp.duration
            sle_matvecs += fact.under_sle
        elif sp.name == EXTEND:
            sle_extends += fact.under_sle

    mv_busy = busy[MATVEC]
    out = {
        "kernel.matvec.calls": calls[MATVEC],
        "kernel.matvec.busy_s": mv_busy,
        "kernel.matvec.madds": madds,
        "kernel.matvec.madd_rate": madds / mv_busy if mv_busy > 0 else 0.0,
        "kernel.matvec.extend_s": role_s["extend"],
        "kernel.matvec.seminorm_s": role_s["seminorm"],
        "kernel.matvec.residual_s": role_s["residual"],
        "kernel.matvec.line_s": role_s["line"],
        "kernel.row_sums.calls": calls["kernel.row_sums"],
        "kernel.row_sums.busy_s": busy["kernel.row_sums"],
        "kernel.frac_laplacian_apply.calls": calls["kernel.frac_laplacian_apply"],
        "kernel.frac_laplacian_apply.busy_s": busy["kernel.frac_laplacian_apply"],
        "kernel.kernel_weights.busy_s": busy["kernel.kernel_weights"],
        "neumann.extend.calls": calls[EXTEND],
        "neumann.extend.busy_s": busy[EXTEND],
        "neumann.extend.self_s": self_s[EXTEND],
        "energy.seminorm_T.calls": calls["energy.seminorm_T"],
        "energy.seminorm_T.busy_s": busy["energy.seminorm_T"],
        "energy.seminorm_T.self_s": self_s["energy.seminorm_T"],
        "energy.J_d.calls": calls["energy.J_d"],
        "energy.J_d.busy_s": busy["energy.J_d"],
        "solvers.solve_least_energy.busy_s": busy[SLE],
        "solvers.solve_least_energy.self_s": self_s[SLE],
        "solvers.solve_ground_state.busy_s": busy[SGS],
        "solvers.solve_ground_state.self_s": self_s[SGS],
        "solvers.products_per_projection": (
            sle_matvecs / sle_extends if sle_extends else 0.0
        ),
        "grids.build.busy_s": busy["grids.build_grid"] + busy["grids.build_line_grid"],
        "harness.write_sweep_csv.busy_s": busy["harness.write_sweep_csv"],
        "cli.main.self_s": self_s["cli.main"],
    }
    done = [sv for sv in solves if sv.error is None]
    le_iters = sum(sv.result.iterations for sv in done if sv.kind == SLE)
    out["solvers.iterations"] = sum(sv.result.iterations for sv in done)
    out["solvers.constant_branch_iterations"] = sum(
        sv.result.iterations
        for sv in done
        if sv.kind == SLE and sv.result.constant_branch
    )
    out["solvers.projections_per_iteration"] = (
        sle_extends / le_iters if le_iters else 0.0
    )
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of every metric over the traced passes."""
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
