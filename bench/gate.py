"""Correctness gate: every solve a pass makes is checked before it counts.

Per solve, on every seed:

* a nonconstant least-energy solve has Nehari and flux residuals at most
  ``IDENTITY_TOL`` and sits strictly below the constant branch
  ``J_d_constant``; a constant-branch solve sits on it;
* a ground state has a relative Pohozaev residual at most ``POHOZAEV_TOL``.

On every seed the values of ``c_d``, ``sup u`` and ``F`` are compared
with ``reference.json`` (written by ``make_reference.py``) at relative
tolerance ``REFERENCE_RTOL``: seeds only translate the domain (see
inputs.py), which must not move them.  Across passes of one invocation
the pass fingerprint (a SHA-256 of the sweep CSV) must repeat bitwise.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from fracneumann.solvers import J_d_constant

from spans import SGS, Solve

IDENTITY_TOL = 1e-6
POHOZAEV_TOL = 1e-3
# Measured worst relative differences from reference.json: 4.7e-8 (sup u
# at d = 0.0632 on a translated domain, where the solver's 1e-8 residual
# tolerance shows at first order), 1.5e-9 (OpenBLAS at one thread
# instead of two, sweep-cli), 0 (ground states).  A changed solution,
# such as another basin or a changed discretisation, moves these values
# by 1e-5 or more.
REFERENCE_RTOL = 1e-6
# Constant-branch energies are assembled from h * n_int, which rounds.
CONSTANT_RTOL = 1e-12

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def solve_problems(solve: Solve) -> list[str]:
    """Reasons one solve fails the gate; empty when it passes."""
    if solve.error is not None:
        return [f"raised {type(solve.error).__name__}: {solve.error}"]
    r = solve.result
    if solve.kind == SGS:
        if not r.pohozaev_residual <= POHOZAEV_TOL:
            return [f"ground state Pohozaev residual {r.pohozaev_residual:.3e}"]
        return []
    params, grid = solve.args[0], solve.args[1]
    cap = J_d_constant(grid, params)
    problems = []
    if r.constant_branch:
        if not abs(r.c_d - cap) <= CONSTANT_RTOL * cap:
            problems.append(f"d = {params.d}: constant branch c_d {r.c_d!r} != {cap!r}")
        return problems
    if not r.nehari_residual <= IDENTITY_TOL:
        problems.append(f"d = {params.d}: Nehari residual {r.nehari_residual:.3e}")
    if not r.flux_residual <= IDENTITY_TOL:
        problems.append(f"d = {params.d}: flux residual {r.flux_residual:.3e}")
    if not r.c_d < cap:
        problems.append(f"d = {params.d}: c_d {r.c_d!r} not below J_d(1) = {cap!r}")
    return problems


def load_reference(workload: str) -> dict[str, dict[str, list[float]]]:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)[workload]


def _key(solve: Solve) -> tuple[str, str]:
    """Which reference entry a solve answers to: its d, or its spacing h."""
    if solve.kind == SGS:
        return "ground", f"h={solve.args[1].h:.12g}"
    return "least_energy", f"d={solve.args[0].d:.12g}"


def _values(solve: Solve) -> list[float]:
    r = solve.result
    return [r.F_value] if solve.kind == SGS else [r.c_d, r.M_d]


def reference_values(solves: list[Solve]) -> dict[str, dict[str, list[float]]]:
    """Reference entries of one pass: F per ground spacing, [c_d, sup u] per d."""
    out: dict[str, dict[str, list[float]]] = {"least_energy": {}, "ground": {}}
    for sv in solves:
        kind, key = _key(sv)
        out[kind][key] = _values(sv)
    return out


def check_pass(
    solves: list[Solve], reference: dict[str, dict[str, list[float]]]
) -> dict[int, list[str]]:
    """Problems of one pass, keyed by the index of the failing solve.

    Each solve must pass ``solve_problems`` and match its reference
    entry.  Key -1 collects reference entries no solve of the pass
    answered.
    """
    found: dict[int, list[str]] = {}
    seen: set[tuple[str, str]] = set()
    for i, sv in enumerate(solves):
        reasons = solve_problems(sv)
        kind, key = _key(sv)
        want = reference[kind].get(key)
        if want is None or (kind, key) in seen:
            reasons.append(f"{key}: no reference entry, or solved twice")
        elif sv.error is None:
            for got, ref in zip(_values(sv), want):
                if not math.isclose(got, ref, rel_tol=REFERENCE_RTOL, abs_tol=0.0):
                    reasons.append(f"{key}: {got!r} differs from reference {ref!r}")
        seen.add((kind, key))
        if reasons:
            found[i] = reasons
    missing = [k for kind, ks in reference.items() for k in ks if (kind, k) not in seen]
    if missing:
        found[-1] = [f"no solve for reference entries {missing}"]
    return found
