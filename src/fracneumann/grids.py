"""Cell-centered grids for the 1D nonlocal Neumann laboratory.

Two grid flavours are used throughout:

* :class:`Grid` -- a bounded domain (a, b) surrounded by an exterior
  collar of represented nodes.  The collar is where the nonlocal Neumann
  condition lives.
* :class:`LineGrid` -- a symmetric window [-L, L] standing in for the
  whole real line, used for ground-state computations.

Both flavours place nodes at cell centers with a single uniform spacing
``h``, so the domain endpoints fall midway between adjacent nodes and no
node ever sits exactly on the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "Params",
    "Grid",
    "LineGrid",
    "build_grid",
    "build_line_grid",
]

# Node coordinates must drift from perfect uniformity by less than this
# relative amount (checked in Grid.__post_init__).
_SPACING_RTOL = 1e-12

# Alignment slack when deciding whether h divides an interval length.
_DIVISIBILITY_RTOL = 1e-9

# Most nodes a grid may have.  A Neumann solve holds about 135 bytes a
# node (66 MB above the interpreter's 31 MB at 500 000 nodes, d = 0.01),
# so a grid at the cap needs about 0.6 GB; the default ladder's largest
# grid, 125 000 nodes at d = 0.02, is a 33rd of it.
_MAX_NODES = 2**22


@dataclass(frozen=True)
class Params:
    """Problem exponents and the diffusion parameter.

    The lab computes in dimension n = 1: ``s`` is the fractional order,
    ``p`` the nonlinearity exponent and ``d`` the diffusion coefficient.
    The paper assumes n > max{1, 2s}, so every run lies outside its
    hypothesis; the strict xfails listed in README "Known expected
    failures" record where the measured small-d picture departs from it.
    """

    s: float = 0.25
    p: float = 1.5
    d: float = 1.0

    def __post_init__(self) -> None:
        for name in ("s", "p", "d"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"parameter {name} must be finite")
        if not 0.0 < self.s < 0.5:  # 2s < n at n = 1
            raise ValueError(f"fractional order s must lie in (0, 1/2), got {self.s}")
        if self.p <= 1.0:
            raise ValueError(f"exponent p must exceed 1, got {self.p}")
        if self.d <= 0.0:
            raise ValueError(f"diffusion d must be positive, got {self.d}")

    @property
    def p_max_neumann(self) -> float:
        """Upper exponent bound (n + s)/(n - s) for Neumann runs, at n = 1."""
        return (1.0 + self.s) / (1.0 - self.s)

    @property
    def p_max_whole_space(self) -> float:
        """Upper exponent bound (n + 2s)/(n - 2s) for whole-space runs, at n = 1."""
        return (1.0 + 2.0 * self.s) / (1.0 - 2.0 * self.s)

    @property
    def intrinsic_scale(self) -> float:
        """Peak width d**(1/(2s)) of the concentration regime."""
        return self.d ** (1.0 / (2.0 * self.s))

    def require_neumann_exponent(self) -> None:
        if self.p >= self.p_max_neumann:
            raise ValueError(
                f"Neumann runs need p < (n+s)/(n-s) = {self.p_max_neumann:.6g}, "
                f"got p = {self.p}"
            )

    def require_whole_space_exponent(self) -> None:
        if self.p >= self.p_max_whole_space:
            raise ValueError(
                f"whole-space runs need p < (n+2s)/(n-2s) = "
                f"{self.p_max_whole_space:.6g}, got p = {self.p}"
            )


def _check_uniform(nodes: np.ndarray, h: float) -> None:
    if nodes.ndim != 1 or nodes.size < 2:
        raise ValueError("a grid needs at least two nodes")
    gaps = np.diff(nodes)
    if np.any(gaps <= 0.0):
        raise ValueError("grid nodes must be strictly increasing")
    # the epsilon floor covers coordinate rounding on windows whose
    # extent is many orders above the spacing
    tol = _SPACING_RTOL * h + 16.0 * np.finfo(np.float64).eps * float(
        np.max(np.abs(nodes))
    )
    if np.max(np.abs(gaps - h)) > tol:
        raise ValueError("grid spacing must be uniform to relative 1e-12")


@dataclass(frozen=True, eq=False)
class Grid:
    """Bounded domain (a, b) plus exterior collar, cell-centered nodes.

    ``interior`` is derived: it marks the nodes inside the open interval
    (a, b), and everything else belongs to the collar.  Construct
    through :func:`build_grid` for validated, production-sized grids;
    direct construction is open for small hand-built fixtures.  Grids
    compare by identity, like the other array-holding classes;
    ``neumann._check_same_grid`` compares (a, b) and nodes by value.
    """

    a: float
    b: float
    h: float
    r_ext: float
    nodes: np.ndarray
    interior: np.ndarray = field(init=False, repr=False)
    # Half-open index range [lo, hi) of the interior block; the nodes
    # increase, so the open-interval test marks one contiguous run.
    interior_range: tuple[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_uniform(self.nodes, self.h)
        interior = (self.nodes > self.a) & (self.nodes < self.b)
        if not interior.any():
            raise ValueError("grid has no interior nodes")
        interior.flags.writeable = False
        idx = np.flatnonzero(interior)
        object.__setattr__(self, "interior", interior)
        object.__setattr__(self, "interior_range", (int(idx[0]), int(idx[-1]) + 1))

    def integrate(self, f: np.ndarray) -> float:
        """Midpoint rule h * sum(f) of cell values ``f``, with np.sum's bits."""
        return self.h * float(np.add.reduce(f, axis=None))

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def n_interior(self) -> int:
        lo, hi = self.interior_range
        return hi - lo

    @property
    def interior_nodes(self) -> np.ndarray:
        """Read-only view of the nodes inside (a, b)."""
        lo, hi = self.interior_range
        view = self.nodes[lo:hi]
        view.flags.writeable = False
        return view


@dataclass(frozen=True, eq=False)
class LineGrid:
    """Symmetric whole-space window [-L, L] with cell-centered nodes.

    Nodes come in exact plus/minus pairs and none sits at the origin,
    which keeps even-symmetry projections lossless.
    """

    half_width: float
    h: float
    nodes: np.ndarray

    def __post_init__(self) -> None:
        _check_uniform(self.nodes, self.h)
        if self.nodes.size % 2 != 0:
            raise ValueError("symmetric window needs an even node count")
        if abs(self.nodes[0] + self.nodes[-1]) > _SPACING_RTOL * self.half_width:
            raise ValueError("window nodes must be symmetric about the origin")

    n_nodes = Grid.n_nodes
    integrate = Grid.integrate


def _cell_count(length: float, h: float, what: str) -> int:
    count = round(length / h)
    if count < 1 or abs(count * h - length) > _DIVISIBILITY_RTOL * length:
        raise ValueError(
            f"spacing h = {h!r} must evenly divide the {what} length {length!r}"
        )
    return count


def _check_node_count(width: float, h: float) -> None:
    """Refuse a grid of spacing h across ``width`` above ``_MAX_NODES``."""
    count = width / h
    if count > _MAX_NODES:
        raise ValueError(
            f"spacing h = {h!r} across a window of width {width!r} asks for "
            f"{count:.4g} nodes, above the cap of {_MAX_NODES}"
        )


def build_grid(a: float, b: float, h: float, r_ext: float | None = None) -> Grid:
    """Build the Neumann grid for domain (a, b) with collar half-width r_ext.

    Parameters
    ----------
    a, b:
        Domain endpoints, a < b.
    h:
        Cell width.  Must divide b - a and satisfy h < (b - a)/8 so the
        domain is resolved by at least eight cells, and the window may
        hold at most ``_MAX_NODES`` (2^22) nodes.
    r_ext:
        Collar half-width; the represented window covers
        [a - r_ext, b + r_ext].  Must be at least 2(b - a), the default.

    Returns
    -------
    Grid
        Cell-centered grid whose interior nodes are exactly those inside
        (a, b); a and b fall midway between adjacent nodes.  Equal
        arguments return one shared grid with read-only ``nodes`` and
        ``interior``.
    """
    if r_ext is None:
        r_ext = 2.0 * (b - a)
    for name, value in (("a", a), ("b", b), ("h", h), ("r_ext", r_ext)):
        if not math.isfinite(value):
            raise ValueError(f"build_grid argument {name} must be finite")
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    if h <= 0.0:
        raise ValueError(f"spacing h must be positive, got {h}")
    if h >= (b - a) / 8.0:
        raise ValueError(
            f"h = {h} is too coarse: need h < (b - a)/8 = {(b - a) / 8.0}"
        )
    if r_ext < 2.0 * (b - a):
        raise ValueError(
            f"collar half-width r_ext = {r_ext} must be at least 2(b - a) = "
            f"{2.0 * (b - a)}"
        )
    _check_node_count(b - a + 2.0 * r_ext, h)
    return _shared_grid(float(a), float(b), float(h), float(r_ext))


@lru_cache(maxsize=16)
def _shared_grid(a: float, b: float, h: float, r_ext: float) -> Grid:
    """One read-only grid per validated (a, b, h, r_ext); holds a sweep."""
    n_int = _cell_count(b - a, h, "domain")
    h_eff = (b - a) / n_int
    # Collar cell count rounds up so the window always covers r_ext.
    n_ext = math.ceil(r_ext / h_eff - _DIVISIBILITY_RTOL)

    offsets = np.arange(-n_ext, n_int + n_ext, dtype=np.float64) + 0.5
    nodes = a + offsets * h_eff
    nodes.flags.writeable = False
    return Grid(a=a, b=b, h=h_eff, r_ext=r_ext, nodes=nodes)


def build_line_grid(half_width: float, h: float) -> LineGrid:
    """Build the symmetric whole-space window [-L, L] with spacing h.

    h must evenly divide the half-width so the node set is symmetric,
    and the window may hold at most ``_MAX_NODES`` (2^22) nodes.
    Equal arguments return one shared grid with read-only ``nodes``.
    """
    if not (math.isfinite(half_width) and math.isfinite(h)):
        raise ValueError("build_line_grid arguments must be finite")
    if half_width <= 0.0 or h <= 0.0:
        raise ValueError("half_width and h must be positive")
    if h >= half_width / 4.0:
        raise ValueError(
            f"h = {h} is too coarse for half-width {half_width}: need h < L/4"
        )
    _check_node_count(2.0 * half_width, h)
    return _shared_line_grid(float(half_width), float(h))


@lru_cache(maxsize=16)
def _shared_line_grid(half_width: float, h: float) -> LineGrid:
    """One read-only line grid per validated (half_width, h)."""
    n_half = _cell_count(half_width, h, "half-window")
    h_eff = half_width / n_half
    offsets = np.arange(-n_half, n_half, dtype=np.float64) + 0.5
    nodes = offsets * h_eff
    nodes.flags.writeable = False
    return LineGrid(half_width=half_width, h=h_eff, nodes=nodes)
