"""Finite grids for states and actions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridSnapError, IllPosed


@dataclass(frozen=True)
class Grid:
    """Strictly increasing finite list of real points.

    ``kind`` is 'state' or 'action'; it only affects error messages.
    """

    points: np.ndarray
    kind: str = "state"

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise IllPosed(f"{self.kind} grid needs at least 2 points")
        if not np.all(np.isfinite(pts)):
            raise IllPosed(f"{self.kind} grid has non-finite points")
        if not np.all(np.diff(pts) > 0):
            raise IllPosed(f"{self.kind} grid must be strictly increasing")

    def __len__(self) -> int:
        return int(self.points.size)

    @property
    def lo(self) -> float:
        return float(self.points[0])

    @property
    def hi(self) -> float:
        return float(self.points[-1])

    @property
    def span(self) -> float:
        return self.hi - self.lo

    @property
    def max_spacing(self) -> float:
        return float(np.max(np.diff(self.points)))

    def nearest(self, value: float) -> int:
        """Index of the closest grid point."""
        i = int(np.searchsorted(self.points, value))
        if i == 0:
            return 0
        if i >= len(self):
            return len(self) - 1
        return i if self.points[i] - value < value - self.points[i - 1] else i - 1

    def snap(self, value: float) -> int:
        """Nearest index, failing when ``value`` is over half a local cell away."""
        i = self.nearest(value)
        pts = self.points
        left = pts[i] - pts[i - 1] if i > 0 else pts[i + 1] - pts[i]
        right = pts[i + 1] - pts[i] if i < len(self) - 1 else left
        half = 0.5 * max(left, right)
        if abs(pts[i] - value) > half + 1e-12 * max(1.0, abs(value)):
            raise GridSnapError(
                f"{self.kind} value {float(value)!r} is {abs(pts[i]-value):.3e} from the "
                f"nearest grid point; half cell is {half:.3e}"
            )
        return i


def uniform(lo: float, hi: float, n: int, kind: str = "state") -> Grid:
    return Grid(np.linspace(lo, hi, n), kind)


def log_spaced(lo: float, hi: float, n: int, kind: str = "state") -> Grid:
    if lo <= 0:
        raise IllPosed("log-spaced grid needs a positive lower end")
    return Grid(np.exp(np.linspace(np.log(lo), np.log(hi), n)), kind)


def from_points(points, kind: str = "state") -> Grid:
    return Grid(np.asarray(points, dtype=float), kind)


def cell_masses(grid: Grid, density) -> np.ndarray:
    """Prior weights from a density: mass of each point's half-open cell.

    Cells are the midpoint (Voronoi) partition of [lo, hi]; masses integrate
    the density with the trapezoid rule on a refined sub-grid per cell and are
    normalized to sum exactly to one.
    """
    pts = grid.points
    edges = np.concatenate(([pts[0]], 0.5 * (pts[1:] + pts[:-1]), [pts[-1]]))
    masses = np.empty(len(grid))
    for i in range(len(grid)):
        xs = np.linspace(edges[i], edges[i + 1], 9)
        masses[i] = np.trapezoid(density(xs), xs)
    if np.any(masses < 0):
        raise IllPosed("density produced negative cell masses")
    total = masses.sum()
    if total <= 0:
        raise IllPosed("density integrates to zero on the grid range")
    return masses / total
