"""Grids, sampled profiles, interval unions and the exponentially weighted
norms / total variation.

All integrals carry the weight e^x.  Quadrature is composite trapezoid with
the weight evaluated at the nodes (``Grid.quadrature``, ``weighted_dot``),
which keeps every energy exactly quadratic in the nodal values; only
``DiscreteEnergy`` reads it elsewhere, at the midpoints, so a grid caches
its nodes and quadrature alone.  Grids are uniform truncations of the line.
With the default left cutoff DEFAULT_X_LO the discarded weight mass is below
1e-14; other cutoffs discard e^{x_lo} (the solver grids cut at weight 1e-9).
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError, InvalidParameterError

#: left cutoff with e^{x_lo} ~ 1.7e-15, negligible against unit-mass profiles
DEFAULT_X_LO = -34.0
#: grids around a set reach this far past both of its ends
GRID_PAD = 10.0
#: the grids sized from a set hold at most this many nodes, 80 MB per float64
#: array: ``solver_grid`` (the front's half-line needs 245,788 nodes at
#: eps = 1e-3 and 2.46e9 at eps = 1e-7) and the union pairing of
#: ``sharp_interface_energy`` refuse more before any array exists; ``Grid``
#: does not, since ``solver_grid`` reads its spacing off one it never fills
MAX_GRID_NODES = 10_000_000

#: cap on the number of intervals in a union, and so on its per-interval loops
MAX_INTERVALS = 16


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [x_lo, x_hi] with n points."""

    x_lo: float
    x_hi: float
    n: int

    def __post_init__(self):
        if not self.x_lo < self.x_hi:
            raise GridError(f"need x_lo < x_hi, got [{self.x_lo}, {self.x_hi}]")
        if self.n < 3:
            raise GridError(f"need at least 3 grid points, got {self.n}")

    @property
    def h(self) -> float:
        return (self.x_hi - self.x_lo) / (self.n - 1)

    @cached_property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_lo, self.x_hi, self.n)

    @cached_property
    def quadrature(self) -> np.ndarray:
        """Trapezoid weights against e^x dx: h e^x at the nodes, halved at
        both ends.  Read-only, because every user of the grid shares it."""
        q = np.exp(self.x) * self.h
        q[0] *= 0.5
        q[-1] *= 0.5
        q.flags.writeable = False
        return q

    @classmethod
    def for_interval(cls, x_hi: float, h: float, x_lo: float = DEFAULT_X_LO) -> "Grid":
        """Grid covering [x_lo, x_hi] with spacing at most h.  Refuses a cell
        count that is not finite or that no float64 array could hold."""
        if not 0.0 < h < math.inf:
            raise GridError(f"grid spacing must be finite and positive, got {h}")
        cells = (x_hi - x_lo) / h
        if not cells < np.iinfo(np.intp).max // 8:
            raise GridError(f"[{x_lo}, {x_hi}] at spacing {h} has no finite cell "
                            f"count that a float64 array can hold: {cells}")
        return cls(x_lo, x_hi, max(3, math.ceil(cells) + 1))


@dataclass(frozen=True)
class SampledFunction:
    """Profile values on a uniform grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n,):
            raise GridError(
                f"values shape {values.shape} does not match grid size {self.grid.n}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidParameterError("profile values must be finite")

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "SampledFunction":
        return cls(grid, np.asarray(fn(grid.x), dtype=float))

    @classmethod
    def from_csv(cls, path) -> "SampledFunction":
        """Read columns x,value after one header line; needs 3 or more rows.
        Content that is not a table of numbers raises ``GridError``."""
        try:
            with warnings.catch_warnings():
                # empty input is reported by the row check below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:  # UnicodeDecodeError is one too
            raise GridError(f"{path}: not a CSV table of numbers: {exc}") from None
        if data.shape[0] < 3 or data.shape[1] < 2:
            raise GridError(
                f"{path}: need at least 3 rows of x,value, got shape {data.shape}"
            )
        x, values = data[:, 0], data[:, 1]
        h = np.diff(x)
        if not np.allclose(h, h[0], rtol=1e-8, atol=1e-12):
            raise GridError(f"{path}: grid in CSV is not uniform")
        return cls(Grid(float(x[0]), float(x[-1]), len(x)), values)


def weighted_dot(grid: Grid, a: np.ndarray, b) -> float:
    """Integral of a*b against e^x dx by the trapezoid rule of
    ``Grid.quadrature``; b may be an array or a scalar.  einsum, not BLAS:
    above about 10,000 elements OpenBLAS splits a dot product across
    threads, which can stall it for milliseconds on a busy machine."""
    return float(np.einsum("i,i->", grid.quadrature, a * b))


def l2e_norm(grid: Grid, values: np.ndarray) -> float:
    """Weighted L2 norm of nodal values."""
    return math.sqrt(max(weighted_dot(grid, values, values), 0.0))


@dataclass(frozen=True)
class IntervalUnion:
    """Finite disjoint union of closed intervals, sorted descending by right
    endpoint.  The left endpoint of the last interval may be -inf; right
    endpoints are at most ln(DBL_MAX) ~ 709.78, so that every e^b is
    finite.  An integer endpoint too large for a float raises
    ``InvalidParameterError``."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        try:
            ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        except OverflowError:  # an integer beyond the float range
            raise InvalidParameterError(
                "interval endpoint too large for a float"
            ) from None
        object.__setattr__(self, "intervals", ivs)
        if not ivs:
            raise InvalidParameterError("interval union must be nonempty")
        if len(ivs) > MAX_INTERVALS:
            raise InvalidParameterError(
                f"at most {MAX_INTERVALS} intervals supported, got {len(ivs)}"
            )
        for i, (a, b) in enumerate(ivs):
            if not a < b:
                raise InvalidParameterError(f"degenerate interval [{a}, {b}]")
            if math.isinf(a) and i != len(ivs) - 1:
                raise InvalidParameterError(
                    "only the leftmost interval may extend to -inf"
                )
            if b > math.log(sys.float_info.max):
                raise InvalidParameterError(
                    f"right endpoint {b} above ln(DBL_MAX) ~ 709.78, "
                    f"where e^b overflows"
                )
        for (a_hi, _), (_, b_lo) in zip(ivs[:-1], ivs[1:]):
            if not b_lo < a_hi:
                raise InvalidParameterError(
                    "intervals must be disjoint and sorted descending by right endpoint"
                )

    @classmethod
    def single(cls, a: float, b: float) -> "IntervalUnion":
        return cls(((a, b),))

    @property
    def l1e_norm(self) -> float:
        """Weighted measure of the set, sum of e^b - e^a over intervals
        (e^{-inf} = 0)."""
        return sum(math.exp(b) - math.exp(a) for a, b in self.intervals)

    @property
    def rightmost(self) -> float:
        return self.intervals[0][1]

    @property
    def leftmost(self) -> float:
        return self.intervals[-1][0]

    def indicator(self, grid: Grid) -> SampledFunction:
        """Dual-cell averages of the indicator: node i gets the fraction of
        [x_i - h/2, x_i + h/2] that lies in the set.  That is 1 inside, 0
        outside, the exact fraction at the one or two nodes beside an
        endpoint, and exactly 1/2 at a node on a jump (an endpoint within
        1e-12 max(1, h) of it).  The averages keep the finite-difference
        inhibitor solve and the trapezoid pairing second-order accurate
        wherever the endpoints lie.  No node is at a = -inf."""
        n, h, x_lo = grid.n, grid.h, grid.x_lo
        tol = 1e-12 * max(1.0, h)
        values = np.zeros(n)

        def cell_position(endpoint: float) -> float:
            # in units where node i's cell is [i, i + 1], clipped to the grid's
            # cells; an endpoint on a node sits exactly mid-cell
            t = (endpoint - x_lo) / h
            k = round(t) if abs(t) < n else -1
            if 0 <= k < n and abs(x_lo + k * h - endpoint) <= tol:
                return k + 0.5
            return min(max(t + 0.5, 0.0), float(n))

        for a, b in self.intervals:
            lo, hi = cell_position(a), cell_position(b)
            if not lo < hi:
                continue  # the interval misses every cell
            k, m = int(lo), int(hi)
            values[k] += min(hi, k + 1) - lo
            values[k + 1:m] = 1.0
            if k < m < n:
                values[m] += hi - m
        return SampledFunction(grid, values)

    @classmethod
    def from_json(cls, text: str) -> "IntervalUnion":
        """Parse a JSON list of [a, b] pairs of numbers; a may be "-inf"."""
        try:
            raw = json.loads(text)
        except ValueError as exc:  # a JSONDecodeError, or an int past 4,300 digits
            raise InvalidParameterError(f"interval union is not JSON: {exc}") from None

        def number(v) -> bool:
            return isinstance(v, (int, float)) and not isinstance(v, bool)

        if not isinstance(raw, list) or not all(
                isinstance(iv, list) and len(iv) == 2
                and (number(iv[0]) or iv[0] == "-inf") and number(iv[1])
                for iv in raw):
            raise InvalidParameterError(
                f'interval union must be a JSON list of [number or "-inf", '
                f"number] pairs, got {text!r}"
            )
        return cls(tuple((-math.inf if a == "-inf" else a, b) for a, b in raw))


def total_variation_e(e: IntervalUnion) -> float:
    """Weighted total variation of the indicator: sum of e^a + e^b with
    e^{-inf} = 0."""
    total = 0.0
    for a, b in e.intervals:
        total += math.exp(b)
        total += math.exp(a)
    return total


def shift(f: SampledFunction, h: float) -> SampledFunction:
    """Translate a profile by whole cells: (shift f)(x) = f(x + h), padding
    by edge values.  An offset that is not finite, not a multiple of the
    grid spacing (to 1e-9 cells), or that moves the whole profile off the
    grid raises ``GridError``."""
    grid = f.grid
    steps = h / grid.h
    if not math.isfinite(steps):
        raise GridError(f"shift by {h} is not finite in grid cells")
    k = round(steps)
    if abs(steps - k) >= 1e-9:
        raise GridError(f"shift by {h} is not a whole number of grid cells")
    if abs(k) >= grid.n:
        raise GridError(f"shift by {h} moves the whole profile off the grid")
    values = np.empty_like(f.values)
    if k >= 0:
        values[: grid.n - k] = f.values[k:]
        values[grid.n - k:] = f.values[-1]
    else:
        values[-k:] = f.values[:k]
        values[:-k] = f.values[0]
    return SampledFunction(grid, values)
