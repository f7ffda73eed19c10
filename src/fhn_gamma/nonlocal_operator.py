"""The inhibitor solve v = L_c u for c^2 v'' + c^2 v' - gamma v + u = 0.

Closed form for indicator data (piecewise exponentials), second-order finite
differences with exact exponential-decay Robin boundary conditions for
general profiles.  Expressions that would involve e^{r2 * ell} for large ell
are algebraically rearranged so only non-positive exponents are evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import GridError, InvalidParameterError, NonConvergenceError
from .weighted_space import Grid, SampledFunction


@dataclass(frozen=True)
class CharRoots:
    """Characteristic exponents of c^2 r^2 + c^2 r - gamma = 0, with
    r1 < -1 < 0 < r2 and r1 + r2 = -1 exactly."""

    r1: float
    r2: float

    @property
    def gap(self) -> float:
        return self.r2 - self.r1


def char_roots(c: float, gamma: float) -> CharRoots:
    """Decay exponents of the inhibitor equation.

    r2 is computed in the cancellation-free form 2*gamma / (c*(c + s)) and
    r1 as -1 - r2, which enforces the sum identity to machine precision.
    """
    if c <= 0 or gamma <= 0:
        raise InvalidParameterError(
            f"need c > 0 and gamma > 0, got c={c}, gamma={gamma}"
        )
    s = math.sqrt(c * c + 4.0 * gamma)
    r2 = 2.0 * gamma / (c * (c + s))
    return CharRoots(r1=-1.0 - r2, r2=r2)


def _exp(z: float) -> float:
    """exp that underflows to 0 instead of raising for very negative z."""
    if z < -745.0:
        return 0.0
    return math.exp(z)


@dataclass(frozen=True)
class PiecewiseExpSolution:
    """Closed-form inhibitor response to the indicator of [-ell, 0].

    Regions: A1*e^{r1 x} for x >= 0; 1/gamma + A3*e^{r1 x} + A2*e^{r2 x}
    inside; a multiple of e^{r2 x} below -ell, evaluated in overflow-safe
    product form.  ell = inf is stored as the limiting coefficients (A3 = 0).
    """

    roots: CharRoots
    gamma: float
    ell: float
    a1: float
    a2: float
    a3: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        r1, r2 = self.roots.r1, self.roots.r2
        out = np.empty_like(x)
        upper = x >= 0.0
        out[upper] = self.a1 * np.exp(r1 * x[upper])
        if math.isinf(self.ell):
            inner = ~upper
            out[inner] = 1.0 / self.gamma + self.a2 * np.exp(r2 * x[inner])
        else:
            inner = (~upper) & (x >= -self.ell)
            xi = x[inner]
            denom = self.gamma * self.roots.gap
            # a3 e^{r1 x} = (-r2/denom) e^{r1 (x+ell)}, whose exponent is <= 0
            # inside; the product a3 * e^{r1 x} is 0 * inf once -r1 x > 709.8
            out[inner] = (
                1.0 / self.gamma
                - (r2 / denom) * np.exp(r1 * (xi + self.ell))
                + self.a2 * np.exp(r2 * xi)
            )
            below = x < -self.ell
            # the response is (r1/(gamma (r2-r1))) (e^{r2 x} - e^{r2 (x+ell)});
            # both exponents are <= 0 for x <= -ell.
            xb = x[below]
            out[below] = (r1 / (self.gamma * self.roots.gap)) * (
                np.exp(r2 * xb) - np.exp(r2 * (xb + self.ell))
            )
        return out

    def junction_residuals(self) -> dict[str, float]:
        """C0 and C1 mismatches at the junctions x = 0 and x = -ell."""
        r1, r2 = self.roots.r1, self.roots.r2
        out = {
            "c0_zero": abs(1.0 / self.gamma + self.a3 + self.a2 - self.a1),
            "c1_zero": abs(self.a3 * r1 + self.a2 * r2 - self.a1 * r1),
        }
        if math.isinf(self.ell):
            out["c0_left"] = 0.0
            out["c1_left"] = 0.0
            return out
        # a3 e^{-r1 ell} is evaluated as -r2/denom (its exact algebraic value)
        # to avoid the overflowing factor e^{-r1 ell}
        denom = self.gamma * self.roots.gap
        e2 = _exp(-r2 * self.ell)
        inner_val = 1.0 / self.gamma - r2 / denom + (r1 / denom) * e2
        outer_val = (r1 / denom) * (e2 - 1.0)
        inner_der = -r1 * r2 / denom + (r1 * r2 / denom) * e2
        outer_der = (r1 * r2 / denom) * (e2 - 1.0)
        out["c0_left"] = abs(inner_val - outer_val)
        out["c1_left"] = abs(inner_der - outer_der)
        return out

    def integral_over_support(self) -> float:
        """Weighted integral of the response over [-ell, 0], in closed form:
        (2 / (gamma (r2 - r1))) (r2 + r1 e^{-ell} + e^{r1 ell})."""
        r1, r2 = self.roots.r1, self.roots.r2
        if math.isinf(self.ell):
            return (1.0 / self.gamma) * (1.0 - 1.0 / self.roots.gap)
        return (2.0 / (self.gamma * self.roots.gap)) * (
            r2 + r1 * _exp(-self.ell) + _exp(r1 * self.ell)
        )


def lc_indicator(ell: float, c: float, gamma: float) -> PiecewiseExpSolution:
    """Closed-form inhibitor response to chi_{[-ell, 0]}; ell may be inf."""
    if ell <= 0:
        raise InvalidParameterError(f"support width must be positive, got {ell}")
    roots = char_roots(c, gamma)
    r1, r2 = roots.r1, roots.r2
    denom = gamma * roots.gap
    if math.isinf(ell):
        return PiecewiseExpSolution(
            roots=roots, gamma=gamma, ell=ell,
            a1=r2 / denom, a2=r1 / denom, a3=0.0,
        )
    return PiecewiseExpSolution(
        roots=roots, gamma=gamma, ell=ell,
        a1=r2 * (1.0 - _exp(r1 * ell)) / denom,
        a2=r1 / denom,
        a3=-r2 * _exp(r1 * ell) / denom,
    )


class InhibitorOperator:
    """Tridiagonal finite-difference inhibitor solve on a fixed grid.

    Solves gamma v - c^2 v'' - c^2 v' = f with Robin conditions matching the
    exact exponential decay: v' = r2 (v - f_lo/gamma) at x_lo and
    v' = r1 (v - f_hi/gamma) at x_hi, where f_lo, f_hi are the boundary data
    values (constant extension of f outside the grid).  The matrix is
    factored once per (grid, speed) with LAPACK dgttrf; both ``solve`` and
    the adjoint ``solve_transpose`` reuse that factorization.  Immutable
    after construction; safe to share across threads.
    """

    def __init__(self, grid: Grid, c: float, gamma: float):
        roots = char_roots(c, gamma)
        h = grid.h
        if h * max(-roots.r1, roots.r2) >= 0.5:
            raise GridError(
                f"grid spacing {h} too coarse for decay rates "
                f"r1={roots.r1:.3g}, r2={roots.r2:.3g}"
            )
        self.grid = grid
        self.c = c
        self.gamma = gamma
        self.roots = roots

        c2 = c * c
        sub = -c2 / h**2 + c2 / (2.0 * h)
        diag = 2.0 * c2 / h**2 + gamma
        sup = -c2 / h**2 - c2 / (2.0 * h)
        n = grid.n

        dl = np.full(n - 1, sub)
        d = np.full(n, diag)
        du = np.full(n - 1, sup)
        # ghost elimination at x_lo: v_{-1} = v_1 - 2h r2 v_0 + 2h r2 f_0/gamma
        d[0] = diag - sub * 2.0 * h * roots.r2
        du[0] = sup + sub
        # ghost elimination at x_hi: v_n = v_{n-2} + 2h r1 v_{n-1} - 2h r1 f_{n-1}/gamma
        d[-1] = diag + sup * 2.0 * h * roots.r1
        dl[-1] = sub + sup
        *lu, info = dgttrf(dl, d, du)
        if info != 0:  # pragma: no cover - defensive
            raise NonConvergenceError(
                f"singular inhibitor system: zero pivot in row {info}"
            )
        self._lu = lu
        # boundary-data coupling of the right-hand side (diagonal, two corners)
        self._b_lo = 1.0 - sub * 2.0 * h * roots.r2 / gamma
        self._b_hi = 1.0 + sup * 2.0 * h * roots.r1 / gamma

    def solve(self, f: np.ndarray) -> np.ndarray:
        return dgttrs(*self._lu, self.apply_boundary_coupling(f))[0]

    def solve_transpose(self, f: np.ndarray) -> np.ndarray:
        """Solve with the transposed system matrix (used by energy gradients)."""
        return dgttrs(*self._lu, f, trans="T")[0]

    def apply_boundary_coupling(self, f: np.ndarray) -> np.ndarray:
        """Right-hand side including the boundary-data coupling B f."""
        out = np.array(f, dtype=float)
        out[0] *= self._b_lo
        out[-1] *= self._b_hi
        return out


def lc_solve_fd(f: SampledFunction, c: float, gamma: float) -> SampledFunction:
    """Finite-difference inhibitor response to a sampled profile."""
    op = InhibitorOperator(f.grid, c, gamma)
    return SampledFunction(f.grid, op.solve(f.values))


def nonlocal_energy(w: SampledFunction, c: float, gamma: float) -> float:
    """Weighted pairing of a profile with its inhibitor response,
    integral of e^x w (L_c w) dx; nonnegative up to discretization error."""
    v = lc_solve_fd(w, c, gamma)
    return float(np.trapezoid(w.grid.weight * w.values * v.values, dx=w.grid.h))
