"""The inhibitor solve v = L_c u for c^2 v'' + c^2 v' - gamma v + u = 0.

Closed form for indicator data (piecewise exponentials), second-order finite
differences with exact exponential-decay Robin boundary conditions for
general profiles.  Expressions that would involve e^{r2 * ell} for large ell
are algebraically rearranged so only non-positive exponents are evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import GridError, InvalidParameterError, NonConvergenceError
from .weighted_space import Grid


class CharRoots(NamedTuple):
    """Characteristic exponents of c^2 r^2 + c^2 r - gamma = 0, with
    r1 < -1 < 0 < r2 and r1 + r2 = -1 exactly, and their speed dependence:
    ratio = H(c) = c / sqrt(c^2 + 4 gamma) = 1 / (r2 - r1) and
    dr1_dc = -dr2/dc = 2 gamma / (c^2 sqrt(c^2 + 4 gamma)).  A named tuple:
    the limit-level solvers build one per evaluation, and a frozen
    dataclass of four fields costs about twice as much to construct."""

    r1: float
    r2: float
    ratio: float
    dr1_dc: float

    @property
    def gap(self) -> float:
        return self.r2 - self.r1


def char_roots(c: float, gamma: float) -> CharRoots:
    """Decay exponents of the inhibitor equation and their speed dependence,
    all from one square root s = sqrt(c^2 + 4 gamma).

    r2 is computed in the cancellation-free form 2*gamma / (c*(c + s)) and
    r1 as -1 - r2, which enforces the sum identity to machine precision.

    Accepts 0 < c < inf and 0 < gamma < inf for which c^2 s, r2 and dr1_dc
    are finite and nonzero in floating point; at gamma = 1 that is about
    7.5e-155 < c < 5.6e102.  Outside it 1/c^2 or c^3 leaves the float range,
    and the roots cannot be represented.
    """
    if not (0 < c < math.inf and 0 < gamma < math.inf):
        raise InvalidParameterError(
            f"need 0 < c < inf and 0 < gamma < inf, got c={c}, gamma={gamma}"
        )
    s = math.sqrt(c * c + 4.0 * gamma)
    c2s = c * c * s
    if 0.0 < c2s < math.inf:
        r2 = 2.0 * gamma / (c * (c + s))
        dr1_dc = 2.0 * gamma / c2s
        if 0.0 < r2 < math.inf and 0.0 < dr1_dc < math.inf:
            return CharRoots(r1=-1.0 - r2, r2=r2, ratio=c / s, dr1_dc=dr1_dc)
    raise InvalidParameterError(
        f"the decay rates at c={c}, gamma={gamma} are out of float range"
    )


#: largest log of an entry the symmetrized solves form from unit data: the
#: largest entry of D (or D^{-1}) times the largest right-end coefficient.
#: e^650 leaves a factor e^59 below the float range for the data, the 2/c of
#: the speed derivative and the growth 1/lambda_min(S) of the solve.
MAX_LOG_SCALE = 650.0


@dataclass(frozen=True)
class PiecewiseExpSolution:
    """Closed-form inhibitor response to the indicator of [-ell, 0].

    Regions: A1*e^{r1 x} for x >= 0; 1/gamma + A3*e^{r1 x} + A2*e^{r2 x}
    inside; a multiple of e^{r2 x} below -ell, evaluated in overflow-safe
    product form.  ell may be inf, the half-line (-inf, 0]: the same
    expressions give A3 = 0, and the region below -ell is empty.
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
        out[below] = (r1 / denom) * (np.exp(r2 * xb) - np.exp(r2 * (xb + self.ell)))
        return out

    def junction_residuals(self) -> dict[str, float]:
        """C0 and C1 mismatches at the junctions x = 0 and x = -ell."""
        r1, r2 = self.roots.r1, self.roots.r2
        # a3 e^{-r1 ell} is evaluated as -r2/denom (its exact algebraic value)
        # to avoid the overflowing factor e^{-r1 ell}
        denom = self.gamma * self.roots.gap
        e2 = math.exp(-r2 * self.ell)
        inner_val = 1.0 / self.gamma - r2 / denom + (r1 / denom) * e2
        outer_val = (r1 / denom) * (e2 - 1.0)
        inner_der = -r1 * r2 / denom + (r1 * r2 / denom) * e2
        outer_der = (r1 * r2 / denom) * (e2 - 1.0)
        return {
            "c0_zero": abs(1.0 / self.gamma + self.a3 + self.a2 - self.a1),
            "c1_zero": abs(self.a3 * r1 + self.a2 * r2 - self.a1 * r1),
            "c0_left": abs(inner_val - outer_val),
            "c1_left": abs(inner_der - outer_der),
        }


def lc_indicator(ell: float, c: float, gamma: float) -> PiecewiseExpSolution:
    """Closed-form inhibitor response to chi_{[-ell, 0]}; ell may be inf."""
    if not ell > 0:
        raise InvalidParameterError(f"support width must be positive, got {ell}")
    roots = char_roots(c, gamma)
    r1, r2 = roots.r1, roots.r2
    denom = gamma * roots.gap
    return PiecewiseExpSolution(
        roots=roots, gamma=gamma, ell=ell,
        a1=r2 * (1.0 - math.exp(r1 * ell)) / denom,
        a2=r1 / denom,
        a3=-r2 * math.exp(r1 * ell) / denom,
    )


class InhibitorOperator:
    """Tridiagonal finite-difference inhibitor solve on a fixed grid.

    Solves gamma v - c^2 v'' - c^2 v' = f with Robin conditions matching the
    exact exponential decay: v' = r2 (v - f_lo/gamma) at x_lo and
    v' = r1 (v - f_hi/gamma) at x_hi, where f_lo, f_hi are the boundary data
    values (constant extension of f outside the grid).

    The system matrix A is one diagonal similarity away from a symmetric
    positive-definite tridiagonal matrix S = D A D^{-1}: the interior ratio
    D_{i+1}/D_i = sqrt((1 + h/2)/(1 - h/2)) depends on neither c nor gamma,
    so D is close to e^{x/2}.  S is factored once per (grid, speed) with
    LAPACK dpttrf; ``solve`` is L = A^{-1} B = D^{-1} S^{-1} D B and
    ``solve_transpose`` its adjoint L^T = B A^{-T} = B D S^{-1} D^{-1},
    both from the same factors.
    The right-hand sides of those solves hold D_{n-1} ~ e^{length/4} times
    the right-end Robin coefficient (about 2 c^2/(h gamma)); grids on which
    that product would pass e^MAX_LOG_SCALE raise GridError, which happens
    beyond about 2,500 units.  This is the package's only length guard:
    the grid builders bound only the node count (MAX_GRID_NODES), so the
    finite-width energy, the union pairing and ``lc-apply`` meet it here,
    and a recovery profile, which takes no solve, does not.  Immutable
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
        n = grid.n
        self.c = c
        self.gamma = gamma

        c2 = c * c
        sub = -c2 / h**2 + c2 / (2.0 * h)
        diag = 2.0 * c2 / h**2 + gamma
        sup = -c2 / h**2 - c2 / (2.0 * h)
        # boundary-data coupling of the right-hand side (diagonal, two corners)
        self._b_lo = 1.0 - sub * 2.0 * h * roots.r2 / gamma
        self._b_hi = 1.0 + sup * 2.0 * h * roots.r1 / gamma
        # the speed derivative's end rows, (2/c)(gamma v - B f) plus the
        # Robin rows' dependence on c through the decay rates r1, r2
        dr2 = -roots.dr1_dc
        self._speed_lo = (
            2.0 * gamma / c + 2.0 * h * sub * dr2,
            -2.0 * self._b_lo / c
            - 2.0 * h * sub * (2.0 * roots.r2 / c + dr2) / gamma,
        )
        self._speed_hi = (
            2.0 * gamma / c + 2.0 * h * sup * dr2,
            -2.0 * self._b_hi / c
            + 2.0 * h * sup * (2.0 * roots.r1 / c - dr2) / gamma,
        )

        # D grows to the right, so the largest entries formed are D_{n-1},
        # with log D_{n-1}/D_mid = atanh(h/2) (n - 1)/2, times a right-end
        # coefficient (D_0 times a left-end one is tiny)
        log_ratio = math.atanh(0.5 * h)
        half = 0.5 * (n - 1)
        log_scale = log_ratio * half + math.log(
            max(1.0, abs(self._b_hi), *map(abs, self._speed_hi)))
        if log_scale > MAX_LOG_SCALE:
            raise GridError(
                f"grid of length {grid.x_hi - grid.x_lo:.6g} too long for the "
                f"symmetrized inhibitor solve (log of its largest scaled "
                f"coefficient {log_scale:.4g} > {MAX_LOG_SCALE:g})"
            )

        d = np.full(n, diag)
        # ghost elimination at x_lo: v_{-1} = v_1 - 2h r2 v_0 + 2h r2 f_0/gamma,
        # so row 0 is (d_0, sub + sup); at x_hi: v_n = v_{n-2} + 2h r1 v_{n-1}
        # - 2h r1 f_{n-1}/gamma, so row n-1 is (sub + sup, d_{n-1})
        d[0] = diag - sub * 2.0 * h * roots.r2
        d[-1] = diag + sup * 2.0 * h * roots.r1
        # off-diagonal of S: -sqrt(A_{i,i+1} A_{i+1,i})
        e = np.full(n - 1, -math.sqrt(sub * sup))
        e[0] = -math.sqrt((sub + sup) * sub)
        e[-1] = -math.sqrt(sup * (sub + sup))
        *self._factors, info = dpttrf(d, e, overwrite_d=1, overwrite_e=1)
        if info != 0:  # pragma: no cover - defensive
            raise NonConvergenceError(
                f"inhibitor system not positive definite: pivot {info}"
            )
        # D as one centred geometric progression, whose reversal is its
        # inverse; the end ratios D_1/D_0 = sqrt((sub + sup)/sub) and
        # D_{n-1}/D_{n-2} = sqrt(sup/(sub + sup)) come from the Robin rows
        scale = np.arange(n, dtype=float)
        scale -= half
        scale *= log_ratio
        np.exp(scale, out=scale)
        inv_scale = scale[::-1].copy()
        end_lo = math.sqrt(sub / (sub + sup))
        end_hi = math.sqrt(sup / (sub + sup))
        scale[0] = scale[1] * end_lo
        scale[-1] = scale[-2] * end_hi
        inv_scale[0] = inv_scale[1] / end_lo
        inv_scale[-1] = inv_scale[-2] / end_hi
        self._scale = scale
        self._inv_scale = inv_scale
        scale_b = scale.copy()
        scale_b[0] *= self._b_lo
        scale_b[-1] *= self._b_hi
        self._scale_b = scale_b

    def _solve_scaled(self, left: np.ndarray, right: np.ndarray,
                      f: np.ndarray) -> np.ndarray:
        """left * S^{-1} (right * f), from the dpttrf factors."""
        x = dpttrs(*self._factors, right * f, overwrite_b=1)[0]
        x *= left
        return x

    def solve(self, f: np.ndarray) -> np.ndarray:
        return self._solve_scaled(self._inv_scale, self._scale_b, f)

    def solve_transpose(self, g: np.ndarray) -> np.ndarray:
        """The adjoint L^T g = B A^{-T} g of ``solve`` in the plain inner
        product (used by energy gradients)."""
        x = self._solve_scaled(self._scale, self._inv_scale, g)
        x[0] *= self._b_lo
        x[-1] *= self._b_hi
        return x

    def d_speed(self, f: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Speed derivative of the response v = solve(f) at fixed data f.

        dv/dc = A^{-1} (B_c f - A_c v), where A_c = (2/c)(A - gamma I) plus
        the decay-rate dependence of the two Robin rows, and A v = B f.
        Costs one solve.
        """
        rhs = (2.0 / self.c) * (self.gamma * v - f)
        rhs[0] = self._speed_lo[0] * v[0] + self._speed_lo[1] * f[0]
        rhs[-1] = self._speed_hi[0] * v[-1] + self._speed_hi[1] * f[-1]
        return self._solve_scaled(self._inv_scale, self._scale, rhs)

    def d_speed_transpose(self, g: np.ndarray) -> np.ndarray:
        """The adjoint of f -> d_speed(f, solve(f)) in the plain inner
        product.  Row by row B_c f - A_c v = a v + b f, with a = 2 gamma/c
        and b = -2/c inside and the Robin rows at the ends, so
        dL/dc = A^{-1} (diag(a) L + diag(b)) and its adjoint is
        (L^T diag(a) + diag(b)) A^{-T}.  Costs two solves."""
        z = self._solve_scaled(self._scale, self._inv_scale, g)
        az = (2.0 * self.gamma / self.c) * z
        az[0] = self._speed_lo[0] * z[0]
        az[-1] = self._speed_hi[0] * z[-1]
        out = self.solve_transpose(az)
        bz = (-2.0 / self.c) * z
        bz[0] = self._speed_lo[1] * z[0]
        bz[-1] = self._speed_hi[1] * z[-1]
        out += bz
        return out

