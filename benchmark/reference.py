"""Reference computations made apart from the package under test.

Nothing here imports ``fhn_gamma``.  Every quantity is rebuilt from the
model's definitions:

* the inhibitor equation c^2 v'' + c^2 v' - gamma v + u = 0 has the Green's
  function G(z) = K e^{r1 z} for z >= 0 and K e^{r2 z} for z < 0, with
  r1 < 0 < r2 the roots of c^2 r^2 + c^2 r - gamma = 0 and
  K = 1 / (c^2 (r2 - r1));
* the sharp-interface energy of a set E is
  (sqrt2/12) TV_e(E) - (sqrt2 alpha/12) |E|_e + (sigma/2) int_E e^x (G*chi_E),
  with TV_e the sum of e^{endpoint} and |E|_e the weighted measure;
* the finite-width energy of nodal values w on a uniform grid is the
  trapezoid/midpoint discretization stated in ``finite_width_energy``, with
  its nonlocal part taken from the exact Green's-function response of the
  piecewise-linear interpolant instead of a finite-difference solve.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.signal import lfilter

SQRT2 = math.sqrt(2.0)
#: 3 sqrt(2): the inhibitor slope scale that separates the regimes
S_SCALE = 3.0 * SQRT2


def regime(alpha: float, gamma: float, sigma: float) -> str:
    """Regime from the inequalities of the model.

    front:   alpha >= 3 sqrt2 sigma / gamma > alpha - 1 > 0
    pulse:   3 sqrt2 sigma / gamma > alpha > 1
    neither: otherwise
    """
    s = S_SCALE * sigma / gamma
    if alpha >= s and s > alpha - 1.0 and alpha - 1.0 > 0.0:
        return "front"
    if s > alpha and alpha > 1.0:
        return "pulse"
    return "neither"


def green_roots(c: float, gamma: float) -> tuple[float, float, float]:
    """(r1, r2, K) of the inhibitor Green's function at speed c."""
    q = gamma / (c * c)
    root = math.sqrt(1.0 + 4.0 * q)
    r2 = 2.0 * q / (1.0 + root)  # (-1 + root)/2 without cancellation
    r1 = -0.5 * (1.0 + root)
    return r1, r2, 1.0 / (c * c * (r2 - r1))


def _response(x: float, a: float, b: float, r1: float, r2: float,
              k: float) -> float:
    """v(x) = int_a^b G(x - y) dy in closed form (a may be -inf)."""
    if x >= b:
        lower = 0.0 if math.isinf(a) else math.exp(r1 * (x - a))
        return k / (-r1) * (math.exp(r1 * (x - b)) - lower)
    if x <= a:
        return k / r2 * (math.exp(r2 * (x - a)) - math.exp(r2 * (x - b)))
    below = 1.0 if math.isinf(a) else 1.0 - math.exp(r1 * (x - a))
    return k * (below / (-r1) + (1.0 - math.exp(r2 * (x - b))) / r2)


def _exp_moment(p: float, q: float, r: float, s: float) -> float:
    """int_p^q e^x e^{r (x - s)} dx, p may be -inf when 1 + r > 0."""
    lo = 0.0 if math.isinf(p) else math.exp(p + r * (p - s))
    return (math.exp(q + r * (q - s)) - lo) / (1.0 + r)


def pair_integral(i: tuple[float, float], j: tuple[float, float],
                  r1: float, r2: float, k: float) -> float:
    """int_I e^x int_J G(x - y) dy dx in closed form for disjoint or equal
    intervals I, J (the left end of either may be -inf)."""
    (a1, b1), (a2, b2) = i, j
    if (a1, b1) == (a2, b2):
        a, b = a1, b1
        lower = 0.0 if math.isinf(a) else math.exp(a)
        total = (math.exp(b) - lower) * (1.0 / (-r1) + 1.0 / r2)
        if not math.isinf(a):
            total -= _exp_moment(a, b, r1, a) / (-r1)
        total -= _exp_moment(a, b, r2, b) / r2
        return k * total
    if a1 >= b2:  # I lies to the right of J: G decays with r1
        upper = _exp_moment(a1, b1, r1, b2)
        lower = 0.0 if math.isinf(a2) else _exp_moment(a1, b1, r1, a2)
        return k / (-r1) * (upper - lower)
    if b1 <= a2:  # I lies to the left of J: G grows with r2
        return k / r2 * (_exp_moment(a1, b1, r2, a2) - _exp_moment(a1, b1, r2, b2))
    raise ValueError(f"intervals {i} and {j} overlap without being equal")


def union_energy(intervals, c: float, alpha: float, gamma: float,
                 sigma: float) -> dict:
    """Perimeter, area and nonlocal terms of an interval union, exactly,
    with the endpoint sensitivity bound of the nonlocal term.

    ``endpoint_sensitivity`` is (sigma/2) sum over finite endpoints of
    |dN/de| = e^e v(e) + int_E e^x G(x - e) dx, the first-order change of
    the nonlocal term per unit displacement of each endpoint.
    """
    r1, r2, k = green_roots(c, gamma)
    perimeter = sum(math.exp(b) + (0.0 if math.isinf(a) else math.exp(a))
                    for a, b in intervals)
    measure = sum(math.exp(b) - (0.0 if math.isinf(a) else math.exp(a))
                  for a, b in intervals)
    pairing = sum(pair_integral(i, j, r1, r2, k)
                  for i in intervals for j in intervals)
    sensitivity = 0.0
    for a, b in intervals:
        for e in (a, b):
            if math.isinf(e):
                continue
            v = sum(_response(e, aj, bj, r1, r2, k) for aj, bj in intervals)
            w = 0.0
            for ai, bi in intervals:
                # int_{I} e^x G(x - e) dx, split at x = e
                if ai >= e:
                    w += k * _exp_moment(ai, bi, r1, e)
                elif bi <= e:
                    w += k * _exp_moment(ai, bi, r2, e)
                else:
                    w += k * (_exp_moment(ai, e, r2, e) + _exp_moment(e, bi, r1, e))
            sensitivity += math.exp(e) * v + w
    return {
        "perimeter": (SQRT2 / 12.0) * perimeter,
        "area": -(SQRT2 * alpha / 12.0) * measure,
        "nonlocal": 0.5 * sigma * pairing,
        "endpoint_sensitivity": 0.5 * sigma * sensitivity,
    }


def front_speed(alpha: float, gamma: float, sigma: float) -> float:
    """Speed at which the energy of the half line (-inf, 0] vanishes,
    found by bracketing the root of its first-principles energy."""
    def energy(c):
        r1, r2, k = green_roots(c, gamma)
        nonlocal_term = 0.5 * sigma * pair_integral(
            (-math.inf, 0.0), (-math.inf, 0.0), r1, r2, k)
        return (SQRT2 / 12.0) * (1.0 - alpha) + nonlocal_term

    lo, hi = 1e-6, 1.0
    while energy(hi) > 0.0:
        hi *= 2.0
        if hi > 1e9:
            raise ValueError("front energy does not change sign")
    return brentq(energy, lo, hi, xtol=1e-15, rtol=1e-15, maxiter=500)


def interval_energy_check(ell: float, c: float, alpha: float, gamma: float,
                          sigma: float) -> tuple[float, float]:
    """Energy J of [-ell, 0] and its width derivative dJ/dell.

    The nonlocal term and its derivative are integrated by adaptive
    quadrature of the Green's function response; the perimeter and area
    terms are exact.  Leibniz's rule gives
    dN/dell = e^{-ell} v(-ell) + int_{-ell}^0 e^x G(x + ell) dx.
    """
    r1, r2, k = green_roots(c, gamma)
    a, b = -ell, 0.0

    def integrand(x):
        return math.exp(x) * _response(x, a, b, r1, r2, k)

    pairing, _ = quad(integrand, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)
    v_left = _response(a, a, b, r1, r2, k)
    tail, _ = quad(lambda x: math.exp(x) * k * math.exp(r1 * (x + ell)),
                   a, b, epsabs=1e-15, epsrel=1e-13, limit=200)
    em = math.exp(-ell)
    value = ((SQRT2 / 12.0) * (1.0 + em) - (SQRT2 * alpha / 12.0) * (1.0 - em)
             + 0.5 * sigma * pairing)
    d_width = (-(SQRT2 / 12.0) * (1.0 + alpha) * em
               + 0.5 * sigma * (em * v_left + tail))
    return value, d_width


def box(alpha: float, epsilon: float, gamma: float) -> tuple[float, float]:
    """Admissible box [-m - 1, 1.01], m the positive root of
    m (m + beta) (m + 1) = 1.01 / gamma, beta = 1/2 - alpha eps / sqrt2."""
    beta = 0.5 - alpha * epsilon / SQRT2
    roots = np.roots([1.0, 1.0 + beta, beta, -1.01 / gamma])
    m = max(float(r.real) for r in roots if abs(r.imag) < 1e-12)
    return -m - 1.0, 1.01


def weighted_l2_norm(x: np.ndarray, w: np.ndarray) -> float:
    """sqrt of the trapezoid rule for int e^x w^2 dx on a uniform grid."""
    h = x[1] - x[0]
    f = np.exp(x) * w * w
    return math.sqrt(h * (f.sum() - 0.5 * (f[0] + f[-1])))


def green_response_nodes(x: np.ndarray, w: np.ndarray, c: float,
                         gamma: float) -> np.ndarray:
    """Exact response G * w at the nodes for the piecewise-linear
    interpolant of w, extended by its end values outside the grid.

    v = K (L + R) with L(x) = int_{-inf}^x e^{r1 (x-y)} w and
    R(x) = int_x^inf e^{r2 (x-y)} w, each a first-order recursion with
    cell integrals of an exponential times a linear function.
    """
    r1, r2, k = green_roots(c, gamma)
    h = x[1] - x[0]

    def cell(r):
        # int_0^h e^{r t} (u_near (1 - t/h) + u_far t/h) dt, t measured
        # from the node being updated: coefficients of u_near and u_far
        e = math.exp(r * h)
        m0 = (e - 1.0) / r
        m1 = (e * (r * h - 1.0) + 1.0) / (r * r)
        return m0 - m1 / h, m1 / h, e

    # lfilter computes y_n = lam y_{n-1} + near u_n + far u_{n-1}, with
    # y_0 = near u_0 + zi the tail integral of the constant extension
    near, far, lam = cell(r1)  # L: recursion from left to right
    left = lfilter([near, far], [1.0, -lam], w,
                   zi=[w[0] / (-r1) - near * w[0]])[0]
    near, far, lam = cell(-r2)  # R: recursion from right to left
    wr = w[::-1]
    right = lfilter([near, far], [1.0, -lam], wr,
                    zi=[wr[0] / r2 - near * wr[0]])[0][::-1]
    return k * (left + right)


def finite_width_energy(x: np.ndarray, w: np.ndarray, c: float, alpha: float,
                        gamma: float, sigma: float, epsilon: float) -> dict:
    """Finite-width energy of nodal values w on the uniform grid x.

    gradient  (eps/2) sum_cells e^{x_mid} ((w_{i+1}-w_i)/h)^2 h
    potential (1/eps) trapezoid of e^x w^2 (1-w)^2 / 4
    tilt      alpha trapezoid of e^x (w^3/3 - w^2/2)/sqrt2
    nonlocal  (sigma/2) trapezoid of e^x w (G * w)
    """
    h = x[1] - x[0]
    q = h * np.exp(x)
    q[0] *= 0.5
    q[-1] *= 0.5
    dw = np.diff(w) / h
    gradient = 0.5 * epsilon * float(np.sum(np.exp(0.5 * (x[1:] + x[:-1])) * dw * dw) * h)
    potential = float(q @ (0.25 * w * w * (1.0 - w) ** 2)) / epsilon
    tilt = alpha * float(q @ ((w * w * w / 3.0 - 0.5 * w * w) / SQRT2))
    v = green_response_nodes(x, w, c, gamma)
    nonlocal_term = 0.5 * sigma * float(q @ (w * v))
    return {
        "gradient": gradient, "potential": potential, "tilt": tilt,
        "nonlocal": nonlocal_term,
        "total": gradient + potential + tilt + nonlocal_term,
    }
