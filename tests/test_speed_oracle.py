"""An independent oracle for the finite-width pulse speed.

At the speed root the multiplier of the norm constraint equals the energy,
which vanishes, so the minimizer solves the Euler-Lagrange equations with
no multiplier:

    eps (w'' + w') + f_eps(w) / eps - sigma v = 0,
    c^2 (v'' + v') - gamma v + w = 0,

with f_eps(w) = -w (w - beta) (w - 1), beta = 1/2 - alpha eps / sqrt(2).
``bvp_speed`` solves them with ``scipy.integrate.solve_bvp`` (Kierzenka &
Shampine, ACM TOMS 27, 2001), the speed as eigenparameter and the unit
weighted norm as phase condition: N' = e^x w^2 with N = 0 at the left end
and N = 1 at the right.  The other four end conditions are the decay rates
of the linearization about w = v = 0, taken decoupled: w' = r+ w and
v' = r2 v at the left end, w' = r- w and v' = r1 v at the right, with
r+- = (-1 +- sqrt(1 + 4 beta / eps^2)) / 2 and r1 < 0 < r2 the roots of
c^2 (r^2 + r) = gamma.

The oracle uses NumPy and SciPy alone and shares no discretization with
the package's energy.  It starts from the package's speed root and
profile, which sets no answer: collocation to tol 1e-8 moves them.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, solve_bvp

from fhn_gamma import Params, pulse_speed
from fhn_gamma.epsilon_solver import build_recovery, solver_grid, speed_eps
from fhn_gamma.nonlocal_operator import InhibitorOperator

#: the package's grid root lies this far below the continuum speed on the
#: pulse (2, 1, 1): the second-order grid bias of h = eps/8, -1.28e-4 at
#: both widths (by h-refinement to h = eps/32 and Richardson), and a gap of
#: about 6e-6 between the refined root and the collocation speed
GRID_OFFSET = 1.34e-4
#: allowed deviation from GRID_OFFSET: the offsets measured at eps = 0.04
#: and 0.02 are 1.339e-4 and 1.356e-4, and half the grid bias would be
#: 6.4e-5, so this catches any change in either solver of that size
OFFSET_TOL = 2e-5


def bvp_speed(alpha, gamma, sigma, eps, x, w, v, c):
    """(c, max residual) of the collocation solve from the start (w, v, c)
    on the nodes x; raises AssertionError if it fails."""
    beta = 0.5 - alpha * eps / math.sqrt(2.0)
    disc = math.sqrt(1.0 + 4.0 * beta / eps**2)
    r_plus, r_minus = 0.5 * (-1.0 + disc), 0.5 * (-1.0 - disc)

    def decay(c):
        s = math.sqrt(c * c + 4.0 * gamma)
        r2 = 2.0 * gamma / (c * (c + s))
        return -1.0 - r2, r2

    def rhs(x, y, p):
        c = p[0]
        w, dw, v, dv, _ = y
        f = -w * (w - beta) * (w - 1.0)
        return np.vstack([
            dw,
            -dw - (f / eps - sigma * v) / eps,
            dv,
            -dv + (gamma * v - w) / (c * c),
            np.exp(x) * w * w,
        ])

    def ends(ya, yb, p):
        r1, r2 = decay(p[0])
        return np.array([
            ya[4], yb[4] - 1.0,
            ya[1] - r_plus * ya[0], ya[3] - r2 * ya[2],
            yb[1] - r_minus * yb[0], yb[3] - r1 * yb[2],
        ])

    y = np.vstack([w, np.gradient(w, x), v, np.gradient(v, x),
                   cumulative_trapezoid(np.exp(x) * w * w, x, initial=0.0)])
    y[4] /= y[4, -1]
    sol = solve_bvp(rhs, ends, x, y, p=[c], tol=1e-8, max_nodes=200000)
    assert sol.success, sol.message
    return float(sol.p[0]), float(np.max(sol.rms_residuals))


@pytest.mark.parametrize("eps", [0.04, 0.02])
def test_pulse_speed_agrees_with_the_collocation_oracle(eps):
    alpha, gamma, sigma = 2.0, 1.0, 1.0
    limit = pulse_speed(Params(alpha, gamma, sigma))
    p = Params(alpha, gamma, sigma, eps)
    grid = solver_grid(limit.limit_set, eps)
    init = build_recovery(limit.limit_set, p, grid).w.values
    res = speed_eps(p, limit.c_p / 1.1, limit.c_p * 1.1, grid, init)
    assert res.converged
    w = res.profile.values
    v = InhibitorOperator(grid, res.c_eps, gamma).solve(w)
    every = slice(None, None, 4)
    c_bvp, residual = bvp_speed(alpha, gamma, sigma, eps, grid.x[every],
                                w[every], v[every], res.c_eps)
    assert residual < 1e-7
    assert abs(c_bvp - res.c_eps - GRID_OFFSET) < OFFSET_TOL
