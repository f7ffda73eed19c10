"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see every line; under
plain pytest the lines surface for failing criteria only.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from fhn_gamma.epsilon_solver import (
    DiscreteEnergy,
    build_recovery,
    convergence_study,
    recovery_profile,
    solver_grid,
)
from fhn_gamma.errors import BracketError
from fhn_gamma.limit_energy import (
    interval_energy,
    sharp_interface_energy,
    speed_derivative_factor,
    width_condition,
)
from fhn_gamma.model import SQRT2, Params, gamma_star, gamma_star_limit
from fhn_gamma.nonlocal_operator import (
    InhibitorOperator,
    char_roots,
    lc_indicator,
)
from fhn_gamma.wave_speeds import front_speed, optimal_width, pulse_speed
from fhn_gamma.weighted_space import (
    Grid,
    IntervalUnion,
    SampledFunction,
    l2e_norm,
    shift,
    total_variation_e,
)

FRONT = Params(5.0, 1.0, 1.0)
PULSE = Params(2.0, 1.0, 1.0)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_front_speed_closed_form():
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        result = front_speed(FRONT)
        best = min(best, time.perf_counter() - t0)
    def front_energy(c):
        return interval_energy(math.inf, char_roots(c, FRONT.gamma), FRONT).value

    oracle = brentq(front_energy, 1e-6, 1.0, xtol=1e-15, rtol=8.9e-16)
    ok = (result.residual < 1e-12
          and abs(result.c_f - oracle) < 1e-10
          and abs(result.c_f - 0.114569) < 1e-6
          and best < 1e-3)
    _report(1, ok, f"c_f={result.c_f:.12f}, |residual|={result.residual:.2e}, "
                   f"|c_f-bisection|={abs(result.c_f - oracle):.2e}, "
                   f"runtime={best * 1e3:.3f} ms")
    assert ok


def _newton_2d(ell0, c0):
    """Independent pulse oracle: damped Newton on (energy, width-derivative)
    with a finite-difference Jacobian."""
    ell, c = ell0, c0
    d = 1e-7
    for _ in range(80):
        je = interval_energy(ell, char_roots(c, PULSE.gamma), PULSE)
        f = np.array([je.value, je.d_width])
        if max(abs(f[0]), abs(f[1])) < 1e-13:
            return ell, c
        jac = np.empty((2, 2))
        for j, (dl, dc) in enumerate(((d, 0.0), (0.0, d))):
            p_hi = interval_energy(ell + dl, char_roots(c + dc, PULSE.gamma), PULSE)
            p_lo = interval_energy(ell - dl, char_roots(c - dc, PULSE.gamma), PULSE)
            jac[0, j] = (p_hi.value - p_lo.value) / (2 * d)
            jac[1, j] = (p_hi.d_width - p_lo.d_width) / (2 * d)
        step = np.linalg.solve(jac, f)
        scale = 1.0
        while (ell - scale * step[0] <= 0.0 or c - scale * step[1] <= 0.0):
            scale *= 0.5
        ell -= scale * step[0]
        c -= scale * step[1]
    return ell, c


def test_criterion_2_pulse_oracle_equivalence():
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        result = pulse_speed(PULSE)
        best = min(best, time.perf_counter() - t0)
    agreements = []
    for ell0, c0 in [(2.0, 1.0), (3.0, 2.0), (4.0, 3.0), (2.5, 2.5)]:
        ell_n, c_n = _newton_2d(ell0, c0)
        agreements.append((abs(c_n - result.c_p), abs(ell_n - result.ell_p)))
    worst = max(max(pair) for pair in agreements)
    roots = char_roots(result.c_p, PULSE.gamma)
    curvature = interval_energy(result.ell_p, roots, PULSE).d_width2
    ok = (worst < 1e-8 and result.ell_p > math.log(3.0)
          and curvature > 0.0 and best < 1e-2)
    _report(2, ok, f"c_p={result.c_p:.12f}, ell_p={result.ell_p:.12f}, "
                   f"max |bisection-newton|={worst:.2e}, "
                   f"d2J/dl2={curvature:.4f}, runtime={best * 1e3:.2f} ms")
    assert ok


def test_criterion_3_monotonicity_and_signs():
    rng = np.random.default_rng(12345)
    n = 10000
    slack = 1e-12
    violations = {"K": 0, "dJ_dc": 0, "dQ_dl": 0, "dQ_dc": 0, "dF_dc": 0,
                  "L_increasing": 0}
    for _ in range(n):
        ell = rng.uniform(1e-3, 50.0)
        c = rng.uniform(1e-3, 50.0)
        r = char_roots(c, 1.0)  # PULSE and FRONT both have gamma = 1
        if speed_derivative_factor(ell, r) >= slack:
            violations["K"] += 1
        if interval_energy(ell, r, PULSE).d_speed >= slack:
            violations["dJ_dc"] += 1
        q = width_condition(ell, r, PULSE)
        if q.d_width >= slack:
            violations["dQ_dl"] += 1
        if q.d_speed <= -slack:
            violations["dQ_dc"] += 1
        if interval_energy(math.inf, r, FRONT).d_speed >= slack:
            violations["dF_dc"] += 1
    for _ in range(n):
        c = rng.uniform(1e-3, 50.0)
        if optimal_width(1.01 * c, PULSE) - optimal_width(c, PULSE) <= -slack:
            violations["L_increasing"] += 1
    total = sum(violations.values())
    ok = total == 0
    _report(3, ok, f"{n} random points per check, violations={violations}")
    assert ok


def test_criterion_4_identity_suite():
    rng = np.random.default_rng(999)
    worst = {"roots_sum": 0.0, "gap": 0.0, "width_chain": 0.0,
             "q_relation": 0.0, "jstar": 0.0}
    for _ in range(2000):
        ell = rng.uniform(1e-3, 40.0)
        c = rng.uniform(0.02, 50.0)
        r = char_roots(c, 1.0)
        worst["roots_sum"] = max(worst["roots_sum"], abs(r.r1 + r.r2 + 1.0))
        h = r.ratio
        worst["gap"] = max(worst["gap"], abs(r.gap - 1.0 / h) * h)
        je = interval_energy(ell, r, PULSE)
        chain = (0.5 * (1.0 + h) * (1.0 - math.exp(-r.r2 * ell))
                 - (SQRT2 / 12.0) * (PULSE.alpha + 1.0))
        lhs = math.exp(ell) * je.d_width
        worst["width_chain"] = max(
            worst["width_chain"],
            abs(lhs - chain) / max(abs(lhs), abs(chain), 1e-300))
        # general linear relation between the width condition, the energy
        # and its width derivative (the stated two-term form is its
        # restriction to the zero-energy set)
        q = width_condition(ell, r, PULSE).value
        comb = ((je.d_width + je.value) / (1.0 - math.exp(r.r1 * ell))
                + math.exp(ell) * je.d_width / (1.0 - math.exp(-r.r2 * ell)))
        worst["q_relation"] = max(
            worst["q_relation"], abs(comb + q) / max(abs(q), abs(comb), 1e-12))
    for _ in range(200):
        b = rng.uniform(-3.0, 2.0)
        ell = rng.uniform(0.1, 20.0)
        c = rng.uniform(0.05, 20.0)
        e = IntervalUnion.single(b - ell, b)
        total = sharp_interface_energy(e, c, PULSE).total
        ref = math.exp(b) * interval_energy(ell, char_roots(c, 1.0), PULSE).value
        worst["jstar"] = max(worst["jstar"],
                             abs(total - ref) / max(abs(ref), 1e-12))
    # the two-term form holds on the zero-energy set: check it at the pulse
    pr = pulse_speed(PULSE)
    r = char_roots(pr.c_p, 1.0)
    bracket = (1.0 / (1.0 - math.exp(r.r1 * pr.ell_p))
               + math.exp(pr.ell_p) / (1.0 - math.exp(-r.r2 * pr.ell_p)))
    lhs = interval_energy(pr.ell_p, r, PULSE).d_width
    rhs = -width_condition(pr.ell_p, r, PULSE).value / bracket
    at_pulse = abs(lhs - rhs)
    small = abs(interval_energy(1e-12, char_roots(1.0, 1.0), PULSE).value
                - SQRT2 / 6.0) / (SQRT2 / 6.0)
    ok = (max(worst.values()) < 1e-10 and at_pulse < 1e-10
          and small < 1e-10)
    _report(4, ok, "max relative errors: "
            + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
            + f", two-term form at pulse={at_pulse:.2e}, "
              f"small-width limit={small:.2e}")
    assert ok


def test_criterion_5_operator_convergence():
    c = gamma = 1.0
    errs = []
    for h in (0.02, 0.01):
        grid = Grid(-21.0, 9.0, int(round(30.0 / h)) + 1)
        chi = IntervalUnion.single(-1.0, 0.0).indicator(grid)
        v = InhibitorOperator(grid, c, gamma).solve(chi.values)
        errs.append(float(np.max(np.abs(v - lc_indicator(1.0, c, gamma)(grid.x)))))
    ratio = errs[0] / errs[1]

    grid = Grid(-12.0, 4.0, 6401)
    op = InhibitorOperator(grid, 1.4, 1.0)
    w = np.exp(grid.x)
    rng = np.random.default_rng(77)
    window = np.clip(grid.x - grid.x_lo - 2.0, 0.0, 1.0) \
        * np.clip(grid.x_hi - 2.0 - grid.x, 0.0, 1.0)
    sym_worst, energy_min = 0.0, math.inf
    for _ in range(100):
        u = np.zeros(grid.n)
        v2 = np.zeros(grid.n)
        for _ in range(3):
            u += rng.uniform(-1, 1) * np.exp(
                -((grid.x - rng.uniform(-7, 0)) / rng.uniform(0.3, 1.0)) ** 2)
            v2 += rng.uniform(-1, 1) * np.exp(
                -((grid.x - rng.uniform(-7, 0)) / rng.uniform(0.3, 1.0)) ** 2)
        u *= window
        v2 *= window
        pair_uv = float(np.trapezoid(w * u * op.solve(v2), dx=grid.h))
        pair_vu = float(np.trapezoid(w * v2 * op.solve(u), dx=grid.h))
        sym_worst = max(sym_worst, abs(pair_uv - pair_vu)
                        / max(abs(pair_uv), abs(pair_vu), 1e-12))
        energy_min = min(energy_min,
                         float(np.trapezoid(w * u * op.solve(u), dx=grid.h)))
    ok = 3.5 <= ratio <= 4.5 and sym_worst < 1e-4 and energy_min > -1e-10
    _report(5, ok, f"error ratio h/(h/2)={ratio:.3f}, "
                   f"worst self-adjointness defect={sym_worst:.2e}, "
                   f"min nonlocal energy={energy_min:.2e}")
    assert ok


def test_criterion_6_weighted_space_laws():
    tv = total_variation_e(IntervalUnion.single(0.0, 1.0))
    tv_exact = tv == 1.0 + math.e

    g = Grid(-20.0, 10.0, 3001)
    f = SampledFunction.from_callable(
        g, lambda x: np.exp(-(x + 5.0) ** 2))
    a = 2.0
    n0, n1 = l2e_norm(g, f.values), l2e_norm(g, shift(f, a).values)
    shift_err = abs(n1 - math.exp(-a / 2.0) * n0) / n0

    rng = np.random.default_rng(31)
    x = g.x
    window = np.clip(x - g.x_lo - 1.0, 0, 1) * np.clip(g.x_hi - 1.0 - x, 0, 1)
    poincare_ok = True
    for _ in range(100):
        bump = rng.uniform(0.2, 3.0) * np.exp(
            -((x - rng.uniform(-10.0, 2.0)) / rng.uniform(0.3, 2.0)) ** 2)
        prof = bump * window
        df = np.diff(prof) / g.h
        lhs = float(np.sum(np.exp(0.5 * (x[1:] + x[:-1])) * df**2 * g.h))
        rhs = 0.25 * float(np.trapezoid(np.exp(x) * prof**2, dx=g.h))
        if lhs < rhs * (1.0 - 1e-8):
            poincare_ok = False
    ok = tv_exact and shift_err < g.h**2 * 10 and poincare_ok
    _report(6, ok, f"TV(chi_[0,1])={tv!r} (exact 1+e: {tv_exact}), "
                   f"shift identity error={shift_err:.2e}, "
                   f"Poincare on 100 profiles: {poincare_ok}")
    assert ok


def _weakly_decreasing(values) -> bool:
    """Each value at most its predecessor, with 1e-12 slack."""
    return all(b <= a + 1e-12 for a, b in zip(values[:-1], values[1:]))


@pytest.mark.slow
def test_criterion_7_desk_scale_convergence():
    t0 = time.time()
    ladder = [0.04, 0.02, 0.01]

    pulse_detail, pulse_ok = "", False
    c_p = pulse_speed(PULSE).c_p
    try:
        rows = list(convergence_study(ladder, PULSE))
        errs_c = [row["err_c"] for row in rows]
        errs_u = [row["err_u_l2e"] for row in rows]
        pulse_ok = (_weakly_decreasing(errs_c) and _weakly_decreasing(errs_u)
                    and errs_c[-1] < 0.1 * c_p)
        pulse_detail = (f"pulse err_c={[f'{e:.4f}' for e in errs_c]}, "
                        f"err_u={[f'{e:.4f}' for e in errs_u]}, "
                        f"final err_c/c_p="
                        f"{errs_c[-1] / c_p:.4f}")
    except BracketError as exc:
        pulse_detail = f"pulse study failed: {exc}"

    front_detail, front_ok = "", False
    c_f = front_speed(FRONT).c_f
    try:
        rows = list(convergence_study(ladder, FRONT))
        errs_c = [row["err_c"] for row in rows]
        errs_u = [row["err_u_l2e"] for row in rows]
        front_ok = (_weakly_decreasing(errs_c) and _weakly_decreasing(errs_u)
                    and errs_c[-1] < 0.1 * c_f)
        front_detail = (f"front err_c={[f'{e:.4f}' for e in errs_c]}, "
                        f"final err_c/c_f={errs_c[-1] / c_f:.4f}")
    except BracketError as exc:
        # at eps = 0.04 and 0.02 the constrained minimum at front
        # parameters is negative at every positive speed: at zero speed it
        # reads m_0(0+) - 1.556 eps, with m_0(0+) = 0.02860 the limit value,
        # and it decreases in the speed, so a front of positive speed needs
        # eps below about 0.0184
        front_detail = f"front study failed: {exc}"

    runtime = time.time() - t0
    ok = pulse_ok and front_ok and runtime < 1800.0
    _report(7, ok, f"{pulse_detail}; {front_detail}; "
                   f"runtime={runtime / 60.0:.1f} min")
    assert ok


@pytest.mark.slow
def test_criterion_8_recovery_limsup():
    c_f = front_speed(FRONT).c_f
    e = IntervalUnion.single(-math.inf, 0.0)
    gaps, residuals = [], []
    for eps in (0.04, 0.02, 0.01):
        p = Params(FRONT.alpha, FRONT.gamma, FRONT.sigma, eps)
        residuals.append(recovery_profile(eps).first_integral_residual())
        grid = solver_grid(e, eps)
        profile = build_recovery(e, p, grid)
        total = DiscreteEnergy(grid, c_f, p).report(profile.w.values).total
        # the sharp-interface value at the front speed is 0
        gaps.append(abs(total))
    ok = (gaps[0] >= gaps[1] >= gaps[2] and gaps[-1] < 0.1
          and max(residuals) < 1e-8)
    _report(8, ok, f"energy gaps along eps ladder={[f'{v:.4f}' for v in gaps]}, "
                   f"max first-integral residual={max(residuals):.2e}")
    assert ok


def test_criterion_9_equal_area_slope_consistency():
    worst = 0.0
    for eps in (0.04, 0.02, 0.01):
        p = Params(2.0, 1.0, 1.0, eps)
        ratio = gamma_star(p) / gamma_star_limit(p)
        if abs(ratio - 1.0) > 2.0 * eps:
            worst = max(worst, abs(ratio - 1.0) / (2.0 * eps))
    ok = worst == 0.0
    _report(9, ok, "slope ratio within 2*eps of 1 on the ladder"
            if ok else f"worst excess={worst:.3f}")
    assert ok
