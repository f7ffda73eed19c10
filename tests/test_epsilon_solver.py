import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from fhn_gamma import epsilon_solver
from fhn_gamma.epsilon_solver import (
    GRID_WEIGHT_TOL,
    SPEED_GRAD_TOL,
    SPEED_NORM_TOL,
    DiscreteEnergy,
    EnergyReport,
    MinimizeResult,
    build_recovery,
    minimize_energy,
    profile_box,
    recovery_profile,
    solver_grid,
    speed_eps,
)
from fhn_gamma.errors import BracketError, InvalidParameterError
from fhn_gamma.nonlocal_operator import InhibitorOperator
from fhn_gamma.limit_energy import sharp_interface_energy
from fhn_gamma.model import F0, G, Params, f_eps
from fhn_gamma.wave_speeds import front_speed, limit_speed, pulse_speed
from fhn_gamma.weighted_space import (
    Grid,
    IntervalUnion,
    SampledFunction,
    l2e_norm,
    shift,
    weighted_dot,
)

FRONT = Params(5.0, 1.0, 1.0, 0.04)
HALF_LINE = IntervalUnion.single(-math.inf, 0.0)


def small_grid(eps):
    # short left tail keeps the unit tests fast; the discarded weight only
    # perturbs norms at the 1e-5 level, well inside the tolerances used here
    return Grid.for_interval(3.0, eps / 8.0, x_lo=-12.0)


def test_recovery_profile_shape():
    # the closed form reads -1.1e-16 just right of 0 at eps = 1e-3, so the
    # window ends are sampled down to the smallest offsets
    for eps in (0.04, 0.01, 1e-3):
        rp = recovery_profile(eps)
        assert rp.rho_eps <= math.sqrt(eps)
        ends = np.geomspace(1e-300, 1e-6 * rp.rho_eps, 200)
        t = np.sort(np.concatenate([
            np.linspace(-0.1 * rp.rho_eps, 1.1 * rp.rho_eps, 100_001),
            ends, rp.rho_eps - ends]))
        u = rp.rising(t)
        assert np.all(u[t <= 0.0] == 0.0) and np.all(u[t >= rp.rho_eps] == 1.0)
        assert np.all((u >= 0.0) & (u <= 1.0)) and np.all(np.diff(u) >= 0.0)
        assert rp.first_integral_residual() < 1e-15


def test_recovery_profile_reflection():
    # build_recovery's right ends use the reflection rising(rho_eps - t):
    # 1 below the window, 0 above, and 1 - rising(t), as F0 is symmetric
    # about 1/2
    rp = recovery_profile(0.02)
    t = np.linspace(-0.1, rp.rho_eps + 0.1, 37)
    falling = rp.rising(rp.rho_eps - t)
    assert np.all(falling[t <= 0.0] == 1.0) and np.all(falling[t >= rp.rho_eps] == 0.0)
    assert np.all(np.diff(falling) <= 0.0)
    assert np.allclose(falling, 1.0 - rp.rising(t), atol=1e-13)


def test_recovery_profile_rejects_bad_eps():
    # a NaN or infinite width would give a profile of NaNs
    for eps in (0.0, -0.04, math.nan, math.inf):
        with pytest.raises(InvalidParameterError):
            recovery_profile(eps)


def _interface_x(eps, u):
    """x(u), the integral of eps / sqrt(eps + 2 F0) from 0 to u, by quad."""
    return quad(lambda v: eps / math.sqrt(eps + 2.0 * F0(v)), 0.0, u,
                epsabs=0.0, epsrel=1e-13, limit=200)[0]


@pytest.mark.parametrize("eps", [0.5, 0.04, 1e-3, 2.5e-5])
def test_recovery_profile_matches_an_independent_quadrature(eps):
    rp = recovery_profile(eps)
    assert abs(rp.rho_eps / _interface_x(eps, 1.0) - 1.0) <= 1e-12
    u = np.linspace(0.0, 1.0, 41)
    x = np.array([_interface_x(eps, v) for v in u])
    assert np.max(np.abs(rp.rising(x) - u)) <= 1e-12


@pytest.mark.parametrize("case", ["front", "pulse"])
def test_build_recovery_window_nodes_match_the_quadrature(case):
    # a node in a rising window at a reads u with x(u) = x - a + shift, one in
    # a falling window at b reads u with x(u) = b + shift - x, one shift in
    # [0, rho_eps] for all windows
    eps = 0.04
    if case == "front":
        e, p = HALF_LINE, Params(5.0, 1.0, 1.0, eps)
    else:
        e, p = pulse_speed(Params(2.0, 1.0, 1.0)).limit_set, Params(2.0, 1.0, 1.0, eps)
    grid = solver_grid(e, eps)
    w = build_recovery(e, p, grid).w.values
    (a, b), = e.intervals
    window = np.flatnonzero((w > 0.0) & (w < 1.0))
    assert window.size > 20
    shifts = []
    for i in window:
        x_u = _interface_x(eps, w[i])
        x = grid.x[i]
        shifts.append(x_u + a - x if x < 0.5 * (a + b) else x_u + x - b)
    assert max(shifts) - min(shifts) <= 1e-12
    assert 0.0 <= min(shifts) and max(shifts) <= recovery_profile(eps).rho_eps


def test_recovery_profile_refuses_a_width_below_the_closed_form():
    # m = (1 + 1/(4 g^2)) / 2 rounds to 1, where rho_eps is infinite
    with pytest.raises(InvalidParameterError, match="closed form"):
        recovery_profile(1e-20)


def test_build_recovery_front_set():
    grid = solver_grid(HALF_LINE, FRONT.epsilon)
    profile = build_recovery(HALF_LINE, FRONT, grid)
    assert abs(profile.l2e_norm - 1.0) <= 1e-10
    assert profile.w.values.min() >= 0.0
    assert profile.w.values.max() <= 1.0


def test_build_recovery_requires_normalized_set():
    e = IntervalUnion.single(-1.0, 0.0)  # weighted measure 1 - 1/e
    grid = solver_grid(e, FRONT.epsilon)
    with pytest.raises(InvalidParameterError):
        build_recovery(e, FRONT, grid)


def test_build_recovery_separation_error():
    # two intervals with unit total measure but a 0.1-wide gap, closer than
    # the interface windows allow at eps = 0.04
    s = -math.log(
        (1.0 - math.exp(-0.5)) + (math.exp(-0.6) - math.exp(-0.7)))
    e = IntervalUnion(((s - 0.5, s), (s - 0.7, s - 0.6)))
    assert e.l1e_norm == pytest.approx(1.0, rel=1e-12)
    grid = solver_grid(e, 0.04)
    with pytest.raises(InvalidParameterError, match="separation"):
        build_recovery(e, Params(2.0, 1.0, 1.0, 0.04), grid)


def test_build_recovery_grid_too_short():
    grid = Grid.for_interval(0.0, 0.005, x_lo=-12.0)
    with pytest.raises(InvalidParameterError, match="grid ends"):
        build_recovery(HALF_LINE, FRONT, grid)


def test_recovery_window_is_shorter_than_half_the_interface_separation():
    # build_recovery asks interfaces to lie 2 sqrt(eps) apart, so windows of
    # width rho_eps < sqrt(eps) never share a node
    for eps in np.geomspace(1e-4, 0.5, 12):
        assert recovery_profile(eps).rho_eps < math.sqrt(eps)


def _full_grid_recovery(e, p, grid):
    """The recovery profile assembled as the maximum over intervals of the
    minimum of rising and falling windows, each evaluated on every node."""
    rp = recovery_profile(p.epsilon)
    x = grid.x

    def profile(theta):
        values = np.zeros_like(x)
        for a, b in e.intervals:
            piece = rp.rising(b + theta * rp.rho_eps - x)
            if math.isfinite(a):
                piece = np.minimum(piece, rp.rising(x - a + theta * rp.rho_eps))
            values = np.maximum(values, piece)
        return values

    theta = brentq(lambda t: l2e_norm(grid, profile(t)) - 1.0, 0.0, 1.0,
                   xtol=1e-14)
    return profile(theta)


@pytest.mark.parametrize("eps", [0.04, 0.01])
@pytest.mark.parametrize("case", ["front", "pulse", "union"])
def test_build_recovery_matches_the_full_grid_assembly(case, eps):
    if case == "front":
        e, p = HALF_LINE, Params(5.0, 1.0, 1.0, eps)
    elif case == "pulse":
        e, p = pulse_speed(Params(2.0, 1.0, 1.0)).limit_set, Params(2.0, 1.0, 1.0, eps)
    else:
        ivs = ((-0.3, 0.4), (-1.5, -0.9), (-3.1, -2.2))
        s = -math.log(sum(math.exp(b) - math.exp(a) for a, b in ivs))
        e = IntervalUnion(tuple((a + s, b + s) for a, b in ivs))
        p = Params(2.0, 1.0, 1.0, eps)
    grid = solver_grid(e, eps)
    got = build_recovery(e, p, grid).w.values
    assert np.array_equal(got, _full_grid_recovery(e, p, grid))


def test_grid_caches_only_its_nodes_and_quadrature():
    p = Params(2.0, 1.0, 1.0, 0.04)
    pulse = pulse_speed(Params(2.0, 1.0, 1.0))
    grid = solver_grid(pulse.limit_set, p.epsilon)
    init = build_recovery(pulse.limit_set, p, grid).w.values
    engine = DiscreteEnergy(grid, pulse.c_p, p)
    engine.value_and_grad(init)
    minimize_energy(engine, init, max_iter=5)
    assert set(vars(grid)) - {"x_lo", "x_hi", "n"} == {"x", "quadrature"}


def test_profile_box_solves_the_cubic_level(monkeypatch):
    # the top face is beta2 = 1.01, and m1 = -lo - 1 solves
    # gamma M (M + beta) (M + 1) = beta2: in exact rational arithmetic the
    # left side minus beta2 changes sign within 4 ulps of the face, also
    # where beta2 / gamma overflows (gamma below about 5.6e-309), and the
    # Newton solve stops within a few steps (at most 6 seen on a dense grid)
    steps = []
    newton = epsilon_solver._newton_root

    def counted(f, *args, **kwargs):
        def counted_f(y):
            steps.append(y)
            return f(y)
        return newton(counted_f, *args, **kwargs)

    monkeypatch.setattr(epsilon_solver, "_newton_root", counted)
    gammas = (5e-324, 1e-320, 1e-300, 1e-6, 1.0, 1e6, 1e300)
    for gamma, alpha in itertools.product(gammas, (1.1, 2.0, 5.0, 20.0)):
        for eps in (1e-4, 0.999 * Params(alpha, gamma, 1.0).epsilon_cap):
            p = Params(alpha, gamma, 1.0, eps)
            steps.clear()
            lo, hi = profile_box(p)
            assert hi == 1.01
            assert len(steps) <= 10

            def level(m):
                return (Fraction(gamma) * m * (m + Fraction(p.beta_eps))
                        * (m + 1) - Fraction(1.01))

            m1, d = -Fraction(lo) - 1, 4 * Fraction(math.ulp(lo))
            assert level(max(m1 - d, Fraction(0))) <= 0 <= level(m1 + d)
    # beta2 / gamma is inf here; M is 4.657e106, not the 5.64e102 at which
    # the cubic itself overflows
    assert profile_box(Params(2.0, 1e-320, 1.0, 0.04))[0] == pytest.approx(
        -(1.0 + 4.6570267898108e106), rel=1e-13)


@pytest.mark.parametrize("alpha", [1.05, 1.1])
def test_solver_grid_covers_left_end_of_pulse(alpha):
    # a = -46.69 at alpha = 1.05 lies left of DEFAULT_X_LO = -34; a = -23.88
    # at alpha = 1.1 lies right of it but left of ln GRID_WEIGHT_TOL
    p = Params(alpha, 1.0, 1.0, 0.04)
    e = pulse_speed(Params(alpha, 1.0, 1.0)).limit_set
    grid = solver_grid(e, p.epsilon)
    assert grid.x_lo <= e.leftmost - 10.0
    profile = build_recovery(e, p, grid)
    assert abs(profile.l2e_norm - 1.0) <= 1e-10
    assert profile.w.values[0] == 0.0
    assert profile.w.values.max() == 1.0
    old = Grid.for_interval(e.rightmost + 10.0, p.epsilon / 8.0)
    if old.x_lo > e.leftmost:
        with pytest.raises(InvalidParameterError, match="grid starts"):
            build_recovery(e, p, old)


def test_energy_of_zero_profile_is_zero():
    grid = small_grid(0.04)
    engine = DiscreteEnergy(grid, 1.0, FRONT)
    report = engine.report(np.zeros(grid.n))
    assert report.total == 0.0


def test_energy_report_sums_and_nonnegative_nonlocal():
    grid = solver_grid(HALF_LINE, FRONT.epsilon)
    profile = build_recovery(HALF_LINE, FRONT, grid)
    engine = DiscreteEnergy(grid, 0.5, FRONT)
    report = engine.report(profile.w.values)
    assert report.total == pytest.approx(
        report.gradient + report.potential + report.tilt
        + report.nonlocal_term)
    assert report.nonlocal_term >= 0.0
    assert report.gradient >= 0.0


def test_value_and_grad_consistent_with_report():
    grid = small_grid(0.04)
    engine = DiscreteEnergy(grid, 1.0, FRONT)
    rng = np.random.default_rng(2)
    w = engine.project(rng.uniform(0.0, 1.0, grid.n))
    value, grad = engine.value_and_grad(w)
    assert value == pytest.approx(engine.report(w).total, rel=1e-12)
    # one energy formula: the value is the report's total, bit for bit
    assert value == engine.report(w).total
    d = rng.standard_normal(grid.n)
    d /= np.linalg.norm(d)
    t = 1e-6
    fd = (engine.value_and_grad(w + t * d)[0]
          - engine.value_and_grad(w - t * d)[0]) / (2 * t)
    assert fd == pytest.approx(float(grad @ d), rel=1e-5, abs=1e-9)


def test_energy_shift_covariance():
    # translating a compactly supported profile right by a grid-aligned a
    # multiplies the energy by e^{a}
    eps = 0.04
    grid = Grid.for_interval(4.0, eps / 8.0, x_lo=-16.0)
    x = grid.x
    w = np.exp(-((x + 4.0) / 0.8) ** 2)
    from fhn_gamma.weighted_space import SampledFunction

    f = SampledFunction(grid, w)
    a = 2.0
    engine = DiscreteEnergy(grid, 1.0, FRONT)
    base = engine.report(f.values).total
    moved = engine.report(shift(f, -a).values).total
    assert moved == pytest.approx(math.exp(a) * base, rel=1e-4)


def test_minimize_descends_and_respects_lower_bound():
    eps = 0.04
    p = FRONT
    grid = small_grid(eps)
    e = HALF_LINE
    # recovery needs the true solver grid; build by hand on the short one
    engine = DiscreteEnergy(grid, front_speed(Params(5.0, 1.0, 1.0)).c_f, p)
    x = grid.x
    init = engine.project(np.where(x < 0.0, 1.0, 0.0) + 0.0)
    f0 = engine.report(init).total
    result = minimize_energy(engine, init, max_iter=400)
    assert result.value <= f0 + 1e-12
    # pointwise potential bound: the energy cannot sink below the most
    # negative value of the rescaled potential over the box
    lo, hi = engine.box
    u = np.linspace(lo, hi, 400)
    f_full = F0(u) + p.alpha * p.epsilon * G(u)
    m2 = max(-f_full.min() / max(lo * lo, hi * hi), 0.0)
    assert result.value >= -(m2 / p.epsilon) - p.alpha - 1.0


def test_minimize_short_budget_still_descends():
    grid = small_grid(0.04)
    engine = DiscreteEnergy(grid, 1.0, FRONT)
    init = engine.project(np.where(grid.x < 0.0, 1.0, 0.0) + 0.0)
    prev = engine.report(init).total
    res = minimize_energy(engine, init, max_iter=50)
    assert res.value <= prev + 1e-12
    assert not res.converged or res.grad_norm < 1e-6


@pytest.mark.parametrize("max_iter, tol", [
    (0, 1e-6), (-1, 1e-6), (10, 0.0), (10, -1.0), (10, math.nan),
    (10, math.inf),
])
def test_minimize_rejects_unusable_budget_or_tolerance(max_iter, tol):
    grid = small_grid(0.04)
    engine = DiscreteEnergy(grid, 1.0, FRONT)
    init = np.where(grid.x < 0.0, 1.0, 0.0)
    with pytest.raises(InvalidParameterError, match="max_iter >= 1"):
        minimize_energy(engine, init, tol=tol, max_iter=max_iter)


def test_minimizer_thresholds_to_a_set_with_comparable_limit_energy():
    # desk-scale lower-bound sandwich: the geometric energy of the
    # half-level set of the minimizer stays within 0.1 of the minimum
    eps = 0.04
    p = FRONT
    c_f = front_speed(Params(5.0, 1.0, 1.0)).c_f
    grid = solver_grid(HALF_LINE, eps)
    init = build_recovery(HALF_LINE, p, grid)
    engine = DiscreteEnergy(grid, c_f, p)
    result = minimize_energy(engine, init.w.values, max_iter=1500)
    w = result.profile.values
    above = grid.x[w > 0.5]
    rounded = IntervalUnion.single(-math.inf, float(above.max()))
    geo = sharp_interface_energy(rounded, c_f, Params(5.0, 1.0, 1.0))
    assert geo.total <= result.value + 0.1


def _no_minimization(monkeypatch):
    def no_minimization(*args, **kwargs):
        raise AssertionError("minimized before checking the bracket ends")

    monkeypatch.setattr(epsilon_solver, "minimize_energy", no_minimization)


def test_speed_eps_degenerate_bracket(monkeypatch):
    # an empty or reversed bracket is invalid input, refused before any
    # minimization, as an end that is not a speed is
    _no_minimization(monkeypatch)
    grid = small_grid(0.04)
    for c_lo, c_hi in [(1.0, 1.0), (3.0, 2.0)]:
        with pytest.raises(InvalidParameterError, match="c_lo < c_hi"):
            speed_eps(FRONT, c_lo, c_hi, grid, np.zeros(grid.n))


@pytest.mark.parametrize("c_lo, c_hi", [
    (math.nan, 1.0), (-1.0, 1.0), (0.0, 1.0), (math.inf, 1.0),
    (0.5, math.inf), (0.5, math.nan),
])
def test_speed_eps_rejects_ends_that_are_not_speeds(c_lo, c_hi, monkeypatch):
    # checked before any minimization, and invalid input, not a bracket
    # failure
    _no_minimization(monkeypatch)
    grid = small_grid(0.04)
    with pytest.raises(InvalidParameterError, match="speed"):
        speed_eps(FRONT, c_lo, c_hi, grid, np.zeros(grid.n))


def _recorded_minima(monkeypatch):
    """(speed, minimum) of every minimize_energy call in epsilon_solver."""
    minima = []
    minimize = epsilon_solver.minimize_energy

    def recorded(engine, *args, **kwargs):
        res = minimize(engine, *args, **kwargs)
        minima.append((engine.c, res.value))
        return res

    monkeypatch.setattr(epsilon_solver, "minimize_energy", recorded)
    return minima


def test_speed_eps_no_sign_change_reports_endpoints(minimized_speeds):
    # the pulse (2, 1, 1) at eps = 0.04 on a bracket above its speed, where
    # m has no sign change: Newton from sqrt(c_lo c_hi) finds the root all
    # the same, below the bracket, and the error names it and both ends
    p = Params(2.0, 1.0, 1.0, 0.04)
    pulse = pulse_speed(Params(2.0, 1.0, 1.0))
    grid = solver_grid(pulse.limit_set, p.epsilon)
    init = build_recovery(pulse.limit_set, p, grid)
    c_lo, c_hi = 2.0 * pulse.c_p, 4.0 * pulse.c_p
    with pytest.raises(BracketError) as info:
        speed_eps(p, c_lo, c_hi, grid, init.w.values, max_iter=50)
    message = str(info.value)
    prefix, root = "the speed root c = ", message.split()[5]
    assert message == (f"{prefix}{root} lies outside the bracket "
                       f"[{c_lo}, {c_hi}]")
    assert float(root) == pytest.approx(_PULSE_ROOT, abs=1e-8)
    assert minimized_speeds == []


def test_speed_eps_names_a_zero_speed_minimum_that_is_not_positive(
        monkeypatch):
    # at front parameters and eps = 0.04 Newton from c_f fails twice, the
    # second time after a fallback minimization at c_f; the zero-speed
    # minimum from that minimizer, an upper bound on m(0), reads -0.0336,
    # and m decreases in c, so no front of positive speed exists at this
    # width
    eps = 0.04
    grid = solver_grid(HALF_LINE, eps)
    init = build_recovery(HALF_LINE, FRONT, grid)
    c_f = front_speed(Params(5.0, 1.0, 1.0)).c_f
    minima = _recorded_minima(monkeypatch)
    c_lo, c_hi = 0.5 * c_f, 2.0 * c_f
    with pytest.raises(BracketError) as info:
        speed_eps(FRONT, c_lo, c_hi, grid, init.w.values, max_iter=800)
    [(c, _), (zero, m_0)] = minima
    assert c == math.sqrt(c_lo * c_hi) == pytest.approx(c_f, rel=1e-15)
    assert zero == 0.0 and m_0 == pytest.approx(-0.0336, abs=5e-4)
    assert str(info.value) == (
        f"no wave of positive speed at ε = {eps}: m_ε(0) = {m_0} is not "
        f"positive, and m decreases in c"
    )


@pytest.mark.parametrize("alpha, gamma, sigma", [
    (5.0, 1.0, 1.0), (2.0, 0.3, 1.7), (1.5, 4.0, 0.2),
])
def test_zero_speed_nonlocal_term_is_sigma_over_two_gamma(alpha, gamma,
                                                          sigma):
    # at c = 0 the inhibitor is local, v = w / gamma, so on the unit sphere
    # the nonlocal term is sigma / (2 gamma) whatever the profile, the
    # gradient is that of the local energy, and the energy has no slope in c
    p = Params(alpha, gamma, sigma, 0.04)
    grid = small_grid(p.epsilon)
    engine = DiscreteEnergy(grid, 0.0, p)
    rng = np.random.default_rng(7)
    for w in (rng.uniform(0.0, 1.0, grid.n), rng.standard_normal(grid.n),
              np.where(grid.x < 0.0, 1.0, 0.0)):
        w = w / l2e_norm(grid, w)
        assert engine.report(w).nonlocal_term == pytest.approx(
            0.5 * sigma / gamma, rel=1e-12)
        assert engine.d_speed(w) == 0.0
    w = engine.project(rng.uniform(0.0, 1.0, grid.n))
    value, grad = engine.value_and_grad(w)
    d = rng.standard_normal(grid.n)
    d /= np.linalg.norm(d)
    t = 1e-6
    fd = (engine.value_and_grad(w + t * d)[0]
          - engine.value_and_grad(w - t * d)[0]) / (2 * t)
    assert fd == pytest.approx(float(grad @ d), rel=1e-5, abs=1e-9)


def test_value_only_trials_match_full_evaluations(monkeypatch):
    # every trial and every accepted gradient through value_and_grad of a
    # separate engine, as if each trial paid for a full evaluation: the
    # minimization must not move by a bit
    grid = small_grid(0.04)
    engine = DiscreteEnergy(grid, 1.0, FRONT)
    init = engine.project(np.where(grid.x < 0.0, 1.0, 0.0) + 0.0)
    fast = minimize_energy(engine, init, max_iter=200)

    full = DiscreteEnergy(grid, 1.0, FRONT)

    def terms(values):
        out = full._terms(values)
        assert full.value_and_grad(values)[0] == out[0].total
        return out

    monkeypatch.setattr(engine, "_terms", terms)
    monkeypatch.setattr(engine, "_gradient",
                        lambda values, flux, v: full.value_and_grad(values)[1])
    slow = minimize_energy(engine, init, max_iter=200)
    assert fast.iterations == slow.iterations > 0
    assert fast.value == slow.value
    assert fast.grad_norm == slow.grad_norm
    assert fast.converged == slow.converged
    assert fast.report == slow.report == full.report(fast.profile.values)
    assert fast.profile.values.tobytes() == slow.profile.values.tobytes()


# -- the kernel against the textbook expressions, bit for bit ---------------
#
# The minimizer's iteration counts are chaotic in the last bit of every
# float it reads, so the kernel must not move one: these expressions are the
# energy, gradient, preconditioner and projection written the plain way,
# from model.F0, model.G, model.f_eps and weighted_dot.

def _textbook_terms(engine, w):
    p, grid, eps = engine.p, engine.grid, engine.p.epsilon
    dw = np.diff(w) / grid.h
    flux = np.exp(0.5 * (grid.x[1:] + grid.x[:-1])) * dw
    v = engine.op.solve(w)
    report = EnergyReport(
        gradient=0.5 * eps * grid.h * float(np.einsum("i,i->", flux, dw)),
        potential=weighted_dot(grid, F0(w), 1.0) / eps,
        tilt=p.alpha * weighted_dot(grid, G(w), 1.0),
        nonlocal_term=0.5 * p.sigma * weighted_dot(grid, w, v),
    )
    return report, flux, v


def _textbook_gradient(engine, w, flux, v):
    p, eps, q = engine.p, engine.p.epsilon, engine.grid.quadrature
    g_grad = np.zeros_like(w)
    g_grad[:-1] -= flux
    g_grad[1:] += flux
    g_grad *= eps
    g_local = -q * f_eps(w, p.beta_eps) / eps
    g_nonlocal = 0.5 * p.sigma * (q * v + engine.op.solve_transpose(q * w))
    return g_grad + g_local + g_nonlocal


def _textbook_preconditioner(engine, w):
    eps, beta = engine.p.epsilon, engine.p.beta_eps
    curvature = (3.0 * w * w - 2.0 * (1.0 + beta) * w + beta) / eps
    return 2.0 * eps / engine.grid.h**2 + np.maximum(curvature, 0.0) + 1.0


def _textbook_project(engine, w):
    clamped = np.clip(w, engine.box[0], engine.box[1])
    return clamped / l2e_norm(engine.grid, clamped)


def _reference_minimize(engine, init, tol=1e-6, max_iter=10000):
    """The projected BB loop of minimize_energy as it was before its array
    work was fused, on the textbook kernel; also counts the nodes the
    box-face masks zeroed."""
    grid = engine.grid
    q = grid.quadrature
    lo, hi = engine.box
    w = _textbook_project(engine, np.asarray(init, dtype=float))
    report, flux, v = _textbook_terms(engine, w)
    f, g = report.total, _textbook_gradient(engine, w, flux, v)
    report = None
    step = 1.0
    prev_w = prev_d = None
    grad_norm = math.inf
    converged = False
    masked = 0
    it = 0
    for it in range(1, max_iter + 1):
        d = g / q
        d -= weighted_dot(grid, d, w) * w
        for mask in ((w <= lo + 1e-12) & (d > 0.0),
                     (w >= hi - 1e-12) & (d < 0.0)):
            masked += int(mask.sum())
            d[mask] = 0.0
        grad_norm = math.sqrt(weighted_dot(grid, d, d))
        d /= _textbook_preconditioner(engine, w)
        if grad_norm < tol:
            converged, it = True, it - 1
            break
        if prev_w is not None:
            s = w - prev_w
            y = d - prev_d
            sy = weighted_dot(grid, s, y)
            if sy > 0.0:
                step = weighted_dot(grid, s, s) / sy
        step = min(max(step, 1e-10), 1e3)
        prev_w, prev_d = w, d

        accepted = False
        t = step
        for _ in range(60):
            trial = _textbook_project(engine, w - t * d)
            delta = trial - w
            dist2 = weighted_dot(grid, delta, delta)
            if dist2 == 0.0:
                break
            trial_report, flux, v = _textbook_terms(engine, trial)
            if trial_report.total <= f - 1e-4 * dist2 / max(t, 1e-300):
                w, report, f = trial, trial_report, trial_report.total
                g = _textbook_gradient(engine, w, flux, v)
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
    if report is None:
        report = _textbook_terms(engine, w)[0]
    return w, f, report, it, converged, grad_norm, masked


@pytest.fixture(scope="module")
def kernel_cases():
    """(engine, profile) for the pulse (2, 1, 1) at c_p and the front
    (5, 1, 1) at c_f, at eps = 0.04, each with its recovery profile, and a
    box-clipped random profile with negative entries on the pulse grid."""
    pulse = pulse_speed(Params(2.0, 1.0, 1.0))
    cases = {}
    for name, p, e, c in (
        ("pulse", Params(2.0, 1.0, 1.0, 0.04), pulse.limit_set, pulse.c_p),
        ("front", FRONT, HALF_LINE, front_speed(Params(5.0, 1.0, 1.0)).c_f),
    ):
        grid = solver_grid(e, p.epsilon)
        cases[name] = (DiscreteEnergy(grid, c, p),
                       build_recovery(e, p, grid).w.values)
    engine = cases["pulse"][0]
    rng = np.random.default_rng(7)
    values = np.clip(rng.normal(0.3, 0.9, engine.grid.n), *engine.box)
    assert values.min() == engine.box[0] and (values < 0.0).sum() > 1000
    cases["random"] = (engine, values)
    return cases


@pytest.mark.parametrize("case", ["pulse", "front", "random"])
def test_kernel_is_bit_identical_to_the_textbook_expressions(kernel_cases,
                                                             case):
    engine, w = kernel_cases[case]
    report, flux, v = _textbook_terms(engine, w)
    assert engine.report(w) == report
    value, grad = engine.value_and_grad(w)
    assert value == report.total
    assert grad.tobytes() == _textbook_gradient(engine, w, flux, v).tobytes()
    assert (engine.preconditioner(w).tobytes()
            == _textbook_preconditioner(engine, w).tobytes())
    assert (engine.project(w).tobytes()
            == _textbook_project(engine, w).tobytes())


def test_kernel_mutates_none_of_its_arguments(kernel_cases):
    engine, w = kernel_cases["random"]
    grid = engine.grid
    _, flux, v = engine._terms(w)
    args = (w, flux, v, grid.quadrature, engine.weight_mid)
    before = [a.tobytes() for a in args]
    engine._terms(w)
    engine._gradient(w, flux, v)
    engine.value_and_grad(w)
    engine.report(w)
    engine.preconditioner(w)
    engine.project(w)
    engine.d_speed(w)
    minimize_energy(engine, w, max_iter=3)
    assert [a.tobytes() for a in args] == before
    assert not grid.quadrature.flags.writeable


def _assert_matches_reference(engine, init, max_iter):
    got = minimize_energy(engine, init, max_iter=max_iter)
    w, value, report, it, converged, grad_norm, masked = _reference_minimize(
        engine, init, max_iter=max_iter)
    assert got.profile.values.tobytes() == w.tobytes()
    assert got.value == value and got.report == report
    assert got.grad_norm == grad_norm
    assert (got.iterations, got.converged) == (it, converged)
    return got, masked


def test_minimize_matches_the_reference_loop_from_the_pulse_recovery(
        kernel_cases):
    # the plateau of the pulse reaches the upper face 1.01 on about a third
    # of the iterations, so both the skipped and the applied masks run
    engine, init = kernel_cases["pulse"]
    got, masked = _assert_matches_reference(engine, init, max_iter=200)
    assert got.iterations == 200 and masked > 0


def test_minimize_matches_the_reference_loop_on_a_box_face(kernel_cases):
    # a rough start (so its multiplier is large and the tangential direction
    # points below the lower face) whose first 50 nodes lie on that face;
    # the rest is scaled so the norm is 1 to rounding, and the projection
    # leaves those nodes within 1e-12 of the face
    engine, _ = kernel_cases["pulse"]
    grid, lo = engine.grid, engine.box[0]
    q = grid.quadrature
    rng = np.random.default_rng(3)
    init = rng.uniform(0.0, 1.0, grid.n)
    init[:50] = lo
    rest = float(np.sum(q[50:] * init[50:] ** 2))
    init[50:] *= math.sqrt((1.0 - float(np.sum(q[:50])) * lo * lo) / rest)
    start = engine.project(init)
    assert np.all(start[:50] <= lo + 1e-12)
    _, masked = _assert_matches_reference(engine, init, max_iter=30)
    assert masked > 0


def test_multiplier_measures_the_distance_from_a_critical_point(kernel_cases):
    # lambda = w^T g / 2 equals the energy at a constrained critical point.
    # Every term is covariant under translation, so at any iterate off the
    # box faces lambda - E = <d, w'>_Q for the projected gradient d, and
    # |E - lambda| <= ||w'||_Q grad_norm up to the grid's translation defect
    # (about 2.3e-7).  The front at c_f ends at the default tol on BB's
    # rounding floor: converged, or a line search with no decrease at
    # grad_norm 1.1-1.6e-6, as the start's last bits fall.  Either way
    # value - lambda reads -1.3e-6 to -2.7e-6 (||w'||_Q = 1.756).  The pulse
    # after 300 iterations, the cap of the benchmark's speed solve, reads
    # -5.5e-2
    engine, init = kernel_cases["front"]
    front = minimize_energy(engine, init)
    w = front.profile.values
    dw = np.gradient(w, engine.grid.h)
    bound = math.sqrt(weighted_dot(engine.grid, dw, dw)) * front.grad_norm
    assert abs(front.value - front.multiplier) <= bound + 1e-6
    assert abs(front.value - front.multiplier) < 1e-5
    engine, init = kernel_cases["pulse"]
    pulse = minimize_energy(engine, init, max_iter=300)
    assert not pulse.converged
    assert abs(pulse.value - pulse.multiplier) > 1e-2
    w = pulse.profile.values
    grad = engine.value_and_grad(w)[1]
    assert pulse.multiplier == 0.5 * float(np.einsum("i,i->", w, grad))


@pytest.mark.parametrize("alpha", [2.0, 5.0])
def test_solver_grid_cut_keeps_nodes_and_energies(alpha):
    # the pulse (2, 1, 1) and the front (5, 1, 1) at eps = 0.04, against the
    # grid from DEFAULT_X_LO that solver_grid used before the cut
    eps = 0.04
    p = Params(alpha, 1.0, 1.0, eps)
    limit = limit_speed(Params(alpha, 1.0, 1.0))
    e, c = limit.limit_set, limit.to_dict()["c"]
    grid = solver_grid(e, eps)
    full = Grid.for_interval(e.rightmost + 10.0, eps / 8.0)
    cut = full.n - grid.n
    assert cut > 0.25 * full.n
    assert math.exp(full.x[cut - 1]) < GRID_WEIGHT_TOL
    assert np.max(np.abs(grid.x - full.x[cut:])) <= 1e-12
    assert grid.h == pytest.approx(full.h, rel=1e-13)

    w_full = build_recovery(e, p, full).w.values
    w_cut = build_recovery(e, p, grid).w.values
    e_full = DiscreteEnergy(full, c, p).report(w_full).total
    e_cut = DiscreteEnergy(grid, c, p)
    assert abs(e_cut.report(w_cut).total - e_full) <= 1e-9
    assert abs(e_cut.report(w_full[cut:]).total - e_full) <= 1e-9
    assert abs(l2e_norm(grid, w_full[cut:]) - l2e_norm(full, w_full)) <= 1e-9


def test_solver_grid_starts_left_of_the_set():
    for e in (IntervalUnion.single(-60.0, 0.0),
              IntervalUnion.single(-25.0, -1.0),
              IntervalUnion.single(-3.0, 0.0),
              IntervalUnion(((-1.0, 0.0), (-41.5, -40.0)))):
        for eps in (0.04, 0.03):
            grid = solver_grid(e, eps)
            assert grid.x_lo <= e.leftmost - 10.0
            assert grid.x_lo <= math.log(GRID_WEIGHT_TOL)
            assert grid.x_lo > min(math.log(GRID_WEIGHT_TOL),
                                   e.leftmost - 10.0) - grid.h
            assert grid.h <= eps / 8.0


def test_energy_speed_derivative_matches_central_difference():
    eps = 0.04
    p = Params(2.0, 1.0, 1.0, eps)
    pulse = pulse_speed(Params(2.0, 1.0, 1.0))
    grid = solver_grid(pulse.limit_set, eps)
    w = build_recovery(pulse.limit_set, p, grid).w.values
    for c in (0.8 * pulse.c_p, pulse.c_p, 1.3 * pulse.c_p):
        slope = DiscreteEnergy(grid, c, p).d_speed(w)
        dc = 1e-3 * c
        fd = (DiscreteEnergy(grid, c + dc, p).report(w).total
              - DiscreteEnergy(grid, c - dc, p).report(w).total) / (2.0 * dc)
        assert slope < 0.0
        assert slope == pytest.approx(fd, rel=1e-5)


#: the speed root of the pulse (2, 1, 1) at eps = 0.04 on the solver grid:
#: Newton's answer, 1.28e-4 below the h -> 0 limit 2.2861840 (the grid's
#: second-order bias) and 3.2e-6 below the root of the grid's m_h(c), by
#: E / |dE/dc| with E = 2.3e-7 at the root
_PULSE_ROOT = 2.28605594


def _pulse(eps=0.04, alpha=2.0):
    """Parameters, limit speed, solver grid and recovery start of the pulse
    (alpha, 1, 1) at eps."""
    p = Params(alpha, 1.0, 1.0, eps)
    pulse = pulse_speed(Params(alpha, 1.0, 1.0))
    grid = solver_grid(pulse.limit_set, eps)
    return p, pulse.c_p, grid, build_recovery(pulse.limit_set, p, grid).w.values


#: fallback minimizations of the speed solve on the pulse (2, 1, 1) at
#: eps = 0.04 with max_iter = 300; the bisection it replaced took 5 and 9,
#: and the bracketed Newton over minimizations 2 and 4.  Both brackets
#: start Newton at sqrt(c_lo c_hi) = c_p, from which the undamped path
#: converges, so neither needs one
_SPEED_MINIMIZATIONS = {1.1: 0, 2.0: 0}
#: Newton steps on those brackets: 16 measured.  The soft width mode makes
#: the middle steps converge linearly, c - c_eps falling by about 0.3 per
#: two steps from 5e-3 to 1e-5, before two quadratic steps; the bound
#: leaves room for a few more of the linear ones
_SPEED_NEWTON_STEPS = 20


@pytest.mark.parametrize("factor", sorted(_SPEED_MINIMIZATIONS))
def test_speed_newton_needs_no_more_minimizations_than_bisection(
        factor, minimized_speeds):
    p, c_p, grid, init = _pulse()
    c_lo, c_hi = c_p / factor, c_p * factor
    res = speed_eps(p, c_lo, c_hi, grid, init, max_iter=300)
    assert len(minimized_speeds) == res.minimizations
    assert res.minimizations <= _SPEED_MINIMIZATIONS[factor]
    assert res.converged and c_lo < res.c_eps < c_hi
    assert res.c_eps == pytest.approx(_PULSE_ROOT, abs=1e-8)
    assert res.iterations == len(res.steps) <= _SPEED_NEWTON_STEPS
    assert all(step.products > 0 for step in res.steps)


def test_speed_eps_converges_to_the_pulse_root_on_the_benchmark_bracket():
    # [c_p / 1.1, 1.1 c_p] with 300 iterations: a root to 1e-8, with unit
    # norm, inside the box, and an energy at the grid's translation defect
    p, c_p, grid, init = _pulse()
    res = speed_eps(p, c_p / 1.1, c_p * 1.1, grid, init, max_iter=300)
    assert res.converged and res.minimizations == 0
    assert res.c_eps == pytest.approx(_PULSE_ROOT, abs=1e-8)
    w = res.profile.values
    assert abs(l2e_norm(grid, w) - 1.0) < 1e-10
    lo, hi = profile_box(p)
    assert lo < w.min() < -0.02 and 0.98 < w.max() < hi
    assert res.value == res.report.total
    assert 0.0 < res.value < 1e-6
    last = res.steps[-1]
    assert last.c == res.c_eps
    assert last.grad_norm < SPEED_GRAD_TOL
    assert abs(last.norm_residual) < SPEED_NORM_TOL


def test_speed_eps_is_deterministic():
    p, c_p, grid, init = _pulse()
    a, b = (speed_eps(p, c_p / 1.1, c_p * 1.1, grid, init, max_iter=300)
            for _ in range(2))
    assert (a.c_eps, a.value, a.steps) == (b.c_eps, b.value, b.steps)
    assert a.profile.values.tobytes() == b.profile.values.tobytes()


def test_speed_stops_on_the_newton_step_at_the_last_iterate():
    # the solve returns the iterate of its last step: the first that meets
    # both tolerances, or the last one the budget allows, unconverged
    p, c_p, grid, init = _pulse()
    res = speed_eps(p, c_p / 1.1, c_p * 1.1, grid, init, max_iter=300)
    *before, last = res.steps
    assert (res.c_eps, res.converged) == (last.c, True)
    assert not (before[-1].grad_norm < SPEED_GRAD_TOL
                and abs(before[-1].norm_residual) < SPEED_NORM_TOL)
    short = speed_eps(p, c_p / 1.1, c_p * 1.1, grid, init, max_iter=5)
    assert short.steps == res.steps[:5]
    assert (short.c_eps, short.converged) == (res.steps[4].c, False)
    assert short.iterations == 5 and short.minimizations == 0


def test_speed_eps_falls_back_to_a_minimization(monkeypatch,
                                                minimized_speeds):
    # the pulse (1.5, 1, 1) at eps = 0.04: without the bound on the speed
    # ratio the first Newton step sends c below 0; one minimization at the
    # start speed c_p restarts Newton, which then converges to the root
    # that the bounded steps reach directly
    p, c_p, grid, init = _pulse(alpha=1.5)
    bounded = speed_eps(p, c_p / 2.0, c_p * 2.0, grid, init, max_iter=300)
    assert bounded.converged and bounded.minimizations == 0
    assert minimized_speeds == []
    monkeypatch.setattr(epsilon_solver, "SPEED_STEP_RATIO", math.inf)
    res = speed_eps(p, c_p / 2.0, c_p * 2.0, grid, init, max_iter=300)
    assert res.converged and res.minimizations == 1
    assert minimized_speeds == [math.sqrt(c_p / 2.0 * c_p * 2.0)]
    assert res.c_eps == pytest.approx(3.7076011, abs=1e-7)
    assert res.c_eps == pytest.approx(bounded.c_eps, abs=1e-9)


def test_speed_eps_steps_off_a_saddle(monkeypatch, minimized_speeds):
    # a root that fails the minimizer check is left along its direction of
    # negative curvature by one minimization at its speed; here the check
    # is made to fail once, at the pulse's own root, so Newton returns to it
    p, c_p, grid, init = _pulse()
    check = epsilon_solver._negative_curvature
    calls = []

    def fails_once(hess, pre, a, rhs):
        calls.append(a)
        return rhs.copy() if len(calls) == 1 else check(hess, pre, a, rhs)

    monkeypatch.setattr(epsilon_solver, "_negative_curvature", fails_once)
    res = speed_eps(p, c_p / 1.1, c_p * 1.1, grid, init, max_iter=300)
    assert len(calls) == 2 and res.converged and res.minimizations == 1
    assert minimized_speeds == [pytest.approx(_PULSE_ROOT, abs=1e-8)]
    assert res.c_eps == pytest.approx(_PULSE_ROOT, abs=1e-8)


def test_minimizer_check_fires_on_an_indefinite_hessian():
    # at the pulse root the check meets no negative curvature; a plateau at
    # w = 1/2, in the spinodal region of the well where the local
    # curvature is -1/(4 eps) per unit weight, has tangent directions of
    # negative curvature, and the check returns one of them
    p, c_p, grid, init = _pulse()
    res = speed_eps(p, c_p / 1.1, c_p * 1.1, grid, init, max_iter=300)
    q = grid.quadrature

    def check(w):
        engine = DiscreteEnergy(grid, res.c_eps, p)
        curvature = engine.curvature(w)
        pre = epsilon_solver._Preconditioner(engine, curvature)
        dg_dc = engine.d_speed_gradient(w)

        def hess(s):
            return engine.hessp(w, s, curvature)

        return epsilon_solver._negative_curvature(hess, pre, q * w, dg_dc), hess

    assert check(res.profile.values)[0] is None
    plateau = np.where((grid.x >= 0.0) & (grid.x <= math.log(5.0)), 0.5, 0.0)
    plateau /= l2e_norm(grid, plateau)
    assert plateau.max() == pytest.approx(0.5, rel=1e-3)
    direction, hess = check(plateau)
    assert direction is not None
    assert abs(weighted_dot(grid, direction, plateau)) < 1e-12 * l2e_norm(
        grid, direction)
    assert float(np.dot(direction, hess(direction))) <= 0.0


def test_front_speed_converges_below_the_threshold_width():
    # the front (5, 1, 1) at eps = 0.01, below eps* ~ 0.0184: Newton from
    # c_f converges to the finite-width front, 37% below c_f
    eps = 0.01
    p = Params(5.0, 1.0, 1.0, eps)
    c_f = front_speed(Params(5.0, 1.0, 1.0)).c_f
    grid = solver_grid(HALF_LINE, eps)
    init = build_recovery(HALF_LINE, p, grid).w.values
    res = speed_eps(p, c_f / 2.0, c_f * 2.0, grid, init, max_iter=300)
    assert res.converged
    assert res.c_eps == pytest.approx(0.0725745, abs=1e-7)


@pytest.mark.parametrize("case", ["pulse", "front"])
def test_hessp_matches_central_differences_of_the_gradient(case):
    if case == "pulse":
        p, c, grid, w = _pulse()
    else:
        p, c = FRONT, front_speed(Params(5.0, 1.0, 1.0)).c_f
        grid = solver_grid(HALF_LINE, p.epsilon)
        w = build_recovery(HALF_LINE, p, grid).w.values
    engine = DiscreteEnergy(grid, c, p)
    rng = np.random.default_rng(7)
    for s in (rng.standard_normal(grid.n), np.sin(grid.x)):
        t = 1e-6
        fd = (engine.value_and_grad(w + t * s)[1]
              - engine.value_and_grad(w - t * s)[1]) / (2.0 * t)
        hs = engine.hessp(w, s)
        assert np.max(np.abs(hs - fd)) <= 1e-9 * np.max(np.abs(hs))
        assert np.array_equal(engine.hessp(w, s, engine.curvature(w)), hs)


def test_speed_gradient_matches_central_differences():
    # dg/dc of the speed Newton, against gradients at c (1 +- 1e-4), whose
    # own truncation error is about 5e-8 relative; paired with w it is
    # twice dE/dc, since w^T g holds the nonlocal term twice
    p, c, grid, w = _pulse()
    engine = DiscreteEnergy(grid, c, p)
    dc = 1e-4 * c
    fd = (DiscreteEnergy(grid, c + dc, p).value_and_grad(w)[1]
          - DiscreteEnergy(grid, c - dc, p).value_and_grad(w)[1]) / (2.0 * dc)
    dg_dc = engine.d_speed_gradient(w)
    assert np.max(np.abs(dg_dc - fd)) <= 1e-6 * np.max(np.abs(dg_dc))
    assert float(np.dot(w, dg_dc)) == pytest.approx(2.0 * engine.d_speed(w),
                                                    rel=1e-13)


def test_speed_factors_each_speed_once(monkeypatch):
    # each Newton iterate factors its own speed's inhibitor matrix once:
    # dg/dc, the minimizer check and the final report reuse it
    p, c_p, grid, init = _pulse()
    factored = []
    operator = epsilon_solver.InhibitorOperator

    def counted(grid, c, gamma):
        factored.append(c)
        return operator(grid, c, gamma)

    monkeypatch.setattr(epsilon_solver, "InhibitorOperator", counted)
    res = speed_eps(p, c_p / 1.1, c_p * 1.1, grid, init, max_iter=300)
    start = math.sqrt(c_p / 1.1 * c_p * 1.1)
    assert factored == [start] + [step.c for step in res.steps]
    assert len(set(factored)) == len(factored)


def test_equal_solver_grids_are_one_while_held():
    # results kept on one (set, width) share one grid and its arrays; one
    # that no caller holds is freed, not cached
    e = IntervalUnion.single(-3.0, 0.25)
    grid = solver_grid(e, 0.04)
    assert solver_grid(IntervalUnion.single(-3.0, 0.25), 0.04) is grid
    assert solver_grid(e, 0.02) is not grid
    assert solver_grid(HALF_LINE, 0.04) is not grid
    x_lo, n = grid.x_lo, grid.n
    del grid
    assert (e, 0.04) not in epsilon_solver._SOLVER_GRIDS
    again = solver_grid(e, 0.04)
    assert (again.x_lo, again.n) == (x_lo, n)
