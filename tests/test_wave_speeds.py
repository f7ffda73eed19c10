import math

import numpy as np
import pytest

from fhn_gamma import limit_energy, wave_speeds
from fhn_gamma.errors import BracketError, RegimeError
from fhn_gamma.limit_energy import interval_energy, width_condition
from fhn_gamma.model import SQRT2, Params, classify
from fhn_gamma.nonlocal_operator import char_roots
from fhn_gamma.wave_speeds import (
    FrontResult,
    PulseResult,
    front_speed,
    limit_speed,
    optimal_width,
    pulse_speed,
)
from fhn_gamma.weighted_space import IntervalUnion

FRONT = Params(5.0, 1.0, 1.0)
PULSE = Params(2.0, 1.0, 1.0)

# frozen pre-build oracles, computed from the closed-form speed formula and
# an independent bisection of the width/speed conditions
C_F_ORACLE = 0.11456943748336548
C_P_ORACLE = 2.328593099091906
ELL_P_ORACLE = 3.23245342060918


def test_front_speed_reference_point():
    result = front_speed(FRONT)
    assert result.h_star == pytest.approx(0.0571910, abs=1e-7)
    assert result.c_f == pytest.approx(C_F_ORACLE, rel=1e-12)
    assert result.residual < 1e-12
    assert result.strict


def test_front_speed_vanishes_toward_regime_boundary():
    # alpha just below 1 + threshold: h* and c_f approach 0
    delta = 1e-6
    alpha = 1.0 + 3.0 * SQRT2 - delta
    result = front_speed(Params(alpha, 1.0, 1.0))
    assert 0.0 < result.c_f < 1e-5


def test_front_speed_wrong_regime():
    with pytest.raises(RegimeError):
        front_speed(PULSE)


def test_front_speed_monotone_in_alpha_and_sigma():
    speeds_alpha = [front_speed(Params(a, 1.0, 1.0)).c_f
                    for a in (4.4, 4.7, 5.0, 5.2)]
    assert all(b < a for a, b in zip(speeds_alpha[:-1], speeds_alpha[1:]))
    speeds_sigma = [front_speed(Params(5.0, 1.0, s)).c_f
                    for s in (0.95, 1.0, 1.05, 1.1)]
    assert all(b > a for a, b in zip(speeds_sigma[:-1], speeds_sigma[1:]))


def _boundary_fronts():
    """Points alpha = 3 sqrt(2) sigma / gamma for gamma, sigma in
    {0.1, 0.2, ..., 4.0} that ``classify`` calls fronts."""
    values = [k / 10.0 for k in range(1, 41)]
    points = [Params(3.0 * SQRT2 * s / g, g, s) for g in values for s in values]
    return [q for q in points if classify(q).is_front]


BOUNDARY_FRONTS = _boundary_fronts()


def test_front_speed_boundary_is_not_strict():
    # front_speed decides the regime by classify alone, boundary included
    assert len(BOUNDARY_FRONTS) == 1426
    assert Params(3.0 * SQRT2, 1.0, 1.0) in BOUNDARY_FRONTS
    for q in BOUNDARY_FRONTS:
        result = front_speed(q)
        assert not result.strict, q
        assert result.residual <= 1e-13, q


@pytest.mark.parametrize(
    "q", [FRONT, Params(21.213203435596427, 0.1, 0.5)] + BOUNDARY_FRONTS[::97],
    ids=lambda q: f"{q.alpha!r}-{q.gamma}-{q.sigma}")
def test_front_speed_is_where_the_speed_ratio_reaches_h_star(q):
    # H(c_f) = h*: the half-line's optimality condition sqrt(2) gamma /
    # (6 sigma) >= H(c_f) is classify's alpha >= 3 sqrt(2) sigma / gamma
    result = front_speed(q)
    assert char_roots(result.c_f, q.gamma).ratio == pytest.approx(
        result.h_star, rel=1e-15)


def test_optimal_width_solves_the_condition():
    for c in (0.3, 1.0, 2.33, 7.0):
        ell = optimal_width(c, PULSE)
        q = width_condition(ell, char_roots(c, PULSE.gamma), PULSE)
        assert abs(q.value) < 1e-10


def test_optimal_width_increasing_in_speed():
    rng = np.random.default_rng(9)
    for _ in range(20):
        c = rng.uniform(0.05, 30.0)
        assert optimal_width(1.01 * c, PULSE) > optimal_width(c, PULSE)


def test_optimal_width_small_speed_asymptotics():
    # width/c approaches -log(1 - sqrt2*alpha*gamma/(6 sigma)) / sqrt(gamma)
    k1 = -math.log(1.0 - SQRT2 * PULSE.alpha * PULSE.gamma
                   / (6.0 * PULSE.sigma)) / math.sqrt(PULSE.gamma)
    assert k1 == pytest.approx(0.637531829234127, rel=1e-12)
    c = 0.005
    assert optimal_width(c, PULSE) / c == pytest.approx(k1, rel=1e-2)


def test_optimal_width_large_speed_growth():
    # width grows like a constant times c^2
    r1 = optimal_width(40.0, PULSE) / 40.0**2
    r2 = optimal_width(60.0, PULSE) / 60.0**2
    assert r1 == pytest.approx(r2, rel=0.02)


def test_optimal_width_wrong_regime():
    with pytest.raises(RegimeError):
        optimal_width(1.0, FRONT)
    with pytest.raises(RegimeError):
        optimal_width(-1.0, PULSE)


def test_pulse_speed_reference_point():
    result = pulse_speed(PULSE)
    assert result.c_p == pytest.approx(C_P_ORACLE, rel=1e-10)
    assert result.ell_p == pytest.approx(ELL_P_ORACLE, rel=1e-9)
    assert result.ell_p > math.log(3.0)
    for value in result.residuals.values():
        assert value < 1e-9
    assert math.exp(result.b) - math.exp(result.a) == pytest.approx(1.0,
                                                                    abs=1e-12)
    assert result.b == pytest.approx(
        -math.log(1.0 - math.exp(-result.ell_p)), abs=1e-12)


def test_pulse_speed_is_width_minimum():
    result = pulse_speed(PULSE)
    roots = char_roots(result.c_p, PULSE.gamma)
    assert interval_energy(result.ell_p, roots, PULSE).d_width2 > 0.0


def test_pulse_global_minimality_in_width():
    result = pulse_speed(PULSE)
    roots = char_roots(result.c_p, PULSE.gamma)
    for ell in np.linspace(0.05, 40.0, 200):
        if abs(ell - result.ell_p) < 0.05:
            continue
        assert interval_energy(float(ell), roots, PULSE).value > 0.0


def test_pulse_speed_unique_across_brackets():
    # outer bisection from scattered initial brackets lands on the same speed
    def g(c):
        roots = char_roots(c, PULSE.gamma)
        return interval_energy(optimal_width(c, PULSE), roots, PULSE).value

    reference = pulse_speed(PULSE).c_p
    brackets = [(0.1, 5.0), (0.5, 10.0), (1.0, 4.0), (2.0, 3.0),
                (0.01, 100.0), (1.5, 2.5), (2.0, 8.0), (0.02, 6.0)]
    for lo, hi in brackets:
        assert g(lo) > 0.0 > g(hi)
        while hi - lo > 1e-12 * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if g(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(reference, abs=1e-8)


def _pulse_points():
    """About 30 pulse points: both regime edges, alpha -> 1+ and
    alpha -> 3 sqrt(2) sigma / gamma-, for gamma from 0.05 to 20."""
    points = [(2.0, 1.0, 1.0), (1.5, 1.2, 0.8), (3.0, 0.9, 1.5),
              (1.0005, 1.0, 1.0)]
    for gamma, sigma in ((0.05, 0.5), (0.3, 1.0), (1.0, 1.0), (3.0, 1.0),
                         (20.0, 5.0)):
        top = 3.0 * SQRT2 * sigma / gamma
        for alpha in (1.001, 1.01, 0.5 * (1.0 + top), top * (1.0 - 1e-4),
                      top - 1e-6):
            points.append((alpha, gamma, sigma))
    return points


def _front_energy_root(p):
    """Root of the front energy, 2 h* sqrt(gamma) / sqrt(1 - h*^2)."""
    h_star = 1.0 - (p.alpha - 1.0) * p.gamma / (3.0 * SQRT2 * p.sigma)
    return 2.0 * h_star * math.sqrt(p.gamma) / math.sqrt(1.0 - h_star**2)


def _scaled_system(ell, c, p):
    """Interval energy J and e^ell dJ/dell, from the closed forms: the
    scaled width derivative keeps its size where e^-ell underflows."""
    s = math.sqrt(c * c + 4.0 * p.gamma)
    r2 = 2.0 * p.gamma / (c * (c + s))
    r1 = -1.0 - r2
    h = c / s
    k = SQRT2 / 12.0
    j = (k * (1.0 - p.alpha) + k * (1.0 + p.alpha) * math.exp(-ell)
         + (p.sigma * h / p.gamma) * (r2 + r1 * math.exp(-ell)
                                      + math.exp(r1 * ell)))
    scaled_dj = (-k * (1.0 + p.alpha) + (1.0 + h) * p.sigma / (2.0 * p.gamma)
                 * (1.0 - math.exp(-r2 * ell)))
    scaled_curvature = (k * (1.0 + p.alpha) - (1.0 + h) * p.sigma
                        / (2.0 * p.gamma) * (1.0 + r1 * math.exp(-r2 * ell)))
    return np.array([j, scaled_dj]), scaled_curvature


def _newton_2d_scaled(ell, c, p):
    """Damped Newton on (J, e^ell dJ/dell) = 0 with a finite-difference
    Jacobian, in the style of the criterion-2 oracle."""
    for _ in range(100):
        f, _ = _scaled_system(ell, c, p)
        jac = np.empty((2, 2))
        for col, (dl, dc) in enumerate(((1e-7 * ell, 0.0), (0.0, 1e-7 * c))):
            f_hi, _ = _scaled_system(ell + dl, c + dc, p)
            f_lo, _ = _scaled_system(ell - dl, c - dc, p)
            jac[:, col] = (f_hi - f_lo) / (2.0 * (dl + dc))
        step = np.linalg.solve(jac, f)
        scale = 1.0
        while ell - scale * step[0] <= 0.0 or c - scale * step[1] <= 0.0:
            scale *= 0.5
        ell -= scale * step[0]
        c -= scale * step[1]
        if abs(step[0]) <= 1e-14 * ell and abs(step[1]) <= 1e-14 * c:
            break
    return ell, c


@pytest.mark.parametrize("point", _pulse_points(),
                         ids=lambda point: "-".join(f"{v:.8g}" for v in point))
def test_pulse_speed_across_the_regime(point):
    p = Params(*point)
    result = pulse_speed(p)
    roots = char_roots(result.c_p, p.gamma)
    je = interval_energy(result.ell_p, roots, p)
    q = width_condition(result.ell_p, roots, p)
    for residual in (je.value, je.d_width, q.value, *result.residuals.values()):
        assert abs(residual) <= 1e-12
    _, curvature = _scaled_system(result.ell_p, result.c_p, p)
    assert curvature > 0.0
    ell_n, c_n = _newton_2d_scaled(1.05 * result.ell_p, 0.95 * result.c_p, p)
    assert result.c_p == pytest.approx(c_n, rel=1e-10)
    # toward alpha = 3 sqrt(2) sigma / gamma the energy flattens in the width:
    # widths 4e-10 apart there both leave residuals at rounding level
    assert result.ell_p == pytest.approx(ell_n, rel=1e-8)
    # g(c) = min_l J(l, c) is at most the front energy, the limit of J as
    # l -> inf, so the front energy's root bounds the pulse speed; at the
    # wide pulses the two agree to rounding
    assert result.c_p <= _front_energy_root(p) * (1.0 + 1e-12)


def test_pulse_speed_near_alpha_one():
    # at ell_p ~ 2282 both exponentials of d2J/dl2 underflow to 0
    p = Params(1.001, 1.0, 1.0)
    result = pulse_speed(p)
    assert result.c_p == pytest.approx(92.099, rel=1e-4)
    assert result.ell_p == pytest.approx(2281.9, rel=1e-4)
    roots = char_roots(result.c_p, p.gamma)
    assert interval_energy(result.ell_p, roots, p).d_width2 == 0.0
    assert max(result.residuals.values()) <= 1e-12


def test_pulse_speed_call_counts(monkeypatch):
    # the roots are counted in both modules that build them: one set per
    # distinct speed, and no more width or energy evaluations than when
    # every evaluation built its own
    speeds = []
    calls = {"width": 0, "energy": 0}

    def roots_counted(fn):
        def wrapper(c, gamma):
            speeds.append(c)
            return fn(c, gamma)
        return wrapper

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(wave_speeds, "char_roots",
                        roots_counted(wave_speeds.char_roots))
    monkeypatch.setattr(limit_energy, "char_roots",
                        roots_counted(limit_energy.char_roots))
    monkeypatch.setattr(wave_speeds, "width_condition",
                        counted("width", wave_speeds.width_condition))
    monkeypatch.setattr(wave_speeds, "interval_energy",
                        counted("energy", wave_speeds.interval_energy))
    result = pulse_speed(PULSE)
    assert result.c_p == pytest.approx(C_P_ORACLE, rel=1e-12)
    assert len(speeds) == len(set(speeds)) == calls["energy"] <= 4
    assert 0 < calls["width"] <= 12


def test_the_solvers_call_the_limit_energy_names(monkeypatch):
    # wave_speeds holds limit_energy's own functions, so a wrapper swapped in
    # for every module attribute that refers to one (as a call counter
    # does) sees every evaluation: the reported residual is the last one
    assert wave_speeds.width_condition is limit_energy.width_condition
    assert wave_speeds.interval_energy is limit_energy.interval_energy
    seen = {"width": [], "energy": []}

    def recorded(key, fn):
        def wrapper(ell, roots, p):
            out = fn(ell, roots, p)
            seen[key].append((ell, out.value))
            return out
        return wrapper

    monkeypatch.setattr(wave_speeds, "width_condition",
                        recorded("width", width_condition))
    monkeypatch.setattr(wave_speeds, "interval_energy",
                        recorded("energy", interval_energy))
    result = pulse_speed(PULSE)
    assert 1 <= len(seen["width"]) <= 12
    ell, q = seen["width"][-1]
    assert ell == result.ell_p and abs(q) == result.residuals["Q"]
    ell, j = seen["energy"][-1]
    assert ell == result.ell_p and abs(j) == result.residuals["J"]
    seen["energy"].clear()
    front_speed(FRONT)
    assert [ell for ell, _ in seen["energy"]] == [math.inf]


def _width_left_end(c, p):
    """l_- = log1p(s (1 + alpha) / (1 - 2 alpha s)) / r2 with
    s = sqrt(2) gamma / (12 sigma), the root of the lower bound
    Q~(l) = s [(1 + alpha) / (1 - e^{-r2 l}) + alpha - 1] - 1 < Q(l)."""
    s = SQRT2 * p.gamma / (12.0 * p.sigma)
    return (math.log1p(s * (1.0 + p.alpha) / (1.0 - 2.0 * p.alpha * s))
            / char_roots(c, p.gamma).r2)


def test_optimal_width_from_the_left_of_the_root(monkeypatch):
    # Newton from a start left of the root sees no negative condition, so
    # the bracket stays open on the right; it must still reach the root
    values = []

    def recorded(ell, roots, p):
        q = width_condition(ell, roots, p)
        values.append(q.value)
        return q

    monkeypatch.setattr(wave_speeds, "width_condition", recorded)
    for c in (0.5, 1.0, 2.33, 7.0):
        values.clear()
        ell = optimal_width(c, PULSE)
        assert values[0] > 0.0  # the start: the left end l_-
        assert min(values) > -1e-12
        q = width_condition(ell, char_roots(c, PULSE.gamma), PULSE)
        assert abs(q.value) <= 1e-12
        if c <= 1.0:
            # several Newton steps from the left, all in the open bracket
            assert len(values) >= 5
    # at large speeds e^{r1 l_-} is below rounding against 1, so Q(l_-)
    # rounds to Q~(l_-) = 0: the cold start is the root
    values.clear()
    assert optimal_width(30.0, PULSE) == _width_left_end(30.0, PULSE)
    assert values == [0.0]


def test_width_condition_positive_at_the_left_bracket_end():
    # l0 = sqrt(2) gamma (1 + alpha) / (12 sigma r2) and the tighter
    # l_- >= l0 both lie left of the optimal width at every speed in the
    # pulse regime
    eps = np.finfo(float).eps
    for gamma, sigma in ((0.05, 0.5), (1.0, 1.0), (20.0, 5.0)):
        top = 3.0 * SQRT2 * sigma / gamma
        for alpha in (1.0 + 1e-6, 1.001, 1.1, 0.5 * (1.0 + top),
                      top * (1.0 - 1e-4), top * (1.0 - 1e-9)):
            p = Params(alpha, gamma, sigma)
            for c in np.geomspace(1e-3, 1e2, 41):
                roots = char_roots(float(c), gamma)
                ell0 = SQRT2 * gamma * (1.0 + alpha) / (12.0 * sigma * roots.r2)
                assert width_condition(ell0, roots, p).value > 0.0
                if alpha >= top:  # (20, 5) with alpha = 1.1: no pulse, no l_-
                    continue
                ell_minus = _width_left_end(float(c), p)
                assert ell0 <= ell_minus
                # Q(l_-) = Q(l_-) - Q~(l_-) = s (alpha - 1) e^{r1 l} /
                # (1 - e^{r1 l}) > 0 exactly; where e^{r1 l_-} is below
                # rounding, l_- is the root to rounding and the computed Q
                # lands within a few ulps of 0 on either side
                q = width_condition(ell_minus, roots, p).value
                e1 = math.exp(roots.r1 * ell_minus)
                gap = SQRT2 * gamma / (12.0 * sigma) * (alpha - 1.0) * e1 / (1.0 - e1)
                assert q == pytest.approx(gap, rel=1e-12, abs=8.0 * eps)
                assert q >= -4.0 * eps


def test_pulse_speeds_evaluated_across_the_regime(monkeypatch):
    # one set of roots per speed evaluated: with the front energy's root as
    # the start, wide pulses take the open bracket (c_bar, inf) and stop
    # after a step or two
    speeds = []

    def counted(c, gamma):
        speeds.append(c)
        return char_roots(c, gamma)

    monkeypatch.setattr(wave_speeds, "char_roots", counted)
    for point in _pulse_points():
        pulse_speed(Params(*point))
    assert len(speeds) <= 75


@pytest.mark.parametrize("point", [(1e5, 1.0, 1e5), (1e6, 1.0, 1e6)])
def test_pulse_speed_at_small_widths(point):
    # l_p ~ 4e-5 and 4e-6: 1 - e^{-l} and e^b - e^a - 1 cancel there, so the
    # endpoints and the normalization check go through expm1
    p = Params(*point)
    result = pulse_speed(p)
    assert result.ell_p < 1e-4
    assert abs(-math.exp(result.b) * math.expm1(-result.ell_p) - 1.0) <= 1e-12
    assert result.residuals["J"] <= 1e-10
    assert result.residuals["Q"] <= 1e-10
    roots = char_roots(result.c_p, p.gamma)
    assert abs(interval_energy(result.ell_p, roots, p).value) <= 1e-10
    assert abs(width_condition(result.ell_p, roots, p).value) <= 1e-10


@pytest.mark.parametrize("gamma, sigma", [(1.0, 1.0), (0.05, 0.5), (0.9, 1.65)])
def test_pulse_speed_at_the_upper_alpha_edge(gamma, sigma):
    # the float just below 3 sqrt(2) sigma / gamma classifies as a pulse,
    # but 1 - sqrt(2) alpha gamma / (6 sigma) = -Q(inf) rounds to 0 there
    alpha = math.nextafter(3.0 * SQRT2 * sigma / gamma, 0.0)
    p = Params(alpha, gamma, sigma)
    assert p.alpha < 3.0 * SQRT2 * sigma / gamma
    with pytest.raises(BracketError, match="upper edge"):
        pulse_speed(p)
    with pytest.raises(BracketError, match="upper edge"):
        optimal_width(1.0, p)


@pytest.mark.parametrize("gamma, sigma", [(1.0, 1e17), (1e-300, 1.0)])
def test_pulse_speed_beyond_the_front_energy_root_range(gamma, sigma):
    # h* = 1 - (alpha - 1) gamma / (3 sqrt(2) sigma) rounds to 1, so the
    # front energy's root 2 h* sqrt(gamma) / sqrt(1 - h*^2) has no float value
    p = Params(2.0, gamma, sigma)
    with pytest.raises(BracketError, match="1 - h\\*\\^2 rounds to 0"):
        pulse_speed(p)


def test_newton_root_halves_from_a_zero_left_end():
    # f(x) = 1 - x^{1/4}: from x = 16 the Newton step lands at -16, outside
    # (0, 16], so the next point is 16 / 2, not the geometric mean 0
    points = []

    def f(x):
        points.append(x)
        return 1.0 - x**0.25, -0.25 * x**-0.75, None

    x, _ = wave_speeds._newton_root(f, 0.0, 16.0, 16.0, f(16.0))
    assert points[1] == 8.0
    assert x == pytest.approx(1.0, rel=1e-14)


def test_pulse_speed_wrong_regime():
    with pytest.raises(RegimeError):
        pulse_speed(FRONT)


def test_front_beats_finite_intervals_at_front_speed():
    c_f = front_speed(FRONT).c_f
    roots = char_roots(c_f, FRONT.gamma)
    floor = interval_energy(math.inf, roots, FRONT).value
    for ell in np.linspace(0.01, 60.0, 300):
        normalized = interval_energy(float(ell), roots, FRONT).value \
            / (1.0 - math.exp(-float(ell)))
        # the margin decays like e^{r1 ell}; at very large widths it sinks
        # below rounding, so allow machine slack there
        assert normalized > floor - 1e-14
        if ell < 30.0:
            assert normalized > floor + 1e-15


def test_limit_speed_dispatch():
    assert isinstance(limit_speed(FRONT), FrontResult)
    assert isinstance(limit_speed(PULSE), PulseResult)
    with pytest.raises(RegimeError):
        limit_speed(Params(0.5, 1.0, 1.0))


def test_limit_sets():
    assert front_speed(FRONT).limit_set == IntervalUnion.single(-math.inf, 0.0)
    result = pulse_speed(PULSE)
    e = result.limit_set
    assert e.intervals == ((result.a, result.b),)
    assert e.l1e_norm == pytest.approx(1.0, abs=1e-12)


def test_result_serialization():
    d = front_speed(FRONT).to_dict()
    assert d["regime"] == "front" and "c" in d and "h_star" in d
    d = pulse_speed(PULSE).to_dict()
    assert d["regime"] == "pulse"
    assert set(d["residuals"]) == {"J", "dJ_dl", "Q"}
