import math

import numpy as np
import pytest

from fhn_gamma import wave_speeds
from fhn_gamma.errors import RegimeError
from fhn_gamma.limit_energy import front_energy, interval_energy, width_condition
from fhn_gamma.model import SQRT2, Params
from fhn_gamma.wave_speeds import (
    FrontResult,
    PulseResult,
    front_condition,
    front_speed,
    limit_speed,
    optimal_width,
    pulse_speed,
)

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


def test_front_speed_boundary_is_not_strict():
    result = front_speed(Params(3.0 * SQRT2, 1.0, 1.0))
    assert not result.strict
    assert result.residual < 1e-12


def test_front_speed_monotone_in_alpha_and_sigma():
    speeds_alpha = [front_speed(Params(a, 1.0, 1.0)).c_f
                    for a in (4.4, 4.7, 5.0, 5.2)]
    assert all(b < a for a, b in zip(speeds_alpha[:-1], speeds_alpha[1:]))
    speeds_sigma = [front_speed(Params(5.0, 1.0, s)).c_f
                    for s in (0.95, 1.0, 1.05, 1.1)]
    assert all(b > a for a, b in zip(speeds_sigma[:-1], speeds_sigma[1:]))


def test_front_condition():
    assert front_condition(0.0, FRONT)
    assert front_condition(front_speed(FRONT).c_f, FRONT)
    assert not front_condition(100.0, PULSE)


def test_optimal_width_solves_the_condition():
    for c in (0.3, 1.0, 2.33, 7.0):
        ell = optimal_width(c, PULSE)
        assert abs(width_condition(ell, c, PULSE).value) < 1e-10


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
    je = interval_energy(result.ell_p, result.c_p, PULSE)
    assert je.d_width2 > 0.0


def test_pulse_global_minimality_in_width():
    result = pulse_speed(PULSE)
    for ell in np.linspace(0.05, 40.0, 200):
        if abs(ell - result.ell_p) < 0.05:
            continue
        assert interval_energy(float(ell), result.c_p, PULSE).value > 0.0


def test_pulse_speed_unique_across_brackets():
    # outer bisection from scattered initial brackets lands on the same speed
    def g(c):
        return interval_energy(optimal_width(c, PULSE), c, PULSE).value

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
    je = interval_energy(result.ell_p, result.c_p, p)
    q = width_condition(result.ell_p, result.c_p, p)
    for residual in (je.value, je.d_width, q.value, *result.residuals.values()):
        assert abs(residual) <= 1e-12
    _, curvature = _scaled_system(result.ell_p, result.c_p, p)
    assert curvature > 0.0
    ell_n, c_n = _newton_2d_scaled(1.05 * result.ell_p, 0.95 * result.c_p, p)
    assert result.c_p == pytest.approx(c_n, rel=1e-10)
    # toward alpha = 3 sqrt(2) sigma / gamma the energy flattens in the width:
    # widths 4e-10 apart there both leave residuals at rounding level
    assert result.ell_p == pytest.approx(ell_n, rel=1e-8)


def test_pulse_speed_near_alpha_one():
    # at ell_p ~ 2282 both exponentials of d2J/dl2 underflow to 0
    p = Params(1.001, 1.0, 1.0)
    result = pulse_speed(p)
    assert result.c_p == pytest.approx(92.099, rel=1e-4)
    assert result.ell_p == pytest.approx(2281.9, rel=1e-4)
    assert interval_energy(result.ell_p, result.c_p, p).d_width2 == 0.0
    assert max(result.residuals.values()) <= 1e-12


def test_pulse_speed_call_counts(monkeypatch):
    calls = {"width": 0, "energy": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(wave_speeds, "width_condition",
                        counted("width", wave_speeds.width_condition))
    monkeypatch.setattr(wave_speeds, "interval_energy",
                        counted("energy", wave_speeds.interval_energy))
    result = pulse_speed(PULSE)
    assert result.c_p == pytest.approx(C_P_ORACLE, rel=1e-12)
    assert calls["width"] <= 100
    assert calls["energy"] <= 15


def test_pulse_speed_wrong_regime():
    with pytest.raises(RegimeError):
        pulse_speed(FRONT)


def test_front_beats_finite_intervals_at_front_speed():
    c_f = front_speed(FRONT).c_f
    floor = front_energy(c_f, FRONT).value
    for ell in np.linspace(0.01, 60.0, 300):
        normalized = interval_energy(float(ell), c_f, FRONT).value \
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


def test_result_serialization():
    d = front_speed(FRONT).to_dict()
    assert d["regime"] == "front" and "c" in d and "h_star" in d
    d = pulse_speed(PULSE).to_dict()
    assert d["regime"] == "pulse"
    assert set(d["residuals"]) == {"J", "dJ_dl", "Q"}
