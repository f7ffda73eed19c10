import math
import tracemalloc

import numpy as np
import pytest

from fhn_gamma.errors import GridError, InvalidParameterError
from fhn_gamma.limit_energy import (
    interval_energy,
    sharp_interface_energy,
    speed_derivative_factor,
    width_condition,
)
from fhn_gamma.model import SQRT2, Params
from fhn_gamma.nonlocal_operator import char_roots, lc_indicator
from fhn_gamma.weighted_space import IntervalUnion

PULSE = Params(2.0, 1.0, 1.0)


def test_speed_ratio_range_and_derivative():
    # H(c) = char_roots(c, gamma).ratio rises toward 1; c <= 0 has no
    # decay rates
    assert char_roots(1e9, 1.0).ratio == pytest.approx(1.0, rel=1e-12)
    # the front energy's speed derivative is -(sigma / 2 gamma) dH/dc
    d = 1e-6
    for c in (0.3, 1.0, 4.0):
        fd = (interval_energy(math.inf, char_roots(c + d, 1.0), PULSE).value
              - interval_energy(math.inf, char_roots(c - d, 1.0), PULSE).value
              ) / (2 * d)
        je = interval_energy(math.inf, char_roots(c, 1.0), PULSE)
        assert je.d_speed == pytest.approx(fd, rel=1e-7)
    with pytest.raises(InvalidParameterError):
        char_roots(-1.0, 1.0)


@pytest.mark.parametrize("call", [
    lambda: char_roots(math.inf, 1.0),
    lambda: char_roots(math.nan, 1.0),
    lambda: interval_energy(math.inf, char_roots(math.nan, 1.0), PULSE),
    lambda: interval_energy(math.inf, char_roots(math.inf, 1.0), PULSE),
    lambda: interval_energy(math.inf, char_roots(0.0, 1.0), PULSE),
    lambda: interval_energy(math.nan, char_roots(1.0, 1.0), PULSE),
    lambda: interval_energy(1.0, char_roots(math.nan, 1.0), PULSE),
    lambda: width_condition(math.nan, char_roots(1.0, 1.0), PULSE),
    lambda: width_condition(math.inf, char_roots(math.nan, 1.0), PULSE),
    lambda: speed_derivative_factor(math.nan, char_roots(1.0, 1.0)),
    lambda: interval_energy(0.0, char_roots(1.0, 1.0), PULSE),
    lambda: width_condition(-1.0, char_roots(1.0, 1.0), PULSE),
], ids=["char_roots_inf", "char_roots_nan", "front_energy_nan",
        "front_energy_inf", "front_energy_zero", "interval_energy_width",
        "interval_energy_speed", "width_condition_width",
        "width_condition_speed", "speed_derivative_factor",
        "interval_energy_zero_width", "width_condition_negative_width"])
def test_speed_or_width_out_of_range_is_rejected(call):
    # not computed into NaN, nor into the energy at rest; the front energy
    # J(inf, c) needs c > 0 like every other function of the speed through
    # its decay rates
    with pytest.raises(InvalidParameterError):
        call()


def test_interval_energy_small_width_limit():
    je = interval_energy(1e-12, char_roots(1.3, 1.0), PULSE)
    assert je.value == pytest.approx(SQRT2 / 6.0, rel=1e-10)


def test_interval_energy_infinite_width_is_front_energy():
    for c in (1e-3, 0.8, 30.0):
        r = char_roots(c, PULSE.gamma)
        je = interval_energy(math.inf, r, PULSE)
        # the front energy's speed derivative -(sigma / 2 gamma) dH/dc
        # = -2 sigma / s^3, with s = sqrt(c^2 + 4 gamma)
        s = math.sqrt(c * c + 4.0 * PULSE.gamma)
        assert je.d_speed == pytest.approx(-2.0 * PULSE.sigma / s**3, rel=1e-13)
        assert je.d_width == 0.0
        assert je.d_width2 == 0.0
        # the closed form sqrt(2)/12 (1 - alpha) + sigma (1 - H) / (2 gamma)
        assert je.value == pytest.approx(
            (SQRT2 / 12.0) * (1.0 - PULSE.alpha)
            + PULSE.sigma * (1.0 - r.ratio) / (2.0 * PULSE.gamma), rel=1e-13)


def test_interval_energy_at_widths_past_the_decay_is_the_front_energy():
    # once e^{r1 ell} underflows, the speed factor's (ell / H) e^{r1 ell}
    # is 0, also where ell / H overflows to inf
    for c in (1.0, 1e-3):
        r = char_roots(c, PULSE.gamma)
        front = interval_energy(math.inf, r, PULSE)
        for ell in (1e3, 1e308, 1.7e308):
            je = interval_energy(ell, r, PULSE)
            assert je.d_speed == front.d_speed
            assert je.value == front.value
    r = char_roots(1.0, 1.0)
    assert interval_energy(1.7e308, r, PULSE).d_speed == -0.17888543819998315


def test_interval_energy_derivatives_match_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(60):
        ell = rng.uniform(0.2, 15.0)
        c = rng.uniform(0.1, 8.0)
        d = 1e-5
        r = char_roots(c, PULSE.gamma)
        je = interval_energy(ell, r, PULSE)
        vp = interval_energy(ell + d, r, PULSE).value
        vm = interval_energy(ell - d, r, PULSE).value
        assert je.d_width == pytest.approx((vp - vm) / (2 * d), rel=2e-6,
                                           abs=1e-10)
        assert je.d_width2 == pytest.approx((vp - 2 * je.value + vm) / d**2,
                                            rel=5e-4, abs=1e-6)
        cp = interval_energy(ell, char_roots(c + d, PULSE.gamma), PULSE).value
        cm = interval_energy(ell, char_roots(c - d, PULSE.gamma), PULSE).value
        assert je.d_speed == pytest.approx((cp - cm) / (2 * d), rel=2e-5,
                                           abs=1e-10)


@pytest.mark.parametrize("gamma", [0.05, 1.0, 20.0])
def test_interval_energy_speed_derivative_from_the_roots(gamma):
    # (c^2 + 4 gamma)^{-3/2} is formed from the roots as dr1_dc H^2 / (2 gamma)
    p = Params(2.0, gamma, 1.0)
    for c in np.geomspace(1e-3, 1e2, 101):
        c = float(c)
        r = char_roots(c, gamma)
        for ell in (1e-3, 0.5, 3.0, 20.0, 300.0, math.inf):
            ref = (2.0 * p.sigma / (c * c + 4.0 * gamma) ** 1.5
                   * speed_derivative_factor(ell, r))
            d_speed = interval_energy(ell, r, p).d_speed
            assert d_speed == pytest.approx(ref, rel=8 * np.finfo(float).eps)


def test_width_derivative_identity_chain():
    # e^ell * dJ/dell == (sigma/2gamma)(1+H)(1 - e^{-r2 ell})
    #                    - (sqrt2/12)(alpha+1)
    rng = np.random.default_rng(2)
    for _ in range(300):
        ell = rng.uniform(1e-3, 40.0)
        c = rng.uniform(0.02, 50.0)
        r = char_roots(c, PULSE.gamma)
        je = interval_energy(ell, r, PULSE)
        rhs = (0.5 * (1.0 + r.ratio) * (1.0 - math.exp(-r.r2 * ell))
               - (SQRT2 / 12.0) * 3.0)
        lhs = math.exp(ell) * je.d_width
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_width_condition_is_linear_combination_of_energy_and_derivative():
    # (dJ/dl + J)/(1 - e^{r1 l}) + e^l dJ/dl / (1 - e^{-r2 l})
    #     = -(sigma/gamma) Q
    rng = np.random.default_rng(4)
    for _ in range(300):
        ell = rng.uniform(1e-3, 40.0)
        c = rng.uniform(0.02, 50.0)
        r = char_roots(c, PULSE.gamma)
        je = interval_energy(ell, r, PULSE)
        q = width_condition(ell, r, PULSE).value
        lhs = ((je.d_width + je.value) / (1.0 - math.exp(r.r1 * ell))
               + math.exp(ell) * je.d_width
               / (1.0 - math.exp(-r.r2 * ell)))
        assert lhs == pytest.approx(-q, rel=1e-9, abs=1e-12)


def test_width_condition_limits_and_monotonicity():
    r = char_roots(1.5, PULSE.gamma)
    small = width_condition(1e-6, r, PULSE).value
    assert small > 1e4
    tail = width_condition(math.inf, r, PULSE)
    assert tail.value == pytest.approx(
        SQRT2 * PULSE.alpha * PULSE.gamma / (6.0 * PULSE.sigma) - 1.0,
        rel=1e-12)
    assert tail.value < 0.0
    assert tail.d_width == 0.0 and tail.d_speed == 0.0
    prev = math.inf
    for ell in np.linspace(0.1, 20.0, 50):
        v = width_condition(float(ell), r, PULSE).value
        assert v < prev
        prev = v


@pytest.mark.parametrize("alpha", [1.2, 1.3, 2.0, 4.4])
def test_width_condition_at_infinity_continues_the_finite_values(alpha):
    # once both exponentials underflow, every width gives the value at
    # ell = inf, and its speed derivative ell * 0 is 0, not inf * 0
    p = Params(alpha, 1.0, 1.0)
    r = char_roots(1.0, 1.0)
    tail = width_condition(math.inf, r, p)
    for ell in (1e4, 1e6, 1.7e308):
        assert width_condition(ell, r, p) == tail
    assert tail.d_speed == 0.0


def test_width_condition_speed_derivative_matches_fd():
    d = 1e-6
    for ell, c in [(1.0, 0.7), (4.0, 2.0), (9.0, 5.0)]:
        q = width_condition(ell, char_roots(c, PULSE.gamma), PULSE)
        fd = (width_condition(ell, char_roots(c + d, PULSE.gamma), PULSE).value
              - width_condition(ell, char_roots(c - d, PULSE.gamma), PULSE).value
              ) / (2 * d)
        assert q.d_speed == pytest.approx(fd, rel=1e-6, abs=1e-12)
        assert q.d_speed > 0.0


def test_speed_derivative_factor_endpoints_and_sign():
    assert speed_derivative_factor(0.0, char_roots(1.0, 1.0)) == 0.0
    assert speed_derivative_factor(math.inf, char_roots(1.0, 1.0)) == -1.0
    rng = np.random.default_rng(6)
    for _ in range(200):
        ell = rng.uniform(1e-6, 50.0)
        c = rng.uniform(1e-3, 50.0)
        assert speed_derivative_factor(ell, char_roots(c, 1.0)) < 0.0


def test_front_energy_decreasing_with_known_zero():
    p = Params(5.0, 1.0, 1.0)
    values = [interval_energy(math.inf, char_roots(c, p.gamma), p).value
              for c in np.linspace(0.01, 3.0, 40)]
    assert all(b < a for a, b in zip(values[:-1], values[1:]))
    c_f = 0.11456943748336548
    assert interval_energy(math.inf, char_roots(c_f, p.gamma), p).value \
        == pytest.approx(0.0, abs=1e-14)


def test_sharp_interface_energy_single_interval_closed_form():
    c = 1.2
    for a, b in [(-1.0, 0.5), (-6.0, -2.0), (0.0, 3.0)]:
        e = IntervalUnion.single(a, b)
        breakdown = sharp_interface_energy(e, c, PULSE)
        je = interval_energy(b - a, char_roots(c, PULSE.gamma), PULSE)
        assert breakdown.total == pytest.approx(
            math.exp(b) * je.value, rel=1e-11, abs=1e-13)


def test_sharp_interface_energy_normalized_interval():
    c = 2.0
    ell = 2.5
    b = -math.log(1.0 - math.exp(-ell))
    e = IntervalUnion.single(b - ell, b)
    assert e.l1e_norm == pytest.approx(1.0, rel=1e-12)
    breakdown = sharp_interface_energy(e, c, PULSE)
    je = interval_energy(ell, char_roots(c, PULSE.gamma), PULSE)
    assert breakdown.total == pytest.approx(
        je.value / (1.0 - math.exp(-ell)), rel=1e-11)


def test_sharp_interface_energy_half_line_is_front_energy():
    c = 0.9
    e = IntervalUnion.single(-math.inf, 0.0)
    breakdown = sharp_interface_energy(e, c, PULSE)
    assert breakdown.perimeter_term == pytest.approx(SQRT2 / 12.0)
    assert breakdown.area_term == pytest.approx(-SQRT2 * PULSE.alpha / 12.0)
    front = interval_energy(math.inf, char_roots(c, PULSE.gamma), PULSE)
    assert breakdown.total == pytest.approx(front.value, rel=1e-12)


def test_sharp_interface_energy_half_line_at_large_speeds():
    # the half-line's nonlocal term sigma (1 - H) / (2 gamma) equals
    # 2 sigma / (s (s + c)), s = sqrt(c^2 + 4 gamma), with no cancellation
    e = IntervalUnion.single(-math.inf, 0.0)
    for gamma, sigma in [(1.0, 1.0), (0.3, 2.5)]:
        p = Params(2.0, gamma, sigma)
        for c in (1e2, 1e3, 1e5):
            s = math.sqrt(c * c + 4.0 * gamma)
            exact = 2.0 * sigma / (s * (s + c))
            term = sharp_interface_energy(e, c, p).nonlocal_term
            assert term == pytest.approx(exact, rel=1e-13, abs=0.0)


def test_sharp_interface_energy_union_superadditive():
    # the cross pairing of two separated intervals is positive, so the
    # union costs more than the sum of its parts
    c = 1.0
    e1 = IntervalUnion.single(-1.0, 0.0)
    e2 = IntervalUnion.single(-4.0, -3.0)
    union = IntervalUnion(((-1.0, 0.0), (-4.0, -3.0)))
    t1 = sharp_interface_energy(e1, c, PULSE).nonlocal_term
    t2 = sharp_interface_energy(e2, c, PULSE).nonlocal_term
    tu = sharp_interface_energy(union, c, PULSE).nonlocal_term
    assert tu > t1 + t2 + 1e-4


def _union_pairing_reference(e: IntervalUnion, c: float, p: Params) -> float:
    """(sigma/2) times the integral of e^x chi_E L_c chi_E: the closed-form
    responses of the intervals, summed and integrated by a fine trapezoid
    rule over each interval."""
    responses = [(b, lc_indicator(b - a, c, p.gamma)) for a, b in e.intervals]
    total = 0.0
    for a, b in e.intervals:
        x = np.linspace(a, b, 40001)
        v = sum(sol(x - b_j) for b_j, sol in responses)
        total += np.trapezoid(np.exp(x) * v, x)
    return 0.5 * p.sigma * total


@pytest.mark.parametrize("c", [0.2, 0.7, 2.0, 5.0])
def test_union_pairing_second_order_with_off_node_endpoints(c):
    # cell-averaged indicator data on a grid fitted to the set: endpoints
    # that fall between nodes keep their place, so the pairing is second
    # order (node sampling moved each endpoint by up to h/2: 3.6e-3 off on
    # the first union at c = 0.7)
    for intervals in (
            ((1.234, 1.9), (-0.37, 0.811), (-5.1, -2.05)),
            ((0.3333, 0.91), (-1.0017, 0.1234)),
            ((1.9871, 1.9999), (-2.3456, 1.0001), (-3.03, -2.9),
             (-5.977, -4.1))):
        e = IntervalUnion(intervals)
        got = sharp_interface_energy(e, c, PULSE).nonlocal_term
        want = _union_pairing_reference(e, c, PULSE)
        assert got == pytest.approx(want, rel=5e-4), intervals


def test_sharp_interface_energy_union_fd_consistency():
    # the finite-difference path agrees with the closed form when the
    # union happens to be a single interval
    c = 1.1
    e = IntervalUnion.single(-2.0, 0.0)
    closed = sharp_interface_energy(e, c, PULSE).nonlocal_term
    from fhn_gamma.limit_energy import _nonlocal_pairing_fd

    fd = 0.5 * PULSE.sigma * _nonlocal_pairing_fd(e, c, PULSE)
    assert fd == pytest.approx(closed, rel=1e-4)


@pytest.mark.parametrize("c", [0.3, 1.0, 4.0])
def test_union_with_a_half_line_far_left_is_translation_covariant(c):
    # shifting a set by t scales each energy part by e^t; the pairing grid
    # starts DEFAULT_X_LO left of the half-line's right end, so a half-line
    # ending far left of DEFAULT_X_LO keeps its grid, shifted
    far = IntervalUnion(((-50.0, -46.0), (-math.inf, -60.0)))
    near = IntervalUnion(((10.0, 14.0), (-math.inf, 0.0)))
    got = sharp_interface_energy(far, c, PULSE)
    want = sharp_interface_energy(near, c, PULSE)
    for name in ("perimeter_term", "area_term", "nonlocal_term"):
        assert getattr(got, name) == pytest.approx(
            math.exp(-60.0) * getattr(want, name), rel=1e-12), name


@pytest.mark.parametrize("intervals, c", [
    # h = 0.4 / r2 at c = 1e-6: 60,000,032 nodes on a 16-unit union
    (((0.0, 1.0), (-3.0, -2.0)), 1e-6),
    # h = 0.005 on a union reaching -1e6: 200,004,201 nodes
    (((0.0, 1.0), (-1e6, -1.0)), 1.0),
])
def test_union_pairing_past_the_node_bound_raises_before_any_array(intervals, c):
    e = IntervalUnion(intervals)
    tracemalloc.start()
    try:
        with pytest.raises(GridError, match="MAX_GRID_NODES"):
            sharp_interface_energy(e, c, PULSE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6
