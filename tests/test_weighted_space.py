import math
import sys

import numpy as np
import pytest

from fhn_gamma.cli import _emit_csv
from fhn_gamma.errors import GridError, InvalidParameterError
from fhn_gamma.weighted_space import (
    MAX_INTERVALS,
    Grid,
    IntervalUnion,
    SampledFunction,
    l2e_norm,
    shift,
    total_variation_e,
    weighted_dot,
)


def test_grid_basics():
    g = Grid(-2.0, 2.0, 401)
    assert g.h == pytest.approx(0.01)
    assert g.x[0] == -2.0 and g.x[-1] == 2.0
    # trapezoid weights against e^x, shared read-only by every user
    assert g.quadrature.sum() == pytest.approx(
        np.trapezoid(np.exp(g.x), dx=g.h), rel=1e-14)
    with pytest.raises(ValueError):
        g.quadrature[0] = 0.0
    with pytest.raises(GridError):
        Grid(1.0, 0.0, 10)
    with pytest.raises(GridError):
        Grid(0.0, 1.0, 2)


def test_grid_for_interval():
    g = Grid.for_interval(2.0, 0.1, x_lo=-1.0)
    assert g.x_lo == -1.0 and g.x_hi == 2.0
    assert g.h <= 0.1 + 1e-15
    for h in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(GridError):
            Grid.for_interval(2.0, h)
    # a cell count that overflows to inf, such as 44 / 1e-311
    for x_hi, h in ((10.0, 1e-311), (math.inf, 0.1)):
        with pytest.raises(GridError, match="no finite cell count"):
            Grid.for_interval(x_hi, h)


def test_sampled_function_shape_and_finite():
    g = Grid(0.0, 1.0, 11)
    with pytest.raises(GridError):
        SampledFunction(g, np.zeros(10))
    with pytest.raises(InvalidParameterError):
        SampledFunction(g, np.full(11, np.nan))


def test_csv_round_trip(tmp_path):
    g = Grid(-1.0, 1.0, 201)
    f = SampledFunction.from_callable(g, np.sin)
    path = tmp_path / "profile.csv"
    _emit_csv(("x", "value"), zip(g.x, f.values), path)
    back = SampledFunction.from_csv(path)
    assert back.grid.n == g.n
    assert np.allclose(back.values, f.values, atol=1e-12)


@pytest.mark.parametrize("content", [
    b"x,value\n0,a\n1,b\n2,c\n",
    b"x,value\n0,1\n1,2,3\n2,3\n",
    b"x,value\n0,\xff\n1,1\n2,1\n",
], ids=["non_numeric", "ragged", "non_utf8"])
def test_csv_rejects_malformed_content(content, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    with pytest.raises(GridError, match="not a CSV table of numbers"):
        SampledFunction.from_csv(path)


def test_csv_rejects_nonuniform(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n0,1\n0.1,1\n0.35,1\n")
    with pytest.raises(GridError):
        SampledFunction.from_csv(path)


def test_weighted_norms_of_indicator_like_profile():
    g = Grid(-34.0, 0.0, 34001)
    f = SampledFunction(g, np.ones(g.n))
    exact = 1.0 - math.exp(-34.0)
    # trapezoid error for e^x is h^2/12 per unit mass
    assert weighted_dot(g, np.abs(f.values), 1.0) == pytest.approx(exact, rel=1e-7)
    assert l2e_norm(g, f.values) == pytest.approx(math.sqrt(exact), rel=1e-7)


def test_shift_identity_grid_aligned():
    g = Grid(-20.0, 10.0, 3001)  # h = 0.01
    f = SampledFunction.from_callable(
        g, lambda x: np.exp(-(x + 5.0) ** 2))
    a = 2.0
    shifted = shift(f, a)

    def l1e(v):
        return weighted_dot(g, np.abs(v), 1.0)

    assert l1e(shifted.values) == pytest.approx(math.exp(-a) * l1e(f.values),
                                                rel=1e-6)
    assert l2e_norm(g, shifted.values) == pytest.approx(
        math.exp(-a / 2.0) * l2e_norm(g, f.values), rel=1e-6)


def test_shift_round_trip_and_errors():
    g = Grid(0.0, 1.0, 101)
    f = SampledFunction.from_callable(g, lambda x: x**2)
    back = shift(shift(f, 0.1), -0.1)
    interior = slice(11, 90)
    assert np.allclose(back.values[interior], f.values[interior], atol=1e-14)
    with pytest.raises(GridError):
        shift(f, 2.0)


def test_shift_rejects_non_finite_and_off_grid_offsets():
    g = Grid(0.0, 1.0, 101)
    f = SampledFunction.from_callable(g, lambda x: x)
    for h in (math.nan, math.inf, -math.inf):
        with pytest.raises(GridError, match="not finite"):
            shift(f, h)
    with pytest.raises(GridError, match="whole number of grid cells"):
        shift(f, 0.005)


def test_interval_union_validation():
    with pytest.raises(InvalidParameterError):
        IntervalUnion(())
    with pytest.raises(InvalidParameterError):
        IntervalUnion(((1.0, 0.0),))
    with pytest.raises(InvalidParameterError):
        IntervalUnion(((0.0, 1.0), (0.5, 2.0)))  # overlap / wrong order
    with pytest.raises(InvalidParameterError):
        IntervalUnion(((-math.inf, 0.0), (-5.0, -3.0)))  # -inf not last
    with pytest.raises(InvalidParameterError):
        IntervalUnion(((0.0, math.inf),))
    many = tuple((-2.0 * k - 1.0, -2.0 * k) for k in range(MAX_INTERVALS + 1))
    IntervalUnion(many[:MAX_INTERVALS])
    with pytest.raises(InvalidParameterError):
        IntervalUnion(many)


def test_interval_union_right_end_below_float_overflow():
    # e^b must be finite for the weighted measure and total variation
    log_max = math.log(sys.float_info.max)
    e = IntervalUnion.single(0.0, log_max)
    assert math.isfinite(e.l1e_norm) and math.isfinite(total_variation_e(e))
    for b in (math.nextafter(log_max, math.inf), 800.0):
        with pytest.raises(InvalidParameterError, match="ln\\(DBL_MAX\\)"):
            IntervalUnion.single(0.0, b)


def test_interval_union_integer_endpoint_beyond_float_range():
    big = 10**400
    with pytest.raises(InvalidParameterError, match="too large for a float"):
        IntervalUnion.single(0, big)
    with pytest.raises(InvalidParameterError, match="too large for a float"):
        IntervalUnion.from_json(f"[[-{big}, 0]]")


def test_interval_union_measure_and_endpoints():
    e = IntervalUnion(((1.0, 2.0), (-1.0, 0.0)))
    assert e.l1e_norm == pytest.approx(
        (math.e**2 - math.e) + (1.0 - math.exp(-1.0)))
    assert e.rightmost == 2.0
    assert e.leftmost == -1.0
    half = IntervalUnion.single(-math.inf, 0.0)
    assert half.l1e_norm == pytest.approx(1.0)


def test_interval_union_json_round_trip():
    e = IntervalUnion(((1.0, 2.0), (-math.inf, 0.0)))
    back = IntervalUnion.from_json('[[1.0, 2.0], ["-inf", 0.0]]')
    assert back.intervals == e.intervals


def test_indicator_marks_jumps_with_half():
    g = Grid(-2.0, 2.0, 401)
    e = IntervalUnion.single(-1.0, 0.0)
    chi = e.indicator(g)
    i_a = int(round((-1.0 - g.x_lo) / g.h))
    i_b = int(round((0.0 - g.x_lo) / g.h))
    assert chi.values[i_a] == 0.5 and chi.values[i_b] == 0.5
    assert chi.values[i_a + 1 : i_b].min() == 1.0
    assert chi.values[: i_a].max() == 0.0


def test_indicator_averages_chi_over_each_dual_cell():
    # node i gets the fraction of [x_i - h/2, x_i + h/2] inside the set:
    # [0.75, 2.75] covers 3/4 of node 1's cell and 1/4 of node 3's, and
    # [3.6, 3.9] lies inside node 4's cell [3.5, 4.5]
    g = Grid(0.0, 5.0, 6)
    e = IntervalUnion(((3.6, 3.9), (0.75, 2.75)))
    assert e.indicator(g).values == pytest.approx(
        [0.0, 0.75, 1.0, 0.25, 0.3, 0.0], abs=1e-12)
    # two intervals sharing node 2's cell [1.5, 2.5]
    e = IntervalUnion(((2.2, 4.0), (-math.inf, 1.7)))
    assert e.indicator(g).values == pytest.approx(
        [1.0, 1.0, 0.5, 1.0, 0.5, 0.0], abs=1e-12)
    # off-node endpoints on a fine grid: h times the sum of the averages is
    # the set's measure, with no endpoint moved to a node
    g = Grid(-8.0, 4.0, 2401)
    e = IntervalUnion(((1.234, 1.9), (-0.37, 0.811), (-5.1, -2.05)))
    chi = e.indicator(g).values
    measure = sum(b - a for a, b in e.intervals)
    assert g.h * chi.sum() == pytest.approx(measure, rel=1e-12)
    i = int((1.234 - g.x_lo) / g.h + 0.5)  # the node whose cell holds 1.234
    assert chi[i] == pytest.approx((g.x[i] + 0.5 * g.h - 1.234) / g.h, abs=1e-9)
    assert 0.0 < chi[i] < 1.0


def test_total_variation_unit_interval_exact():
    e = IntervalUnion.single(0.0, 1.0)
    assert total_variation_e(e) == 1.0 + math.e
    half = IntervalUnion.single(-math.inf, 0.0)
    assert total_variation_e(half) == 1.0


def test_poincare_inequality_random_profiles():
    rng = np.random.default_rng(7)
    g = Grid(-12.0, 4.0, 1601)
    x = g.x
    for _ in range(100):
        center = rng.uniform(-8.0, 0.0)
        width = rng.uniform(0.3, 2.0)
        amp = rng.uniform(0.2, 3.0)
        bump = amp * np.exp(-((x - center) / width) ** 2)
        window = np.clip((x - g.x_lo - 1.0), 0, 1) * np.clip(g.x_hi - 1.0 - x, 0, 1)
        f = bump * window
        df = np.diff(f) / g.h
        lhs = np.sum(np.exp(0.5 * (x[1:] + x[:-1])) * df**2 * g.h)
        rhs = 0.25 * np.trapezoid(np.exp(x) * f**2, dx=g.h)
        assert lhs >= rhs * (1.0 - 1e-8)
