import math
import warnings

import numpy as np
import pytest
from scipy.linalg.lapack import dgttrf, dgttrs

from fhn_gamma.epsilon_solver import solver_grid
from fhn_gamma.errors import GridError, InvalidParameterError
from fhn_gamma.limit_energy import sharp_interface_energy
from fhn_gamma.model import Params
from fhn_gamma.nonlocal_operator import (
    InhibitorOperator,
    char_roots,
    lc_indicator,
)
from fhn_gamma.wave_speeds import pulse_speed
from fhn_gamma.weighted_space import Grid, IntervalUnion, weighted_dot


def test_char_roots_identities():
    rng = np.random.default_rng(3)
    for _ in range(200):
        c = rng.uniform(1e-3, 50.0)
        gamma = rng.uniform(1e-2, 10.0)
        r = char_roots(c, gamma)
        # exact up to one rounding of the subtraction
        assert abs(r.r1 + r.r2 + 1.0) < 1e-15
        assert r.r1 < -1.0 < 0.0 < r.r2
        # product of roots is -gamma/c^2
        assert r.r1 * r.r2 == pytest.approx(-gamma / c**2, rel=1e-12)
        h = c / math.sqrt(c * c + 4.0 * gamma)
        assert r.gap == pytest.approx(1.0 / h, rel=1e-13)


@pytest.mark.parametrize("gamma", [0.3, 1.0, 4.0])
def test_char_roots_speed_dependence(gamma):
    for c in np.geomspace(1e-3, 1e2, 26):
        r = char_roots(c, gamma)
        dc = 1e-5 * c
        fd = (char_roots(c + dc, gamma).r1 - char_roots(c - dc, gamma).r1) \
            / (2.0 * dc)
        assert r.dr1_dc == pytest.approx(fd, rel=1e-7)
        assert r.ratio == pytest.approx(1.0 / r.gap, rel=1e-13)


def test_char_roots_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        char_roots(0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        char_roots(1.0, -1.0)
    # the last four are finite speeds whose c^2 overflows (H = c/s would be
    # 0) or underflows (dr1/dc = 2 gamma / (c^2 s) would divide by 0)
    for c, gamma in [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan),
                     (1.0, math.inf), (1e300, 1.0), (1e103, 1.0),
                     (1e-155, 1.0), (1e-300, 1.0)]:
        with pytest.raises(InvalidParameterError):
            char_roots(c, gamma)
    # just inside the accepted range every root is finite and nonzero
    for c in (1e102, 1e-154):
        assert all(0.0 < abs(v) < math.inf for v in char_roots(c, 1.0))


def test_indicator_response_junctions_and_ode():
    for ell, c, gamma in [(1.0, 1.0, 1.0), (3.0, 2.3, 1.0), (40.0, 0.2, 2.0),
                          (700.0, 5.0, 1.0)]:
        sol = lc_indicator(ell, c, gamma)
        for name, res in sol.junction_residuals().items():
            assert res < 1e-13, (ell, c, gamma, name, res)
        # interior of the support: gamma v - c^2 (v'' + v') = 1, checked by
        # finite differences on a fine stencil
        x0 = -min(ell, 10.0) / 2.0
        d = 1e-4
        v = sol(np.array([x0 - d, x0, x0 + d]))
        vpp = (v[0] - 2 * v[1] + v[2]) / d**2
        vp = (v[2] - v[0]) / (2 * d)
        assert gamma * v[1] - c * c * (vpp + vp) == pytest.approx(1.0, abs=1e-6)


def test_indicator_response_decays_both_ways():
    sol = lc_indicator(2.0, 1.5, 1.0)
    assert sol(np.array([50.0]))[0] < 1e-20
    assert sol(np.array([-300.0]))[0] < 1e-20
    assert sol(np.array([-1.0]))[0] > 0.0


def test_indicator_response_finite_on_wide_supports():
    # the pulse at (1.001, 1, 1) and a wide slow support: a3 underflows to 0
    # while e^{r1 x} overflows on most of the support
    for ell, c, x_lo in [(2281.905, 92.0993, -2281.2), (900.0, 1.3, -900.0)]:
        sol = lc_indicator(ell, c, 1.0)
        x = np.linspace(x_lo, 0.0, 2001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = sol(x)
        assert np.all(np.isfinite(v))
        r1, r2 = sol.roots.r1, sol.roots.r2
        with np.errstate(over="ignore", invalid="ignore"):
            product_form = (1.0 / sol.gamma + sol.a3 * np.exp(r1 * x)
                            + sol.a2 * np.exp(r2 * x))
        finite = np.isfinite(product_form)
        assert not finite.all()
        assert np.max(np.abs(v[finite] - product_form[finite])) <= 1e-13
        for res in sol.junction_residuals().values():
            assert res < 1e-13


def test_indicator_response_semi_infinite():
    sol = lc_indicator(math.inf, 1.0, 1.0)
    assert sol.a3 == 0.0
    assert sol(np.array([-700.0]))[0] == pytest.approx(1.0, rel=1e-8)
    r = sol.roots
    # the nonlocal term of the half-line, (sigma/2) times the weighted
    # integral (1 - 1/gap)/gamma of the response over the support
    p = Params(2.0, 1.0, 1.3)
    term = sharp_interface_energy(
        IntervalUnion.single(-math.inf, 0.0), 1.0, p).nonlocal_term
    assert term == pytest.approx(
        p.sigma * (1.0 - 1.0 / r.gap) / (2.0 * p.gamma), rel=1e-13)
    for res in sol.junction_residuals().values():
        assert res < 1e-13


def test_integral_over_support_matches_quadrature():
    # the single-interval nonlocal term is (sigma/2) times the weighted
    # integral of the closed-form response over its support
    ell, c, gamma = 2.5, 1.7, 1.3
    p = Params(2.0, gamma, 0.7)
    sol = lc_indicator(ell, c, gamma)
    x = np.linspace(-ell, 0.0, 200001)
    quad = np.trapezoid(np.exp(x) * sol(x), dx=x[1] - x[0])
    term = sharp_interface_energy(
        IntervalUnion.single(-ell, 0.0), c, p).nonlocal_term
    assert term == pytest.approx(0.5 * p.sigma * quad, rel=1e-9)


def test_fd_solve_constant_data_is_exact():
    # f = 1 everywhere: the response is 1/gamma, and the Robin conditions
    # with constant boundary data reproduce it to rounding
    gamma = 1.7
    grid = Grid(-10.0, 5.0, 1501)
    op = InhibitorOperator(grid, 1.3, gamma)
    v = op.solve(np.ones(grid.n))
    assert np.max(np.abs(v - 1.0 / gamma)) < 1e-11


def test_fd_solve_matches_closed_form_second_order():
    c, gamma = 1.0, 1.0
    errs = []
    for h in (0.02, 0.01):
        grid = Grid(-21.0, 9.0, int(round(30.0 / h)) + 1)
        x = grid.x
        chi = np.where((x > -1.0) & (x < 0.0), 1.0, 0.0)
        chi[np.isclose(x, -1.0)] = 0.5
        chi[np.isclose(x, 0.0)] = 0.5
        v = InhibitorOperator(grid, c, gamma).solve(chi)
        exact = lc_indicator(1.0, c, gamma)(x)
        errs.append(np.max(np.abs(v - exact)))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_fd_grid_too_coarse_raises():
    grid = Grid(-5.0, 5.0, 11)
    with pytest.raises(GridError):
        InhibitorOperator(grid, 0.05, 1.0)  # r1 ~ -400 at this speed


def _random_smooth(grid, rng):
    # smooth bumps supported well inside the grid, where the decay-matching
    # boundary closure is accurate
    x = grid.x
    f = np.zeros_like(x)
    for _ in range(3):
        f += rng.uniform(-1, 1) * np.exp(
            -((x - rng.uniform(-7, 0)) / rng.uniform(0.3, 1.0)) ** 2)
    window = np.clip(x - grid.x_lo - 2.0, 0.0, 1.0) \
        * np.clip(grid.x_hi - 2.0 - x, 0.0, 1.0)
    return f * window


def test_solves_match_dense_assembled_matrix():
    grid = Grid(-8.0, 4.0, 50)
    c, gamma = 1.2, 1.0
    op = InhibitorOperator(grid, c, gamma)
    r = char_roots(c, gamma)
    h, n = grid.h, grid.n
    sub = -c * c / h**2 + c * c / (2.0 * h)
    diag = 2.0 * c * c / h**2 + gamma
    sup = -c * c / h**2 - c * c / (2.0 * h)
    a = (np.diag(np.full(n, diag)) + np.diag(np.full(n - 1, sub), -1)
         + np.diag(np.full(n - 1, sup), 1))
    b = np.ones(n)
    # Robin rows: the central-difference ghost value v_{-1} (v_n) from
    # v' = r2 (v - f/gamma) at x_lo (v' = r1 (v - f/gamma) at x_hi)
    a[0, 0] -= 2.0 * h * r.r2 * sub
    a[0, 1] += sub
    b[0] -= 2.0 * h * r.r2 * sub / gamma
    a[-1, -1] += 2.0 * h * r.r1 * sup
    a[-1, -2] += sup
    b[-1] += 2.0 * h * r.r1 * sup / gamma
    rng = np.random.default_rng(17)
    f = rng.standard_normal(n)
    for got, want in ((op.solve(f), np.linalg.solve(a, b * f)),
                      (op.solve_transpose(f), b * np.linalg.solve(a.T, f))):
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(want)))


def test_transpose_solve_is_adjoint_in_plain_inner_product():
    grid = Grid(-12.0, 4.0, 801)
    op = InhibitorOperator(grid, 1.2, 1.0)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(grid.n)
    g = rng.standard_normal(grid.n)
    # <L f, g> = <f, L^T g>
    lhs = float(np.dot(op.solve(f), g))
    rhs = float(np.dot(f, op.solve_transpose(g)))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_nonlocal_energy_positive_and_self_adjoint():
    grid = Grid(-12.0, 4.0, 3201)
    c, gamma = 1.4, 1.0
    op = InhibitorOperator(grid, c, gamma)
    w = np.exp(grid.x)
    rng = np.random.default_rng(5)
    for _ in range(50):
        u = _random_smooth(grid, rng)
        v = _random_smooth(grid, rng)
        pair_uv = np.trapezoid(w * u * op.solve(v), dx=grid.h)
        pair_vu = np.trapezoid(w * v * op.solve(u), dx=grid.h)
        scale = max(abs(pair_uv), abs(pair_vu), 1e-12)
        # the discrete asymmetry of the weighted pairing is O(h^2)
        assert abs(pair_uv - pair_vu) / scale < 1e-4
        energy = weighted_dot(grid, u, op.solve(u))
        assert energy >= -1e-10


def _pivoting_reference(grid, c, gamma):
    """The inhibitor matrix A factored as it is, without symmetrization, by
    LAPACK's pivoting dgttrf, and the diagonal of the boundary coupling B
    (A v = B f)."""
    r = char_roots(c, gamma)
    h, n = grid.h, grid.n
    sub = -c * c / h**2 + c * c / (2.0 * h)
    diag = 2.0 * c * c / h**2 + gamma
    sup = -c * c / h**2 - c * c / (2.0 * h)
    dl, d, du = np.full(n - 1, sub), np.full(n, diag), np.full(n - 1, sup)
    d[0] -= 2.0 * h * r.r2 * sub
    du[0] += sub
    d[-1] += 2.0 * h * r.r1 * sup
    dl[-1] += sup
    b = np.ones(n)
    b[0] -= 2.0 * h * r.r2 * sub / gamma
    b[-1] += 2.0 * h * r.r1 * sup / gamma
    *lu, info = dgttrf(dl, d, du)
    assert info == 0
    return lu, b


def _long_grids():
    pulse = pulse_speed(Params(1.01, 1.0, 1.0))
    yield solver_grid(pulse.limit_set, 0.04), pulse.c_p
    # 2,312 units at h = 0.05, slow and fast decay
    for c in (0.5, 92.1):
        yield Grid(-2302.0, 10.0, 46241), c


def test_symmetric_solve_matches_pivoting_reference_on_long_grids():
    rng = np.random.default_rng(29)
    for grid, c in _long_grids():
        assert grid.x_hi - grid.x_lo > 240.0
        op = InhibitorOperator(grid, c, 1.0)
        lu, b = _pivoting_reference(grid, c, 1.0)
        f = rng.uniform(-1.6, 1.0, grid.n)
        g = np.exp(grid.x) * grid.h * rng.uniform(-1.6, 1.0, grid.n)
        for got, want in (
                (op.solve(f), dgttrs(*lu, b * f)[0]),
                (op.solve_transpose(g), b * dgttrs(*lu, g, trans="T")[0])):
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_grid_too_long_for_symmetrization_raises():
    grid = Grid(-2990.0, 10.0, 60001)  # 3,000 units at h = 0.05
    with pytest.raises(GridError, match="too long"):
        InhibitorOperator(grid, 1.0, 1.0)


def test_solver_grid_too_long_raises_before_building_nodes():
    # a set reaching 1e300 units left would need about 1e302 nodes: the
    # node bound refuses it, so no node is built
    with pytest.raises(GridError, match="MAX_GRID_NODES"):
        solver_grid(IntervalUnion.single(-1e300, 0.0), 0.04)
    # at 1.7e308 the cell count is inf, on which math.ceil would raise
    # OverflowError
    with pytest.raises(GridError, match="MAX_GRID_NODES"):
        solver_grid(IntervalUnion.single(-1.7e308, 0.0), 0.04)


def test_solver_grid_past_the_node_bound_raises_before_building_nodes():
    # the front's half-line at eps = 1e-7 needs 2.46e9 nodes, 19.7 GB per
    # array; eps = 1e-3 (245,788 nodes) still builds
    half_line = IntervalUnion.single(-math.inf, 0.0)
    with pytest.raises(GridError, match="MAX_GRID_NODES"):
        solver_grid(half_line, 1e-7)
    assert solver_grid(half_line, 1e-3).n == 245788


def test_cap_counts_the_right_end_robin_coefficient():
    # at c = 90 the solves form D_{n-1} times the right-end Robin
    # coefficient, about 2 c^2/(h gamma) = 3.2e5; a grid just under the cap
    # stays finite with pulse-like data (zero at the right end) ...
    c, gamma, h = 90.0, 1.0, 0.05
    grid = Grid(10.0 - 50940 * h, 10.0, 50941)  # 2,547 units
    op = InhibitorOperator(grid, c, gamma)
    lu, b = _pivoting_reference(grid, c, gamma)
    f = np.where(grid.x < 0.0, 1.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = op.solve(f)
        dv = op.d_speed(f, v)
        t = op.solve_transpose(np.exp(grid.x) * f)
    want = dgttrs(*lu, b * f)[0]
    assert np.max(np.abs(v - want)) <= 1e-10 * np.max(np.abs(want))
    assert np.all(np.isfinite(dv)) and np.all(np.isfinite(t))
    # ... and 2,560 units, where |log D| alone is about 640, raise
    with pytest.raises(GridError, match="too long"):
        InhibitorOperator(Grid(10.0 - 51200 * h, 10.0, 51201), c, gamma)


@pytest.mark.parametrize("c", [0.7, 1.3, 2.3])
def test_speed_derivative_matches_central_difference(c):
    # data nonzero at both ends, so the Robin rows' speed dependence counts
    grid = Grid(-12.0, 4.0, 801)
    gamma = 1.2
    x = grid.x
    f = np.exp(-(x + 3.0) ** 2) + 0.3 * np.tanh(x) + 0.2
    op = InhibitorOperator(grid, c, gamma)
    dv = op.d_speed(f, op.solve(f))
    dc = 1e-3 * c
    fd = (InhibitorOperator(grid, c + dc, gamma).solve(f)
          - InhibitorOperator(grid, c - dc, gamma).solve(f)) / (2.0 * dc)
    # leaving out the Robin rows' terms gives an error above 2 on this scale
    assert np.max(np.abs(dv - fd)) <= 1e-5 * np.max(np.abs(fd))


@pytest.mark.parametrize("c", [0.7, 1.3, 2.3])
def test_speed_derivative_transpose_is_the_adjoint(c):
    # y . dL/dc f = f . (dL/dc)^T y for data nonzero at both ends, and the
    # transpose matches central differences of solve_transpose
    grid = Grid(-12.0, 4.0, 801)
    gamma = 1.2
    x = grid.x
    f = np.exp(-(x + 3.0) ** 2) + 0.3 * np.tanh(x) + 0.2
    y = np.cos(x) + 0.5
    op = InhibitorOperator(grid, c, gamma)
    t = op.d_speed_transpose(y)
    assert np.dot(f, t) == pytest.approx(np.dot(y, op.d_speed(f, op.solve(f))),
                                         rel=1e-12)
    dc = 1e-4 * c
    fd = (InhibitorOperator(grid, c + dc, gamma).solve_transpose(y)
          - InhibitorOperator(grid, c - dc, gamma).solve_transpose(y)) / (2.0 * dc)
    assert np.max(np.abs(t - fd)) <= 1e-5 * np.max(np.abs(fd))
