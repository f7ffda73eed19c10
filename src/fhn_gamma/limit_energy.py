"""Scalar functions of the sharp-interface limit energy.

The single-interval energy J(l, c) and its derivatives, the optimal-width
condition and the auxiliary factor proving monotonicity in the speed are
closed-form arithmetic in the decay exponents r1, r2 of the inhibitor
equation, so each takes the speed as those roots, ``char_roots(c, gamma)``,
and a solver at a fixed speed builds them once.  Widths range over
(0, inf]: the front's set, the half-line (-inf, 0], is the interval of
infinite width, and since e^{-inf} = 0 the finite formulas give its
values, so the front energy is J(inf, c),
``interval_energy(inf, char_roots(c, gamma), p)``.  A term ell e^{-k ell}
is 0 once its exponential is, so no formula needs a case for ell = inf.
The geometric energy of a union of intervals has exact perimeter and area
sums; its nonlocal term is closed form for a single interval and a
second-order finite-difference pairing for unions of two or more, within
1.9e-4 relative of the Green's-function value on the benchmark's unions
(the pairing also has a closed form, a double sum over pairs of intervals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import GridError, InvalidParameterError
from .model import SQRT2, Params
from .nonlocal_operator import CharRoots, InhibitorOperator, char_roots
from .weighted_space import (
    DEFAULT_X_LO,
    GRID_PAD,
    MAX_GRID_NODES,
    Grid,
    IntervalUnion,
    total_variation_e,
    weighted_dot,
)

#: grid spacing of the finite-difference pairing of a union of intervals
FD_RESOLUTION = 0.005


def speed_derivative_factor(ell: float, roots: CharRoots) -> float:
    """Auxiliary factor whose sign controls the speed-derivative of the
    interval energy at the speed whose roots are given:
    -1 - e^{-ell} + (2 + ell/H) e^{r1 ell}.

    Vanishes at ell = 0, is -1 at ell = inf, and is negative for every
    positive width.  The last term is 0 once e^{r1 ell} is, also where
    ell/H would be inf: that is the limit at ell = inf.
    """
    if not ell >= 0:
        raise InvalidParameterError(f"need ell >= 0, got ell={ell}")
    e1 = math.exp(roots.r1 * ell)
    return -1.0 - math.exp(-ell) + ((2.0 + ell / roots.ratio) * e1 if e1 else 0.0)


def _nonlocal_term(ell: float, roots: CharRoots, p: Params) -> float:
    """Nonlocal part of the interval energy, (sigma H / gamma)
    (r2 + r1 e^{-ell} + e^{r1 ell}); at ell = inf, (sigma H / gamma) r2 =
    2 sigma / (s (s + c)) with s = sqrt(c^2 + 4 gamma), free of cancellation."""
    return (p.sigma * roots.ratio / p.gamma) * (
        roots.r2 + roots.r1 * math.exp(-ell) + math.exp(roots.r1 * ell))


class IntervalEnergy(NamedTuple):
    """Normalized single-interval energy with its width and speed derivatives.
    A named tuple, like ``WidthCondition``: the pulse solve builds one per
    speed."""

    value: float
    d_width: float
    d_width2: float
    d_speed: float


def interval_energy(ell: float, roots: CharRoots, p: Params) -> IntervalEnergy:
    """Limit energy of an interval of width 0 < ell <= inf normalized to
    unit right endpoint weight, at the speed whose roots are given, with
    first and second width derivatives and the speed derivative.  ell = inf
    gives the front energy sqrt(2)/12 (1 - alpha) + sigma (1 - H) / (2 gamma),
    strictly decreasing in c, with zero width derivatives.

    The speed derivative is computed through the auxiliary factor route:
    d/dc = 2 sigma (c^2 + 4 gamma)^{-3/2} * factor(ell, c), with
    (c^2 + 4 gamma)^{-3/2} = dr1_dc H^2 / (2 gamma).
    """
    if not ell > 0:
        raise InvalidParameterError(f"need ell > 0, got ell={ell}")
    alpha, gamma, sigma = p.alpha, p.gamma, p.sigma
    r1 = roots.r1
    h = roots.ratio
    em = math.exp(-ell)
    e1 = math.exp(r1 * ell)
    value = (
        (SQRT2 / 12.0) * (1.0 - alpha)
        + (SQRT2 / 12.0) * (1.0 + alpha) * em
        + _nonlocal_term(ell, roots, p)
    )
    half = sigma / (2.0 * gamma)
    d_width = -(SQRT2 / 12.0) * (1.0 + alpha) * em - (1.0 + h) * half * (e1 - em)
    d_width2 = em * scaled_width_curvature(ell, roots, p)
    cube = roots.dr1_dc * h * h / (2.0 * gamma)  # (c^2 + 4 gamma)^{-3/2}
    d_speed = 2.0 * sigma * cube * speed_derivative_factor(ell, roots)
    return IntervalEnergy(value, d_width, d_width2, d_speed)


def scaled_width_curvature(ell: float, roots: CharRoots, p: Params) -> float:
    """e^ell times the second width derivative of the interval energy at the
    speed whose roots are given,
    (sqrt(2)/12)(1 + alpha) - (1 + H)(sigma / 2 gamma)(1 + r1 e^{-r2 ell}):
    same sign, but no factor that underflows at large widths."""
    return ((SQRT2 / 12.0) * (1.0 + p.alpha)
            - (1.0 + roots.ratio) * p.sigma / (2.0 * p.gamma)
            * (1.0 + roots.r1 * math.exp(-roots.r2 * ell)))


class WidthCondition(NamedTuple):
    """Value and derivatives of the optimal-width condition; its unique
    ell-root defines the optimal pulse width for a given speed.  A named
    tuple: the pulse solve builds about a dozen per pulse, and a frozen
    dataclass costs more to construct than the condition costs to
    evaluate."""

    value: float
    d_width: float
    d_speed: float


def width_condition(ell: float, roots: CharRoots, p: Params) -> WidthCondition:
    """The combination of the two pulse optimality conditions whose root in
    ell picks the optimal width, at a width 0 < ell <= inf and the speed
    whose roots are given: strictly decreasing in width, strictly
    increasing in speed.  Tends to +inf as ell -> 0+ and to
    sqrt(2) alpha gamma / (6 sigma) - 1 as ell -> inf.  The speed
    derivative is ell times a sum of exponentials, 0 once they are, also
    at ell = inf.
    """
    if not ell > 0:
        raise InvalidParameterError(f"need ell > 0, got ell={ell}")
    alpha, gamma, sigma = p.alpha, p.gamma, p.sigma
    scale = SQRT2 * gamma / (12.0 * sigma)
    r1, r2 = roots.r1, roots.r2
    e2 = math.exp(-r2 * ell)
    e1 = math.exp(r1 * ell)
    den2 = 1.0 - e2
    den1 = 1.0 - e1
    if den2 == 0.0 or den1 == 0.0:
        return WidthCondition(math.inf, -math.inf, math.inf)
    value = scale * ((1.0 + alpha) / den2 + (alpha - 1.0) / den1) - 1.0
    sq2, sq1 = den2**2, den1**2
    d_width = scale * (-(1.0 + alpha) * r2 * e2 / sq2 + (alpha - 1.0) * r1 * e1 / sq1)
    dr1_dc = roots.dr1_dc
    exp_sum = (1.0 + alpha) * e2 / sq2 * dr1_dc + (alpha - 1.0) * e1 / sq1 * dr1_dc
    d_speed = scale * ell * exp_sum if exp_sum else 0.0
    return WidthCondition(value, d_width, d_speed)


@dataclass(frozen=True)
class LimitEnergyBreakdown:
    """Geometric limit energy split into its three parts."""

    perimeter_term: float
    area_term: float
    nonlocal_term: float

    @property
    def total(self) -> float:
        return self.perimeter_term + self.area_term + self.nonlocal_term


def sharp_interface_energy(
    e: IntervalUnion, c: float, p: Params
) -> LimitEnergyBreakdown:
    """Geometric limit energy of an interval union at speed c.

    Perimeter and area terms are exact sums of endpoint weights.  The
    nonlocal term is closed form for a single interval.  For a union of two
    or more intervals it pairs the cell-averaged indicator with its
    finite-difference inhibitor response (spacing at most FD_RESOLUTION),
    on a grid reaching GRID_PAD past the set.  The averages keep every
    endpoint in place, so the pairing is second-order accurate: on the
    benchmark's seeded 2-4-interval unions it is within 1.9e-4 of the exact
    Green's-function value, relative.  The pairing of a union also has a
    closed form, a double sum over pairs of intervals, not used here.  Its
    grid meets MAX_GRID_NODES before any array exists (``GridError``), and
    then the inhibitor solve's length guard.
    """
    perimeter = (SQRT2 / 12.0) * total_variation_e(e)
    area = -(SQRT2 * p.alpha / 12.0) * e.l1e_norm

    if len(e.intervals) == 1:
        a, b = e.intervals[0]
        # ell = b - a is inf for the half-line
        nonlocal_term = math.exp(b) * _nonlocal_term(b - a, char_roots(c, p.gamma), p)
    else:
        nonlocal_term = (p.sigma / 2.0) * _nonlocal_pairing_fd(e, c, p)
    return LimitEnergyBreakdown(
        perimeter_term=perimeter, area_term=area, nonlocal_term=nonlocal_term
    )


def _nonlocal_pairing_fd(e: IntervalUnion, c: float, p: Params) -> float:
    """Weighted self-pairing of the cell-averaged indicator with its
    finite-difference inhibitor response.  The grid reaches GRID_PAD past
    the set: the data vanish outside it, where the operator's Robin ends
    (v' = r2 v on the left, v' = r1 v on the right) are exact.  A half-line
    (-inf, b] is cut at min(DEFAULT_X_LO, b + DEFAULT_X_LO), which drops at
    most e^{DEFAULT_X_LO} times its own weight e^b."""
    roots = char_roots(c, p.gamma)
    h = min(FD_RESOLUTION, 0.4 / max(-roots.r1, roots.r2))
    a, b = e.intervals[-1]
    x_lo = min(DEFAULT_X_LO, b + DEFAULT_X_LO) if math.isinf(a) else a - GRID_PAD
    grid = Grid.for_interval(e.rightmost + GRID_PAD, h, x_lo=x_lo)
    if grid.n > MAX_GRID_NODES:
        raise GridError(f"union pairing grid at c={c:g} needs {grid.n} nodes, "
                        f"more than MAX_GRID_NODES = {MAX_GRID_NODES:,}")
    chi = e.indicator(grid).values
    v = InhibitorOperator(grid, c, p.gamma).solve(chi)
    return weighted_dot(grid, chi, v)
