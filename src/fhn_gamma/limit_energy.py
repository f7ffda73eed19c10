"""Scalar functions of the sharp-interface limit energy.

The single-interval energy J(l, c) and its derivatives, the optimal-width
condition and the auxiliary factor proving monotonicity in the speed are
closed-form arithmetic in the decay exponents r1, r2 of the inhibitor
equation.  The energy and the condition each have an ``*_at`` form that
takes those roots (``CharRoots``), so a solver at a fixed speed builds them
once.  Widths range over (0, inf]: the front's set, the half-line
(-inf, 0], is the interval of infinite width, and since e^{-inf} = 0 the
finite formulas give its values, so the front energy is J(inf, c),
``interval_energy(inf, c, p)``.  The geometric energy of a union of
intervals has exact perimeter and area sums; its nonlocal term is closed
form for a single interval and a first-order finite-difference pairing for
unions of two or more (ROADMAP item 6 is the closed form for unions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidParameterError
from .model import SQRT2, Params
from .nonlocal_operator import CharRoots, InhibitorOperator, char_roots
from .weighted_space import Grid, IntervalUnion, total_variation_e, weighted_dot

#: grid spacing of the finite-difference pairing of a union of intervals
FD_RESOLUTION = 0.005


def speed_ratio(c: float, gamma: float) -> float:
    """Normalized speed H(c) = ``char_roots(c, gamma).ratio``, strictly
    increasing from 0 at rest toward 1; equals the reciprocal of the root
    gap r2 - r1."""
    if not (c >= 0 and gamma > 0):
        raise InvalidParameterError(f"need c >= 0, gamma > 0; got c={c}, gamma={gamma}")
    return char_roots(c, gamma).ratio if c > 0 else 0.0


def speed_derivative_factor(ell: float, c: float, gamma: float) -> float:
    """Auxiliary factor whose sign controls the speed-derivative of the
    interval energy: -1 - e^{-ell} + 2 e^{r1 ell} + (ell/H) e^{r1 ell}.

    Vanishes at ell = 0, is -1 at ell = inf, and is negative for every
    positive width.
    """
    if not ell >= 0:
        raise InvalidParameterError(f"need ell >= 0, got ell={ell}")
    return _speed_factor(ell, char_roots(c, gamma))


def _speed_factor(ell: float, roots: CharRoots) -> float:
    """``speed_derivative_factor`` from the roots; its limit -1 at
    ell = inf, where ell e^{r1 ell} would be inf * 0."""
    if math.isinf(ell):
        return -1.0
    return (-1.0 - math.exp(-ell)
            + (2.0 + ell / roots.ratio) * math.exp(roots.r1 * ell))


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


def interval_energy(ell: float, c: float, p: Params) -> IntervalEnergy:
    """Limit energy of a width-ell interval normalized to unit right endpoint
    weight, with first and second width derivatives and the speed derivative
    (``interval_energy_at`` on the roots of speed c).  ell = inf gives the
    front energy sqrt(2)/12 (1 - alpha) + sigma (1 - H(c)) / (2 gamma),
    strictly decreasing in c, with zero width derivatives."""
    if not ell > 0:
        raise InvalidParameterError(f"need ell > 0, got ell={ell}")
    return interval_energy_at(ell, char_roots(c, p.gamma), p)


def interval_energy_at(ell: float, roots: CharRoots, p: Params) -> IntervalEnergy:
    """``interval_energy`` at a width 0 < ell <= inf and the speed whose
    roots are given.

    The speed derivative is computed through the auxiliary factor route:
    d/dc = 2 sigma (c^2 + 4 gamma)^{-3/2} * factor(ell, c), with
    (c^2 + 4 gamma)^{-3/2} = dr1_dc H^2 / (2 gamma).
    """
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
    d_speed = 2.0 * sigma * cube * _speed_factor(ell, roots)
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
    tuple: the pulse solve builds about 50 per pulse, and a frozen
    dataclass costs more to construct than the condition costs to
    evaluate."""

    value: float
    d_width: float
    d_speed: float


def width_condition(ell: float, c: float, p: Params) -> WidthCondition:
    """The combination of the two pulse optimality conditions whose root in
    ell picks the optimal width: strictly decreasing in width, strictly
    increasing in speed.  Tends to +inf as ell -> 0+ and to
    sqrt(2) alpha gamma / (6 sigma) - 1 as ell -> inf.  ``width_condition_at``
    on the roots of speed c; its own limit at ell = inf, where the speed
    derivative's ell e^{-r2 ell} would be inf * 0.
    """
    if not (ell > 0 and 0 < c < math.inf):
        raise InvalidParameterError(f"need ell > 0 and 0 < c < inf, got ell={ell}, c={c}")
    if math.isinf(ell):
        scale = SQRT2 * p.gamma / (12.0 * p.sigma)
        return WidthCondition(scale * 2.0 * p.alpha - 1.0, 0.0, 0.0)
    return width_condition_at(ell, char_roots(c, p.gamma), p)


def width_condition_at(ell: float, roots: CharRoots, p: Params) -> WidthCondition:
    """``width_condition`` at a finite width ell > 0 and the speed whose
    roots are given."""
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
    d_width = scale * (
        -(1.0 + alpha) * r2 * e2 / den2**2 + (alpha - 1.0) * r1 * e1 / den1**2
    )
    dr1_dc = roots.dr1_dc
    d_speed = scale * ell * (
        (1.0 + alpha) * e2 / den2**2 * dr1_dc + (alpha - 1.0) * e1 / den1**2 * dr1_dc
    )
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
    or more intervals it pairs the sampled indicator with its
    finite-difference inhibitor response (spacing at most FD_RESOLUTION).
    That pairing is first-order accurate, because the indicator is sampled
    at the nodes: on the benchmark's seeded 2-4-interval unions it was up to
    13% off the exact Green's-function value.  A closed form for unions is
    ROADMAP item 6.
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
    """Weighted self-pairing of an indicator with its inhibitor response via
    the finite-difference solve."""
    roots = char_roots(c, p.gamma)
    h = min(FD_RESOLUTION, 0.4 / max(-roots.r1, roots.r2))
    left = e.leftmost
    x_lo = -34.0 if math.isinf(left) else min(-34.0, left - 10.0)
    grid = Grid.for_interval(e.rightmost + 10.0, h, x_lo=x_lo)
    chi = e.indicator(grid).values
    v = InhibitorOperator(grid, c, p.gamma).solve(chi)
    return weighted_dot(grid, chi, v)
