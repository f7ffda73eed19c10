"""Scalar functions of the sharp-interface limit energy.

Everything here is closed-form arithmetic in the decay exponents r1, r2 of
the inhibitor equation: the normalized single-interval energy and its
derivatives, its infinite-width (front) limit, the optimal-width condition,
the auxiliary factor proving monotonicity in the speed, and the geometric
energy of a union of intervals.

Exponentials with very negative exponents are clamped to 0 so all functions
remain evaluable at the bracketing limits (width -> 0+ and width -> inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .model import SQRT2, Params
from .nonlocal_operator import (
    CharRoots,
    InhibitorOperator,
    _exp,
    char_roots,
    lc_indicator,
)
from .weighted_space import (
    Grid,
    IntervalUnion,
    total_variation_e,
)


def speed_ratio(c: float, gamma: float) -> float:
    """Normalized speed c / sqrt(c^2 + 4 gamma), strictly increasing from 0
    at rest toward 1; equals the reciprocal of the root gap r2 - r1."""
    if c < 0 or gamma <= 0:
        raise InvalidParameterError(f"need c >= 0, gamma > 0; got c={c}, gamma={gamma}")
    return c / math.sqrt(c * c + 4.0 * gamma)


def speed_ratio_derivative(c: float, gamma: float) -> float:
    """d/dc of the normalized speed: 4 gamma / (c^2 + 4 gamma)^{3/2} > 0."""
    if c < 0 or gamma <= 0:
        raise InvalidParameterError(f"need c >= 0, gamma > 0; got c={c}, gamma={gamma}")
    return 4.0 * gamma / (c * c + 4.0 * gamma) ** 1.5


def speed_derivative_factor(ell: float, c: float, gamma: float) -> float:
    """Auxiliary factor whose sign controls the speed-derivative of the
    interval energy: -1 - e^{-ell} + 2 e^{r1 ell} + (ell/H) e^{r1 ell}.

    Vanishes at ell = 0, tends to -1 as ell -> inf, and is negative for
    every positive width.
    """
    if ell < 0 or c <= 0:
        raise InvalidParameterError(f"need ell >= 0 and c > 0, got ell={ell}, c={c}")
    if math.isinf(ell):
        return -1.0
    r1 = char_roots(c, gamma).r1
    h = speed_ratio(c, gamma)
    return -1.0 - _exp(-ell) + (2.0 + ell / h) * _exp(r1 * ell)


@dataclass(frozen=True)
class IntervalEnergy:
    """Normalized single-interval energy with its width and speed derivatives."""

    value: float
    d_width: float
    d_width2: float
    d_speed: float


def interval_energy(ell: float, c: float, p: Params) -> IntervalEnergy:
    """Limit energy of a width-ell interval normalized to unit right endpoint
    weight, with first and second width derivatives and the speed derivative.

    The speed derivative is computed through the auxiliary factor route:
    d/dc = 2 sigma (c^2 + 4 gamma)^{-3/2} * factor(ell, c).
    """
    if ell <= 0 or c <= 0:
        raise InvalidParameterError(f"need ell > 0 and c > 0, got ell={ell}, c={c}")
    alpha, gamma, sigma = p.alpha, p.gamma, p.sigma
    roots = char_roots(c, gamma)
    r1 = roots.r1
    h = speed_ratio(c, gamma)

    if math.isinf(ell):
        fe = front_energy(c, p)
        d_speed = -2.0 * sigma / (c * c + 4.0 * gamma) ** 1.5
        return IntervalEnergy(value=fe.value, d_width=0.0, d_width2=0.0,
                              d_speed=d_speed)

    em = _exp(-ell)
    e1 = _exp(r1 * ell)
    value = (
        (SQRT2 / 12.0) * (1.0 - alpha)
        + (SQRT2 / 12.0) * (1.0 + alpha) * em
        + (sigma * h / gamma) * (roots.r2 + r1 * em + e1)
    )
    half = sigma / (2.0 * gamma)
    d_width = -(SQRT2 / 12.0) * (1.0 + alpha) * em - (1.0 + h) * half * (e1 - em)
    d_width2 = (SQRT2 / 12.0) * (1.0 + alpha) * em - (1.0 + h) * half * (em + r1 * e1)
    d_speed = (
        2.0 * sigma / (c * c + 4.0 * gamma) ** 1.5
        * speed_derivative_factor(ell, c, gamma)
    )
    return IntervalEnergy(value=value, d_width=d_width, d_width2=d_width2,
                          d_speed=d_speed)


@dataclass(frozen=True)
class FrontEnergy:
    value: float
    derivative: float


def front_energy(c: float, p: Params) -> FrontEnergy:
    """Infinite-width limit of the interval energy,
    sqrt(2)/12 (1 - alpha) + sigma (1 - H(c)) / (2 gamma); strictly
    decreasing in c."""
    h = speed_ratio(c, p.gamma)
    value = (SQRT2 / 12.0) * (1.0 - p.alpha) + (p.sigma / (2.0 * p.gamma)) * (1.0 - h)
    derivative = -(p.sigma / (2.0 * p.gamma)) * speed_ratio_derivative(c, p.gamma)
    return FrontEnergy(value=value, derivative=derivative)


@dataclass(frozen=True)
class WidthCondition:
    """Value and derivatives of the optimal-width condition; its unique
    ell-root defines the optimal pulse width for a given speed."""

    value: float
    d_width: float
    d_speed: float


def width_condition(ell: float, c: float, p: Params) -> WidthCondition:
    """The combination of the two pulse optimality conditions whose root in
    ell picks the optimal width: strictly decreasing in width, strictly
    increasing in speed.  Tends to +inf as ell -> 0+ and to
    sqrt(2) alpha gamma / (6 sigma) - 1 as ell -> inf.
    """
    if ell <= 0 or c <= 0:
        raise InvalidParameterError(f"need ell > 0 and c > 0, got ell={ell}, c={c}")
    alpha, gamma, sigma = p.alpha, p.gamma, p.sigma
    scale = SQRT2 * gamma / (12.0 * sigma)
    if math.isinf(ell):
        return WidthCondition(value=scale * 2.0 * alpha - 1.0, d_width=0.0,
                              d_speed=0.0)
    roots = char_roots(c, gamma)
    r1, r2 = roots.r1, roots.r2
    e2 = _exp(-r2 * ell)
    e1 = _exp(r1 * ell)
    den2 = 1.0 - e2
    den1 = 1.0 - e1
    if den2 == 0.0 or den1 == 0.0:
        return WidthCondition(value=math.inf, d_width=-math.inf, d_speed=math.inf)
    value = scale * ((1.0 + alpha) / den2 + (alpha - 1.0) / den1) - 1.0
    d_width = scale * (
        -(1.0 + alpha) * r2 * e2 / den2**2 + (alpha - 1.0) * r1 * e1 / den1**2
    )
    s = math.sqrt(c * c + 4.0 * gamma)
    dr1_dc = 2.0 * gamma / (c * c * s)
    dr2_dc = -dr1_dc
    d_speed = scale * ell * (
        -(1.0 + alpha) * e2 / den2**2 * dr2_dc + (alpha - 1.0) * e1 / den1**2 * dr1_dc
    )
    return WidthCondition(value=value, d_width=d_width, d_speed=d_speed)


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
    e: IntervalUnion,
    c: float,
    p: Params,
    fd_resolution: float = 0.005,
) -> LimitEnergyBreakdown:
    """Geometric limit energy of an interval union at speed c.

    Perimeter and area terms are exact sums of endpoint weights.  The
    nonlocal term uses the closed form for a single interval and the
    finite-difference inhibitor solve (spacing ``fd_resolution``) for
    genuine unions, where no closed form is available.
    """
    perimeter = (SQRT2 / 12.0) * total_variation_e(e)
    area = -(SQRT2 * p.alpha / 12.0) * e.l1e_norm

    if len(e.intervals) == 1:
        a, b = e.intervals[0]
        ell = b - a  # inf when a = -inf
        sol = lc_indicator(ell, c, p.gamma)
        nonlocal_term = (p.sigma / 2.0) * math.exp(b) * sol.integral_over_support()
    else:
        nonlocal_term = (p.sigma / 2.0) * _nonlocal_pairing_fd(e, c, p, fd_resolution)
    return LimitEnergyBreakdown(
        perimeter_term=perimeter, area_term=area, nonlocal_term=nonlocal_term
    )


def _nonlocal_pairing_fd(
    e: IntervalUnion, c: float, p: Params, resolution: float
) -> float:
    """Weighted self-pairing of an indicator with its inhibitor response via
    the finite-difference solve."""
    roots = char_roots(c, p.gamma)
    h = min(resolution, 0.4 / max(-roots.r1, roots.r2))
    left = e.leftmost
    x_lo = -34.0 if math.isinf(left) else min(-34.0, left - 10.0)
    grid = Grid.for_interval(e.rightmost + 10.0, h, x_lo=x_lo)
    chi = e.indicator(grid)
    op = InhibitorOperator(grid, c, p.gamma)
    v = op.solve(chi.values)
    return float(np.trapezoid(grid.weight * chi.values * v, dx=grid.h))
