"""Limit-level wave-speed solvers.

The front speed has a closed form.  The pulse speed solves a nested pair of
monotone scalar equations, each by safeguarded Newton: Newton steps on the
closed-form derivatives, with a step to the bracket's geometric mean
whenever a Newton step would leave the current sign bracket.  Both levels
start from bracket ends known in closed form, so no probe searches for a
sign change.

The inner level finds the optimal width, the root in the width of the
width condition Q (strictly decreasing and convex in the width).  Its
bracket is [l0, inf) with l0 = sqrt(2) gamma (1 + alpha) / (12 sigma r2):
since 1 - e^{-x} < x for x > 0 and the (alpha - 1) / (1 - e^{r1 l}) term
of Q is positive for alpha > 1, Q(l) > l0 / l - 1 >= 0 for every l <= l0,
so l0 lies left of the root without being evaluated.
Newton from a point left of the root moves right monotonically and never
closes the bracket, and a step out of the open bracket doubles its left
end.

The outer level drives the interval energy along the optimal-width path,
g(c) = J(l*(c), c), to zero; g is strictly decreasing, and its exact
derivative is J_c - J_l Q_c / Q_l.  The interval energy tends to the front
energy as the width grows, so g is at most the front energy at every
speed, and the front energy's root c_bar (the closed form of
``front_speed``) bounds the pulse speed from above.  Both levels see the
speed only through the decay rates, so each speed's ``CharRoots`` is built
once and shared by every width evaluation, the energy and the final
checks.  The finite-width speed solve (``speed_eps``) uses the same
``_newton_root``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BracketError, RegimeError
from .limit_energy import (
    front_energy,
    interval_energy_at,
    scaled_width_curvature,
    speed_ratio,
    width_condition_at,
)
from .model import SQRT2, Params, RegimeTag, classify, require_regime
from .nonlocal_operator import CharRoots, char_roots
from .weighted_space import IntervalUnion

#: relative Newton step at which the width and the speed solves stop
NEWTON_XTOL = 1e-14


@dataclass(frozen=True)
class FrontResult:
    """Closed-form front speed with its defining data."""

    c_f: float
    h_star: float
    residual: float
    strict: bool

    @property
    def limit_set(self) -> IntervalUnion:
        """The front's limit set, the half-line (-inf, 0]."""
        return IntervalUnion.single(-math.inf, 0.0)

    def to_dict(self) -> dict:
        return {
            "regime": "front",
            "c": self.c_f,
            "h_star": self.h_star,
            "residual": self.residual,
            "strict": self.strict,
        }


@dataclass(frozen=True)
class PulseResult:
    """Pulse speed and geometry: interval [a, b] of width ell_p carrying unit
    weighted measure."""

    c_p: float
    ell_p: float
    a: float
    b: float
    residuals: dict

    @property
    def limit_set(self) -> IntervalUnion:
        """The pulse's limit set, the interval [a, b]."""
        return IntervalUnion.single(self.a, self.b)

    def to_dict(self) -> dict:
        return {
            "regime": "pulse",
            "c": self.c_p,
            "ell": self.ell_p,
            "a": self.a,
            "b": self.b,
            "residuals": dict(self.residuals),
        }


def front_condition(c: float, p: Params) -> bool:
    """True when the semi-infinite interval beats every finite width at
    speed c: sqrt(2) gamma / (6 sigma) >= H(c)."""
    if c < 0:
        raise RegimeError(f"speed must be nonnegative, got {c}")
    return SQRT2 * p.gamma / (6.0 * p.sigma) >= speed_ratio(c, p.gamma)


def _front_energy_root(p: Params) -> tuple[float, float]:
    """h* = 1 - (alpha - 1) gamma / (3 sqrt(2) sigma) and the root of the
    front energy, 2 h* sqrt(gamma) / sqrt(1 - h*^2): the front speed in
    the front regime, an upper bound on the pulse speed in the pulse
    regime."""
    h_star = 1.0 - (p.alpha - 1.0) * p.gamma / (3.0 * SQRT2 * p.sigma)
    c = 2.0 * h_star * math.sqrt(p.gamma) / math.sqrt(1.0 - h_star * h_star)
    return h_star, c


def front_speed(p: Params) -> FrontResult:
    """Closed-form front speed c_f = 2 h* sqrt(gamma) / sqrt(1 - h*^2) with
    h* = 1 - (alpha - 1) gamma / (3 sqrt(2) sigma)."""
    regime = require_regime(p, RegimeTag.FRONT)
    h_star, c_f = _front_energy_root(p)
    residual = abs(front_energy(c_f, p).value)
    if not front_condition(c_f, p):  # pragma: no cover - excluded by regime
        raise RegimeError("front speed violates the semi-infinite optimality condition")
    return FrontResult(c_f=c_f, h_star=h_star, residual=residual,
                       strict=regime.strict)


def _newton_root(f, lo: float, hi: float, x: float, fx, *,
                 xtol: float = NEWTON_XTOL, ftol: float = 0.0):
    """Root of a strictly decreasing f on the positive bracket
    0 < lo < root < hi.

    ``f(x)`` returns (value, slope, data) and ``fx`` is f at the starting
    point x.  Each evaluation moves the bracket end of its sign to x.  A
    Newton step that leaves the bracket is replaced by the bracket's
    geometric mean.  Stops at the first evaluated point whose |value| is at
    most ``ftol`` or whose Newton step is at most ``xtol`` relative (to
    max(1, |x|)), or when the bracket is that narrow; returns that point and
    its data.  The right end may be inf, an open bracket: a step that
    leaves it then goes to twice the left end, and the bracket-width test
    waits for a finite right end.
    """
    value, slope, data = fx
    while abs(value) > ftol:
        step = value / slope if slope < 0.0 else math.inf
        if (abs(step) <= xtol * max(1.0, abs(x))
                or (hi < math.inf and hi - lo <= xtol * max(1.0, hi))):
            break
        x = x - step
        if not lo < x < hi:
            x = math.sqrt(lo * hi) if hi < math.inf else 2.0 * lo
        value, slope, data = f(x)
        if value > 0.0:
            lo = x
        elif value < 0.0:
            hi = x
    return x, data


def _width_root(roots: CharRoots, p: Params, ell_start: float | None = None):
    """Optimal width at the speed whose roots are given, with the width
    condition evaluated there.

    The condition decreases strictly from +inf to a negative limit in the
    pulse regime and is convex, so Newton started left of the root climbs
    to it monotonically, and a step from right of the root lands left of
    it.  Newton runs on the bracket [l0, inf), open on the right until a
    negative condition is seen, with l0 = sqrt(2) gamma (1 + alpha) /
    (12 sigma r2) left of the root by proof, not by evaluation:
    1 - e^{-r2 l} < r2 l and (alpha - 1) / (1 - e^{r1 l}) > 0 give
    Q(l) > sqrt(2) gamma (1 + alpha) / (12 sigma r2 l) - 1 >= 0 for
    l <= l0.  Newton starts from ``ell_start`` when given, else from just
    above the structural bound log((alpha + 1) / (alpha - 1)), and from l0
    if that start lies left of it.
    """
    lo = SQRT2 * p.gamma * (1.0 + p.alpha) / (12.0 * p.sigma * roots.r2)
    hi = math.inf

    def f(ell):
        q = width_condition_at(ell, roots, p)
        if q.value > 0.0 and ell > 1e12:  # pragma: no cover - defensive
            raise BracketError("optimal-width bracket expansion failed")
        return q.value, q.d_width, q

    start = max(lo, ell_start or math.log((p.alpha + 1.0) / (p.alpha - 1.0)) + 1.0)
    fx = f(start)
    if fx[0] > 0.0:
        lo = start
    elif fx[0] < 0.0:
        hi = start
    return _newton_root(f, lo, hi, start, fx)


def optimal_width(c: float, p: Params) -> float:
    """Width at which the optimal-width condition vanishes for speed c,
    by safeguarded Newton in the width on an open-ended monotone bracket."""
    require_regime(p, RegimeTag.PULSE)
    if c <= 0:
        raise RegimeError(f"speed must be positive, got {c}")
    return _width_root(char_roots(c, p.gamma), p)[0]


def pulse_speed(p: Params) -> PulseResult:
    """Pulse speed and width from nested safeguarded Newton.

    The path energy g(c) = J(l*(c), c), with l*(c) the optimal width,
    decreases strictly in c from sqrt(2)/6 at rest to a negative limit, so
    its zero is unique.  Its exact derivative follows from the implicit
    width l*(c): dg/dc = J_c - J_l Q_c / Q_l.  Each inner width solve starts
    from the previous width, moved along the tangent dl*/dc = -Q_c / Q_l.
    Each evaluation of g builds the roots of its speed once.

    The bracket's upper end is the front energy's root c_bar, with no
    probe: J(l, c) tends to the front energy as l -> inf, so g(c) =
    min_l J(l, c) is at most the front energy, which vanishes at c_bar;
    hence g(c_bar) <= 0 and c_p <= c_bar.  Newton starts at c_bar, and
    stops there if g(c_bar) = 0.  Where the pulse is wide, c_p equals c_bar
    to rounding, and g(c_bar) can come out positive; the bracket is then
    (c_bar, inf), open on the right.  The lower end is the first of 1e-3,
    1e-4, ... at which g is positive.
    """
    require_regime(p, RegimeTag.PULSE)
    prev = None  # speed, width and dl*/dc of the previous evaluation

    def g(c: float):
        nonlocal prev
        start = None
        if prev:
            c0, ell0, slope0 = prev
            start = ell0 + slope0 * (c - c0)
            if start <= 0.0:
                start = ell0
        roots = char_roots(c, p.gamma)
        ell, q = _width_root(roots, p, start)
        dl_dc = -q.d_speed / q.d_width
        prev = (c, ell, dl_dc)
        je = interval_energy_at(ell, roots, p)
        return je.value, je.d_speed + je.d_width * dl_dc, (ell, je, q, roots)

    lo = 1e-3
    while g(lo)[0] <= 0.0:  # g -> sqrt(2)/6 as c -> 0; c_p < 1e-3 at small widths
        lo *= 0.1
        if lo < 1e-12:
            raise BracketError("no positive bracket end for the pulse speed")
    c_bar = _front_energy_root(p)[1]
    g_bar = g(c_bar)
    if g_bar[0] > 0.0:
        lo, hi = c_bar, math.inf
    else:
        hi = c_bar
    c, (ell, je, q, roots) = _newton_root(g, lo, hi, c_bar, g_bar)
    b = -math.log(-math.expm1(-ell))
    a = b - ell
    residuals = {
        "J": abs(je.value),
        "dJ_dl": abs(je.d_width),
        "Q": abs(q.value),
    }
    result = PulseResult(c_p=c, ell_p=ell, a=a, b=b, residuals=residuals)
    _check_pulse(result, roots, p)
    return result


def _check_pulse(result: PulseResult, roots: CharRoots, p: Params) -> None:
    if result.ell_p <= math.log((p.alpha + 1.0) / (p.alpha - 1.0)):
        raise BracketError(  # pragma: no cover - defensive
            f"pulse width {result.ell_p} below its structural lower bound"
        )
    if scaled_width_curvature(result.ell_p, roots, p) <= 0.0:
        raise BracketError(  # pragma: no cover - defensive
            "pulse solution is not a width minimum"
        )
    if abs(-math.exp(result.b) * math.expm1(-result.ell_p) - 1.0) > 1e-12:
        raise BracketError(  # pragma: no cover - defensive
            "pulse interval is not normalized to unit weighted measure"
        )


def limit_speed(p: Params):
    """Front or pulse result according to the regime; raises in neither."""
    regime = classify(p)
    if regime.is_front:
        return front_speed(p)
    if regime.is_pulse:
        return pulse_speed(p)
    raise RegimeError(
        f"parameters (alpha={p.alpha}, gamma={p.gamma}, sigma={p.sigma}) "
        "support neither a front nor a pulse"
    )
