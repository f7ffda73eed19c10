"""Limit-level wave-speed solvers.

The front speed has a closed form.  The pulse speed solves a nested pair of
monotone scalar equations, each by safeguarded Newton: Newton steps on the
closed-form derivatives, with a bisection step whenever a Newton step would
leave the current sign bracket.  The inner level finds the optimal width,
the root in the width of the width condition Q (strictly decreasing in the
width).  The outer level drives the interval energy along the
optimal-width path, g(c) = J(l*(c), c), to zero; g is strictly decreasing,
and its exact derivative is J_c - J_l Q_c / Q_l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BracketError, RegimeError
from .limit_energy import (
    front_energy,
    interval_energy,
    speed_ratio,
    width_condition,
)
from .model import SQRT2, Params, RegimeTag, classify, require_regime
from .nonlocal_operator import char_roots

#: relative Newton step at which the width and the speed solves stop
NEWTON_XTOL = 1e-14


@dataclass(frozen=True)
class FrontResult:
    """Closed-form front speed with its defining data."""

    c_f: float
    h_star: float
    residual: float
    strict: bool

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


def front_speed(p: Params) -> FrontResult:
    """Closed-form front speed c_f = 2 h* sqrt(gamma) / sqrt(1 - h*^2) with
    h* = 1 - (alpha - 1) gamma / (3 sqrt(2) sigma)."""
    regime = require_regime(p, RegimeTag.FRONT)
    h_star = 1.0 - (p.alpha - 1.0) * p.gamma / (3.0 * SQRT2 * p.sigma)
    c_f = 2.0 * h_star * math.sqrt(p.gamma) / math.sqrt(1.0 - h_star * h_star)
    residual = abs(front_energy(c_f, p).value)
    if not front_condition(c_f, p):  # pragma: no cover - excluded by regime
        raise RegimeError("front speed violates the semi-infinite optimality condition")
    return FrontResult(c_f=c_f, h_star=h_star, residual=residual,
                       strict=regime.strict)


def _newton_root(f, lo: float, hi: float, x: float, fx):
    """Root of a strictly decreasing f on the bracket lo < root < hi.

    ``f(x)`` returns (value, slope, data) and ``fx`` is f at the starting
    point x.  Each evaluation moves the bracket end of its sign to x.  A
    Newton step that leaves the bracket is replaced by its midpoint.  Stops
    at the first evaluated point whose Newton step is below NEWTON_XTOL
    relative, at an exact zero, or when the bracket is that narrow; returns
    that point and its data.
    """
    value, slope, data = fx
    while value != 0.0:
        step = value / slope if slope < 0.0 else math.inf
        if (abs(step) <= NEWTON_XTOL * max(1.0, abs(x))
                or hi - lo <= NEWTON_XTOL * max(1.0, hi)):
            break
        x = x - step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        value, slope, data = f(x)
        if value > 0.0:
            lo = x
        elif value < 0.0:
            hi = x
    return x, data


def _width_root(c: float, p: Params, ell_start: float | None = None):
    """Optimal width at speed c with the width condition evaluated there.

    The condition decreases strictly from +inf to a negative limit in the
    pulse regime, so doubling the right bracket end always reaches the
    root.  The doubling starts from ``ell_start`` when given, else just
    above the structural bound log((alpha + 1) / (alpha - 1)).  Newton
    starts from the first probe when it is left of the root (where the
    convex condition gives monotone Newton steps), else from the first
    probe right of it.
    """
    lo = 1e-8
    if width_condition(lo, c, p).value <= 0.0:  # pragma: no cover - defensive
        raise BracketError(f"no positive bracket end at width {lo}")
    hi = ell_start or math.log((p.alpha + 1.0) / (p.alpha - 1.0)) + 1.0
    first = None
    while (q := width_condition(hi, c, p)).value > 0.0:
        first = first or (hi, q)
        lo = hi
        hi *= 2.0
        if hi > 1e12:  # pragma: no cover - defensive
            raise BracketError("optimal-width bracket expansion failed")
    start, q = first or (hi, q)

    def f(ell):
        q = width_condition(ell, c, p)
        return q.value, q.d_width, q

    return _newton_root(f, lo, hi, start, (q.value, q.d_width, q))


def optimal_width(c: float, p: Params) -> float:
    """Width at which the optimal-width condition vanishes for speed c,
    by safeguarded Newton in the width on an adaptive monotone bracket."""
    require_regime(p, RegimeTag.PULSE)
    if c <= 0:
        raise RegimeError(f"speed must be positive, got {c}")
    return _width_root(c, p)[0]


def pulse_speed(p: Params) -> PulseResult:
    """Pulse speed and width from nested safeguarded Newton.

    The path energy g(c) = J(l*(c), c), with l*(c) the optimal width,
    decreases strictly in c from sqrt(2)/6 at rest to a negative limit, so
    its zero is unique.  Its exact derivative follows from the implicit
    width l*(c): dg/dc = J_c - J_l Q_c / Q_l.  Each inner width solve starts
    from the previous width, moved along the tangent dl*/dc = -Q_c / Q_l.
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
        ell, q = _width_root(c, p, start)
        dl_dc = -q.d_speed / q.d_width
        prev = (c, ell, dl_dc)
        je = interval_energy(ell, c, p)
        return je.value, je.d_speed + je.d_width * dl_dc, (ell, je, q)

    lo = 1e-3
    while g(lo)[0] <= 0.0:  # pragma: no cover - g -> sqrt(2)/6 as c -> 0
        lo *= 0.1
        if lo < 1e-12:
            raise BracketError("no positive bracket end for the pulse speed")
    hi = max(1.0, 2.0 * lo)
    while (g_hi := g(hi))[0] >= 0.0:
        lo = hi
        hi *= 2.0
        if hi > 1e9:
            raise BracketError("pulse-speed bracket expansion failed")

    c, (ell, je, q) = _newton_root(g, lo, hi, hi, g_hi)
    b = -math.log(1.0 - math.exp(-ell))
    a = b - ell
    residuals = {
        "J": abs(je.value),
        "dJ_dl": abs(je.d_width),
        "Q": abs(q.value),
    }
    result = PulseResult(c_p=c, ell_p=ell, a=a, b=b, residuals=residuals)
    _check_pulse(result, p)
    return result


def _scaled_width_curvature(ell: float, c: float, p: Params) -> float:
    """e^l times the second width derivative of the interval energy,
    (sqrt(2)/12)(1 + alpha) - (1 + H)(sigma / 2 gamma)(1 + r1 e^{-r2 l}):
    same sign, but no factor that underflows at large widths."""
    roots = char_roots(c, p.gamma)
    h = speed_ratio(c, p.gamma)
    return ((SQRT2 / 12.0) * (1.0 + p.alpha) - (1.0 + h) * p.sigma / (2.0 * p.gamma)
            * (1.0 + roots.r1 * math.exp(-roots.r2 * ell)))


def _check_pulse(result: PulseResult, p: Params) -> None:
    if result.ell_p <= math.log((p.alpha + 1.0) / (p.alpha - 1.0)):
        raise BracketError(  # pragma: no cover - defensive
            f"pulse width {result.ell_p} below its structural lower bound"
        )
    if _scaled_width_curvature(result.ell_p, result.c_p, p) <= 0.0:
        raise BracketError(  # pragma: no cover - defensive
            "pulse solution is not a width minimum"
        )
    if abs(math.exp(result.b) - math.exp(result.a) - 1.0) > 1e-12:
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
