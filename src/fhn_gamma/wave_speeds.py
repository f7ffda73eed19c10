"""Limit-level wave-speed solvers.

The front speed has a closed form.  The pulse speed solves a nested pair of
monotone scalar equations, each by safeguarded Newton: Newton steps on the
closed-form derivatives, with a step to the bracket's geometric mean (its
midpoint when the left end is 0) whenever a Newton step would leave the
current sign bracket.  Both levels start from bracket ends known in closed
form, so no evaluation is spent on a bracket.

The inner level finds the optimal width, the root in the width of the
width condition Q (strictly decreasing and convex in the width), with
s = sqrt(2) gamma / (12 sigma)

    Q(l) = s [(1 + alpha) / (1 - e^{-r2 l}) + (alpha - 1) / (1 - e^{r1 l})] - 1.

Its bracket is [l_-, inf) with l_- = log1p(s (1 + alpha) / (1 - 2 alpha s)) / r2:
since 0 < e^{r1 l} < 1, the second term exceeds alpha - 1, so Q(l) > Q~(l)
= s [(1 + alpha) / (1 - e^{-r2 l}) + alpha - 1] - 1, which decreases
strictly and vanishes at l_-.  Hence Q > 0 on (0, l_-], and l_- lies left
of the root without being evaluated.  (Where e^{r1 l_-} is below rounding,
l_- is the root to rounding, and the computed Q there can read a few ulps
below 0; a solve started there stops there.)  1 - 2 alpha s = -Q(inf) is
the pulse regime's margin, positive exactly when alpha < 3 sqrt(2) sigma /
gamma.  Newton from a point left of the root moves right monotonically and
never closes the bracket, and a step out of the open bracket doubles its
left end.

The outer level drives the interval energy along the optimal-width path,
g(c) = J(l*(c), c), to zero; g is strictly decreasing from g(0+) =
sqrt(2)/6, and its exact derivative is J_c - J_l Q_c / Q_l.  The front
energy is the interval energy at infinite width, so g is at most the
front energy at every speed, and the front energy's root c_bar (the closed
form of ``front_speed``) bounds the pulse speed from above.  So (0, c_bar]
brackets the pulse speed.  Both levels see the speed only through the
decay rates, so each speed's ``CharRoots`` is built once and shared by
every width evaluation, the energy and the final checks.  The finite-width
speed solve (``speed_eps``) uses the same ``_newton_root``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BracketError, RegimeError
from .limit_energy import interval_energy, scaled_width_curvature, width_condition
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
    weighted measure.  ``ell_p`` is the solved width; b - a carries it only
    to a relative error of about ulp(b) / ell_p, which matters for narrow
    pulses far to the right."""

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


def _front_energy_root(p: Params) -> tuple[float, float]:
    """h* = 1 - (alpha - 1) gamma / (3 sqrt(2) sigma) and the root of the
    front energy, 2 h* sqrt(gamma) / sqrt(1 - h*^2): the front speed in
    the front regime, an upper bound on the pulse speed in the pulse
    regime.  0 < h* < 1 in both regimes, but 1 - h*^2 rounds to 0 once
    (alpha - 1) gamma / sigma is below about 1e-16: raises ``BracketError``
    there."""
    h_star = 1.0 - (p.alpha - 1.0) * p.gamma / (3.0 * SQRT2 * p.sigma)
    den = 1.0 - h_star * h_star
    if den <= 0.0:
        raise BracketError(f"the front energy's root is out of float range: "
                           f"h* = {h_star}, and 1 - h*^2 rounds to {den}")
    c = 2.0 * h_star * math.sqrt(p.gamma) / math.sqrt(den)
    return h_star, c


def front_speed(p: Params) -> FrontResult:
    """Closed-form front speed c_f = 2 h* sqrt(gamma) / sqrt(1 - h*^2) with
    h* = 1 - (alpha - 1) gamma / (3 sqrt(2) sigma).  H(c_f) = h*, so the
    regime test of ``classify`` is the front's condition; boundary fronts
    (strict=False) solve."""
    regime = require_regime(p, RegimeTag.FRONT)
    h_star, c_f = _front_energy_root(p)
    front_energy = interval_energy(math.inf, char_roots(c_f, p.gamma), p)
    residual = abs(front_energy.value)
    return FrontResult(c_f=c_f, h_star=h_star, residual=residual,
                       strict=regime.strict)


def _newton_root(f, lo: float, hi: float, x: float, fx, *,
                 xtol: float = NEWTON_XTOL):
    """Root of a strictly decreasing f on the bracket 0 <= lo < root < hi.

    ``f(x)`` returns (value, slope, data) and ``fx`` is f at the starting
    point x.  Each evaluation moves the bracket end of its sign to x.  A
    Newton step that leaves the bracket is replaced by the bracket's
    geometric mean, or by hi / 2 while lo is 0.  Stops at the first
    evaluated point whose Newton step is at most ``xtol`` relative (to
    max(1, |x|)), or where the bracket is that narrow, or where f is 0;
    returns that last iterate and its data.  The right end may be inf, an
    open bracket: a step that leaves it then goes to twice the left end,
    and the bracket-width test waits for a finite right end.
    """
    value, slope, data = fx
    while abs(value) > 0.0:
        step = value / slope if slope < 0.0 else math.inf
        if (abs(step) <= xtol * max(1.0, abs(x))
                or (hi < math.inf and hi - lo <= xtol * max(1.0, hi))):
            break
        x = x - step
        if not lo < x < hi:
            if hi == math.inf:
                x = 2.0 * lo
            elif lo > 0.0:
                x = math.sqrt(lo * hi)
            else:
                x = 0.5 * hi
        value, slope, data = f(x)
        if value > 0.0:
            lo = x
        elif value < 0.0:
            hi = x
    return x, data


def _width_left_scale(p: Params) -> float:
    """s (1 + alpha) / (1 - 2 alpha s) with s = sqrt(2) gamma / (12 sigma),
    so that the width bracket's left end is its log1p over r2.

    1 - 2 alpha s = -Q(inf) is the pulse regime's margin.  It is positive
    in exact arithmetic, but rounds to 0 at the float just below the
    regime's upper edge alpha = 3 sqrt(2) sigma / gamma, where no width
    solve is possible: raises ``BracketError`` there.
    """
    s = SQRT2 * p.gamma / (12.0 * p.sigma)
    margin = 1.0 - 2.0 * p.alpha * s
    if margin <= 0.0:
        raise BracketError(
            f"alpha={p.alpha} lies at the pulse regime's upper edge "
            f"3 sqrt(2) sigma / gamma to rounding: -Q(inf) = 1 - 2 alpha s "
            f"rounds to {margin}, so the width condition has no root"
        )
    return s * (1.0 + p.alpha) / margin


def _width_root(roots: CharRoots, p: Params, scale: float,
                ell_start: float | None = None):
    """Optimal width at the speed whose roots are given, with the width
    condition evaluated there; ``scale`` is ``_width_left_scale(p)``.

    The condition decreases strictly from +inf to a negative limit in the
    pulse regime and is convex, so Newton started left of the root climbs
    to it monotonically, and a step from right of the root lands left of
    it.  Newton runs on the bracket [l_-, inf), open on the right until a
    negative condition is seen, with l_- = log1p(scale) / r2 left of the
    root by proof, not by evaluation (module docstring).  Newton starts
    from ``ell_start`` when given and right of l_-, else from l_-.
    """
    lo = math.log1p(scale) / roots.r2
    hi = math.inf

    def f(ell):
        q = width_condition(ell, roots, p)
        if q.value > 0.0 and ell > 1e12:  # pragma: no cover - defensive
            raise BracketError("optimal-width bracket expansion failed")
        return q.value, q.d_width, q

    start = lo if ell_start is None else max(lo, ell_start)
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
    return _width_root(char_roots(c, p.gamma), p, _width_left_scale(p))[0]


def pulse_speed(p: Params) -> PulseResult:
    """Pulse speed and width from nested safeguarded Newton.

    The path energy g(c) = J(l*(c), c), with l*(c) the optimal width,
    decreases strictly in c from g(0+) = sqrt(2)/6 to a negative limit, so
    its zero is unique.  Its exact derivative follows from the implicit
    width l*(c): dg/dc = J_c - J_l Q_c / Q_l.  Each inner width solve starts
    from the previous width, moved along the tangent dl*/dc = -Q_c / Q_l,
    or from the width bracket's left end if that lies further right.  Each
    evaluation of g builds the roots of its speed once.

    The bracket is (0, c_bar], with no probe at either end.  The lower end
    holds because g(0+) > 0.  The upper end is the front energy's root
    c_bar: the front energy is J(inf, c), so g(c) = min_l J(l, c) is at
    most the front energy, which vanishes at c_bar;
    hence g(c_bar) <= 0 and c_p <= c_bar.  Newton starts at c_bar, and
    stops there if g(c_bar) = 0.  A Newton step below 0 goes to half the
    right end instead, which only tiny speeds (c_p < 1e-3) need.  Where the
    pulse is wide, c_p equals c_bar to rounding, and g(c_bar) can come out
    positive; the bracket is then (c_bar, inf), open on the right.
    """
    require_regime(p, RegimeTag.PULSE)
    scale = _width_left_scale(p)
    prev = None  # speed, width and dl*/dc of the previous evaluation

    def g(c: float):
        nonlocal prev
        start = None
        if prev:
            c0, ell0, slope0 = prev
            start = ell0 + slope0 * (c - c0)
        roots = char_roots(c, p.gamma)
        ell, q = _width_root(roots, p, scale, start)
        dl_dc = -q.d_speed / q.d_width
        prev = (c, ell, dl_dc)
        je = interval_energy(ell, roots, p)
        return je.value, je.d_speed + je.d_width * dl_dc, (ell, je, q, roots)

    c_bar = _front_energy_root(p)[1]
    g_bar = g(c_bar)
    lo, hi = (c_bar, math.inf) if g_bar[0] > 0.0 else (0.0, c_bar)
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
