"""Finite-interface-width energy: recovery profiles, the discrete energy and
its gradient, constrained minimization, and the speed at which the minimum
energy vanishes.

The energy of a profile w at interface width eps and speed c is

    integral of e^x [ (eps/2) w'^2 + F0(w)/eps + alpha G(w) ] dx
    + (sigma/2) integral of e^x w (L_c w) dx

minimized over profiles with unit weighted L2 norm confined to a box.  As
eps shrinks, minimizers approach indicators of the sharp-interface sets and
the zero-crossing speed approaches the limit front or pulse speed.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BracketError, GridError, InvalidParameterError
from .model import F0, SQRT2, Params
from .nonlocal_operator import InhibitorOperator
from .wave_speeds import _newton_root, limit_speed
from .weighted_space import (
    GRID_PAD,
    MAX_GRID_NODES,
    Grid,
    IntervalUnion,
    SampledFunction,
    l2e_norm,
    weighted_dot,
)

#: the speed solve stops once its Newton step (or bracket) is this small
#: relative to max(1, c)
SPEED_BRACKET_TOL = 1e-3
#: gradient-norm tolerance of every minimization, and the default iteration
#: caps of a lone minimization and of each speed-solve minimization
MINIMIZE_GRAD_TOL = 1e-6
MINIMIZE_MAX_ITER = 10000
SPEED_MAX_ITER = 1500
#: solver grids drop the nodes left of the set whose weight e^x is below this
GRID_WEIGHT_TOL = 1e-9
#: recovery profiles are sampled at this many points, from an inverse taken
#: on this many quadrature points in u
RECOVERY_NODES = 20001
RECOVERY_QUAD_NODES = 400001
#: the recovery integral runs over this many quadrature intervals at a time
RECOVERY_CHUNK = 8192
#: default speed bracket, of convergence_study and fhn-gamma speed-eps:
#: [c_limit / BRACKET_FACTOR, c_limit * BRACKET_FACTOR]
BRACKET_FACTOR = 2.0


@dataclass(frozen=True)
class RecoveryProfile:
    """Monotone interface profile rising from 0 to 1 over [0, rho_eps].

    Solves the first-integral relation eps^2 u'^2 / 2 - F0(u) = eps/2 with
    u(0) = 0 and u(rho_eps) = 1; at a right end of a set ``build_recovery``
    uses its reflection.
    """

    eps: float
    rho_eps: float
    x: np.ndarray
    u: np.ndarray

    def rising(self, t):
        """Profile value at t, extended by 0 below and 1 above the window."""
        return np.interp(t, self.x, self.u)

    def first_integral_residual(self) -> float:
        """Max deviation of eps^2 u'^2 / 2 - F0(u) from eps/2 along the
        samples, with the derivative taken by central differences."""
        h = self.x[1] - self.x[0]
        du = (self.u[2:] - self.u[:-2]) / (2.0 * h)
        res = 0.5 * self.eps**2 * du**2 - F0(self.u[1:-1]) - 0.5 * self.eps
        return float(np.max(np.abs(res)))


def recovery_profile(eps: float) -> RecoveryProfile:
    """Interface profile from inverting x(u) = integral of eps/sqrt(eps+2F0).

    The cumulative integral is trapezoid on RECOVERY_QUAD_NODES points in u
    and the inverse is sampled on RECOVERY_NODES uniform points in x; rho_eps
    comes from the same cumulative integral so the endpoint values are exact.
    The integral runs in chunks of RECOVERY_CHUNK intervals, twice (once for
    rho_eps, once to invert), so no array of quadrature length is built.
    """
    if not 0.0 < eps < math.inf:
        raise InvalidParameterError(
            f"interface width must be finite and positive, got {eps}"
        )
    n = RECOVERY_QUAD_NODES - 1
    ds = 1.0 / n

    def pieces():
        """(s, x(s)) on consecutive chunks of the nodes s_i = i ds (the
        nodes of np.linspace(0, 1, n + 1)) that share their end nodes."""
        x_end = 0.0
        for k in range(0, n, RECOVERY_CHUNK):
            s_k = np.arange(k, min(k + RECOVERY_CHUNK, n) + 1) * ds
            integrand = eps / np.sqrt(eps + 2.0 * F0(s_k))
            steps = 0.5 * (integrand[1:] + integrand[:-1]) * ds
            steps[0] += x_end  # the running sum, continued bit for bit
            x_k = np.concatenate([[x_end], np.cumsum(steps)])
            x_end = x_k[-1]
            yield s_k, x_k

    for _, x_k in pieces():
        pass
    rho = float(x_k[-1])
    x = np.linspace(0.0, rho, RECOVERY_NODES)
    # a sample below a chunk's last node is bracketed by the same two nodes
    # in the chunk as in the whole table; a sample at rho_eps maps to 1
    u = np.ones_like(x)
    i = 0
    for s_k, x_k in pieces():
        j = int(np.searchsorted(x, x_k[-1]))
        u[i:j] = np.interp(x[i:j], x_k, s_k)
        i = j
    u[0], u[-1] = 0.0, 1.0
    return RecoveryProfile(eps=eps, rho_eps=rho, x=x, u=u)


@dataclass(frozen=True)
class AdmissibleProfile:
    """Profile with unit weighted L2 norm confined to the box."""

    w: SampledFunction
    l2e_norm: float
    box: tuple[float, float]

    def __post_init__(self):
        if abs(self.l2e_norm - 1.0) > 1e-8:
            raise InvalidParameterError(
                f"profile norm {self.l2e_norm} is not 1 within 1e-8"
            )
        lo, hi = self.box
        if self.w.values.min() < lo - 1e-12 or self.w.values.max() > hi + 1e-12:
            raise InvalidParameterError(
                f"profile leaves the box [{lo}, {hi}]"
            )


def profile_box(p: Params) -> tuple[float, float]:
    """Box [-m1 - 1, beta2] confining admissible profiles: beta2 = 1.01, and
    m1 > 0 solves f_eps(-M) = M (M + beta) (M + 1) = beta2 / gamma.

    y = b M, with b = cbrt(gamma), solves y (y + beta b) (y + b) = beta2,
    which overflows for no gamma > 0.  Less beta2, its left side is concave
    and decreasing (beta > 0 at small epsilon) and at most 0 at cbrt(beta2)
    and beta2 / (beta b^2), so ``_newton_root`` from the smaller converges
    monotonically (rightward where rounding reads it positive, as in
    ``pulse_speed``); the step at which it stops is taken too.
    """
    beta2, b = 1.01, float(np.cbrt(p.gamma))
    bb = p.beta_eps * b

    def f(y):
        value = beta2 - y * (y + bb) * (y + b)
        slope = -(y * (3.0 * y + 2.0 * (bb + b)) + bb * b)
        return value, slope, value / slope

    top = min(float(np.cbrt(beta2)), beta2 / (bb * b))
    f_top = f(top)
    lo, hi = (top, math.inf) if f_top[0] > 0.0 else (0.0, top)
    y, step = _newton_root(f, lo, hi, top, f_top)
    return (-(y - step) / b - 1.0, beta2)


def solver_grid(e: IntervalUnion, eps: float) -> Grid:
    """Uniform grid resolving interfaces of width O(eps), padded by GRID_PAD
    past both ends of the set.

    The nodes are those of ``Grid.for_interval(e.rightmost + GRID_PAD,
    eps/8)`` (spacing at most eps/8 on [DEFAULT_X_LO, e.rightmost +
    GRID_PAD]), continued with the same spacing on the left where the set
    reaches further.  Nodes with weight e^x below GRID_WEIGHT_TOL are
    dropped, except those at or right of ``e.leftmost - GRID_PAD``: the grid
    starts at the last node at or left of min(ln GRID_WEIGHT_TOL,
    e.leftmost - GRID_PAD).  Kept nodes are not moved, because the energy of
    the recovery profile is first order in node placement.  Raises
    ``GridError``, before any node exists, for more than MAX_GRID_NODES
    nodes.  Length is left to the inhibitor solve: ``InhibitorOperator``
    refuses grids longer than about 2,600 units, so ``DiscreteEnergy``
    does, but a recovery profile on such a grid is built.
    """
    x_hi = e.rightmost + GRID_PAD
    h = Grid.for_interval(x_hi, eps / 8.0).h
    start = math.log(GRID_WEIGHT_TOL)
    if math.isfinite(e.leftmost):
        start = min(start, e.leftmost - GRID_PAD)
    cells = (x_hi - start) / h
    if cells < MAX_GRID_NODES:  # math.ceil raises OverflowError on inf
        cells = math.ceil(cells)
        if x_hi - cells * h > start:
            cells += 1
    if not cells + 1 <= MAX_GRID_NODES:
        raise GridError(
            f"solver grid at eps={eps:g} needs {cells + 1:.6g} nodes, more "
            f"than MAX_GRID_NODES = {MAX_GRID_NODES:,}"
        )
    return Grid(x_hi - cells * h, x_hi, cells + 1)


def build_recovery(e: IntervalUnion, p: Params, grid: Grid) -> AdmissibleProfile:
    """Smooth the indicator of a normalized set with the interface profile.

    Each jump is replaced by the rising or falling profile in a window of
    width rho_eps positioned by a single global offset theta in [0, 1];
    theta = 0 puts every window on the inside of its interval (norm <= 1),
    theta = 1 on the outside (norm >= 1), and a scalar root-find picks the
    offset with unit norm.  Interfaces lie more than 2 sqrt(eps) apart and
    rho_eps < sqrt(eps), so no node is in two windows: only window nodes are
    interpolated, and the others read 1 inside the set and 0 outside it.
    """
    # imported here, its only use, so that importing the package does not
    # load scipy.optimize
    from scipy.optimize import brentq

    p.require_small_epsilon()
    eps = p.epsilon
    if abs(e.l1e_norm - 1.0) > 1e-8:
        raise InvalidParameterError(
            f"set must have unit weighted measure, got {e.l1e_norm}"
        )
    endpoints = sorted(
        v for iv in e.intervals for v in iv if math.isfinite(v)
    )
    sep = 2.0 * math.sqrt(eps)
    for lo, hi in zip(endpoints[:-1], endpoints[1:]):
        if hi - lo <= sep:
            raise InvalidParameterError(
                f"interfaces at {lo} and {hi} closer than the minimum "
                f"separation {sep}"
            )
    rp = recovery_profile(eps)
    if grid.x_hi < e.rightmost + rp.rho_eps:
        raise InvalidParameterError(
            f"grid ends at {grid.x_hi}, before the rightmost interface "
            f"window reaching {e.rightmost + rp.rho_eps}"
        )
    if math.isfinite(e.leftmost) and grid.x_lo > e.leftmost - rp.rho_eps:
        raise InvalidParameterError(
            f"grid starts at {grid.x_lo}, after the leftmost interface "
            f"window reaching {e.leftmost - rp.rho_eps}"
        )

    x, rho = grid.x, rp.rho_eps

    def profile(theta: float) -> np.ndarray:
        # [m, i) and [j, k) end at the floats the windows' arguments are
        # compared with, so no other node reads 0 < u < 1; [m, i) takes a node
        # more for its argument's two roundings (at a = -inf, node 0, read as 1)
        shift = theta * rho
        values = np.zeros_like(x)
        for a, b in e.intervals:
            lo, end = a - shift, b + shift
            m, i, j, k = np.searchsorted(x, (lo, lo + rho, end - rho, end))
            i = min(i + 1, k)
            values[m:i] = rp.rising(x[m:i] - a + shift)
            values[i:j] = 1.0
            values[j:k] = rp.rising(end - x[j:k])
        return values

    def norm_defect(theta: float) -> float:
        return l2e_norm(grid, profile(theta)) - 1.0

    d0, d1 = norm_defect(0.0), norm_defect(1.0)
    if d0 > 0.0 or d1 < 0.0:  # pragma: no cover - defensive
        raise BracketError(
            f"interface offset cannot normalize: defects {d0}, {d1}"
        )
    # not _newton_root: moving theta by 1e-14 moves the chaotic iteration
    # counts of minimize_energy, so this waits for its Newton replacement
    theta = brentq(norm_defect, 0.0, 1.0, xtol=1e-14)
    values = profile(theta)
    return AdmissibleProfile(
        w=SampledFunction(grid, values),
        l2e_norm=l2e_norm(grid, values),
        box=profile_box(p),
    )


class _LocalInhibitor(NamedTuple):
    """The inhibitor solve at c = 0, where the equation is local: v = f /
    gamma, its own adjoint, with dv/dc = 0."""

    gamma: float

    def solve(self, f: np.ndarray) -> np.ndarray:
        return f / self.gamma

    solve_transpose = solve

    def d_speed(self, f: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.zeros_like(f)


@dataclass(frozen=True)
class EnergyReport:
    """Energy split into gradient, double-well, tilt and nonlocal parts."""

    gradient: float
    potential: float
    tilt: float
    nonlocal_term: float

    @property
    def total(self) -> float:
        return self.gradient + self.potential + self.tilt + self.nonlocal_term


class DiscreteEnergy:
    """The discrete energy on a fixed grid at fixed speed and parameters.

    Quadrature is ``Grid.quadrature``, trapezoid against e^x dx; the
    gradient term takes the weight at the midpoints (``weight_mid``, read
    nowhere else); the nonlocal part pairs the profile with its
    finite-difference inhibitor response, which at c = 0 is w / gamma, so
    the nonlocal part of a unit-norm profile is sigma / (2 gamma) there.
    Immutable and thread-safe.
    """

    def __init__(self, grid: Grid, c: float, p: Params):
        p.require_small_epsilon()
        self.grid = grid
        self.c = c
        self.p = p
        self.op = (InhibitorOperator(grid, c, p.gamma) if c
                   else _LocalInhibitor(p.gamma))
        self.weight_mid = np.exp(0.5 * (grid.x[1:] + grid.x[:-1]))
        self.box = profile_box(p)

    def _terms(self, values: np.ndarray):
        """Energy report, weighted difference quotient e^x w' at the
        midpoints, and inhibitor response v of one profile; costs one solve
        and 17 passes over the grid.

        Bit for bit the textbook sums of ``weighted_dot`` over ``model.F0``
        and ``model.G``, from one w^2: G is formed as
        (w^2 w / 3 - 0.5 w^2) / sqrt(2), and the einsum of q with
        (0.5 w^2)((1 - w)^2) = 2 F0 is halved.  Scaling by a power of 2
        commutes with rounding, so every product and partial sum of that
        einsum is exactly twice the textbook one (a node with
        0 < |w| < 3e-154, whose term is subnormal, may differ in that
        term's last bit).  Both einsums take their terms without
        ``weighted_dot``'s product by 1."""
        eps, p = self.p.epsilon, self.p
        grid, q = self.grid, self.grid.quadrature
        dw = values[1:] - values[:-1]
        dw /= grid.h
        flux = self.weight_mid * dw
        v = self.op.solve(values)
        u2 = values * values
        tilt = u2 * values
        tilt /= 3.0
        u2 *= 0.5  # w^2 / 2 from here on
        tilt -= u2
        tilt /= SQRT2
        well = 1.0 - values
        well *= well
        well *= u2  # 2 F0
        report = EnergyReport(
            # midpoint rule for e^x w'^2; einsum for the reason in weighted_dot
            gradient=0.5 * eps * grid.h * float(np.einsum("i,i->", flux, dw)),
            potential=0.5 * float(np.einsum("i,i->", q, well)) / eps,
            tilt=p.alpha * float(np.einsum("i,i->", q, tilt)),
            nonlocal_term=0.5 * p.sigma * weighted_dot(grid, values, v),
        )
        return report, flux, v

    def _gradient(self, values: np.ndarray, flux: np.ndarray,
                  v: np.ndarray) -> np.ndarray:
        """Energy gradient of a profile, from the flux and response that
        ``_terms`` returned for it; costs one transposed solve and 16
        passes over the grid.

        Bit for bit the sum, in this order, of the difference term, the
        local term -q f_eps(w) / eps and the nonlocal term
        (sigma/2) (q v + L^T (q w)).  The local term is formed as
        q w (w - beta) (w - 1) / eps, with the sign of two factors flipped,
        which moves no bit; every sum accumulates in place."""
        eps, p, q = self.p.epsilon, self.p, self.grid.quadrature
        g = np.zeros_like(values)
        g[:-1] -= flux
        g[1:] += flux
        g *= eps

        local = values - p.beta_eps
        local *= values
        buf = values - 1.0
        local *= buf
        local *= q
        local /= eps
        g += local

        coupling = self.op.solve_transpose(q * values)
        coupling += np.multiply(q, v, out=buf)
        coupling *= 0.5 * p.sigma
        g += coupling
        return g

    def report(self, values: np.ndarray) -> EnergyReport:
        return self._terms(values)[0]

    def value_and_grad(self, values: np.ndarray) -> tuple[float, np.ndarray]:
        report, flux, v = self._terms(values)
        return report.total, self._gradient(values, flux, v)

    def d_speed(self, values: np.ndarray) -> float:
        """Speed derivative of the energy at a fixed profile.  Only the
        nonlocal term depends on c: (sigma/2) times the weighted pairing of w
        with dv/dc from ``InhibitorOperator.d_speed``; costs two solves."""
        v = self.op.solve(values)
        dv = self.op.d_speed(values, v)
        return 0.5 * self.p.sigma * weighted_dot(self.grid, values, dv)

    def preconditioner(self, values: np.ndarray) -> np.ndarray:
        """Diagonal Hessian estimate of the stiff terms, in units of the
        quadrature weight: interface 2 eps/h^2, well curvature (clipped at
        0) and 1.  On solver grids (h ~ eps/8) the interface term 128/eps
        dominates: wherever w stays in [-0.03, 1] the sum lies within about
        0.5% of it, so dividing the gradient by it rescales the step by a
        nearly constant factor rather than equalizing per-node scales."""
        eps = self.p.epsilon
        beta = self.p.beta_eps
        u = values
        # (3 u u - 2 (1 + beta) u + beta) / eps, clipped at 0, + 2 eps/h^2 + 1
        # in place but in that order of operations, so no bit moves
        diag = 3.0 * u
        diag *= u
        diag -= 2.0 * (1.0 + beta) * u
        diag += beta
        diag /= eps
        np.maximum(diag, 0.0, out=diag)
        diag += 2.0 * eps / self.grid.h**2
        diag += 1.0
        return diag

    def project(self, values: np.ndarray) -> np.ndarray:
        """Clamp into the box, then rescale to unit weighted L2 norm."""
        clamped = np.clip(values, self.box[0], self.box[1])
        norm = l2e_norm(self.grid, clamped)
        if norm == 0.0:  # pragma: no cover - defensive
            raise InvalidParameterError("cannot normalize the zero profile")
        clamped /= norm
        return clamped


@dataclass(frozen=True)
class MinimizeResult:
    """The last iterate of ``minimize_energy`` and what the descent did.

    ``multiplier`` is lambda = w^T g / 2, from the final profile w and its
    energy gradient g: the Lagrange multiplier of the norm constraint, which
    equals the energy at any constrained critical point, so value -
    multiplier says in energy units how far the profile is from one."""

    profile: SampledFunction
    value: float
    report: EnergyReport
    iterations: int
    converged: bool
    grad_norm: float
    multiplier: float


def minimize_energy(
    engine: DiscreteEnergy,
    init: np.ndarray,
    tol: float = MINIMIZE_GRAD_TOL,
    max_iter: int = MINIMIZE_MAX_ITER,
) -> MinimizeResult:
    """Projected gradient descent on the unit sphere within the box.

    The descent direction is the energy gradient in the weighted L2 metric,
    made tangential to the norm constraint and zeroed on active box faces.
    Steps use a Barzilai-Borwein guess with backtracking; projection is
    box-clamp followed by renormalization.  Accepted steps never increase
    the energy.  A line-search trial costs only its energy: one solve and
    26 passes over the grid (9 to step, project and measure the distance,
    17 in ``_terms``).  The gradient (one transposed solve and 16 passes in
    ``_gradient``) is finished for the accepted trial alone, from that
    trial's own flux and response; the next direction and BB step size
    take 22 passes more, 9 of them in ``preconditioner``.  The BB step
    reuses the accepted trial's step and squared distance, and the
    box-face masks run only at an iterate within 1e-12 of a face.  The returned
    report is the final iterate's own, and ``multiplier`` comes from its
    gradient after the loop.  Only the start is a full ``value_and_grad``.
    Every float equals that of the textbook expressions (see ``_terms``).
    On hitting the iteration cap the best iterate is returned with
    ``converged=False``.  Needs max_iter >= 1 and 0 < tol < inf.
    """
    if not (max_iter >= 1 and 0.0 < tol < math.inf):
        raise InvalidParameterError(
            f"need max_iter >= 1 and 0 < tol < inf, got max_iter={max_iter}, "
            f"tol={tol}"
        )
    grid = engine.grid
    q = grid.quadrature
    lo_face, hi_face = engine.box[0] + 1e-12, engine.box[1] - 1e-12
    w = engine.project(np.asarray(init, dtype=float))
    f, g = engine.value_and_grad(w)
    report = None  # the start's report is computed only if no step is taken
    step = 1.0
    s = ss = prev_d = None  # the last accepted step, its squared norm
    grad_norm = math.inf
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        d = g / q
        d -= weighted_dot(grid, d, w) * w
        # a face no node is within 1e-12 of has an all-false mask
        if w.min() <= lo_face:
            d[(w <= lo_face) & (d > 0.0)] = 0.0
        if w.max() >= hi_face:
            d[(w >= hi_face) & (d < 0.0)] = 0.0
        grad_norm = math.sqrt(weighted_dot(grid, d, d))
        d /= engine.preconditioner(w)
        if grad_norm < tol:
            converged, it = True, it - 1
            break
        if s is not None:
            y = d - prev_d
            sy = weighted_dot(grid, s, y)
            if sy > 0.0:
                step = ss / sy
        step = min(max(step, 1e-10), 1e3)
        prev_d = d

        accepted = False
        t = step
        for _ in range(60):
            trial = engine.project(w - t * d)
            delta = trial - w
            dist2 = weighted_dot(grid, delta, delta)
            if dist2 == 0.0:
                break
            trial_report, flux, v = engine._terms(trial)
            if trial_report.total <= f - 1e-4 * dist2 / max(t, 1e-300):
                w, report, f = trial, trial_report, trial_report.total
                s, ss = delta, dist2
                g = engine._gradient(w, flux, v)
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
    if report is None:
        report = engine.report(w)
    return MinimizeResult(
        profile=SampledFunction(grid, w), value=f, report=report,
        iterations=it, converged=converged, grad_norm=grad_norm,
        multiplier=0.5 * float(np.einsum("i,i->", w, g)),
    )


@dataclass(frozen=True)
class SpeedStep:
    """One minimization of the speed solve: the speed, the minimum value
    reached, its slope dm/dc = dE/dc at that profile, and the minimizer's
    iteration count and convergence flag.

    A ``certified`` step is no minimization but the check that proves the
    bracket's right end: its value is the energy at c of the previous
    minimizer, an upper bound on m(c), with that profile's dE/dc as slope,
    0 iterations and ``converged`` False."""

    c: float
    value: float
    slope: float
    iterations: int
    converged: bool
    certified: bool = False


@dataclass(frozen=True)
class SpeedResult:
    c_eps: float
    value: float
    profile: SampledFunction
    report: EnergyReport
    iterations: int
    converged: bool
    #: one entry per minimization or certified bracket end, in evaluation
    #: order
    steps: tuple[SpeedStep, ...]


def _speed_bracket(c_lo, c_hi, limit=None):
    """The bracket (c_lo, c_hi) of a speed solve and the speed c_limit of
    ``limit``, a front or pulse result (None when it is not given).  An end
    given as None is c_limit / BRACKET_FACTOR or c_limit * BRACKET_FACTOR.
    Raises ``InvalidParameterError`` unless 0 < c_lo < c_hi < inf."""
    c_limit = None if limit is None else limit.to_dict()["c"]
    if c_lo is None:
        c_lo = c_limit / BRACKET_FACTOR
    if c_hi is None:
        c_hi = c_limit * BRACKET_FACTOR
    if not 0.0 < c_lo < c_hi < math.inf:
        raise InvalidParameterError(
            f"bracket ends must be finite positive speeds with c_lo < c_hi: "
            f"[{c_lo}, {c_hi}]")
    return c_lo, c_hi, c_limit


def speed_eps(
    p: Params,
    c_lo: float,
    c_hi: float,
    grid: Grid,
    init: np.ndarray,
    max_iter: int = SPEED_MAX_ITER,
) -> SpeedResult:
    """Speed at which the constrained minimum energy crosses zero.

    The minimum energy m(c) decreases strictly in the speed, and by the
    envelope identity its slope is the energy's speed derivative at the
    minimizer, dm/dc = dE/dc(w*, c).  The bracket needs 0 < c_lo < c_hi <
    inf (else invalid input, before any minimization) and must straddle a
    sign change.  Every admissible profile's energy bounds m from above, so
    a minimum at c_lo that is not positive ends the solve there with
    ``BracketError``: m decreases in c, so no root lies in the bracket.
    The zero-speed energy, whose inhibitor is local, is then minimized from
    the c_lo minimizer, and if that bound on m(0) is not positive either,
    the error says that no wave of positive speed exists at this width.
    Otherwise the c_lo minimizer's energy at c_hi is evaluated: if it is
    negative the bracket is proven and c_hi is not minimized (a
    ``certified`` step); otherwise c_hi is minimized too, and a minimum
    there that is not negative is a ``BracketError``.  Safeguarded Newton
    (``wave_speeds._newton_root``) then starts from c_lo, where m is
    positive.  On the pulse, m is convex there, so exact Newton steps
    approach the root from below; a step that the capped minimizations carry
    past it only moves the bracket.  The solve stops at the first minimized
    speed whose Newton step |m/m'| (or the bracket) is at most
    SPEED_BRACKET_TOL relative to max(1, c), and returns that last iterate,
    with every minimization and certified end in ``steps``.  Minimizations
    stop at the gradient norm MINIMIZE_GRAD_TOL or after ``max_iter``
    (default SPEED_MAX_ITER) iterations and warm-start from the previous
    minimizer.
    Each speed's inhibitor matrix is factored once: an uncertified c_hi is
    minimized with the energy built for its certificate.
    """
    _speed_bracket(c_lo, c_hi)
    warm = np.asarray(init, dtype=float)
    steps = []

    def minimum(engine: DiscreteEnergy):
        nonlocal warm
        res = minimize_energy(engine, warm, tol=MINIMIZE_GRAD_TOL,
                              max_iter=max_iter)
        warm = res.profile.values
        slope = engine.d_speed(warm)
        steps.append(SpeedStep(engine.c, res.value, slope, res.iterations,
                               res.converged))
        return res.value, slope, res

    def certify(engine: DiscreteEnergy):
        """The warm profile's energy at the engine's speed, recorded as a
        certified step, if it is negative, else None; costs three solves."""
        bound = engine.report(warm).total
        if not bound < 0.0:
            return None
        steps.append(SpeedStep(engine.c, bound, engine.d_speed(warm), 0,
                               False, certified=True))
        return bound

    no_sign_change = (f"no sign change of the minimum energy on "
                      f"[{c_lo}, {c_hi}]: ")
    f_lo = minimum(DiscreteEnergy(grid, c_lo, p))
    if not f_lo[0] > 0.0:
        m_0 = minimize_energy(DiscreteEnergy(grid, 0.0, p), warm,
                              tol=MINIMIZE_GRAD_TOL, max_iter=max_iter).value
        if not m_0 > 0.0:
            raise BracketError(
                f"no wave of positive speed at ε = {p.epsilon}: m_ε(0) = "
                f"{m_0} is not positive, and m decreases in c")
        raise BracketError(
            no_sign_change + f"m({c_lo})={f_lo[0]} is not positive, and m "
            f"decreases in c"
        )
    hi = DiscreteEnergy(grid, c_hi, p)
    m_hi = certify(hi)
    if m_hi is None:
        m_hi = minimum(hi)[0]
    if not m_hi < 0.0:
        raise BracketError(
            no_sign_change + f"m({c_lo})={f_lo[0]}, m({c_hi})={m_hi}")
    c_eps, res = _newton_root(lambda c: minimum(DiscreteEnergy(grid, c, p)),
                              c_lo, c_hi, c_lo, f_lo, xtol=SPEED_BRACKET_TOL)
    return SpeedResult(
        c_eps=c_eps, value=res.value, profile=res.profile, report=res.report,
        iterations=sum(step.iterations for step in steps),
        converged=res.converged, steps=tuple(steps),
    )


#: columns of the convergence-study table, in emission order
STUDY_COLUMNS = (
    "eps", "c_eps", "err_c", "err_u_l2e",
    "E_grad", "E_F0", "E_G", "E_nonlocal", "total", "iters", "flag",
)


def convergence_study(
    eps_list,
    p: Params,
    max_iter: int = SPEED_MAX_ITER,
) -> Iterator[dict]:
    """Solve the finite-width speed problem along a ladder of interface
    widths, yielding each width's row of errors against the limit speed and
    limit set as soon as its speed solve returns.

    Widths run in descending order.  The speed bracket for every width is
    ``_speed_bracket``'s default, [c_limit/BRACKET_FACTOR,
    c_limit*BRACKET_FACTOR], and each minimization
    stops at the gradient norm MINIMIZE_GRAD_TOL or after ``max_iter``
    (default SPEED_MAX_ITER) iterations.  A row is a dict keyed by
    STUDY_COLUMNS.  A width that fails raises when the generator reaches
    it, after the rows before it were yielded.

    The default budget per minimization is far below MINIMIZE_MAX_ITER:
    the speed Newton needs only the value and slope, whose errors are second
    and first order in the distance from the minimizer.  But ``err_u_l2e``
    and ``flag`` reflect it: at the default, every pulse row reads ``maxiter``.
    """
    limit = limit_speed(p)
    c_lo, c_hi, c_limit = _speed_bracket(None, None, limit)
    e = limit.limit_set

    for eps in sorted(eps_list, reverse=True):
        pe = Params(p.alpha, p.gamma, p.sigma, eps)
        grid = solver_grid(e, eps)
        init = build_recovery(e, pe, grid)
        result = speed_eps(pe, c_lo, c_hi, grid, init.w.values,
                           max_iter=max_iter)
        err_u = l2e_norm(grid, result.profile.values - e.indicator(grid).values)
        r = result.report
        yield {
            "eps": eps,
            "c_eps": result.c_eps,
            "err_c": abs(result.c_eps - c_limit),
            "err_u_l2e": err_u,
            "E_grad": r.gradient,
            "E_F0": r.potential,
            "E_G": r.tilt,
            "E_nonlocal": r.nonlocal_term,
            "total": r.total,
            "iters": result.iterations,
            "flag": "ok" if result.converged else "maxiter",
        }
