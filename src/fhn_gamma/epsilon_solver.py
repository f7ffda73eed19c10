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
import threading
import weakref
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import (
    BracketError,
    GridError,
    InvalidParameterError,
    NonConvergenceError,
)
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

#: gradient-norm tolerance of every minimization, and the default iteration
#: caps of a lone minimization and of the speed solve (its Newton steps, and
#: the iterations of each fallback minimization)
MINIMIZE_GRAD_TOL = 1e-6
MINIMIZE_MAX_ITER = 10000
SPEED_MAX_ITER = 1500
#: the speed Newton stops once ||g||_{Q^-1} and |w^T Q w - 1| are below these
SPEED_GRAD_TOL = 1e-10
SPEED_NORM_TOL = 1e-12
#: its GMRES: restart length, restart cycles and relative tolerance
SPEED_GMRES_RESTART = 20
SPEED_GMRES_CYCLES = 50
SPEED_GMRES_RTOL = 1e-8
#: Newton fails after this many steps in a row without a new smallest
#: residual; no step changes the speed by more than SPEED_STEP_RATIO
SPEED_WATCHDOG = 8
SPEED_STEP_RATIO = 4.0
#: CG steps of the minimizer check, and the weighted norm of the step off a
#: saddle along its negative curvature
SPEED_CHECK_ITER = 30
SPEED_SADDLE_STEP = 0.1
#: solver grids drop the nodes left of the set whose weight e^x is below this
GRID_WEIGHT_TOL = 1e-9
#: default speed bracket, of convergence_study and fhn-gamma speed-eps:
#: [c_limit / BRACKET_FACTOR, c_limit * BRACKET_FACTOR]
BRACKET_FACTOR = 2.0


@dataclass(frozen=True)
class RecoveryProfile:
    """Monotone interface profile rising from 0 to 1 over [0, rho_eps].

    Solves the first-integral relation eps^2 u'^2 / 2 - F0(u) = eps/2 with
    u(0) = 0 and u(rho_eps) = 1; at a right end of a set ``build_recovery``
    uses its reflection.  In closed form (Byrd & Friedman 259.00), with
    g^4 = 1/16 + 2 eps, m = (1 + 1/(4 g^2)) / 2, s = eps sqrt(2) / (2 g) and
    K = F(2 atan(1/(2g)) | m), an incomplete elliptic integral of the first
    kind: rho_eps = 2 s K and u(t) = 1/2 + g tan(am/2), where am is the
    Jacobi amplitude of t/s - K at parameter m.
    """

    eps: float
    rho_eps: float

    def _closed_form(self, t):
        """u(t) and u'(t) from the closed form, unclamped."""
        from scipy.special import ellipj

        g, m, s = _elliptic_parameters(self.eps)
        _, _, dn, am = ellipj(t / s - self.rho_eps / (2.0 * s), m)
        half = 0.5 * am
        return 0.5 + g * np.tan(half), g * dn / (2.0 * s * np.cos(half) ** 2)

    def rising(self, t):
        """Profile value at t: exactly 0 for t <= 0 and 1 for t >= rho_eps,
        and the closed form clamped to [0, 1] between them."""
        t = np.asarray(t, dtype=float)
        u = self._closed_form(np.clip(t, 0.0, self.rho_eps))[0]
        u = np.clip(u, 0.0, 1.0)
        return np.where(t <= 0.0, 0.0, np.where(t >= self.rho_eps, 1.0, u))

    def first_integral_residual(self) -> float:
        """Max deviation of eps^2 u'^2 / 2 - F0(u) from eps/2 at 1,001
        uniform points of [0, rho_eps], with the closed form's exact u'."""
        u, du = self._closed_form(np.linspace(0.0, self.rho_eps, 1001))
        res = 0.5 * self.eps**2 * du**2 - F0(u) - 0.5 * self.eps
        return float(np.max(np.abs(res)))


def _elliptic_parameters(eps: float) -> tuple[float, float, float]:
    """g, m and s of the closed-form interface profile at width eps."""
    g = (0.0625 + 2.0 * eps) ** 0.25
    return g, 0.5 + 0.125 / (g * g), eps * SQRT2 / (2.0 * g)


def recovery_profile(eps: float) -> RecoveryProfile:
    """Interface profile of width eps, in closed form.

    rho_eps and the profile lie within 3.5e-14 of a 40-digit quadrature of
    x(u) = integral of eps/sqrt(eps + 2 F0) for eps in [2.5e-5, 0.5].  As m
    tends to 1 they lose digits, about 1e-16/eps, below eps of about 1e-8,
    which no solver grid reaches (its smallest eps is about 2.45e-5), and
    rho_eps overflows below about 1e-17.  Raises ``InvalidParameterError``
    unless eps is positive and eps and rho_eps are finite.
    """
    # imported here so that importing the package does not load scipy.special
    from scipy.special import ellipkinc

    if not 0.0 < eps < math.inf:
        raise InvalidParameterError(
            f"interface width must be finite and positive, got {eps}"
        )
    g, m, s = _elliptic_parameters(eps)
    rho = 2.0 * s * float(ellipkinc(2.0 * math.atan(0.5 / g), m))
    if not rho < math.inf:
        raise InvalidParameterError(
            f"interface width {eps} is below the closed form's range"
        )
    return RecoveryProfile(eps=eps, rho_eps=rho)


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


#: the solver grids still referenced, by (set, width), and their lock
_SOLVER_GRIDS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_SOLVER_GRIDS_LOCK = threading.Lock()


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
    does, but a recovery profile on such a grid is built.  Equal calls
    return one ``Grid`` while any caller still holds it, so results kept on
    the same grid share its cached nodes and weights; a grid that no one
    holds is freed.
    """
    with _SOLVER_GRIDS_LOCK:
        grid = _SOLVER_GRIDS.get((e, eps))
        if grid is None:
            grid = _SOLVER_GRIDS[e, eps] = _solver_grid(e, eps)
    return grid


def _solver_grid(e: IntervalUnion, eps: float) -> Grid:
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
    rho_eps < sqrt(eps), so no node is in two windows: the closed form is
    evaluated at window nodes only, and the others read 1 inside the set and
    0 outside it.
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

    def curvature(self, values: np.ndarray) -> np.ndarray:
        """Diagonal of the local term's Hessian, -q f_eps'(w) / eps =
        q (3 w^2 - 2 (1 + beta) w + beta) / eps."""
        beta = self.p.beta_eps
        diag = 3.0 * values
        diag -= 2.0 * (1.0 + beta)
        diag *= values
        diag += beta
        diag *= self.grid.quadrature
        diag /= self.p.epsilon
        return diag

    def hessp(self, values: np.ndarray, s: np.ndarray,
              curvature: np.ndarray | None = None) -> np.ndarray:
        """Energy Hessian at a profile applied to a direction s: the
        difference term, the local term ``curvature`` * s (computed from
        the profile when not given) and the nonlocal term
        (sigma/2) (q L s + L^T (q s)); costs two solves."""
        if curvature is None:
            curvature = self.curvature(values)
        flux = s[1:] - s[:-1]
        flux *= self.weight_mid
        flux *= self.p.epsilon / self.grid.h
        hs = curvature * s
        hs[:-1] -= flux
        hs[1:] += flux
        q = self.grid.quadrature
        coupling = self.op.solve_transpose(q * s)
        coupling += q * self.op.solve(s)
        coupling *= 0.5 * self.p.sigma
        hs += coupling
        return hs

    def d_speed_gradient(self, values: np.ndarray) -> np.ndarray:
        """Speed derivative of the energy gradient at a fixed profile, for
        c > 0.  Only the nonlocal term depends on c:
        (sigma/2) (q dv/dc + (dL/dc)^T (q w)), from
        ``InhibitorOperator.d_speed`` and ``d_speed_transpose``; costs four
        solves."""
        q, op = self.grid.quadrature, self.op
        out = op.d_speed_transpose(q * values)
        out += q * op.d_speed(values, op.solve(values))
        out *= 0.5 * self.p.sigma
        return out

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
    On hitting the iteration cap, or when 60 halvings of a line-search step
    find no decrease (how the loop ends when tol lies at the rounding floor
    of the energy), the best iterate is returned with ``converged=False``.
    Needs max_iter >= 1 and 0 < tol < inf.
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
    """One Newton step of the speed solve: the speed it reached, the
    gradient norm ||g||_{Q^-1} and the norm residual w^T Q w - 1 of the
    profile it reached, and the Jacobian products its GMRES solve took."""

    c: float
    grad_norm: float
    norm_residual: float
    products: int


@dataclass(frozen=True)
class SpeedResult:
    c_eps: float
    value: float
    profile: SampledFunction
    report: EnergyReport
    #: Newton steps taken, len(steps)
    iterations: int
    converged: bool
    #: one entry per Newton step, in order
    steps: tuple[SpeedStep, ...]
    #: fallback minimizations at a fixed speed
    minimizations: int


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


class _Iterate(NamedTuple):
    """A point (w, c) of the speed Newton with its energy and residual."""

    engine: DiscreteEnergy
    w: np.ndarray
    g: np.ndarray
    grad_norm: float
    norm_residual: float

    @property
    def merit(self) -> float:
        return math.hypot(self.grad_norm, self.norm_residual)

    @property
    def converged(self) -> bool:
        return (self.grad_norm < SPEED_GRAD_TOL
                and abs(self.norm_residual) < SPEED_NORM_TOL)


def _iterate(engine: DiscreteEnergy, w: np.ndarray) -> _Iterate:
    g = engine.value_and_grad(w)[1]
    grid = engine.grid
    d = g / grid.quadrature
    return _Iterate(engine, w, g, math.sqrt(weighted_dot(grid, d, d)),
                    weighted_dot(grid, w, w) - 1.0)


def _step_to(grid: Grid, c: float, p: Params, w: np.ndarray):
    """The iterate (w, c), or None where the energy does not exist at c (a
    grid too coarse for its decay rates) or the residual is not finite."""
    if not 0.0 < c < math.inf:
        return None
    try:
        engine = DiscreteEnergy(grid, c, p)
    except (GridError, InvalidParameterError):
        return None
    it = _iterate(engine, w)
    return it if math.isfinite(it.merit) else None


class _Preconditioner:
    """The banded matrix P: the difference term's tridiagonal, the local
    curvature clipped at 0, and q.  Symmetric positive definite, factored
    once by LAPACK dpttrf."""

    def __init__(self, engine: DiscreteEnergy, curvature: np.ndarray):
        q = engine.grid.quadrature
        off = engine.weight_mid * (engine.p.epsilon / engine.grid.h)
        d = np.maximum(curvature, 0.0)
        d += q
        d[:-1] += off
        d[1:] += off
        *self._factors, info = dpttrf(d, -off, overwrite_d=1)
        if info != 0:  # pragma: no cover - defensive
            raise NonConvergenceError(
                f"preconditioner not positive definite: pivot {info}")

    def solve(self, r: np.ndarray) -> np.ndarray:
        return dpttrs(*self._factors, r)[0]


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Plain dot product, by einsum for the reason in ``weighted_dot``."""
    return float(np.einsum("i,i->", a, b))


def _negative_curvature(hess, pre: _Preconditioner, a: np.ndarray,
                        rhs: np.ndarray):
    """A direction d tangent to the sphere (a^T d = 0, a = Q w) with
    d^T H d <= 0, met by projected preconditioned CG on H s = rhs (Gould,
    Hribar & Nocedal, SIAM J. Sci. Comput. 23, 2001), or None when CG
    reduces the residual's P^-1 norm by 1e-6 or runs SPEED_CHECK_ITER
    steps without meeting one.  Such a direction proves that the Hessian
    is not positive definite on the tangent space; CG stopping without one
    proves nothing, but it meets the lowest modes first."""
    pa = pre.solve(a)
    apa = _dot(a, pa)

    def project(r):
        z = pre.solve(r)
        z -= (_dot(a, z) / apa) * pa
        return z

    r = rhs.copy()
    z = project(r)
    d = z
    rz = rz0 = _dot(r, z)
    if not rz0 > 0.0:
        return None
    for _ in range(SPEED_CHECK_ITER):
        hd = hess(d)
        curv = _dot(d, hd)
        if not curv > 0.0:
            return d
        r -= (rz / curv) * hd
        z = project(r)
        rz_next = _dot(r, z)
        if rz_next <= 1e-12 * rz0:
            return None
        d = z + (rz_next / rz) * d
        rz = rz_next
    return None


def _speed_newton(p: Params, start: _Iterate, budget: int, steps: list):
    """Newton on F(w, c) = (grad_w E(w, c), (w^T Q w - 1)/2) from ``start``.

    The Jacobian [[H, dg/dc], [(Q w)^T, 0]] is solved by restarted GMRES
    (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986), preconditioned
    by the same bordered matrix with H replaced by ``_Preconditioner``'s
    P, which costs one banded solve per product; dg/dc is
    ``DiscreteEnergy.d_speed_gradient``.  Full steps are taken, but for
    one that would change c by more than the factor SPEED_STEP_RATIO, which
    is shortened to change it by that factor.  The run fails when a step
    reaches a speed at which the energy does not exist (a grid too coarse
    for the decay rates) or SPEED_WATCHDOG steps in a row bring no residual
    norm below the smallest so far.  A root must pass the minimizer check,
    ``_negative_curvature`` with dg/dc as right-hand side.  Each step is
    appended to ``steps``.  Returns (status, iterate, direction):
    ("converged", root, None), ("budget", last iterate, None) once
    ``steps`` holds ``budget`` steps, ("failed", None, None), or
    ("saddle", root, a tangent direction of negative curvature).
    """
    from scipy.sparse.linalg import LinearOperator, gmres

    grid = start.engine.grid
    q = grid.quadrature
    root_q = np.sqrt(q)
    n = grid.n
    shape = (n + 1, n + 1)
    it, best = start, start.merit
    stalled = 0
    while True:
        engine, w = it.engine, it.w
        c = engine.c
        curvature = engine.curvature(w)
        pre = _Preconditioner(engine, curvature)
        a = q * w
        dg_dc = engine.d_speed_gradient(w)

        def hess(s):
            return engine.hessp(w, s, curvature)

        if it.converged:
            direction = _negative_curvature(hess, pre, a, dg_dc)
            return ("converged" if direction is None else "saddle",
                    it, direction)
        if len(steps) >= budget:
            return "budget", it, None

        p_dg = pre.solve(dg_dc)
        schur = _dot(a, p_dg)
        products = 0

        # unknowns (sqrt(q) s, dc) and equations (g / sqrt(q), phase), so
        # that GMRES's Euclidean norms are the weighted norms ||s||_Q and
        # ||g||_{Q^-1}, which do not see how small e^x is in the left tail
        def jac(v):
            nonlocal products
            products += 1
            s = v[:n] / root_q
            out = np.empty(n + 1)
            out[:n] = hess(s)
            out[:n] += v[n] * dg_dc
            out[:n] /= root_q
            out[n] = _dot(a, s)
            return out

        def bordered(v):
            z = pre.solve(root_q * v[:n])
            y = (_dot(a, z) - v[n]) / schur
            z -= y * p_dg
            z *= root_q
            return np.append(z, y)

        rhs = np.append(-it.g / root_q, -0.5 * it.norm_residual)
        x, _ = gmres(LinearOperator(shape, matvec=jac, dtype=float), rhs,
                     rtol=SPEED_GMRES_RTOL, atol=0.0,
                     restart=SPEED_GMRES_RESTART, maxiter=SPEED_GMRES_CYCLES,
                     M=LinearOperator(shape, matvec=bordered, dtype=float))
        x[:n] /= root_q
        ratio = (c + float(x[n])) / c
        if not 1.0 / SPEED_STEP_RATIO <= ratio <= SPEED_STEP_RATIO:
            bound = (SPEED_STEP_RATIO if ratio > 1.0
                     else 1.0 / SPEED_STEP_RATIO)
            x *= c * (bound - 1.0) / x[n]
        it = _step_to(grid, c + float(x[n]), p, w + x[:n])
        if it is None:
            return "failed", None, None
        steps.append(SpeedStep(it.engine.c, it.grad_norm, it.norm_residual,
                               products))
        if it.merit < best:
            best, stalled = it.merit, 0
        else:
            stalled += 1
            if stalled >= SPEED_WATCHDOG:
                return "failed", None, None


def speed_eps(
    p: Params,
    c_lo: float,
    c_hi: float,
    grid: Grid,
    init: np.ndarray,
    max_iter: int = SPEED_MAX_ITER,
) -> SpeedResult:
    """Speed at which the constrained minimum energy m(c) vanishes.

    Every weighted term of the energy is covariant under translation, so
    at a constrained critical point w the multiplier lambda = w^T g / 2
    equals the energy; where m(c) = 0 the minimizer is a critical point of
    the energy itself, grad_w E(w, c) = 0, with the unit norm only fixing
    the translation.  So the profile and the speed solve one system,
    F(w, c) = (grad_w E, (w^T Q w - 1)/2) = 0, by Newton (``_speed_newton``)
    from ``init`` at sqrt(c_lo c_hi).  It stops once ||g||_{Q^-1} <
    SPEED_GRAD_TOL and |w^T Q w - 1| < SPEED_NORM_TOL, and the root must
    pass the minimizer check; only the root must lie in [c_lo, c_hi] (else
    ``BracketError`` naming it), and the bracket needs 0 < c_lo < c_hi <
    inf (else invalid input, before any solve).

    When Newton fails (a step reaches a speed at which the energy does not
    exist, the watchdog fires, or the root is a saddle), one fallback
    minimization of at most ``max_iter`` iterations restarts it: at the
    start speed from ``init``, or at a saddle's speed from a step along its
    negative curvature.  If Newton fails again, the zero-speed energy, whose
    inhibitor is local, is minimized from the fallback minimizer: a bound
    on m(0) that is not positive says that no wave of positive speed
    exists at this width (``BracketError``), and otherwise the failure is a
    ``NonConvergenceError``.  After ``max_iter`` Newton steps in all the
    last iterate is returned with ``converged`` False.
    """
    _speed_bracket(c_lo, c_hi)
    if not max_iter >= 1:
        raise InvalidParameterError(f"need max_iter >= 1, got {max_iter}")
    steps = []
    minimizations = 0
    start = _iterate(DiscreteEnergy(grid, math.sqrt(c_lo * c_hi), p),
                     np.asarray(init, dtype=float))
    status, it, direction = _speed_newton(p, start, max_iter, steps)
    if status in ("failed", "saddle"):
        engine, w = start.engine, start.w
        if direction is not None:
            engine = it.engine
            w = it.w + (SPEED_SADDLE_STEP / l2e_norm(grid, direction)) * direction
        warm = minimize_energy(engine, w, max_iter=max_iter).profile.values
        minimizations += 1
        status, it, direction = _speed_newton(p, _iterate(engine, warm),
                                              max_iter, steps)
        if status in ("failed", "saddle"):
            m_0 = minimize_energy(DiscreteEnergy(grid, 0.0, p), warm,
                                  max_iter=max_iter).value
            if not m_0 > 0.0:
                raise BracketError(
                    f"no wave of positive speed at ε = {p.epsilon}: m_ε(0) = "
                    f"{m_0} is not positive, and m decreases in c")
            raise NonConvergenceError(
                f"the speed Newton failed twice at ε = {p.epsilon}, the "
                f"second time after a minimization at c = {engine.c}")
    c_eps = it.engine.c
    converged = status == "converged"
    if converged and not c_lo <= c_eps <= c_hi:
        raise BracketError(
            f"the speed root c = {c_eps} lies outside the bracket "
            f"[{c_lo}, {c_hi}]")
    report = it.engine.report(it.w)
    return SpeedResult(
        c_eps=c_eps, value=report.total,
        profile=SampledFunction(grid, it.w), report=report,
        iterations=len(steps), converged=converged, steps=tuple(steps),
        minimizations=minimizations,
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
    c_limit*BRACKET_FACTOR], and ``max_iter`` (default SPEED_MAX_ITER) is
    ``speed_eps``'s budget.  A row is a dict keyed by STUDY_COLUMNS, with
    ``iters`` the Newton steps and ``flag`` ``maxiter`` when the budget ran
    out before the root.  A width that fails raises when the generator
    reaches it, after the rows before it were yielded.
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
