"""The benchmark's workloads: inputs from a seed, one timed round, checks.

Each workload object is built from a seed (its set-up), then runs whole
rounds of the same operations.  ``run_round`` returns a ``Round``: how many
operations it attempted, how many failed (raised, exited non-zero or did not
converge) and the outputs.  ``check`` compares outputs with the computations
of ``reference``, which never calls the package under test, and returns one
message per disagreement.  ``record`` gives the result values to 12
significant digits, so that a change in speed cannot hide a change in the
answer.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field

import fhn_gamma
import reference
from fhn_gamma import cli, epsilon_solver, limit_energy, wave_speeds

#: interface width of the finite-width workloads
EPSILON = 0.04
#: projected-gradient tolerance the minimizer reaches from the recovery
#: profile at EPSILON (neither the pulse nor the front reaches 1e-6 within
#: the 1,500 iterations of convergence_study)
MIN_TOL = 1e-3
#: iteration cap of each minimization inside the speed solve
SPEED_MAX_ITER = 300
#: the speed bracket is [c_p / SPEED_BRACKET, c_p * SPEED_BRACKET]
SPEED_BRACKET = 1.1
#: pulse and front parameter points (alpha, gamma, sigma) of the paper
PULSE = (2.0, 1.0, 1.0)
FRONT = (5.0, 1.0, 1.0)

#: tolerances of the limit-level checks: ten times the program's stated
#: speed tolerance on the interval energy (1e-10); the quadrature itself
#: is good to about 1e-13
J_TOL = 1e-9
DJ_TOL = 1e-9
FRONT_RTOL = 1e-10
#: perimeter and area are sums of a handful of exponentials
EXACT_RTOL = 1e-12
#: unit weighted norm after the minimizer's projection
NORM_TOL = 1e-10


#: errors an operation of the package may raise on valid input
PROGRAM_ERRORS = (fhn_gamma.InvalidParameterError, fhn_gamma.GridError,
                  fhn_gamma.BracketError, fhn_gamma.NonConvergenceError,
                  ArithmeticError)


def g12(value) -> str:
    return f"{value:.12g}"


@dataclass
class Round:
    attempted: int
    failed: int
    outputs: list = field(default_factory=list)


def _first_by_key(pairs) -> tuple[dict, list]:
    """First value of every key, and the keys of later values that differ
    from their key's first: every round must repeat its answers exactly."""
    first, differ = {}, []
    for key, value in pairs:
        if first.setdefault(key, value) != value:
            differ.append(key)
    return first, differ


def _cell_rate(h: float, c: float, gamma: float) -> float:
    """h times the fastest decay rate of the inhibitor response: the
    quantity whose square sets the second-order error of the
    finite-difference solve relative to the nonlocal term."""
    r1, r2, _ = reference.green_roots(c, gamma)
    return h * max(-r1, r2)


class LimitSweep:
    """``fhn-gamma sweep`` over four seeded 6 x 8 x 5 cartesian grids.

    Every grid spans alpha in [1.2, 4.4], gamma in [0.9, 1.5] and sigma in
    [0.75, 1.65], with each range end moved by up to 0.02 by the seed, so
    the four grids hold 960 distinct points.  A round sweeps one grid, in
    turn.  Each grid has about 192 pulse, 31 front and 17 neither points,
    the pulse count within 1% over 400 seeds, so every round costs the same
    and a short slow-down of the machine moves one round, not the median.
    """

    name = "limit_sweep"
    ENDS = ((1.2, 4.4), (0.9, 1.5), (0.75, 1.65))
    FLAGS = ("--alpha-range", "--gamma-range", "--sigma-range")

    def __init__(self, seed: int, shape=(6, 8, 5), grids: int = 4):
        rng = random.Random(seed)
        self.shape = shape
        self.grids = [[(lo + 0.02 * rng.uniform(-1, 1), hi + 0.02 * rng.uniform(-1, 1))
                       for lo, hi in self.ENDS] for _ in range(grids)]
        self.points = math.prod(shape)
        self._next = 0

    def argv(self, k: int) -> list[str]:
        argv = ["sweep"]
        for flag, (lo, hi), n in zip(self.FLAGS, self.grids[k], self.shape):
            argv += [flag, f"{lo!r}:{hi!r}:{n}"]
        return argv

    def run_round(self) -> Round:
        k = self._next
        self._next = (k + 1) % len(self.grids)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(self.argv(k))
        if code != 0:
            return Round(self.points, self.points)
        return Round(self.points, 0, [(k, buf.getvalue())])

    def _points(self, k: int):
        axes = [[lo + (hi - lo) * i / (n - 1) for i in range(n)]
                for (lo, hi), n in zip(self.grids[k], self.shape)]
        return [(a, g, s) for a in axes[0] for g in axes[1] for s in axes[2]]

    def check(self, outputs) -> list[str]:
        first, differ = _first_by_key(outputs)
        errors = [f"grid {k}: sweep output differs between rounds" for k in differ]
        for k, text in sorted(first.items()):
            errors += self._check_grid(k, text)
        return errors

    def _check_grid(self, k: int, text: str) -> list[str]:
        errors = []
        lines = text.splitlines()
        if lines[0] != "alpha,gamma,sigma,regime,c,ell":
            errors.append(f"unexpected CSV header {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
        expected = self._points(k)
        if len(rows) != len(expected):
            return errors + [f"grid {k}: {len(rows)} rows for {len(expected)} points"]
        for row, point in zip(rows, expected):
            a, g, s = (float(v) for v in row[:3])
            if not all(math.isclose(v, w, rel_tol=1e-12) for v, w in zip((a, g, s), point)):
                errors.append(f"row {row[:3]} where {point} expected")
                continue
            tag, c, ell = row[3], row[4], row[5]
            want = reference.regime(a, g, s)
            if tag != want:
                errors.append(f"({a}, {g}, {s}): regime {tag}, inequalities give {want}")
            elif tag == "front":
                c_ref = reference.front_speed(a, g, s)
                if ell or abs(float(c) - c_ref) > FRONT_RTOL * c_ref:
                    errors.append(f"({a}, {g}, {s}): front c={c}, root {c_ref!r}")
            elif tag == "pulse":
                j, dj = reference.interval_energy_check(float(ell), float(c), a, g, s)
                if not (abs(j) <= J_TOL and abs(dj) <= DJ_TOL):
                    errors.append(f"({a}, {g}, {s}): pulse c={c} ell={ell} "
                                  f"gives J={j:.3g}, dJ/dell={dj:.3g}")
            elif c or ell:
                errors.append(f"({a}, {g}, {s}): speed reported in neither regime")
        return errors

    def record(self, outputs) -> dict:
        first, _ = _first_by_key(outputs)
        return {"grids": {str(k): [[g12(float(v)) for v in row[:3]] + [row[3]]
                                   + [g12(float(v)) if v else "" for v in row[4:]]
                                   for row in (line.split(",")
                                               for line in text.splitlines()[1:])]
                          for k, text in sorted(first.items())}}

    def layer_counts(self, outputs) -> dict:
        return {}


class UnionEnergy:
    """``sharp_interface_energy`` of seeded unions of 2-4 disjoint intervals.

    Endpoints are uniform in [-6, 2] with every gap and width at least 0.05
    (ten grid cells of the solve), speeds uniform in [0.2, 5], parameters
    (2, 1, 1).  A round is a batch of 1,000 consecutive unions; rounds
    cycle through the set.
    """

    name = "union_energy"

    def __init__(self, seed: int, count: int = 20000, batch: int = 1000):
        rng = random.Random(seed)
        self.params = fhn_gamma.Params(*PULSE)
        self.inputs = []
        for _ in range(count):
            m = rng.randint(2, 4)
            while True:
                ends = sorted(rng.uniform(-6.0, 2.0) for _ in range(2 * m))
                if min(b - a for a, b in zip(ends, ends[1:])) >= 0.05:
                    break
            pairs = tuple((ends[2 * i], ends[2 * i + 1]) for i in reversed(range(m)))
            self.inputs.append((fhn_gamma.IntervalUnion(pairs), rng.uniform(0.2, 5.0)))
        self.batch = batch
        self._next = 0

    def run_round(self) -> Round:
        start = self._next
        self._next = (start + self.batch) % len(self.inputs)
        out = Round(self.batch, 0)
        for k in range(start, start + self.batch):
            index = k % len(self.inputs)
            union, c = self.inputs[index]
            try:
                e = limit_energy.sharp_interface_energy(union, c, self.params)
            except PROGRAM_ERRORS:
                out.failed += 1
                continue
            out.outputs.append((index, e.perimeter_term, e.area_term, e.nonlocal_term))
        return out

    def check(self, outputs) -> list[str]:
        first, differ = _first_by_key((index, tuple(values)) for index, *values in outputs)
        errors = [f"union {index}: repeated evaluation differs" for index in differ]
        h = 0.005  # fd_resolution of sharp_interface_energy
        p = self.params
        worst_rel = worst_share = 0.0
        for index, (perimeter, area, nonlocal_term) in sorted(first.items()):
            union, c = self.inputs[index]
            ref = reference.union_energy(union.intervals, c, p.alpha, p.gamma, p.sigma)
            for key, got in (("perimeter", perimeter), ("area", area)):
                if abs(got - ref[key]) > EXACT_RTOL * abs(ref[key]):
                    errors.append(f"union {index}: {key} {got!r}, exact {ref[key]!r}")
            # sampling the indicator at the nodes moves each endpoint to the
            # middle of its cell, at most h/2 away: first order in h, with
            # (1 + h r) for the second-order term of that move and
            # (h r)^2 |N| for the solve's own second-order error
            hr = _cell_rate(h, c, p.gamma)
            bound = (0.5 * h * ref["endpoint_sensitivity"] * (1.0 + hr)
                     + hr * hr * abs(ref["nonlocal"]))
            err = abs(nonlocal_term - ref["nonlocal"])
            worst_rel = max(worst_rel, err / abs(ref["nonlocal"]))
            worst_share = max(worst_share, err / bound)
            if err > bound:
                errors.append(f"union {index}: nonlocal {nonlocal_term!r}, "
                              f"Green's function {ref['nonlocal']!r}, bound {bound:.3g}")
        self.check_stats = {"nonlocal_max_relative_error": worst_rel,
                            "nonlocal_max_share_of_bound": worst_share}
        return errors

    def record(self, outputs) -> dict:
        first, _ = _first_by_key((index, values) for index, *values in outputs)
        return {"energies": {str(i): [g12(v) for v in values]
                             for i, values in sorted(first.items())}}

    def layer_counts(self, outputs) -> dict:
        return {}


def _limit_inputs():
    """Pulse and front limit speeds and sets: the inputs of the finite-width
    workloads, computed once at set-up."""
    pulse = wave_speeds.pulse_speed(fhn_gamma.Params(*PULSE))
    front = wave_speeds.front_speed(fhn_gamma.Params(*FRONT))
    return {
        "pulse": (PULSE, pulse.c_p, fhn_gamma.IntervalUnion.single(pulse.a, pulse.b)),
        "front": (FRONT, front.c_f, fhn_gamma.IntervalUnion.single(-math.inf, 0.0)),
    }


def _check_limit_inputs(cases) -> list[str]:
    errors = []
    (a, g, s), c, e = cases["pulse"]
    ell = e.intervals[0][1] - e.intervals[0][0]
    j, dj = reference.interval_energy_check(ell, c, a, g, s)
    if not (abs(j) <= J_TOL and abs(dj) <= DJ_TOL):
        errors.append(f"pulse input c={c!r} gives J={j:.3g}, dJ/dell={dj:.3g}")
    (a, g, s), c, _ = cases["front"]
    c_ref = reference.front_speed(a, g, s)
    if abs(c - c_ref) > FRONT_RTOL * c_ref:
        errors.append(f"front input c={c!r}, root {c_ref!r}")
    return errors


def _check_profile(label, x, w, value, start, c, params, epsilon) -> list[str]:
    """Unit norm, box, and energy against the Green's-function recomputation
    (and against the start profile's energy when ``start`` is given)."""
    a, g, s = params
    errors = []
    norm = reference.weighted_l2_norm(x, w)
    if abs(norm - 1.0) > NORM_TOL:
        errors.append(f"{label}: weighted L2 norm {norm!r}")
    lo, hi = reference.box(a, epsilon, g)
    if w.min() < lo - 1e-12 or w.max() > hi + 1e-12:
        errors.append(f"{label}: profile leaves the box [{lo}, {hi}]")
    ref = reference.finite_width_energy(x, w, c, a, g, s, epsilon)
    tol = _cell_rate(x[1] - x[0], c, g) ** 2 * abs(ref["nonlocal"]) + 1e-12
    if abs(value - ref["total"]) > tol:
        errors.append(f"{label}: energy {value!r}, Green's-function "
                      f"recomputation {ref['total']!r}, tolerance {tol:.3g}")
    if start is not None:
        e0 = reference.finite_width_energy(x, start, c, a, g, s, epsilon)["total"]
        if ref["total"] > e0:
            errors.append(f"{label}: energy {ref['total']!r} above its start {e0!r}")
    return errors


class FiniteWidth:
    """Fixed-speed minimizations at EPSILON, done the way ``fhn-gamma
    minimize`` does them: recovery profile, energy, solve to MIN_TOL.  A
    round is the pulse at c_p and the front at c_f.  The inputs are the
    paper's two parameter points; the seed does not change them."""

    name = "finite_width"

    def __init__(self, seed: int, epsilon: float = EPSILON):
        self.epsilon = epsilon
        self.cases = _limit_inputs()

    def minimize(self, key):
        (a, g, s), c, e = self.cases[key]
        p = fhn_gamma.Params(a, g, s, self.epsilon)
        grid = epsilon_solver.solver_grid(e, self.epsilon)
        init = epsilon_solver.build_recovery(e, p, grid)
        engine = epsilon_solver.DiscreteEnergy(grid, c, p)
        res = epsilon_solver.minimize_energy(engine, init.w.values, tol=MIN_TOL)
        return grid, init.w.values, res

    def run_round(self) -> Round:
        out = Round(2, 0)
        for key in ("pulse", "front"):
            try:
                grid, start, res = self.minimize(key)
            except PROGRAM_ERRORS:
                out.failed += 1
                continue
            if not res.converged:
                out.failed += 1
                continue
            out.outputs.append((key, grid, start, res))
        return out

    def check(self, outputs) -> list[str]:
        errors = _check_limit_inputs(self.cases)
        _, differ = _first_by_key((key, (res.value, res.iterations))
                                  for key, _g, _s, res in outputs)
        errors += [f"{key}: minimization differs between rounds" for key in differ]
        for key, grid, start, res in outputs:
            if res.grad_norm >= MIN_TOL:
                errors.append(f"{key}: grad_norm {res.grad_norm!r} reported as converged")
            params, c, _ = self.cases[key]
            errors += _check_profile(key, grid.x, res.profile.values, res.value,
                                     start, c, params, self.epsilon)
        return errors

    def record(self, outputs) -> dict:
        first = {}
        for key, _grid, _start, res in outputs:
            first.setdefault(key, res)
        return {key: {"value": g12(res.value), "iterations": res.iterations,
                      "grad_norm": g12(res.grad_norm), "c": g12(self.cases[key][1])}
                for key, res in first.items()}

    def layer_counts(self, outputs) -> dict:
        counts = {"iterations": sum(res.iterations for *_, res in outputs)}
        for key, *_, res in outputs:
            counts[f"minimize_iterations_{key}"] = res.iterations
        return counts


class FiniteWidthSpeed:
    """``speed_eps`` for the pulse at EPSILON on [c_p/1.1, 1.1 c_p] with
    SPEED_MAX_ITER iterations per minimization: a fixed amount of solver
    work per round.  The front is left out because its minimum energy does
    not change sign on any bracket at this width."""

    name = "finite_width_speed"

    def __init__(self, seed: int, epsilon: float = EPSILON):
        self.epsilon = epsilon
        self.cases = _limit_inputs()

    def run_round(self) -> Round:
        (a, g, s), c_p, e = self.cases["pulse"]
        p = fhn_gamma.Params(a, g, s, self.epsilon)
        try:
            grid = epsilon_solver.solver_grid(e, self.epsilon)
            init = epsilon_solver.build_recovery(e, p, grid)
            res = epsilon_solver.speed_eps(p, c_p / SPEED_BRACKET, c_p * SPEED_BRACKET,
                                           grid, init.w.values, max_iter=SPEED_MAX_ITER)
        except PROGRAM_ERRORS:
            return Round(1, 1)
        return Round(1, 0, [(grid, res)])

    def check(self, outputs) -> list[str]:
        errors = _check_limit_inputs(self.cases)
        (a, g, s), c_p, _ = self.cases["pulse"]
        lo, hi = c_p / SPEED_BRACKET, c_p * SPEED_BRACKET
        _, differ = _first_by_key((0, (res.c_eps, res.value, res.iterations))
                                  for _g, res in outputs)
        errors += ["speed solve differs between rounds" for _ in differ]
        for grid, res in outputs:
            if not lo <= res.c_eps <= hi:
                errors.append(f"c_eps {res.c_eps!r} outside the bracket [{lo}, {hi}]")
            if not abs(res.c_eps - c_p) / c_p < 0.1:
                errors.append(f"c_eps {res.c_eps!r} more than 10% from c_p {c_p!r}")
            errors += _check_profile("speed", grid.x, res.profile.values, res.value,
                                     None, res.c_eps, (a, g, s), self.epsilon)
        return errors

    def record(self, outputs) -> dict:
        _grid, res = outputs[0]
        return {"c_eps": g12(res.c_eps), "value": g12(res.value),
                "iterations": res.iterations, "converged": res.converged,
                "c_p": g12(self.cases["pulse"][1])}

    def layer_counts(self, outputs) -> dict:
        return {"iterations": sum(res.iterations for _g, res in outputs),
                "speed_eps_iterations": outputs[0][1].iterations if outputs else 0}


WORKLOADS = {w.name: w for w in (LimitSweep, UnionEnergy, FiniteWidth, FiniteWidthSpeed)}
