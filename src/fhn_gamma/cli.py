"""Command-line front end.

Subcommands cover the limit-level solvers (classify, front-speed,
pulse-speed, limit-energy, lc-apply), the finite-width solvers (recovery,
minimize, speed-eps, study) and a cartesian parameter sweep.  Parameters
come from flags or a config file (key=value lines or a JSON object); flags
win.  Unknown config keys are rejected.  lc-apply takes --gamma alone of
the physical parameters: the inhibitor operator depends on c and gamma
only.  recovery and minimize start from --set, else from the regime's limit
set; minimize and speed-eps print a JSON summary and write their final
profile CSV to --output.  A value with a library default (an iteration cap,
a tolerance) takes that default from the library.

Exit codes: 0 success, 2 invalid parameters (a speed-eps bracket that is
not 0 < c_lo < c_hi < inf among them, refused before any grid is built) or
wrong regime, 3 solver non-convergence (minimize, speed-eps, and study once
any row is flagged maxiter), a speed root outside its bracket, or no wave
of positive speed (named as m_eps(0) <= 0), 4 I/O failure.
Tables are written row by row as they are solved, in memory that does not
grow with their length but for the columns that --svg plots after the last
row: a failure at the first row writes nothing, a later one leaves the rows
before it and sets the exit code (study --eps-list 0.04,1e-310 writes the
0.04 row, then exits 2), and a closed stdout exits 4.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import os
import sys
from functools import partial

from . import svg
from .epsilon_solver import (
    MINIMIZE_GRAD_TOL,
    MINIMIZE_MAX_ITER,
    SPEED_MAX_ITER,
    STUDY_COLUMNS,
    DiscreteEnergy,
    _speed_bracket,
    build_recovery,
    convergence_study,
    minimize_energy,
    solver_grid,
    speed_eps,
)
from .errors import (
    BracketError,
    GridError,
    InvalidParameterError,
    NonConvergenceError,
)
from .limit_energy import interval_energy
from .model import Params, classify
from .nonlocal_operator import InhibitorOperator, char_roots
from .wave_speeds import front_speed, limit_speed, pulse_speed
from .weighted_space import IntervalUnion, SampledFunction

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NONCONVERGENCE = 3
EXIT_IO = 4


def _parse_range(text: str) -> tuple[float, float, int]:
    """Parse 'lo:hi:n' into a range triple.  A range of n > 1 points whose
    (hi - lo)(n - 1) is not a finite float raises ``InvalidParameterError``:
    the points lo + (hi - lo) i / (n - 1) would overflow."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidParameterError(f"expected lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise InvalidParameterError(f"expected numbers in lo:hi:n, got {text!r}") from None
    if n < 1 or (n > 1 and not lo < hi):
        raise InvalidParameterError(f"bad range {text!r}")
    if n > 1:  # a single point is lo alone, whatever hi is
        try:
            span = (hi - lo) * (n - 1)
        except OverflowError:  # n - 1 beyond the float range
            span = math.inf
        if not math.isfinite(span):
            raise InvalidParameterError(f"range {text!r} overflows a float")
    return lo, hi, n


def _range_values(lo: float, hi: float, n: int):
    """The points of a parsed range, one at a time; one point is lo."""
    return (lo + (hi - lo) * i / (n - 1) if n > 1 else lo for i in range(n))


def _parse_eps_list(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise InvalidParameterError(f"expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise InvalidParameterError(f"expected at least one width, got {text!r}")
    return values


def load_config(path: str) -> dict:
    """Read a config file: a JSON object, or key=value lines with '#'
    comments.  Content that is not UTF-8 text, or malformed JSON, raises
    ``InvalidParameterError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(f"{path}: config is not UTF-8: {exc}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except ValueError as exc:  # a JSONDecodeError, or an int past 4,300 digits
            raise InvalidParameterError(f"{path}: config is not JSON: {exc}") from None
        if not isinstance(data, dict):
            raise InvalidParameterError(f"{path}: config JSON must be an object")
        return {str(k): v for k, v in data.items()}
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameterError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


#: default of an option without one: the command fails unless it is given
_REQUIRED = object()

#: option tables: flag name -> (type, default or _REQUIRED, help)
_PARAM_OPTS = {
    "alpha": (float, _REQUIRED, "driving force toward the excited state"),
    "gamma": (float, _REQUIRED, "inhibitor decay rate"),
    "sigma": (float, _REQUIRED, "inhibition strength"),
}
_EPS_OPT = {"epsilon": (float, _REQUIRED, "interface width")}
_OUT_OPT = {"output": (str, None, "output file (default: stdout)")}
_SVG_OPT = {"svg": (str, None, "also write a line plot to this SVG file")}
_SET_OPT = {"set": (str, None, "set as JSON (default: the regime's limit set)")}
_PROFILE_OPT = {"output": (str, None, "final profile CSV (default: not written)")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fhn-gamma",
        description="Traveling-wave speeds and profiles of the "
        "activator-inhibitor system and its sharp-interface limit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, opts) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=argparse.SUPPRESS,
                        help="config file (key=value lines or JSON)")
        for key, (typ, _default, help_text) in opts.items():
            sp.add_argument(f"--{key.replace('_', '-')}", type=typ,
                            default=argparse.SUPPRESS, help=help_text,
                            dest=key)
    return parser


def _config_value(typ, value):
    """``typ(value)`` for a config value, refusing what would only convert:
    a boolean, or a non-integral number for an int option."""
    if isinstance(value, bool) or (
            typ is int and isinstance(value, float) and not value.is_integer()):
        raise ValueError(value)
    return typ(value)


def resolve_options(args: argparse.Namespace) -> dict:
    """Merge defaults, config file and explicit flags, in that order."""
    opts_spec = _COMMANDS[args.command][1]
    merged = {key: default for key, (_t, default, _h) in opts_spec.items()}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        config = load_config(config_path)
        for key, value in config.items():
            key = key.replace("-", "_")
            if key not in opts_spec:
                raise InvalidParameterError(
                    f"unknown config key {key!r} for {args.command}"
                )
            try:
                merged[key] = _config_value(opts_spec[key][0], value)
            except (TypeError, ValueError, OverflowError):
                raise InvalidParameterError(
                    f"config key {key!r}: cannot parse {value!r}"
                ) from None
    for key in opts_spec:
        if hasattr(args, key):
            merged[key] = getattr(args, key)
    for key, value in merged.items():
        if value is _REQUIRED:
            raise InvalidParameterError(
                f"{args.command}: --{key.replace('_', '-')} is required"
            )
    return merged


def _params(opts: dict) -> Params:
    return Params(opts["alpha"], opts["gamma"], opts["sigma"],
                  opts.get("epsilon", 0.0))


def _open_output(path):
    """stdout, left open on exit, or the file at ``path``."""
    return (contextlib.nullcontext(sys.stdout) if path is None
            else open(path, "w", encoding="utf-8", newline=""))


def _emit_csv(header, rows, path, svg_path=None, series=(), **labels) -> None:
    """Write a CSV table with ``repr`` floats to ``path`` (stdout when
    None), each row as ``rows`` yields it, and then, given ``svg_path``, a
    line plot with ``svg.line_plot``'s ``labels``: one line per (label, i,
    j) in ``series``, through column j of the rows against column i.  Only
    those columns are kept.  With ``series``, a row's columns past the
    header are plotted but not written.  The destination is opened once the
    first row exists, so an input that the first row refuses leaves an
    existing file as it was."""
    width = len(header)
    columns = {k: [] for _, *ks in series for k in ks} if svg_path else {}

    def kept(rows):
        for row in rows:
            for k, column in columns.items():
                column.append(row[k])
            yield row[:width]

    rows = iter(kept(rows) if series else rows)
    first = list(itertools.islice(rows, 1))
    with _open_output(path) as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [repr(float(v)) if isinstance(v, float) else v for v in row]
            for row in itertools.chain([header], first, rows))
    if svg_path:
        svg.line_plot(svg_path, [(label, columns[i], columns[j])
                                 for label, i, j in series], **labels)


def _cmd_classify(opts):
    regime = classify(_params(opts))
    print(json.dumps({"regime": regime.tag.value, "strict": regime.strict}))
    return EXIT_OK


def _cmd_speed(solver, opts):
    result = solver(_params(opts))
    with _open_output(opts["output"]) as fh:
        fh.write(json.dumps(result.to_dict(), indent=2) + "\n")
    return EXIT_OK


def _cmd_limit_energy(opts):
    p = _params(opts)
    c = opts["c"]
    ells = _range_values(*_parse_range(opts["ell_grid"]))
    roots = char_roots(c, p.gamma)
    rows = ((ell, *interval_energy(ell, roots, p)) for ell in ells)
    _emit_csv(("ell", "J", "dJ_dl", "dJ_dl2", "dJ_dc"), rows, opts["output"],
              opts["svg"], [("energy", 0, 1)], title=f"interval energy at c={c}",
              xlabel="width", ylabel="energy")
    return EXIT_OK


def _cmd_lc_apply(opts):
    f = SampledFunction.from_csv(opts["input"])
    v = InhibitorOperator(f.grid, opts["c"], opts["gamma"]).solve(f.values)
    # the input, column 2, is plotted and not written
    _emit_csv(("x", "value"), zip(f.grid.x, v, f.values), opts["output"],
              opts["svg"], [("input", 0, 2), ("response", 0, 1)],
              title=f"inhibitor response at c={opts['c']}",
              xlabel="x", ylabel="value")
    return EXIT_OK


def _start_set(opts, p: Params) -> IntervalUnion:
    """The --set union, else the regime's limit set (RegimeError in neither)."""
    return (IntervalUnion.from_json(opts["set"]) if opts["set"]
            else limit_speed(p).limit_set)


def _cmd_recovery(opts):
    p = _params(opts)
    e = _start_set(opts, p)
    grid = solver_grid(e, p.epsilon)
    profile = build_recovery(e, p, grid)
    _emit_csv(("x", "value"), zip(grid.x, profile.w.values), opts["output"],
              opts["svg"], [("profile", 0, 1)],
              title=f"recovery profile, eps={p.epsilon}", xlabel="x", ylabel="w")
    return EXIT_OK


def _cmd_minimize(opts):
    p = _params(opts)
    e = _start_set(opts, p)
    grid = solver_grid(e, p.epsilon)
    # first: it refuses a grid too long to solve on before a recovery is built
    engine = DiscreteEnergy(grid, opts["c"], p)
    init = build_recovery(e, p, grid)
    result = minimize_energy(engine, init.w.values,
                             tol=opts["tol"], max_iter=opts["max_iter"])
    summary = {
        "value": result.value,
        "iterations": result.iterations,
        "converged": result.converged,
        "grad_norm": result.grad_norm,
        "multiplier": result.multiplier,
        "parts": {
            "gradient": result.report.gradient,
            "potential": result.report.potential,
            "tilt": result.report.tilt,
            "nonlocal": result.report.nonlocal_term,
        },
    }
    print(json.dumps(summary, indent=2))
    if opts["output"] or opts["svg"]:
        # stdout holds the summary: the profile goes to --output or nowhere
        _emit_csv(("x", "value"), zip(grid.x, result.profile.values),
                  opts["output"] or os.devnull, opts["svg"], [("minimizer", 0, 1)],
                  title=f"minimizer, eps={p.epsilon}, c={opts['c']}",
                  xlabel="x", ylabel="w")
    return EXIT_OK if result.converged else EXIT_NONCONVERGENCE


def _cmd_speed_eps(opts):
    p = _params(opts)
    limit = limit_speed(p)
    # refused here, before the solver grid and the recovery are built
    c_lo, c_hi, c_limit = _speed_bracket(opts["c_lo"], opts["c_hi"], limit)
    e = limit.limit_set
    grid = solver_grid(e, p.epsilon)
    init = build_recovery(e, p, grid)
    result = speed_eps(p, c_lo, c_hi, grid, init.w.values,
                       max_iter=opts["max_iter"])
    summary = {
        "c_eps": result.c_eps,
        "value": result.value,
        "newton_steps": result.iterations,
        "fallback_minimizations": result.minimizations,
        "converged": result.converged,
        "c_limit": c_limit,
    }
    print(json.dumps(summary, indent=2))
    if opts["output"]:
        _emit_csv(("x", "value"), zip(grid.x, result.profile.values), opts["output"])
    return EXIT_OK if result.converged else EXIT_NONCONVERGENCE


def _cmd_study(opts):
    rows = convergence_study(_parse_eps_list(opts["eps_list"]), _params(opts),
                             max_iter=opts["max_iter"])
    flags = set()

    def table():
        for row in rows:
            flags.add(row["flag"])
            yield [row[k] for k in STUDY_COLUMNS]

    # columns 0, 2 and 3: eps, err_c and err_u_l2e
    _emit_csv(STUDY_COLUMNS, table(), opts["output"], opts["svg"],
              [("speed error", 0, 2), ("profile error", 0, 3)],
              title="convergence to the sharp-interface limit",
              xlabel="eps", ylabel="error")
    return EXIT_NONCONVERGENCE if "maxiter" in flags else EXIT_OK


def _sweep_point(alpha, gamma, sigma):
    p = Params(alpha, gamma, sigma)
    regime = classify(p)
    c = ell = ""
    if regime.is_front:
        c = front_speed(p).c_f
    elif regime.is_pulse:
        result = pulse_speed(p)
        c, ell = result.c_p, result.ell_p
    return (alpha, gamma, sigma, regime.tag.value, c, ell)


def _cmd_sweep(opts):
    alphas, gammas, sigmas = (_parse_range(opts[f"{axis}_range"])
                              for axis in ("alpha", "gamma", "sigma"))
    rows = (_sweep_point(alpha, gamma, sigma)
            for alpha in _range_values(*alphas)
            for gamma in _range_values(*gammas)
            for sigma in _range_values(*sigmas))
    _emit_csv(("alpha", "gamma", "sigma", "regime", "c", "ell"), rows, opts["output"])
    return EXIT_OK


#: subcommand -> (handler, option table)
_COMMANDS: dict[str, tuple] = {
    "classify": (_cmd_classify, {**_PARAM_OPTS}),
    "front-speed": (partial(_cmd_speed, front_speed), {**_PARAM_OPTS, **_OUT_OPT}),
    "pulse-speed": (partial(_cmd_speed, pulse_speed), {**_PARAM_OPTS, **_OUT_OPT}),
    "limit-energy": (_cmd_limit_energy, {
        **_PARAM_OPTS, **_OUT_OPT, **_SVG_OPT,
        "c": (float, _REQUIRED, "wave speed"),
        "ell_grid": (str, "0.1:10:200", "width grid as lo:hi:n"),
    }),
    "lc-apply": (_cmd_lc_apply, {
        "gamma": _PARAM_OPTS["gamma"], **_OUT_OPT, **_SVG_OPT,
        "c": (float, _REQUIRED, "wave speed"),
        "input": (str, _REQUIRED, "profile CSV (columns x,value)"),
    }),
    "recovery": (_cmd_recovery, {
        **_PARAM_OPTS, **_EPS_OPT, **_OUT_OPT, **_SVG_OPT, **_SET_OPT}),
    "minimize": (_cmd_minimize, {
        **_PARAM_OPTS, **_EPS_OPT, **_PROFILE_OPT, **_SVG_OPT, **_SET_OPT,
        "c": (float, _REQUIRED, "wave speed"),
        "max_iter": (int, MINIMIZE_MAX_ITER, "iteration cap"),
        "tol": (float, MINIMIZE_GRAD_TOL, "projected-gradient tolerance"),
    }),
    "speed-eps": (_cmd_speed_eps, {
        **_PARAM_OPTS, **_EPS_OPT, **_PROFILE_OPT,
        "c_lo": (float, None, "bracket lower end (default: half limit speed)"),
        "c_hi": (float, None, "bracket upper end (default: twice limit speed)"),
        "max_iter": (int, SPEED_MAX_ITER,
                     "cap on Newton steps, and on each fallback minimization"),
    }),
    "study": (_cmd_study, {
        **_PARAM_OPTS, **_OUT_OPT, **_SVG_OPT,
        "eps_list": (str, "0.04,0.02,0.01", "comma-separated widths"),
        "max_iter": (int, SPEED_MAX_ITER,
                     "cap on Newton steps, and on each fallback minimization"),
    }),
    "sweep": (_cmd_sweep, {
        **_OUT_OPT,
        "alpha_range": (str, _REQUIRED, "alpha values as lo:hi:n"),
        "gamma_range": (str, "1:1:1", "gamma values as lo:hi:n"),
        "sigma_range": (str, "1:1:1", "sigma values as lo:hi:n"),
    }),
}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = resolve_options(args)
        return _COMMANDS[args.command][0](opts)
    except (InvalidParameterError, GridError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (NonConvergenceError, BracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
