"""Command-line front end.

Subcommands cover the limit-level solvers (classify, front-speed,
pulse-speed, limit-energy, lc-apply), the finite-width solvers (recovery,
minimize, speed-eps, study) and a cartesian parameter sweep.  Parameters
come from flags or a config file (key=value lines or a JSON object); flags
win.  Unknown config keys are rejected.

Exit codes: 0 success, 2 invalid parameters or wrong regime, 3 solver
non-convergence, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import svg
from .epsilon_solver import (
    STUDY_COLUMNS,
    DiscreteEnergy,
    build_recovery,
    convergence_study,
    minimize_energy,
    recovery_profile,
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
from .nonlocal_operator import lc_solve_fd
from .wave_speeds import front_speed, limit_speed, pulse_speed
from .weighted_space import IntervalUnion, SampledFunction

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NONCONVERGENCE = 3
EXIT_IO = 4


def _parse_range(text: str) -> tuple[float, float, int]:
    """Parse 'lo:hi:n' into a range triple."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidParameterError(f"expected lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise InvalidParameterError(f"expected numbers in lo:hi:n, got {text!r}") from None
    if n < 1 or (n > 1 and not lo < hi):
        raise InvalidParameterError(f"bad range {text!r}")
    return lo, hi, n


def _range_values(text: str) -> list[float]:
    lo, hi, n = _parse_range(text)
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _parse_set(text: str) -> IntervalUnion:
    return IntervalUnion.from_json(text)


def _parse_eps_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise InvalidParameterError(f"expected comma-separated numbers, got {text!r}") from None


def load_config(path: str) -> dict:
    """Read a config file: a JSON object, or key=value lines with '#'
    comments."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        data = json.loads(text)
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


#: per-subcommand option tables: flag name -> (type, default, help)
_PARAM_OPTS = {
    "alpha": (float, None, "driving force toward the excited state"),
    "gamma": (float, None, "inhibitor decay rate"),
    "sigma": (float, None, "inhibition strength"),
}
_EPS_OPT = {"epsilon": (float, None, "interface width")}
_OUT_OPT = {"output": (str, None, "output file (default: stdout)")}
_SVG_OPT = {"svg": (str, None, "also write a line plot to this SVG file")}

_COMMANDS: dict[str, dict] = {
    "classify": {**_PARAM_OPTS},
    "front-speed": {**_PARAM_OPTS, **_OUT_OPT},
    "pulse-speed": {**_PARAM_OPTS, **_OUT_OPT},
    "limit-energy": {
        **_PARAM_OPTS, **_OUT_OPT, **_SVG_OPT,
        "c": (float, None, "wave speed"),
        "ell_grid": (str, "0.1:10:200", "width grid as lo:hi:n"),
    },
    "lc-apply": {
        **_PARAM_OPTS, **_OUT_OPT, **_SVG_OPT,
        "c": (float, None, "wave speed"),
        "input": (str, None, "profile CSV (columns x,value)"),
    },
    "recovery": {
        **_PARAM_OPTS, **_EPS_OPT, **_OUT_OPT, **_SVG_OPT,
        "set": (str, '[["-inf", 0.0]]', "interval union as JSON"),
    },
    "minimize": {
        **_PARAM_OPTS, **_EPS_OPT, **_OUT_OPT, **_SVG_OPT,
        "c": (float, None, "wave speed"),
        "set": (str, None, "initial set as JSON (default: regime limit set)"),
        "max_iter": (int, 10000, "iteration cap"),
        "tol": (float, 1e-6, "projected-gradient tolerance"),
    },
    "speed-eps": {
        **_PARAM_OPTS, **_EPS_OPT, **_OUT_OPT,
        "c_lo": (float, None, "bracket lower end (default: half limit speed)"),
        "c_hi": (float, None, "bracket upper end (default: twice limit speed)"),
        "max_iter": (int, 1500, "iteration cap per minimization"),
        "profile_output": (str, None, "write the final profile CSV here"),
    },
    "study": {
        **_PARAM_OPTS, **_OUT_OPT, **_SVG_OPT,
        "eps_list": (str, "0.04,0.02,0.01", "comma-separated widths"),
        "max_iter": (int, 1500, "iteration cap per minimization"),
    },
    "sweep": {
        **_OUT_OPT,
        "alpha_range": (str, None, "alpha values as lo:hi:n"),
        "gamma_range": (str, "1:1:1", "gamma values as lo:hi:n"),
        "sigma_range": (str, "1:1:1", "sigma values as lo:hi:n"),
    },
}

_REQUIRED = {
    "limit-energy": ("c",),
    "lc-apply": ("c", "input"),
    "recovery": ("epsilon",),
    "minimize": ("c", "epsilon"),
    "speed-eps": ("epsilon",),
    "sweep": ("alpha_range",),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fhn-gamma",
        description="Traveling-wave speeds and profiles of the "
        "activator-inhibitor system and its sharp-interface limit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, opts in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=argparse.SUPPRESS,
                        help="config file (key=value lines or JSON)")
        for key, (typ, _default, help_text) in opts.items():
            sp.add_argument(f"--{key.replace('_', '-')}", type=typ,
                            default=argparse.SUPPRESS, help=help_text,
                            dest=key)
    return parser


def resolve_options(args: argparse.Namespace) -> dict:
    """Merge defaults, config file and explicit flags, in that order."""
    opts_spec = _COMMANDS[args.command]
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
            typ = opts_spec[key][0]
            try:
                merged[key] = typ(value)
            except ValueError:
                raise InvalidParameterError(
                    f"config key {key!r}: cannot parse {value!r}"
                ) from None
    for key in opts_spec:
        if hasattr(args, key):
            merged[key] = getattr(args, key)
    for key in _REQUIRED.get(args.command, ()):
        if merged.get(key) is None:
            raise InvalidParameterError(
                f"{args.command}: --{key.replace('_', '-')} is required"
            )
    return merged


def _params(opts: dict, with_eps: bool = False) -> Params:
    for key in ("alpha", "gamma", "sigma"):
        if opts.get(key) is None:
            raise InvalidParameterError(f"--{key} is required")
    eps = opts.get("epsilon") if with_eps else None
    return Params(opts["alpha"], opts["gamma"], opts["sigma"],
                  0.0 if eps is None else eps)


def _emit_text(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else v
                         for v in row])
    return buf.getvalue()


def _limit_set(p: Params) -> IntervalUnion:
    result = limit_speed(p).to_dict()
    if result["regime"] == "front":
        return IntervalUnion.single(-math.inf, 0.0)
    return IntervalUnion.single(result["a"], result["b"])


def _cmd_classify(opts):
    regime = classify(_params(opts))
    print(json.dumps({"regime": regime.tag.value, "strict": regime.strict}))
    return EXIT_OK


def _cmd_front_speed(opts):
    result = front_speed(_params(opts))
    _emit_text(json.dumps(result.to_dict(), indent=2) + "\n", opts["output"])
    return EXIT_OK


def _cmd_pulse_speed(opts):
    result = pulse_speed(_params(opts))
    _emit_text(json.dumps(result.to_dict(), indent=2) + "\n", opts["output"])
    return EXIT_OK


def _cmd_limit_energy(opts):
    p = _params(opts)
    c = opts["c"]
    ells = _range_values(opts["ell_grid"])
    rows = []
    for ell in ells:
        je = interval_energy(ell, c, p)
        rows.append((ell, je.value, je.d_width, je.d_width2, je.d_speed))
    text = _csv_text(("ell", "J", "dJ_dl", "dJ_dl2", "dJ_dc"), rows)
    _emit_text(text, opts["output"])
    if opts["svg"]:
        svg.line_plot(
            opts["svg"],
            [("energy", [r[0] for r in rows], [r[1] for r in rows])],
            title=f"interval energy at c={c}",
            xlabel="width", ylabel="energy",
        )
    return EXIT_OK


def _cmd_lc_apply(opts):
    p = _params(opts)
    f = SampledFunction.from_csv(opts["input"])
    v = lc_solve_fd(f, opts["c"], p.gamma)
    text = _csv_text(("x", "value"), zip(v.grid.x, v.values))
    _emit_text(text, opts["output"])
    if opts["svg"]:
        svg.line_plot(
            opts["svg"],
            [("input", f.grid.x, f.values), ("response", v.grid.x, v.values)],
            title=f"inhibitor response at c={opts['c']}",
            xlabel="x", ylabel="value",
        )
    return EXIT_OK


def _cmd_recovery(opts):
    p = _params(opts, with_eps=True)
    e = _parse_set(opts["set"])
    grid = solver_grid(e, p.epsilon)
    profile = build_recovery(e, p, grid)
    text = _csv_text(("x", "value"), zip(grid.x, profile.w.values))
    _emit_text(text, opts["output"])
    if opts["svg"]:
        svg.line_plot(
            opts["svg"], [("profile", grid.x, profile.w.values)],
            title=f"recovery profile, eps={p.epsilon}",
            xlabel="x", ylabel="w",
        )
    return EXIT_OK


def _cmd_minimize(opts):
    p = _params(opts, with_eps=True)
    e = _parse_set(opts["set"]) if opts["set"] else _limit_set(p)
    grid = solver_grid(e, p.epsilon)
    init = build_recovery(e, p, grid)
    engine = DiscreteEnergy(grid, opts["c"], p)
    result = minimize_energy(engine, init.w.values,
                             tol=opts["tol"], max_iter=opts["max_iter"])
    summary = {
        "value": result.value,
        "iterations": result.iterations,
        "converged": result.converged,
        "grad_norm": result.grad_norm,
        "parts": {
            "gradient": result.report.gradient,
            "potential": result.report.potential,
            "tilt": result.report.tilt,
            "nonlocal": result.report.nonlocal_term,
        },
    }
    print(json.dumps(summary, indent=2))
    if opts["output"]:
        result.profile.to_csv(opts["output"])
    if opts["svg"]:
        svg.line_plot(
            opts["svg"], [("minimizer", grid.x, result.profile.values)],
            title=f"minimizer, eps={p.epsilon}, c={opts['c']}",
            xlabel="x", ylabel="w",
        )
    return EXIT_OK if result.converged else EXIT_NONCONVERGENCE


def _cmd_speed_eps(opts):
    p = _params(opts, with_eps=True)
    limit = limit_speed(Params(p.alpha, p.gamma, p.sigma)).to_dict()
    c_lo = opts["c_lo"] if opts["c_lo"] is not None else 0.5 * limit["c"]
    c_hi = opts["c_hi"] if opts["c_hi"] is not None else 2.0 * limit["c"]
    e = _limit_set(p)
    grid = solver_grid(e, p.epsilon)
    init = build_recovery(e, p, grid)
    result = speed_eps(p, c_lo, c_hi, grid, init.w.values,
                       max_iter=opts["max_iter"])
    summary = {
        "c_eps": result.c_eps,
        "value": result.value,
        "iterations": result.iterations,
        "converged": result.converged,
        "c_limit": limit["c"],
    }
    _emit_text(json.dumps(summary, indent=2) + "\n", opts["output"])
    if opts["profile_output"]:
        result.profile.to_csv(opts["profile_output"])
    return EXIT_OK if result.converged else EXIT_NONCONVERGENCE


def _cmd_study(opts):
    p = _params(opts)
    result = convergence_study(_parse_eps_list(opts["eps_list"]), p,
                               max_iter=opts["max_iter"])
    rows = [tuple(row[k] for k in STUDY_COLUMNS) for row in result.rows]
    text = _csv_text(STUDY_COLUMNS, rows)
    _emit_text(text, opts["output"])
    if opts["svg"]:
        eps = [row["eps"] for row in result.rows]
        svg.line_plot(
            opts["svg"],
            [
                ("speed error", eps, [row["err_c"] for row in result.rows]),
                ("profile error", eps,
                 [row["err_u_l2e"] for row in result.rows]),
            ],
            title="convergence to the sharp-interface limit",
            xlabel="eps", ylabel="error",
        )
    return EXIT_OK


def _sweep_point(task):
    alpha, gamma, sigma = task
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
    tasks = [
        (alpha, gamma, sigma)
        for alpha in _range_values(opts["alpha_range"])
        for gamma in _range_values(opts["gamma_range"])
        for sigma in _range_values(opts["sigma_range"])
    ]
    rows = map(_sweep_point, tasks)
    text = _csv_text(("alpha", "gamma", "sigma", "regime", "c", "ell"), rows)
    _emit_text(text, opts["output"])
    return EXIT_OK


_HANDLERS = {
    "classify": _cmd_classify,
    "front-speed": _cmd_front_speed,
    "pulse-speed": _cmd_pulse_speed,
    "limit-energy": _cmd_limit_energy,
    "lc-apply": _cmd_lc_apply,
    "recovery": _cmd_recovery,
    "minimize": _cmd_minimize,
    "speed-eps": _cmd_speed_eps,
    "study": _cmd_study,
    "sweep": _cmd_sweep,
}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = resolve_options(args)
        return _HANDLERS[args.command](opts)
    except (InvalidParameterError, GridError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (NonConvergenceError, BracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
