"""Per-layer metrics of a traced run.

Each metric is computed from the spans and counts the workload's rounds
left in the tracer.  A per-call time of a layer that the workload never
calls is taken instead from a short probe of that layer on fixed inputs,
run after the rounds, so that every traced run reports every metric with a
measured value; the result file says which metrics came from a probe.
Counts and ratios of a layer that the workload never calls are 0.
"""

from __future__ import annotations

import contextlib
import io
import statistics

import fhn_gamma
from fhn_gamma import cli, epsilon_solver, limit_energy, wave_speeds
from workloads import EPSILON, FRONT, PULSE

#: per-call time metrics: metric -> (span name, scale, unit, probe)
TIMES = {
    "wave_speeds.pulse_speed_ms": ("wave_speeds.pulse_speed", 1e3, "ms", "limit"),
    "wave_speeds.front_speed_us": ("wave_speeds.front_speed", 1e6, "us", "limit"),
    "model.classify_us": ("model.classify", 1e6, "us", "limit"),
    "limit_energy.sharp_interface_energy_us":
        ("limit_energy.sharp_interface_energy", 1e6, "us", "union"),
    "nonlocal_operator.operator_init_us":
        ("nonlocal_operator.InhibitorOperator.__init__", 1e6, "us", "union"),
    "nonlocal_operator.solve_us":
        ("nonlocal_operator.InhibitorOperator.solve", 1e6, "us", "union"),
    "weighted_space.indicator_us":
        ("weighted_space.IntervalUnion.indicator", 1e6, "us", "union"),
    "epsilon_solver.value_and_grad_ms":
        ("epsilon_solver.DiscreteEnergy.value_and_grad", 1e3, "ms", "energy"),
    "nonlocal_operator.solve_transpose_us":
        ("nonlocal_operator.InhibitorOperator.solve_transpose", 1e6, "us", "energy"),
    "epsilon_solver.project_us":
        ("epsilon_solver.DiscreteEnergy.project", 1e6, "us", "energy"),
    "epsilon_solver.preconditioner_us":
        ("epsilon_solver.DiscreteEnergy.preconditioner", 1e6, "us", "energy"),
    "epsilon_solver.report_ms":
        ("epsilon_solver.DiscreteEnergy.report", 1e3, "ms", "energy"),
}

#: counts and ratios: metric -> unit
COUNTS = {
    "limit_energy.width_condition_calls_per_pulse": "calls/pulse",
    "limit_energy.interval_energy_calls_per_pulse": "calls/pulse",
    "wave_speeds.optimal_width_calls_per_pulse": "calls/pulse",
    "cli.sweep_parallel_ratio": "ratio",
    "epsilon_solver.value_and_grad_calls_per_iteration": "calls/iter",
    "epsilon_solver.minimize_iterations_pulse": "count",
    "epsilon_solver.minimize_iterations_front": "count",
    "epsilon_solver.speed_eps_minimizations": "count",
    "epsilon_solver.speed_eps_iterations": "count",
    "nonlocal_operator.solves_per_energy_eval": "solves/eval",
}

#: per-point spans of the sweep; their CPU time is the sweep's busy time
_POINT_SPANS = ("model.classify", "wave_speeds.front_speed", "wave_speeds.pulse_speed")
_SOLVE_SPANS = ("nonlocal_operator.InhibitorOperator.solve",
                "nonlocal_operator.InhibitorOperator.solve_transpose")
_EVAL_SPANS = ("epsilon_solver.DiscreteEnergy.value_and_grad",
               "limit_energy.sharp_interface_energy")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def sweep_parallel_ratio(spans) -> float | None:
    """Median over sweeps of (summed thread CPU time of the per-point
    calls) / (wall time of the sweep).  Above 1 only when threads really
    compute at the same time."""
    ratios = []
    for sid, _p, _n, _t, t0, t1, _c in spans.get("cli.run", ()):
        busy = sum(s[6] for name in _POINT_SPANS for s in spans.get(name, ())
                   if s[1] in (0, sid) and t0 <= s[4] and s[5] <= t1)
        ratios.append(busy / (t1 - t0))
    return statistics.median(ratios) if ratios else None


def count_metrics(spans, calls, workload_counts: dict) -> dict:
    pulses = len(spans.get("wave_speeds.pulse_speed", ()))
    eval_ids = {s[0] for name in _EVAL_SPANS for s in spans.get(name, ())}
    solves = sum(1 for name in _SOLVE_SPANS for s in spans.get(name, ())
                 if s[1] in eval_ids)
    minimizations = len(spans.get("epsilon_solver.minimize_energy", ()))
    speed_solves = len(spans.get("epsilon_solver.speed_eps", ()))
    return {
        "limit_energy.width_condition_calls_per_pulse":
            _ratio(calls["limit_energy.width_condition"], pulses),
        "limit_energy.interval_energy_calls_per_pulse":
            _ratio(calls["limit_energy.interval_energy"], pulses),
        "wave_speeds.optimal_width_calls_per_pulse":
            _ratio(calls["wave_speeds.optimal_width"], pulses),
        "cli.sweep_parallel_ratio": sweep_parallel_ratio(spans),
        "epsilon_solver.value_and_grad_calls_per_iteration": _ratio(
            len(spans.get("epsilon_solver.DiscreteEnergy.value_and_grad", ())),
            workload_counts.get("iterations", 0)),
        "epsilon_solver.minimize_iterations_pulse":
            workload_counts.get("minimize_iterations_pulse", 0),
        "epsilon_solver.minimize_iterations_front":
            workload_counts.get("minimize_iterations_front", 0),
        "epsilon_solver.speed_eps_minimizations": _ratio(minimizations, speed_solves),
        "epsilon_solver.speed_eps_iterations":
            workload_counts.get("speed_eps_iterations", 0),
        "nonlocal_operator.solves_per_energy_eval": _ratio(solves, len(eval_ids)),
    }


def time_metrics(spans) -> dict:
    """Median thread CPU time per call: the layer's own work, without the
    time its thread waited for the interpreter lock or the processor."""
    out = {}
    for metric, (name, scale, _unit, _probe) in TIMES.items():
        cpu = [s[6] for s in spans.get(name, ())]
        out[metric] = scale * statistics.median(cpu) if cpu else None
    return out


def _probe_limit():
    pulse, front = fhn_gamma.Params(*PULSE), fhn_gamma.Params(*FRONT)
    for _ in range(5):
        wave_speeds.pulse_speed(pulse)
    for _ in range(50):
        wave_speeds.front_speed(front)


def _probe_sweep():
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(["sweep", "--alpha-range", "1.5:3.5:4"])


def _probe_union():
    union = fhn_gamma.IntervalUnion(((0.5, 1.5), (-2.0, -0.5)))
    pulse = fhn_gamma.Params(*PULSE)
    for _ in range(20):
        limit_energy.sharp_interface_energy(union, 1.0, pulse)


def _probe_energy():
    limit = wave_speeds.pulse_speed(fhn_gamma.Params(*PULSE))
    e = fhn_gamma.IntervalUnion.single(limit.a, limit.b)
    p = fhn_gamma.Params(*PULSE, EPSILON)
    grid = epsilon_solver.solver_grid(e, EPSILON)
    w = epsilon_solver.build_recovery(e, p, grid).w.values
    engine = epsilon_solver.DiscreteEnergy(grid, limit.c_p, p)
    for _ in range(10):
        engine.value_and_grad(w)
        engine.project(w)
        engine.preconditioner(w)
    for _ in range(3):
        engine.report(w)


PROBES = {"limit": _probe_limit, "sweep": _probe_sweep,
          "union": _probe_union, "energy": _probe_energy}


def per_layer_metrics(tracer, workload_counts: dict) -> tuple[dict, list[str]]:
    """Every per-layer metric as {name: {"value", "unit"}}, and the names
    whose value came from a probe.  Call with the tracer still installed."""
    spans = tracer.by_name()
    values = {**time_metrics(spans),
              **count_metrics(spans, tracer.counts(), workload_counts)}
    missing = [m for m, v in values.items() if v is None]
    if missing:
        mark = len(tracer.spans)
        # among the counts and ratios only the sweep's ratio can be missing
        groups = {TIMES[m][3] if m in TIMES else "sweep" for m in missing}
        for group in sorted(groups):
            PROBES[group]()
        probe_spans = tracer.by_name(tracer.spans[mark:])
        probed = {**time_metrics(probe_spans),
                  "cli.sweep_parallel_ratio": sweep_parallel_ratio(probe_spans)}
        for metric in missing:
            values[metric] = probed[metric]
    units = {**{m: spec[2] for m, spec in TIMES.items()}, **COUNTS}
    return {m: {"value": values[m], "unit": units[m]} for m in units}, missing
