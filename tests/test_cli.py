import csv
import inspect
import io
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from fhn_gamma import cli, epsilon_solver, svg, wave_speeds
from fhn_gamma.cli import _emit_csv, run
from fhn_gamma.epsilon_solver import (
    STUDY_COLUMNS,
    DiscreteEnergy,
    build_recovery,
    convergence_study,
    minimize_energy,
    solver_grid,
    speed_eps,
)
from fhn_gamma.errors import BracketError
from fhn_gamma.model import Params
from fhn_gamma.nonlocal_operator import InhibitorOperator
from fhn_gamma.wave_speeds import front_speed, pulse_speed
from fhn_gamma.weighted_space import Grid, SampledFunction, l2e_norm


def test_classify_outputs_json(capsys):
    assert run(["classify", "--alpha", "5", "--gamma", "1",
                "--sigma", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"regime": "front", "strict": True}


def test_front_speed_to_file(tmp_path):
    path = tmp_path / "front.json"
    code = run(["front-speed", "--alpha", "5", "--gamma", "1",
                "--sigma", "1", "--output", str(path)])
    assert code == 0
    data = json.loads(path.read_text())
    assert data["c"] == pytest.approx(0.114569, abs=1e-6)


def test_front_speed_on_the_regime_boundary(capsys):
    # alpha = 3 sqrt(2) sigma / gamma to the last bit: a front, not strict
    assert run(["front-speed", "--alpha", "21.213203435596427",
                "--gamma", "0.1", "--sigma", "0.5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["strict"] is False and data["residual"] <= 1e-13


def test_pulse_speed_wrong_regime_exit_code(capsys):
    code = run(["pulse-speed", "--alpha", "0.5", "--gamma", "1",
                "--sigma", "1"])
    assert code == 2
    assert "regime" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["pulse-speed", "--alpha", "4.242640687119285", "--gamma", "1",
     "--sigma", "1"],
    ["sweep", "--alpha-range", "4.242640687119285:4.242640687119285:1"],
])
def test_pulse_at_the_upper_alpha_edge_exit_code(argv, capsys):
    # the float just below 3 sqrt(2): a pulse by classification at
    # (gamma, sigma) = (1, 1), with no width solve possible in floating point
    assert run(argv) == 3
    assert "upper edge" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["pulse-speed", "--alpha", "2", "--gamma", "1", "--sigma", "1e17"],
    ["pulse-speed", "--alpha", "2", "--gamma", "1e-300", "--sigma", "1"],
])
def test_pulse_beyond_the_front_energy_root_range_exit_code(argv, capsys):
    # 1 - h*^2 rounds to 0 in the pulse's upper speed bound
    assert run(argv) == 3
    assert "1 - h*^2 rounds to 0" in capsys.readouterr().err


_NAN_SPEED = ["--alpha", "2", "--gamma", "1", "--sigma", "1", "--c", "nan"]


@pytest.mark.parametrize("argv", [
    ["limit-energy", *_NAN_SPEED, "--ell-grid", "1:2:2"],
    ["limit-energy", "--alpha", "2", "--gamma", "1", "--sigma", "1",
     "--c", "inf", "--ell-grid", "1:2:2"],
    ["minimize", *_NAN_SPEED, "--epsilon", "0.04", "--max-iter", "2"],
    ["classify", "--alpha", "nan", "--gamma", "1", "--sigma", "1"],
    ["classify", "--alpha", "5", "--gamma", "1", "--sigma", "inf"],
    ["pulse-speed", "--alpha", "5", "--gamma", "1", "--sigma", "inf"],
], ids=["limit_energy_nan", "limit_energy_inf", "minimize_nan",
        "classify_nan", "classify_inf", "pulse_speed_inf"])
def test_non_finite_input_is_invalid_input(argv, capsys):
    # not computed into NaN, a wrong regime or a traceback
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_missing_parameter_exit_code(capsys):
    assert run(["front-speed", "--alpha", "5"]) == 2


def test_limit_energy_csv_deterministic(tmp_path):
    args = ["limit-energy", "--alpha", "2", "--gamma", "1", "--sigma", "1",
            "--c", "1.0", "--ell-grid", "0.1:10:200"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--output", str(p1)]) == 0
    assert run(args + ["--output", str(p2)]) == 0
    text = p1.read_text()
    assert text == p2.read_text()
    lines = text.splitlines()
    assert lines[0] == "ell,J,dJ_dl,dJ_dl2,dJ_dc"
    assert len(lines) == 201
    # every numeric round-trips exactly through the emitted text
    first = lines[1].split(",")
    assert float(first[0]) == 0.1


def _step_csv(tmp_path):
    """An x,value CSV of the indicator of [-1, 0] on Grid(-12, 4, 1601)."""
    grid = Grid(-12.0, 4.0, 1601)
    src = tmp_path / "chi.csv"
    _emit_csv(("x", "value"),
              zip(grid.x, np.where((grid.x > -1.0) & (grid.x < 0.0), 1.0, 0.0)),
              src)
    return src


def test_lc_apply_round_trip(tmp_path):
    dst = tmp_path / "resp.csv"
    code = run(["lc-apply", "--gamma", "1", "--c", "1.0",
                "--input", str(_step_csv(tmp_path)), "--output", str(dst)])
    assert code == 0
    back = SampledFunction.from_csv(dst)
    assert back.values.max() > 0.1
    assert back.values.min() > -1e-10


def test_lc_apply_writes_what_it_wrote_with_alpha_and_sigma(tmp_path):
    # the response as the command formed it when it also took --alpha 2
    # --sigma 1: gamma read through Params, the same solve and CSV writer
    src = _step_csv(tmp_path)
    f = SampledFunction.from_csv(src)
    gamma = Params(2.0, 1.0, 1.0).gamma
    expected = tmp_path / "expected.csv"
    _emit_csv(("x", "value"),
              zip(f.grid.x, InhibitorOperator(f.grid, 1.0, gamma).solve(f.values)),
              expected)
    out = tmp_path / "resp.csv"
    assert run(["lc-apply", "--gamma", "1", "--c", "1.0",
                "--input", str(src), "--output", str(out)]) == 0
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("flag", ["--alpha", "--sigma"])
def test_lc_apply_takes_no_alpha_or_sigma(flag, tmp_path, capsys):
    # the inhibitor operator depends on c and gamma alone
    with pytest.raises(SystemExit) as exc:
        run(["lc-apply", flag, "2", "--gamma", "1", "--c", "1.0",
             "--input", str(_step_csv(tmp_path))])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("rates", [
    ["--gamma", "0", "--c", "1.0"], ["--gamma", "-1", "--c", "1.0"],
    ["--gamma", "nan", "--c", "1.0"], ["--gamma", "1", "--c", "0"],
    ["--gamma", "1", "--c", "-1"], ["--gamma", "1", "--c", "nan"],
], ids=["gamma_zero", "gamma_negative", "gamma_nan", "c_zero", "c_negative",
        "c_nan"])
def test_lc_apply_rate_not_positive_is_invalid_input(rates, tmp_path, capsys):
    code = run(["lc-apply", *rates, "--input", str(_step_csv(tmp_path))])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_lc_apply_missing_file_is_io_error(tmp_path):
    code = run(["lc-apply", "--gamma", "1", "--c", "1.0",
                "--input", str(tmp_path / "nope.csv")])
    assert code == 4


def test_lc_apply_grid_too_long_is_invalid_input(tmp_path, capsys):
    # 3,000 units: past the length the symmetrized inhibitor solve accepts
    grid = Grid(-2990.0, 10.0, 12001)
    src = tmp_path / "long.csv"
    _emit_csv(("x", "value"), zip(grid.x, np.where(grid.x < 0.0, 1.0, 0.0)), src)
    code = run(["lc-apply", "--gamma", "1", "--c", "1.0", "--input", str(src)])
    assert code == 2
    assert "too long" in capsys.readouterr().err


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 2\ngamma = 1\nsigma = 1\n# comment\n")
    assert run(["classify", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["regime"] == "pulse"
    # flags win over the config file
    assert run(["classify", "--config", str(cfg), "--alpha", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["regime"] == "front"


def test_config_json_form(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alpha": 2, "gamma": 1, "sigma": 1}))
    assert run(["classify", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["regime"] == "pulse"


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=2\nwibble=3\n")
    assert run(["classify", "--config", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_recovery_csv_and_svg(tmp_path):
    out = tmp_path / "rec.csv"
    fig = tmp_path / "rec.svg"
    code = run(["recovery", "--alpha", "5", "--gamma", "1", "--sigma", "1",
                "--epsilon", "0.04", "--output", str(out),
                "--svg", str(fig)])
    assert code == 0
    prof = SampledFunction.from_csv(out)
    assert prof.values.min() >= 0.0 and prof.values.max() <= 1.0
    assert fig.read_text().startswith("<svg")


def test_recovery_builds_a_set_too_long_for_the_inhibitor_solve(tmp_path):
    # recovery takes no inhibitor solve, so only the node bound applies; the
    # 604,001 nodes, their quadrature, one profile and one product with it
    # make four arrays of 4.8 MB, since only the window nodes take the closed
    # form
    import scipy.optimize  # noqa: F401  (build_recovery loads it on first use)

    out = tmp_path / "long.csv"
    tracemalloc.start()
    try:
        code = run(["recovery", "--alpha", "5", "--gamma", "1", "--sigma", "1",
                    "--epsilon", "0.04", "--set", "[[-3000, 0]]",
                    "--output", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 21e6
    prof = SampledFunction.from_csv(out)
    assert prof.grid.n == 604001
    assert l2e_norm(prof.grid, prof.values) == pytest.approx(1.0, abs=1e-8)


def test_minimize_refuses_a_long_set_before_its_recovery(monkeypatch, capsys):
    def fail(*args):
        raise AssertionError("build_recovery called")

    monkeypatch.setattr(cli, "build_recovery", fail)
    code = run(["minimize", "--alpha", "5", "--gamma", "1", "--sigma", "1",
                "--epsilon", "0.04", "--c", "0.11456943748336548",
                "--set", "[[-3000, 0]]"])
    assert code == 2
    assert "too long" in capsys.readouterr().err


def test_sweep_sorted_and_deterministic(tmp_path):
    p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["sweep", "--alpha-range", "1.5:2.5:3"]
    assert run(args + ["--output", str(p1)]) == 0
    assert run(args + ["--output", str(p2)]) == 0
    assert p1.read_text() == p2.read_text()
    lines = p1.read_text().splitlines()
    assert lines[0] == "alpha,gamma,sigma,regime,c,ell"
    alphas = [float(line.split(",")[0]) for line in lines[1:]]
    assert alphas == sorted(alphas)


def test_minimize_short_budget_reports_nonconvergence(tmp_path, capsys):
    out = tmp_path / "min.csv"
    code = run(["minimize", "--alpha", "5", "--gamma", "1", "--sigma", "1",
                "--epsilon", "0.04", "--c", "0.114569", "--max-iter", "60",
                "--output", str(out)])
    assert code == 3
    summary = json.loads(capsys.readouterr().out)
    assert not summary["converged"]
    assert out.exists()
    # the multiplier of the norm constraint, as the library reports it
    front = Params(5.0, 1.0, 1.0, 0.04)
    e = front_speed(front).limit_set
    grid = solver_grid(e, 0.04)
    result = minimize_energy(DiscreteEnergy(grid, 0.114569, front),
                             build_recovery(e, front, grid).w.values,
                             max_iter=60)
    assert summary["multiplier"] == result.multiplier


def _assert_profile_csv(path, grid, values):
    # the x,value CSV of repr floats that every command writes, read back
    # bit for bit; the first differing line, not a diff of 6,000 lines
    lines = path.read_text().splitlines(keepends=True)
    expected = "x,value\n" + "".join(
        ",".join(repr(float(v)) for v in pair) + "\n"
        for pair in zip(grid.x, values))
    same = "".join(lines) == expected
    assert same, next(pair for pair in zip(lines, expected.splitlines(True))
                      if pair[0] != pair[1])
    back = SampledFunction.from_csv(path)
    assert np.array_equal(back.grid.x, grid.x)
    assert np.array_equal(back.values, values)


def test_profile_outputs_are_repr_csv(tmp_path, capsys):
    front = Params(5.0, 1.0, 1.0, 0.04)
    limit = front_speed(front)
    c_f, e = limit.c_f, limit.limit_set
    out = tmp_path / "min.csv"
    assert run(["minimize", "--alpha", "5", "--gamma", "1", "--sigma", "1",
                "--epsilon", "0.04", "--c", repr(c_f), "--max-iter", "1",
                "--output", str(out)]) == 3
    grid = solver_grid(e, 0.04)
    result = minimize_energy(DiscreteEnergy(grid, c_f, front),
                             build_recovery(e, front, grid).w.values,
                             max_iter=1)
    _assert_profile_csv(out, grid, result.profile.values)

    pulse = Params(2.0, 1.0, 1.0, 0.04)
    out = tmp_path / "speed.csv"
    capsys.readouterr()
    assert run(["speed-eps", *_PULSE_ARGS, "--epsilon", "0.04",
                "--c-lo", "2.1169", "--c-hi", "2.5614", "--max-iter", "5",
                "--output", str(out)]) == 3
    e = pulse_speed(pulse).limit_set
    grid = solver_grid(e, 0.04)
    result = speed_eps(pulse, 2.1169, 2.5614, grid,
                       build_recovery(e, pulse, grid).w.values, max_iter=5)
    _assert_profile_csv(out, grid, result.profile.values)
    # the summary goes to stdout, as minimize's does
    summary = json.loads(capsys.readouterr().out)
    assert list(summary) == ["c_eps", "value", "newton_steps",
                             "fallback_minimizations", "converged", "c_limit"]
    assert summary["c_eps"] == result.c_eps


def test_speed_eps_has_no_profile_output_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["speed-eps", *_PULSE_ARGS, "--epsilon", "0.04",
             "--profile-output", str(tmp_path / "speed.csv")])
    assert exc.value.code == 2
    assert "--profile-output" in capsys.readouterr().err
    assert not (tmp_path / "speed.csv").exists()


def test_recovery_of_a_front_starts_from_the_half_line(tmp_path):
    args = ["recovery", "--alpha", "5", "--gamma", "1", "--sigma", "1",
            "--epsilon", "0.04", "--output"]
    default, half_line = tmp_path / "default.csv", tmp_path / "half_line.csv"
    assert run(args + [str(default)]) == 0
    assert run(args + [str(half_line), "--set", '[["-inf", 0.0]]']) == 0
    assert default.read_bytes() == half_line.read_bytes()


def test_recovery_of_a_pulse_starts_from_the_pulse_interval(tmp_path):
    out = tmp_path / "pulse.csv"
    assert run(["recovery", *_PULSE_ARGS, "--epsilon", "0.04",
                "--output", str(out)]) == 0
    pulse = Params(2.0, 1.0, 1.0, 0.04)
    e = pulse_speed(pulse).limit_set
    grid = solver_grid(e, 0.04)
    _assert_profile_csv(out, grid, build_recovery(e, pulse, grid).w.values)


def test_recovery_in_neither_regime_needs_a_set(capsys):
    assert run(["recovery", "--alpha", "0.5", "--gamma", "1", "--sigma", "1",
                "--epsilon", "0.04"]) == 2
    assert "neither" in capsys.readouterr().err


@pytest.mark.parametrize("command, solver, keys", [
    ("speed-eps", speed_eps, {"max_iter"}),
    ("study", convergence_study, {"max_iter"}),
    ("minimize", minimize_energy, {"max_iter", "tol"}),
], ids=["speed-eps-speed_eps", "study-convergence_study",
        "minimize-minimize_energy"])
def test_speed_solve_budget_is_the_library_default(command, solver, keys):
    # every option the solver also defaults takes the library's default: the
    # same object, so a literal copy of it in the option table fails too
    table = cli._COMMANDS[command][1]
    defaults = {name: param.default for name, param
                in inspect.signature(solver).parameters.items()
                if param.default is not inspect.Parameter.empty}
    assert table.keys() & defaults.keys() == keys
    for key in keys:
        assert table[key][1] == defaults[key], key
        assert table[key][1] is defaults[key], key


def test_bad_range_syntax(capsys):
    code = run(["limit-energy", "--alpha", "2", "--gamma", "1",
                "--sigma", "1", "--c", "1.0", "--ell-grid", "nope"])
    assert code == 2


@pytest.mark.parametrize("grid, expected", [
    # (hi - lo)(n - 1) = 2e307 is finite, so no point overflows
    ("1:1e307:3", [1.0, 1.0 + (1e307 - 1.0) / 2, 1e307]),
    # a single point is lo, whatever hi is
    ("1:inf:1", [1.0]),
    ("1:1e308:1", [1.0]),
], ids=["three_points", "one_point_infinite_hi", "one_point_huge_hi"])
def test_range_near_float_max_keeps_finite_points(grid, expected, capsys):
    assert run(["limit-energy", *_PULSE_ARGS, "--c", "1.0",
                "--ell-grid", grid]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == expected


def test_limit_energy_at_widths_near_float_max_is_the_front_energy(capsys):
    # ell / H overflows there, and e^{r1 ell} = 0: every row reads the
    # speed derivative of J(inf, 1), not NaN
    assert run(["limit-energy", *_PULSE_ARGS, "--c", "1",
                "--ell-grid", "1e308:1.7e308:3"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 3
    for row in rows:
        assert all(math.isfinite(float(v)) for v in row.values()), row
        assert row["dJ_dc"] == "-0.17888543819998315"


def test_speed_eps_short_budget_reports_nonconvergence(
        capsys, monkeypatch, minimized_speeds):
    calls = []
    pulse_speed = wave_speeds.pulse_speed

    def counting_pulse_speed(p):
        calls.append(p)
        return pulse_speed(p)

    monkeypatch.setattr(wave_speeds, "pulse_speed", counting_pulse_speed)
    code = run(["speed-eps", "--alpha", "2", "--gamma", "1", "--sigma", "1",
                "--epsilon", "0.04", "--c-lo", "2.1169", "--c-hi", "2.5614",
                "--max-iter", "5"])
    assert code == 3
    summary = json.loads(capsys.readouterr().out)
    assert summary["converged"] is False
    assert len(calls) == 1
    # the pulse needs 16 Newton steps from sqrt(c_lo c_hi): five leave it
    # unconverged, with no fallback minimization
    assert summary["newton_steps"] == 5
    assert summary["fallback_minimizations"] == 0 and minimized_speeds == []


def _study_csv(rows) -> str:
    """The study table the CLI writes for these library rows."""
    return "".join(",".join(
        repr(v) if isinstance(v, float) else str(v) for v in line) + "\n"
        for line in [STUDY_COLUMNS, *([row[k] for k in STUDY_COLUMNS]
                                      for row in rows)])


def test_study_short_budget_reports_nonconvergence(capsys):
    # the one row is written, as the library computes it, and then exit 3
    code = run(["study", *_PULSE_ARGS, "--eps-list", "0.04", "--max-iter", "1"])
    assert code == 3
    out = capsys.readouterr().out
    [row] = convergence_study([0.04], Params(2.0, 1.0, 1.0), max_iter=1)
    assert row["flag"] == "maxiter"
    assert out == _study_csv([row])


def test_study_writes_each_width_before_a_later_one_fails(capsys):
    # the widths run 0.04 first: its row is written, then 1e-310 refuses
    # its solver grid and the run exits 2
    code = run(["study", *_PULSE_ARGS, "--eps-list", "0.04,1e-310",
                "--max-iter", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    [row] = convergence_study([0.04], Params(2.0, 1.0, 1.0), max_iter=1)
    assert captured.out == _study_csv([row])


def test_study_svg_streams_each_width_before_a_later_one_fails(tmp_path,
                                                               capsys):
    # with --svg the table streams too: the 0.04 row is written, then
    # 1e-310 refuses its solver grid, and no plot is written
    plot = tmp_path / "study.svg"
    code = run(["study", *_PULSE_ARGS, "--eps-list", "0.04,1e-310",
                "--max-iter", "1", "--svg", str(plot)])
    assert code == 2
    [row] = convergence_study([0.04], Params(2.0, 1.0, 1.0), max_iter=1)
    assert capsys.readouterr().out == _study_csv([row])
    assert not plot.exists()


def test_study_yields_a_row_after_one_speed_solve(monkeypatch):
    calls = []
    solve = epsilon_solver.speed_eps

    def counting(*args, **kwargs):
        calls.append(args[0].epsilon)
        return solve(*args, **kwargs)

    monkeypatch.setattr(epsilon_solver, "speed_eps", counting)
    rows = convergence_study([0.01, 0.04, 0.02], Params(2.0, 1.0, 1.0),
                             max_iter=1)
    assert calls == []
    assert next(rows)["eps"] == 0.04
    assert calls == [0.04]


def test_study_svg_keeps_the_table(tmp_path, capsys):
    # the plot is written after the last width; the table's bytes and the
    # exit code are those of a run without --svg
    args = ["study", *_PULSE_ARGS, "--eps-list", "0.04", "--max-iter", "1"]
    assert run(args) == 3
    plain = capsys.readouterr().out
    plot = tmp_path / "study.svg"
    assert run([*args, "--svg", str(plot)]) == 3
    assert capsys.readouterr().out == plain
    assert plot.read_text().startswith("<svg")


@pytest.mark.parametrize("argv", [
    ["limit-energy", "--alpha", "2", "--gamma", "1", "--sigma", "1",
     "--c", "1.0", "--ell-grid", "0.1:10:50"],
    ["lc-apply", "--gamma", "1", "--c", "1.0"],
    ["recovery", "--alpha", "2", "--gamma", "1", "--sigma", "1",
     "--epsilon", "0.04"],
    ["minimize", "--alpha", "2", "--gamma", "1", "--sigma", "1",
     "--epsilon", "0.04", "--c", "2.3", "--max-iter", "2"],
], ids=["limit-energy", "lc-apply", "recovery", "minimize"])
def test_svg_keeps_the_table(argv, tmp_path, capsys):
    # the plot is written after the table, whose bytes, the stdout and the
    # exit code are those of a run without --svg
    if argv[0] == "lc-apply":
        argv = [*argv, "--input", str(_step_csv(tmp_path))]
    out = tmp_path / "table.csv"
    code = run([*argv, "--output", str(out)])
    plain, stdout = out.read_bytes(), capsys.readouterr().out
    out.unlink()
    plot = tmp_path / "plot.svg"
    assert run([*argv, "--output", str(out), "--svg", str(plot)]) == code
    assert out.read_bytes() == plain
    assert capsys.readouterr().out == stdout
    assert plot.read_text().startswith("<svg")


def test_minimize_svg_alone_writes_no_profile(tmp_path, capsys):
    # the profile CSV goes to --output only: with --svg alone, stdout holds
    # the JSON summary and nothing else
    argv = ["minimize", *_PULSE_ARGS, "--epsilon", "0.04", "--c", "2.3",
            "--max-iter", "2"]
    code = run(argv)
    stdout = capsys.readouterr().out
    plot = tmp_path / "plot.svg"
    assert run([*argv, "--svg", str(plot)]) == code
    assert capsys.readouterr().out == stdout
    assert plot.read_text().startswith("<svg")


def test_lc_apply_plots_the_input_it_does_not_write(tmp_path):
    # the input is plotted with the response, and only the response written
    src = _step_csv(tmp_path)
    f = SampledFunction.from_csv(src)
    v = InhibitorOperator(f.grid, 1.0, 1.0).solve(f.values)
    expected = tmp_path / "expected.svg"
    svg.line_plot(expected, [("input", f.grid.x, f.values),
                             ("response", f.grid.x, v)],
                  title="inhibitor response at c=1.0", xlabel="x",
                  ylabel="value")
    out, plot = tmp_path / "resp.csv", tmp_path / "resp.svg"
    assert run(["lc-apply", "--gamma", "1", "--c", "1.0", "--input", str(src),
                "--output", str(out), "--svg", str(plot)]) == 0
    assert plot.read_bytes() == expected.read_bytes()
    assert out.read_text().splitlines()[0] == "x,value"
    assert all(line.count(",") == 1 for line in out.read_text().splitlines())


def test_bad_bracket_is_refused_before_any_grid(monkeypatch, capsys):
    # a reversed bracket exits 2 before the solver grid or the recovery
    # profile (400,001 quadrature points) is built
    def fail(*args):
        raise AssertionError("built before the bracket was checked")

    monkeypatch.setattr(cli, "solver_grid", fail)
    monkeypatch.setattr(cli, "build_recovery", fail)
    assert run(["speed-eps", *_PULSE_ARGS, "--epsilon", "0.04",
                "--c-lo", "3", "--c-hi", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: bracket ends must be finite positive "
                            "speeds with c_lo < c_hi: [3.0, 2.0]\n")
    assert captured.out == ""


def test_speed_eps_reports_its_newton_steps(capsys, minimized_speeds):
    # the benchmark's bracket, rounded: Newton from sqrt(c_lo c_hi)
    # converges to the grid's root in 16 steps, with no minimization
    code = run(["speed-eps", "--alpha", "2", "--gamma", "1", "--sigma", "1",
                "--epsilon", "0.04", "--c-lo", "2.1169", "--c-hi", "2.5614",
                "--max-iter", "300"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["converged"] is True
    assert abs(summary["c_eps"] - 2.28605594) < 1e-8
    assert 0 < summary["newton_steps"] <= 20
    assert summary["fallback_minimizations"] == 0 and minimized_speeds == []


@pytest.mark.parametrize("argv", [
    ["study", "--alpha", "2", "--gamma", "1", "--sigma", "1",
     "--eps-list", "0.04,abc"],
    ["sweep", "--alpha-range", "1:abc:3"],
    ["sweep", "--alpha-range", "1:3:2.5"],
])
def test_unparsable_number_is_invalid_input(argv, capsys):
    assert run(argv) == 2
    assert "error:" in capsys.readouterr().err


_PULSE_ARGS = ["--alpha", "2", "--gamma", "1", "--sigma", "1"]


@pytest.mark.parametrize("argv", [
    ["recovery", *_PULSE_ARGS, "--epsilon", "0"],
    ["minimize", *_PULSE_ARGS, "--epsilon", "0", "--c", "2.3"],
    ["speed-eps", *_PULSE_ARGS, "--epsilon", "0"],
    ["study", *_PULSE_ARGS, "--eps-list", "0"],
    ["study", *_PULSE_ARGS, "--eps-list", ","],
])
def test_zero_or_missing_width_is_invalid_input(argv, capsys):
    assert run(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("union", ["5", "[[1]]", '[["a",1]]'])
def test_malformed_set_is_invalid_input(union, capsys):
    argv = ["recovery", "--alpha", "5", "--gamma", "1", "--sigma", "1",
            "--epsilon", "0.04", "--set", union]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("text", ["x,value\n0.0,1.0\n", "x,value\n"])
def test_short_profile_csv_is_invalid_input(text, tmp_path, capsys):
    src = tmp_path / "short.csv"
    src.write_text(text)
    argv = ["lc-apply", "--gamma", "1", "--c", "1.0", "--input", str(src)]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("alpha", [None, [2], 10**400],
                         ids=["None", "alpha1", "int_beyond_float"])
def test_config_value_of_wrong_type_is_invalid_input(alpha, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alpha": alpha, "gamma": 1, "sigma": 1}))
    assert run(["classify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_config_boolean_is_invalid_input(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alpha": True, "gamma": 1, "sigma": 1}))
    assert run(["classify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_config_non_integral_count_is_invalid_input(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alpha": 2, "gamma": 1, "sigma": 1,
                               "epsilon": 0.04, "c": 2.3, "max_iter": 2.9}))
    assert run(["minimize", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["limit-energy", *_PULSE_ARGS, "--c", "1e300", "--ell-grid", "1:2:2"],
    ["limit-energy", *_PULSE_ARGS, "--c", "1e-300", "--ell-grid", "1:2:2"],
    ["speed-eps", *_PULSE_ARGS, "--epsilon", "0.04", "--c-lo", "1e-300"],
    ["recovery", *_PULSE_ARGS, "--epsilon", "0.04", "--set", "[[0, 800]]"],
    ["recovery", *_PULSE_ARGS, "--epsilon", "0.04",
     "--set", "[[-1e300, 0]]"],
    ["minimize", *_PULSE_ARGS, "--epsilon", "0.04", "--c", "2.3",
     "--set", "[[-1e300, 0]]"],
    # (x_hi - start) / h is inf: the node bound, not an OverflowError
    ["recovery", *_PULSE_ARGS, "--epsilon", "0.04",
     "--set", "[[-1.7e308, 0]]"],
    ["minimize", *_PULSE_ARGS, "--epsilon", "0.04", "--c", "2.3",
     "--set", "[[-1.7e308, 0]]"],
    ["minimize", *_PULSE_ARGS, "--epsilon", "0.04", "--c", "2.3",
     "--max-iter", "0"],
    ["minimize", *_PULSE_ARGS, "--epsilon", "0.04", "--c", "2.3",
     "--tol", "-1"],
    ["minimize", *_PULSE_ARGS, "--epsilon", "0.04", "--c", "2.3",
     "--tol", "nan"],
    ["speed-eps", *_PULSE_ARGS, "--epsilon", "0.04", "--max-iter", "0"],
    ["limit-energy", *_PULSE_ARGS, "--c", "1.0", "--ell-grid", "1:1e308:3"],
    ["limit-energy", *_PULSE_ARGS, "--c", "1.0",
     "--ell-grid", "1:2:1" + "0" * 400],
    ["recovery", *_PULSE_ARGS, "--epsilon", "0.04",
     "--set", "[[0, 1" + "0" * 400 + "]]"],
    # an integer past the digits Python converts from a string
    ["recovery", *_PULSE_ARGS, "--epsilon", "0.04",
     "--set", "[[0, 1" + "0" * 5000 + "]]"],
    # the solver grid's cell count 44 / (eps / 8) overflows to inf
    ["recovery", "--alpha", "5", "--gamma", "1", "--sigma", "1",
     "--epsilon", "1e-310"],
    ["study", "--alpha", "5", "--gamma", "1", "--sigma", "1",
     "--eps-list", "1e-310"],
    # 352 / eps cells: finite, but more than any float64 array can hold
    ["recovery", "--alpha", "5", "--gamma", "1", "--sigma", "1",
     "--epsilon", "1e-20"],
    ["recovery", "--alpha", "5", "--gamma", "1", "--sigma", "1",
     "--epsilon", "1e-300"],
    # 2.46e9 nodes: a finite count, refused before any array is built
    ["recovery", "--alpha", "5", "--gamma", "1", "--sigma", "1",
     "--epsilon", "1e-7"],
    # bracket ends that are not speeds, refused before any minimization
    ["speed-eps", *_PULSE_ARGS, "--epsilon", "0.04", "--c-lo", "nan"],
    ["speed-eps", *_PULSE_ARGS, "--epsilon", "0.04", "--c-lo", "-1"],
    ["speed-eps", *_PULSE_ARGS, "--epsilon", "0.04", "--c-lo", "inf"],
    ["speed-eps", *_PULSE_ARGS, "--epsilon", "0.04", "--c-hi", "inf"],
    ["speed-eps", *_PULSE_ARGS, "--epsilon", "0.04", "--c-hi", "nan"],
    ["speed-eps", *_PULSE_ARGS, "--epsilon", "0.04", "--c-lo", "3",
     "--c-hi", "2"],
], ids=["speed_overflow", "speed_underflow", "c_lo_underflow",
        "right_end_overflow", "set_too_long_recovery", "set_too_long_minimize",
        "set_inf_cells_recovery", "set_inf_cells_minimize",
        "minimize_no_iterations", "negative_tol", "nan_tol",
        "speed_eps_no_iterations", "range_step_overflow",
        "range_count_overflow", "integer_endpoint_overflow",
        "integer_endpoint_past_digit_limit",
        "recovery_tiny_eps", "study_tiny_eps", "recovery_eps_1e-20",
        "recovery_eps_1e-300", "recovery_eps_1e-7", "c_lo_nan",
        "c_lo_negative", "c_lo_inf", "c_hi_inf", "c_hi_nan",
        "reversed_bracket"])
def test_out_of_range_input_is_invalid_input(argv, capsys):
    # not a traceback, an I/O failure, a non-JSON summary or a run to the cap
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize("name, content, command", [
    ("profile.csv", b"x,value\n0,a\n1,b\n2,c\n", "lc-apply"),
    ("run.json", b'{"alpha": 2,', "classify"),
    ("run.cfg", b"alpha = 2\n# \xff\xfe\n", "classify"),
    ("run.json", b'{"alpha": 1' + b"0" * 5000 + b"}", "classify"),
], ids=["non_numeric_csv", "malformed_json_config", "non_utf8_config",
        "json_config_int_past_digit_limit"])
def test_malformed_content_is_invalid_input(name, content, command, tmp_path,
                                            capsys):
    # unreadable content is bad input (2), not an I/O failure (4)
    path = tmp_path / name
    path.write_bytes(content)
    if command == "lc-apply":
        argv = ["lc-apply", "--gamma", "1", "--c", "1.0", "--input", str(path)]
    else:
        argv = ["classify", "--config", str(path)]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def _traced_peak_mb(func):
    """func()'s result and the tracemalloc peak of the call, in MB."""
    tracemalloc.start()
    try:
        result = func()
        return result, tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _counting_sweep_point(monkeypatch, fail_at=None):
    """Count calls of cli._sweep_point; raise BracketError at call fail_at."""
    calls = []
    sweep_point = cli._sweep_point

    def counting(*args):
        calls.append(args)
        if len(calls) == fail_at:
            raise BracketError("injected failure")
        return sweep_point(*args)

    monkeypatch.setattr(cli, "_sweep_point", counting)
    return calls


def test_limit_energy_table_is_written_in_constant_memory(tmp_path):
    # 50,000 rows: the table held whole would take about 24 MB
    out = tmp_path / "energy.csv"
    code, peak = _traced_peak_mb(lambda: run(
        ["limit-energy", *_PULSE_ARGS, "--c", "1.0",
         "--ell-grid", "0.1:10:50000", "--output", str(out)]))
    assert code == 0
    assert len(out.read_text().splitlines()) == 50001
    assert peak < 1.0, peak


def test_sweep_streams_its_rows_until_a_failure(monkeypatch, capsys):
    # 10^9 points: only the rows before the failing point are computed
    calls = _counting_sweep_point(monkeypatch, fail_at=6)
    code, peak = _traced_peak_mb(
        lambda: run(["sweep", "--alpha-range", "1:2:1000000000"]))
    assert code == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "alpha,gamma,sigma,regime,c,ell"
    assert len(lines) == 6 and len(calls) == 6
    assert peak < 1.0, peak


def test_first_row_failure_leaves_the_output_file(tmp_path, capsys):
    # interval_energy refuses the first width, -1, before the file is opened
    out = tmp_path / "energy.csv"
    out.write_text("keep\n")
    assert run(["limit-energy", *_PULSE_ARGS, "--c", "1.0",
                "--ell-grid=-1:10:5", "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert out.read_text() == "keep\n"


def test_sweep_to_a_missing_directory_stops_at_the_first_row(
        tmp_path, monkeypatch, capsys):
    calls = _counting_sweep_point(monkeypatch)
    assert run(["sweep", "--alpha-range", "1.5:2.5:50",
                "--output", str(tmp_path / "missing" / "x.csv")]) == 4
    assert capsys.readouterr().err.startswith("error:")
    assert len(calls) <= 1


class _ClosedPipe:
    """A stdout whose reader leaves after the first write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        if self.writes:
            raise BrokenPipeError(32, "Broken pipe")
        self.writes.append(text)
        return len(text)


def test_sweep_to_a_closed_stdout_stops_at_once(monkeypatch, capsys):
    calls = _counting_sweep_point(monkeypatch)
    pipe = _ClosedPipe()
    monkeypatch.setattr(sys, "stdout", pipe)
    assert run(["sweep", "--alpha-range", "1.5:2.5:50"]) == 4
    assert "Broken pipe" in capsys.readouterr().err
    assert pipe.writes == ["alpha,gamma,sigma,regime,c,ell\n"]
    assert len(calls) <= 2
