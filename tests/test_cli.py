import json
import math

import numpy as np
import pytest

from fhn_gamma.cli import run
from fhn_gamma.weighted_space import Grid, SampledFunction


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


def test_pulse_speed_wrong_regime_exit_code(capsys):
    code = run(["pulse-speed", "--alpha", "0.5", "--gamma", "1",
                "--sigma", "1"])
    assert code == 2
    assert "regime" in capsys.readouterr().err


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


def test_lc_apply_round_trip(tmp_path):
    grid = Grid(-12.0, 4.0, 1601)
    chi = np.where((grid.x > -1.0) & (grid.x < 0.0), 1.0, 0.0)
    src = tmp_path / "chi.csv"
    SampledFunction(grid, chi).to_csv(src)
    dst = tmp_path / "resp.csv"
    code = run(["lc-apply", "--alpha", "2", "--gamma", "1", "--sigma", "1",
                "--c", "1.0", "--input", str(src), "--output", str(dst)])
    assert code == 0
    back = SampledFunction.from_csv(dst)
    assert back.values.max() > 0.1
    assert back.values.min() > -1e-10


def test_lc_apply_missing_file_is_io_error(tmp_path):
    code = run(["lc-apply", "--alpha", "2", "--gamma", "1", "--sigma", "1",
                "--c", "1.0", "--input", str(tmp_path / "nope.csv")])
    assert code == 4


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


def test_bad_range_syntax(capsys):
    code = run(["limit-energy", "--alpha", "2", "--gamma", "1",
                "--sigma", "1", "--c", "1.0", "--ell-grid", "nope"])
    assert code == 2


def test_speed_eps_short_budget_reports_nonconvergence(capsys):
    code = run(["speed-eps", "--alpha", "2", "--gamma", "1", "--sigma", "1",
                "--epsilon", "0.04", "--c-lo", "2.1169", "--c-hi", "2.5614",
                "--max-iter", "20"])
    assert code == 3
    summary = json.loads(capsys.readouterr().out)
    assert summary["converged"] is False


@pytest.mark.parametrize("argv", [
    ["study", "--alpha", "2", "--gamma", "1", "--sigma", "1",
     "--eps-list", "0.04,abc"],
    ["sweep", "--alpha-range", "1:abc:3"],
    ["sweep", "--alpha-range", "1:3:2.5"],
])
def test_unparsable_number_is_invalid_input(argv, capsys):
    assert run(argv) == 2
    assert "error:" in capsys.readouterr().err
