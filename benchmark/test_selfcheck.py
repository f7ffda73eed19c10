"""Quick self-check of the benchmark: every workload at a small load with
all output checks on, checks that reject corrupted outputs, the tracer, and
the agreement of BENCHMARK.json with what run.py prints.

    python3 -m pytest -q benchmark/test_selfcheck.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import fhn_gamma  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

#: a wider interface makes the finite-width rounds fast
SMALL_EPS = 0.1


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def sweep():
    w = workloads.LimitSweep(seed=7, shape=(3, 3, 3), grids=1)
    r = w.run_round()
    assert r.failed == 0
    return w, r.outputs


@pytest.fixture(scope="module")
def unions():
    w = workloads.UnionEnergy(seed=7, count=40, batch=40)
    r = w.run_round()
    assert r.failed == 0
    return w, r.outputs


@pytest.fixture(scope="module")
def minimized():
    w = workloads.FiniteWidth(seed=7, epsilon=SMALL_EPS)
    r = w.run_round()
    assert r.failed == 0
    return w, r.outputs


@pytest.fixture(scope="module")
def speed():
    w = workloads.FiniteWidthSpeed(seed=7, epsilon=SMALL_EPS)
    r = w.run_round()
    assert r.failed == 0
    return w, r.outputs


def test_small_rounds_pass_every_check(sweep, unions, minimized, speed):
    for w, outputs in (sweep, unions, minimized, speed):
        assert w.check(outputs) == [], w.name
        # a second, identical round, as in a full-length run
        assert w.check(outputs * 2) == [], w.name
        assert w.record(outputs * 2) == w.record(outputs)
        json.dumps(w.record(outputs))


def test_seed_fixes_inputs():
    assert workloads.LimitSweep(3).grids == workloads.LimitSweep(3).grids
    assert workloads.LimitSweep(3).grids != workloads.LimitSweep(4).grids
    a, b = workloads.UnionEnergy(3, count=20), workloads.UnionEnergy(3, count=20)
    assert a.inputs == b.inputs


def _replace_field(csv_text, tag, column, fn):
    """Apply fn to one column of the row of the given regime with the
    narrowest pulse (or the first row of another regime): a wide pulse's
    energy is nearly flat in its width, so only a narrow one pins it."""
    lines = csv_text.splitlines()
    rows = [(i, line.split(",")) for i, line in enumerate(lines) if i and
            line.split(",")[3] == tag]
    assert rows, f"no {tag} row"
    i, row = min(rows, key=lambda r: float(r[1][5]) if tag == "pulse" else r[0])
    row[column] = fn(row[column])
    lines[i] = ",".join(row)
    return "\n".join(lines) + "\n"


def test_sweep_checks_reject_wrong_values(sweep):
    w, ((k, text),) = sweep
    nudge = lambda v: repr(float(v) * (1 + 1e-7))  # noqa: E731
    assert w.check([(k, _replace_field(text, "pulse", 4, nudge))])
    assert w.check([(k, _replace_field(text, "pulse", 5, nudge))])
    assert w.check([(k, _replace_field(text, "front", 4, nudge))])
    assert w.check([(k, _replace_field(text, "pulse", 3, lambda v: "front"))])
    assert w.check([(k, text), (k, text.replace("pulse", "front", 1))])


def test_union_checks_reject_wrong_values(unions):
    w, outputs = unions
    index, perimeter, area, nonlocal_term = outputs[0]
    union, c = w.inputs[index]
    ref = reference.union_energy(union.intervals, c, 2.0, 1.0, 1.0)
    wrong = ref["nonlocal"] + 0.01 * (ref["endpoint_sensitivity"] + abs(ref["nonlocal"]))
    assert w.check([(index, perimeter * (1 + 1e-9), area, nonlocal_term)])
    assert w.check([(index, perimeter, area * (1 + 1e-9), nonlocal_term)])
    assert w.check([(index, perimeter, area, wrong)])


def test_finite_width_checks_reject_wrong_values(minimized, speed):
    w, outputs = minimized
    key, grid, start, res = outputs[0]
    scaled = replace(res, profile=fhn_gamma.SampledFunction(grid, res.profile.values * 1.001))
    assert w.check([(key, grid, start, scaled)])
    assert w.check([(key, grid, start, replace(res, value=res.value + 1e-4))])
    assert w.check([(key, grid, start, replace(res, grad_norm=2 * workloads.MIN_TOL))])
    w, outputs = speed
    grid, res = outputs[0]
    assert w.check([(grid, replace(res, c_eps=res.c_eps * 1.2))])


def test_reference_matches_closed_forms():
    # the front energy's root against the closed form of the model
    a, g, s = workloads.FRONT
    h = 1.0 - (a - 1.0) * g / (3.0 * math.sqrt(2.0) * s)
    closed = 2.0 * h * math.sqrt(g) / math.sqrt(1.0 - h * h)
    assert reference.front_speed(a, g, s) == pytest.approx(closed, rel=1e-12)
    # the closed-form pair integral against the quadrature of the check
    r1, r2, k = reference.green_roots(1.3, 1.0)
    j, _ = reference.interval_energy_check(2.5, 1.3, 2.0, 1.0, 1.0)
    em = math.exp(-2.5)
    local = (math.sqrt(2) / 12) * (1 + em) - (math.sqrt(2) * 2 / 12) * (1 - em)
    pair = reference.pair_integral((-2.5, 0.0), (-2.5, 0.0), r1, r2, k)
    assert j == pytest.approx(local + 0.5 * pair, abs=1e-13)


def test_green_response_of_constant_is_exact():
    x = fhn_gamma.Grid(-10.0, 5.0, 1501).x
    v = reference.green_response_nodes(x, 2.0 * x ** 0, 0.7, 1.3)
    assert v == pytest.approx(2.0 / 1.3, rel=1e-12)


def test_tracer_reports_every_layer_and_restores(spec):
    original = fhn_gamma.wave_speeds.width_condition
    tracer = Tracer()
    tracer.install()
    try:
        assert fhn_gamma.wave_speeds.width_condition is not original
        w = workloads.LimitSweep(seed=1, shape=(2, 2, 2), grids=1)
        outputs = w.run_round().outputs
        metrics, probed = layers.per_layer_metrics(tracer, w.layer_counts(outputs))
    finally:
        tracer.uninstall()
    assert fhn_gamma.wave_speeds.width_condition is original
    assert fhn_gamma.limit_energy.width_condition is original
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert {m: metrics[m]["unit"] for m in metrics} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    assert metrics["limit_energy.width_condition_calls_per_pulse"]["value"] > 100
    assert "wave_speeds.pulse_speed_ms" not in probed
    assert "epsilon_solver.value_and_grad_ms" in probed
    assert all(metrics[m]["value"] > 0 for m in layers.TIMES)


def test_spec_matches_run(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["command"] == ["python3", "benchmark/run.py"]
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "peak_rss_mb", "ops_per_s"}


def test_run_without_package_source_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "limit_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
