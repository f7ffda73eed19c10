import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.integrate import quad

import fhn_gamma
from fhn_gamma.errors import InvalidParameterError, RegimeError
from fhn_gamma.limit_energy import sharp_interface_energy
from fhn_gamma.model import (
    F0,
    SQRT2,
    G,
    Params,
    RegimeTag,
    classify,
    f_eps,
    gamma_star,
    gamma_star_limit,
    require_regime,
)
from fhn_gamma.weighted_space import IntervalUnion

# equal-area slope at (alpha=2, sigma=1, eps=0.01), frozen from the closed
# formula before the module was written
GAMMA_STAR_ORACLE = 2.101507144194681


def test_params_validation():
    with pytest.raises(InvalidParameterError):
        Params(0.0, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        Params(1.0, -1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        Params(1.0, 1.0, 1.0, epsilon=-0.1)


@pytest.mark.parametrize("values", [
    (math.nan, 1.0, 1.0, 0.0), (5.0, 1.0, math.inf, 0.0),
    (2.0, math.inf, 1.0, 0.0), (math.inf, 1.0, 1.0, 0.0),
    (2.0, 1.0, 1.0, math.nan), (2.0, 1.0, 1.0, math.inf),
])
def test_params_must_be_finite(values):
    # NaN passes every sign test; an infinite sigma classifies as a pulse
    with pytest.raises(InvalidParameterError):
        Params(*values)


def test_beta_eps_and_cap():
    p = Params(2.0, 1.0, 1.0, 0.01)
    assert p.beta_eps == pytest.approx(0.5 - 0.02 / SQRT2, rel=1e-15)
    assert p.epsilon_cap == pytest.approx(0.25)
    p.require_small_epsilon()
    with pytest.raises(InvalidParameterError):
        Params(2.0, 1.0, 1.0, 0.3).require_small_epsilon()
    with pytest.raises(InvalidParameterError):
        Params(2.0, 1.0, 1.0).require_small_epsilon()


def test_classify_regimes():
    assert classify(Params(5.0, 1.0, 1.0)).tag is RegimeTag.FRONT
    assert classify(Params(5.0, 1.0, 1.0)).strict
    assert classify(Params(2.0, 1.0, 1.0)).tag is RegimeTag.PULSE
    assert classify(Params(0.5, 1.0, 1.0)).tag is RegimeTag.NEITHER
    # alpha - 1 at or above the threshold: no front, no pulse
    assert classify(Params(6.0, 1.0, 0.5)).tag is RegimeTag.NEITHER


def test_classify_boundary_not_strict():
    boundary = 3.0 * SQRT2  # alpha equal to the front threshold at gamma=sigma=1
    regime = classify(Params(boundary, 1.0, 1.0))
    assert regime.tag is RegimeTag.FRONT
    assert not regime.strict


def test_require_regime():
    require_regime(Params(2.0, 1.0, 1.0), RegimeTag.PULSE)
    with pytest.raises(RegimeError):
        require_regime(Params(2.0, 1.0, 1.0), RegimeTag.FRONT)


def test_potential_values():
    p = Params(2.0, 1.0, 1.0, 0.01)
    assert F0(0.0) == 0.0
    assert F0(1.0) == 0.0
    assert F0(0.5) == pytest.approx(1.0 / 64.0, rel=1e-14)
    assert G(1.0) == pytest.approx(-SQRT2 / 12.0, rel=1e-14)
    # zeros of the cubic at 0, beta, 1
    for u in (0.0, p.beta_eps, 1.0):
        assert f_eps(u, p.beta_eps) == pytest.approx(0.0, abs=1e-15)


def test_cubic_is_negative_gradient_of_full_potential():
    # F_eps = F0 + alpha eps G, and f_eps at beta_eps is -F_eps'
    p = Params(2.0, 1.0, 1.0, 0.05)
    d = 1e-6

    def f_full(u):
        return F0(u) + p.alpha * p.epsilon * G(u)

    for u in (0.1, 0.4, 0.7, 0.95):
        fd = (f_full(u + d) - f_full(u - d)) / (2 * d)
        assert fd == pytest.approx(-f_eps(u, p.beta_eps), abs=1e-9)


@pytest.mark.parametrize("a, b", [(-1.5, 0.3), (-0.2, 4.0), (-7.0, -2.5)])
def test_perimeter_weight_is_the_interface_cost_of_the_double_well(a, b):
    # each interface costs phi(1) = integral of sqrt(2 F0) over [0, 1] times
    # its weight e^x: the perimeter term the limit energy uses
    phi_1 = quad(lambda s: math.sqrt(2.0 * F0(s)), 0.0, 1.0)[0]
    term = sharp_interface_energy(IntervalUnion.single(a, b), 1.0,
                                  Params(2.0, 1.0, 1.0)).perimeter_term
    assert term == pytest.approx(phi_1 * (math.exp(a) + math.exp(b)),
                                 rel=1e-12)


def test_import_does_not_load_scipy_integrate_or_optimize():
    # a fresh interpreter, because this test module imports scipy.integrate;
    # scipy.optimize is imported by build_recovery when it first runs
    src = str(Path(fhn_gamma.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, fhn_gamma; loaded = [m for m in "
            "('scipy.integrate', 'scipy.optimize') if m in sys.modules]; "
            "assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_gamma_star_oracle_and_limit():
    p = Params(2.0, 1.0, 1.0, 0.01)
    assert gamma_star(p) == pytest.approx(GAMMA_STAR_ORACLE, rel=1e-13)
    assert gamma_star_limit(p) == pytest.approx(3.0 * SQRT2 / 2.0, rel=1e-15)
    with pytest.raises(InvalidParameterError):
        gamma_star(Params(2.0, 1.0, 1.0))


def test_gamma_star_approaches_limit():
    errs = []
    for eps in (0.04, 0.02, 0.01):
        p = Params(2.0, 1.0, 1.0, eps)
        errs.append(abs(gamma_star(p) / gamma_star_limit(p) - 1.0))
    assert errs[0] > errs[1] > errs[2]
