import pytest

from fhn_gamma import epsilon_solver


@pytest.fixture
def minimized_speeds(monkeypatch) -> list:
    """The speed of every minimize_energy call the speed solve makes, in
    call order."""
    speeds = []
    minimize = epsilon_solver.minimize_energy

    def counted(engine, *args, **kwargs):
        speeds.append(engine.c)
        return minimize(engine, *args, **kwargs)

    monkeypatch.setattr(epsilon_solver, "minimize_energy", counted)
    return speeds
