"""Traveling-wave speeds and profiles for an activator-inhibitor system
through its sharp-interface limit energy.

The limit level gives a closed-form front speed and a nested root-finding
problem for the pulse speed and width.  The finite-interface-width level
minimizes the full constrained energy and recovers both as the width
shrinks.
"""

from .epsilon_solver import (
    AdmissibleProfile,
    DiscreteEnergy,
    EnergyReport,
    MinimizeResult,
    RecoveryProfile,
    SpeedResult,
    SpeedStep,
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
    RegimeError,
)
from .limit_energy import (
    IntervalEnergy,
    LimitEnergyBreakdown,
    WidthCondition,
    interval_energy,
    sharp_interface_energy,
    width_condition,
)
from .model import (
    Params,
    Regime,
    RegimeTag,
    classify,
    gamma_star,
    gamma_star_limit,
)
from .nonlocal_operator import (
    CharRoots,
    InhibitorOperator,
    char_roots,
    lc_indicator,
)
from .wave_speeds import (
    FrontResult,
    PulseResult,
    front_speed,
    limit_speed,
    optimal_width,
    pulse_speed,
)
from .weighted_space import (
    Grid,
    IntervalUnion,
    SampledFunction,
    shift,
    total_variation_e,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleProfile", "BracketError", "CharRoots", "DiscreteEnergy",
    "EnergyReport", "FrontResult", "Grid", "GridError", "InhibitorOperator",
    "IntervalEnergy", "IntervalUnion", "InvalidParameterError",
    "LimitEnergyBreakdown", "MinimizeResult", "NonConvergenceError",
    "Params", "PulseResult", "RecoveryProfile", "Regime", "RegimeError",
    "RegimeTag", "SampledFunction", "SpeedResult", "SpeedStep",
    "WidthCondition", "build_recovery", "char_roots", "classify",
    "convergence_study", "front_speed", "gamma_star", "gamma_star_limit",
    "interval_energy", "lc_indicator", "limit_speed", "minimize_energy",
    "optimal_width", "pulse_speed", "recovery_profile",
    "sharp_interface_energy", "shift", "solver_grid", "speed_eps",
    "total_variation_e", "width_condition",
]
