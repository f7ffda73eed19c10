"""Physical parameters, the cubic nonlinearity family, potentials and regime
classification.

The activator nonlinearity is the cubic ``f(u) = -u (u - beta) (u - 1)`` whose
unstable zero ``beta`` is tied to the interface-width parameter ``epsilon``.
The balanced double well ``F0`` and its tilt ``G`` are derived from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidParameterError, RegimeError

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Params:
    """Physical parameters of the activator-inhibitor system.

    alpha   -- driving force toward the excited state
    gamma   -- inhibitor decay rate
    sigma   -- inhibition strength
    epsilon -- interface width; 0 means "sharp-interface limit level"
    """

    alpha: float
    gamma: float
    sigma: float
    epsilon: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.alpha, self.gamma, self.sigma, self.epsilon))):
            raise InvalidParameterError(f"parameters must be finite, got {self}")
        if self.alpha <= 0 or self.gamma <= 0 or self.sigma <= 0:
            raise InvalidParameterError(
                "alpha, gamma, sigma must be strictly positive, got "
                f"alpha={self.alpha}, gamma={self.gamma}, sigma={self.sigma}"
            )
        if self.epsilon < 0:
            raise InvalidParameterError(f"epsilon must be >= 0, got {self.epsilon}")

    @property
    def beta_eps(self) -> float:
        """Unstable zero of the cubic, 1/2 - alpha*epsilon/sqrt(2)."""
        return 0.5 - self.alpha * self.epsilon / SQRT2

    @property
    def epsilon_cap(self) -> float:
        """Largest epsilon for which the small-interface estimates apply."""
        return min(1.0 / self.sigma, 1.0 / (2.0 * self.alpha))

    def require_small_epsilon(self) -> None:
        """Guard for operations that assume the interface width is small."""
        if not 0.0 < self.epsilon <= self.epsilon_cap:
            raise InvalidParameterError(
                f"epsilon={self.epsilon} outside (0, {self.epsilon_cap}] "
                "required for interface-scale operations"
            )


class RegimeTag(Enum):
    FRONT = "front"
    PULSE = "pulse"
    NEITHER = "neither"


@dataclass(frozen=True)
class Regime:
    """Wave-type classification.  ``strict`` is meaningful for fronts only:
    it records whether the defining inequality holds strictly, which the
    finite-epsilon existence result requires."""

    tag: RegimeTag
    strict: bool = True

    @property
    def is_front(self) -> bool:
        return self.tag is RegimeTag.FRONT

    @property
    def is_pulse(self) -> bool:
        return self.tag is RegimeTag.PULSE


def classify(p: Params) -> Regime:
    """Classify the parameter point as front-forming, pulse-forming or neither.

    Front: alpha >= 3*sqrt(2)*sigma/gamma > alpha - 1 > 0 (boundary equality
    allowed, reported with strict=False).  Pulse: 3*sqrt(2)*sigma/gamma >
    alpha > 1.
    """
    s = 3.0 * SQRT2 * p.sigma / p.gamma
    if p.alpha >= s > p.alpha - 1.0 > 0.0:
        return Regime(RegimeTag.FRONT, strict=p.alpha > s)
    if s > p.alpha > 1.0:
        return Regime(RegimeTag.PULSE)
    return Regime(RegimeTag.NEITHER)


def f_eps(u, beta):
    """Cubic nonlinearity -u (u - beta) (u - 1), vectorized; at
    beta = Params.beta_eps it is minus the derivative of F0 + alpha eps G."""
    return -u * (u - beta) * (u - 1.0)


def F0(u):
    """Balanced double well u^2 (1 - u)^2 / 4, vectorized."""
    return 0.25 * u * u * (1.0 - u) ** 2


def G(u):
    """Tilt potential (u^3/3 - u^2/2) / sqrt(2), vectorized."""
    return (u * u * u / 3.0 - 0.5 * u * u) / SQRT2


def gamma_star(p: Params) -> float:
    """Equal-area inhibitor slope: the gamma value at which the linear
    nullcline bisects the cubic nullcline into regions of equal area.

    Defined for epsilon > 0 only; use :func:`gamma_star_limit` for the
    leading-order value at the limit level.
    """
    if p.epsilon == 0.0:
        raise InvalidParameterError(
            "gamma_star is undefined at epsilon=0; use gamma_star_limit"
        )
    p.require_small_epsilon()
    beta = p.beta_eps
    return 9.0 * p.epsilon * p.sigma / ((1.0 - 2.0 * beta) * (2.0 - beta))


def gamma_star_limit(p: Params) -> float:
    """Leading term of gamma_star as epsilon -> 0, namely 3*sqrt(2)*sigma/alpha."""
    return 3.0 * SQRT2 * p.sigma / p.alpha


def require_regime(p: Params, tag: RegimeTag) -> Regime:
    """Assert the parameter point lies in the given regime, else raise."""
    regime = classify(p)
    if regime.tag is not tag:
        raise RegimeError(
            f"operation requires the {tag.value} regime but parameters "
            f"(alpha={p.alpha}, gamma={p.gamma}, sigma={p.sigma}) are "
            f"in the {regime.tag.value} regime"
        )
    return regime
