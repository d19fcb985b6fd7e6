"""Target-tracking selection of controller parameters.

Given estimated GBM dynamics and a target gain g*, score every grid point
(k, alpha, beta) by either the squared expected-gain shortfall (bias**2) or
the mean squared error bias**2 + variance, and keep the best.  The search
is exhaustive and deterministic: ties resolve to the smallest k, then
alpha, then beta.  The whole grid is scored in one array evaluation of the
same closed forms that score a single ControlParams.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gbm import GbmParams, expected_gain, gain_variance
from .strategy import ControlParams

__all__ = [
    "DriftAdaptiveTarget",
    "FixedTarget",
    "GridSpec",
    "NoFiniteObjectiveError",
    "Objective",
    "OptimizationResult",
    "TargetPolicy",
    "grid_search",
    "policy_label",
    "resolve_target",
    "trading_bias",
    "trading_mse",
]


class Objective(enum.Enum):
    """Scoring rule for a candidate parameter set."""

    BIAS_SQUARED = "bias"
    MSE = "mse"


@dataclass(frozen=True)
class FixedTarget:
    """One target gain shared by every series."""

    gain: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.gain):
            raise ValueError(f"target gain must be finite, got {self.gain!r}")


@dataclass(frozen=True)
class DriftAdaptiveTarget:
    """Per-series target |mu_hat| + margin.

    Keyed to the estimated drift so that strongly trending series get
    ambitious targets and flat series get modest ones.
    """

    margin: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.margin) and self.margin >= 0.0):
            raise ValueError(f"margin must be non-negative and finite, got {self.margin!r}")


TargetPolicy = FixedTarget | DriftAdaptiveTarget


def resolve_target(policy: TargetPolicy, gp: GbmParams) -> float:
    """Concrete target gain for a series with estimated dynamics gp."""
    if isinstance(policy, FixedTarget):
        return policy.gain
    if isinstance(policy, DriftAdaptiveTarget):
        return abs(gp.mu) + policy.margin
    raise TypeError(f"unknown target policy {policy!r}")


def policy_label(policy: TargetPolicy) -> str:
    if isinstance(policy, FixedTarget):
        return f"fixed{policy.gain:g}"
    if isinstance(policy, DriftAdaptiveTarget):
        return f"drift{policy.margin:g}"
    raise TypeError(f"unknown target policy {policy!r}")


def trading_bias(cp: ControlParams, gp: GbmParams, t: float, target: float):
    """Expected gain at horizon t minus the target gain."""
    return expected_gain(cp, gp, t) - target


def trading_mse(cp: ControlParams, gp: GbmParams, t: float, target: float):
    """Squared bias plus gain variance at horizon t."""
    b = trading_bias(cp, gp, t, target)
    return b * b + gain_variance(cp, gp, t)


@dataclass(frozen=True)
class GridSpec:
    """Candidate values per parameter; sorted and de-duplicated on build."""

    k_values: tuple[float, ...]
    alpha_values: tuple[float, ...]
    beta_values: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("k_values", "alpha_values", "beta_values"):
            raw = getattr(self, name)
            values = tuple(sorted({float(v) for v in raw}))
            if not values:
                raise ValueError(f"{name} must not be empty")
            if not all(math.isfinite(v) and v > 0.0 for v in values):
                raise ValueError(f"{name} must contain positive finite values")
            object.__setattr__(self, name, values)

    @classmethod
    def equally_spaced(cls, lo: float = 0.5, hi: float = 5.0, n: int = 10,
                       sls_only: bool = False) -> "GridSpec":
        """n equally spaced values in [lo, hi] per parameter.

        The default 0.5..5.0 grid deliberately starts above zero: k, alpha
        and beta must stay strictly positive for the controller to be
        defined.  sls_only pins alpha = beta = 1 and searches k alone.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if not (0.0 < lo <= hi):
            raise ValueError(f"need 0 < lo <= hi, got lo={lo}, hi={hi}")
        values = tuple(float(v) for v in np.linspace(lo, hi, n))
        if sls_only:
            return cls(values, (1.0,), (1.0,))
        return cls(values, values, values)

    @classmethod
    def default(cls) -> "GridSpec":
        return cls.equally_spaced()

    @property
    def size(self) -> int:
        return len(self.k_values) * len(self.alpha_values) * len(self.beta_values)

    @property
    def is_sls_only(self) -> bool:
        return self.alpha_values == (1.0,) and self.beta_values == (1.0,)

    def combos(self):
        """All (k, alpha, beta) points in lexicographic order."""
        return itertools.product(self.k_values, self.alpha_values, self.beta_values)


@dataclass(frozen=True)
class OptimizationResult:
    """Winning parameters plus the resolved target and objective value."""

    params: ControlParams
    objective: Objective
    objective_value: float
    target: float
    table: tuple[tuple[float, float, float, float], ...] | None = None


class NoFiniteObjectiveError(ValueError):
    """No grid point has a finite objective value, so no parameter set can win."""


class _GridPoints(NamedTuple):
    """A grid as parallel arrays, in the attribute shape of ControlParams.

    The closed forms read only i0, k, alpha, beta and k_short, so passing
    this in place of a ControlParams scores every point in one evaluation.
    """

    i0: float
    k: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    @property
    def k_short(self) -> np.ndarray:
        return self.beta * self.k


def _objective_value(cp: ControlParams | _GridPoints, gp: GbmParams, t: float,
                     target: float, objective: Objective):
    if objective is Objective.MSE:
        return trading_mse(cp, gp, t, target)
    b = trading_bias(cp, gp, t, target)
    return b * b


def grid_search(gp: GbmParams, t: float, policy: TargetPolicy, grid: GridSpec,
                objective: Objective, i0: float = 1.0, jobs: int = 1,
                keep_table: bool = False) -> OptimizationResult:
    """Exhaustively score the grid and return the best parameter set.

    Every point is scored in one array evaluation.  The winner is the first
    minimum over the finite values in lexicographic (k, alpha, beta) order,
    so ties keep the earliest point; NaN and infinite values never win, and
    NoFiniteObjectiveError is raised when no value is finite or when
    e^(mu*t) underflows to 0, where no point can be scored.  jobs is
    accepted for compatibility and has no effect.
    """
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"horizon t must be positive and finite, got {t!r}")
    # a bad i0 fails here with its own message, not as a grid of NaN
    ControlParams(i0, grid.k_values[0], grid.alpha_values[0], grid.beta_values[0])
    target = resolve_target(policy, gp)
    k, alpha, beta = (axis.ravel() for axis in np.meshgrid(
        grid.k_values, grid.alpha_values, grid.beta_values, indexing="ij"))
    with np.errstate(over="ignore", invalid="ignore"):
        # the mean gain is the closed form at q = e^(mu*t), undefined at q == 0
        if not np.exp(gp.mu * t) > 0.0:
            raise NoFiniteObjectiveError(
                f"price ratio e^(mu*t) underflows to 0 at mu*t = {gp.mu * t:g}")
        values = _objective_value(_GridPoints(i0, k, alpha, beta), gp, t, target, objective)
    finite = np.isfinite(values)
    if not finite.any():
        raise NoFiniteObjectiveError("no grid point has a finite objective value")
    best = int(np.argmin(np.where(finite, values, np.inf)))
    table = None
    if keep_table:
        table = tuple(zip(k.tolist(), alpha.tolist(), beta.tolist(), values.tolist()))
    return OptimizationResult(
        params=ControlParams(i0, float(k[best]), float(alpha[best]), float(beta[best])),
        objective=objective,
        objective_value=float(values[best]),
        target=float(target),
        table=table,
    )
