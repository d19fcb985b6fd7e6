"""Target-tracking selection of controller parameters.

Given estimated GBM dynamics and a target gain g*, score every grid point
(k, alpha, beta) by either the squared expected-gain shortfall (bias**2) or
the mean squared error bias**2 + variance, and keep the best.  The search
is exhaustive and deterministic: ties resolve to the smallest k, then
alpha, then beta.  The whole grid, for a chunk of series at once, is one
ControlParams of arrays, scored against one GbmParams of the chunk's columns
in one evaluation of the same closed forms that score a single point.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .gbm import GbmParams, expected_gain, gain_variance
from .strategy import ControlParams, _require

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
        _require("target gain", self.gain, abs(self.gain) < math.inf, "finite")  # NaN fails


@dataclass(frozen=True)
class DriftAdaptiveTarget:
    """Per-series target |mu_hat| + margin.

    Keyed to the estimated drift so that strongly trending series get
    ambitious targets and flat series get modest ones.
    """

    margin: float

    def __post_init__(self) -> None:
        m = self.margin
        _require("margin", m, (m >= 0.0) & (m < math.inf), "non-negative and finite")


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
            values = tuple(sorted({float(v) for v in getattr(self, name)}))
            if not values:
                raise ValueError(f"{name} must not be empty")
            object.__setattr__(self, name, values)
        # every point is a controller, which checks each value and beta*k, naming the first failure
        ControlParams(1.0, *np.ix_(self.k_values, self.alpha_values, self.beta_values))

    @classmethod
    def equally_spaced(cls, lo: float = 0.5, hi: float = 5.0, n: int = 10,
                       sls_only: bool = False) -> "GridSpec":
        """n equally spaced values in [lo, hi] per parameter.

        The default 0.5..5.0 grid deliberately starts above zero: k, alpha
        and beta must stay strictly positive for the controller to be
        defined.  sls_only pins alpha = beta = 1 and searches k alone.
        """
        _require("n", n, n >= 1, ">= 1")
        if not (0.0 < lo <= hi < math.inf):
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

    def combos(self):
        """All (k, alpha, beta) points in lexicographic order."""
        return itertools.product(self.k_values, self.alpha_values, self.beta_values)


@dataclass(frozen=True)
class OptimizationResult:
    """Winning parameters plus the resolved target and objective value."""

    params: ControlParams
    objective_value: float
    target: float
    table: tuple[tuple[float, float, float, float], ...] | None = None


class NoFiniteObjectiveError(ValueError):
    """No grid point has a finite objective value, so no parameter set can win."""


# the grid's former parameter type, kept as a name for code that imports it
_GridPoints = ControlParams


def _objective_value(cp: ControlParams, gp: GbmParams, t: float, target: float,
                     objective: Objective):
    if objective is Objective.MSE:
        return trading_mse(cp, gp, t, target)
    b = trading_bias(cp, gp, t, target)
    return b * b


def _check_search_horizon(t: float) -> None:
    """grid_search's horizon rule, which the CLI also applies before it reads any input."""
    _require("horizon t", t, (t > 0.0) & (t < math.inf), "positive and finite")


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
    result, = _search([gp], [t], policy, grid, objective, i0, keep_table)
    if isinstance(result, NoFiniteObjectiveError):
        raise result
    return result


# grid points times series scored in one evaluation: each temporary of a chunk holds at
# most this many floats, or one series' whole grid where that is more (--grid-n 33)
_CHUNK_CELLS = 1 << 15


def _search(gps, ts, policy: TargetPolicy, grid: GridSpec, objective: Objective,
            i0: float = 1.0, keep_table: bool = False) -> list:
    """grid_search for every (gp, t) pair, a chunk of pairs per evaluation.

    Returns per pair the OptimizationResult grid_search returns, or the
    NoFiniteObjectiveError it raises.  In a chunk, the grid axes broadcast
    as k (K,1,1), alpha (1,A,1) and beta (1,1,B) against one row per pair,
    so each factor is computed once per distinct value, and every value has
    the bits of grid_search on its pair alone.
    """
    for t in ts:
        _check_search_horizon(t)
    if not gps:
        return []
    # a bad i0 fails here with its own message, not as a grid of NaN
    points = ControlParams(i0, *np.ix_(grid.k_values, grid.alpha_values, grid.beta_values))
    targets = [resolve_target(policy, gp) for gp in gps]
    mu, sigma, t, target = (np.array(column, dtype=float).reshape(-1, 1, 1, 1) for column in (
        [gp.mu for gp in gps], [gp.sigma for gp in gps], ts, targets))
    combos = list(grid.combos())
    results = [None] * len(gps)
    with np.errstate(over="ignore", invalid="ignore"):
        # the mean gain is the closed form at q = e^(mu*t), undefined at q == 0;
        # such rows stay out of the chunks, whose closed forms reject any q == 0
        underflow = np.exp(mu * t).ravel() == 0.0
    for i in np.flatnonzero(underflow).tolist():
        results[i] = NoFiniteObjectiveError(
            f"price ratio e^(mu*t) underflows to 0 at mu*t = {gps[i].mu * ts[i]:g}")
    rows = np.flatnonzero(~underflow)
    step = max(1, _CHUNK_CELLS // grid.size)
    for chunk in (rows[lo:lo + step] for lo in range(0, len(rows), step)):
        with np.errstate(over="ignore", invalid="ignore"):
            values = _objective_value(points, GbmParams(mu[chunk], sigma[chunk]), t[chunk],
                                      target[chunk], objective).reshape(len(chunk), grid.size)
        finite = np.isfinite(values)
        best = np.argmin(np.where(finite, values, np.inf), axis=1)
        for i, row, b, any_finite in zip(chunk.tolist(), values, best.tolist(),
                                         finite.any(axis=1).tolist()):
            if not any_finite:
                results[i] = NoFiniteObjectiveError("no grid point has a finite objective value")
                continue
            table = None
            if keep_table:
                table = tuple((*combo, v) for combo, v in zip(combos, row.tolist()))
            results[i] = OptimizationResult(
                params=ControlParams(i0, *combos[b]),
                objective_value=float(row[b]),
                target=float(targets[i]),
                table=table,
            )
    return results
