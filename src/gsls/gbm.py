"""Geometric Brownian motion price modeling and strategy moments.

Simulated paths step on the exact log-normal transition

    p[n+1] = p[n] * exp((mu - sigma**2/2)*dt + sigma*sqrt(dt)*Z_n)

so the price process itself carries no discretization error.  Drift and
volatility are per unit time; the default dt of one trading day makes them
annualized.

Under GBM the long investment factor is the log-normal
Z_L = exp((k*mu - (k*sigma)**2/2)*t + k*sigma*W_t) and the short factor is
its analog driven by -beta*k*sigma*W_t.  The strategy gain is

    g(t) = (i0/k)*(Z_L - 1) + (alpha*i0/(beta*k))*(Z_S - 1)

which yields the expected gain and gain variance in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .strategy import _BLOCK_PRICES, ControlParams, gain_total_closed

__all__ = [
    "GbmParams",
    "GbmPath",
    "TRADING_DAYS_PER_YEAR",
    "estimate_mle",
    "expected_gain",
    "gain_variance",
    "simulate_path",
    "simulate_paths",
]

TRADING_DAYS_PER_YEAR = 252


@dataclass(frozen=True)
class GbmParams:
    """GBM drift mu, volatility sigma >= 0 and sampling interval dt > 0.

    mu and sigma are each a number or an array, and arrays broadcast, as in
    ControlParams: one GbmParams holds one series' dynamics or a column of
    many, which the moments score in one evaluation.  dt is a number, and
    simulate_paths reads numbers.
    """

    mu: float | np.ndarray
    sigma: float | np.ndarray
    dt: float = 1.0 / TRADING_DAYS_PER_YEAR

    def __post_init__(self) -> None:
        mu, sigma = self.mu, self.sigma
        # math for a number, as ControlParams checks it; one numpy check for an array
        if not (np.all(np.isfinite(mu)) if isinstance(mu, np.ndarray) else math.isfinite(mu)):
            raise ValueError(f"mu must be finite, got {mu!r}")
        if not (np.all(np.isfinite(sigma) & (sigma >= 0.0)) if isinstance(sigma, np.ndarray)
                else math.isfinite(sigma) and sigma >= 0.0):
            raise ValueError(f"sigma must be non-negative and finite, got {sigma!r}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")


@dataclass(frozen=True)
class GbmPath:
    """One simulated path together with the settings that produced it."""

    params: GbmParams
    p0: float
    seed: int
    prices: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.prices) - 1


def simulate_paths(params: GbmParams, p0: float, steps: int, n_paths: int, seed) -> np.ndarray:
    """Simulate independent GBM paths; returns shape (n_paths, steps + 1).

    Identical seeds reproduce identical paths.  The returned array is the
    only one of that size: the paths are drawn in blocks of about
    _BLOCK_PRICES prices that stay in cache, each block's normal draws
    filling one reused scratch buffer.  They become the log increments in
    place, and their running sum, its exponential and the scaling by p0
    are written straight into the block's rows of the returned array.
    Drawing row blocks one after another consumes the generator's stream in
    the order one draw of shape (n_paths, steps) would, so the blocks do not
    change the bits.  One thread does all of it: the generator is
    sequential.  Each block is checked while it is in cache: a price that
    overflows to inf or underflows to 0 raises ValueError, without a numpy
    warning.
    """
    if not (math.isfinite(p0) and p0 > 0.0):
        raise ValueError(f"p0 must be positive and finite, got {p0!r}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    rng = np.random.default_rng(seed)
    scale = params.sigma * math.sqrt(params.dt)
    drift = (params.mu - 0.5 * params.sigma**2) * params.dt
    out = np.empty((n_paths, steps + 1))
    step = max(1, _BLOCK_PRICES // steps)
    z = np.empty((min(step, n_paths), steps))
    for lo in range(0, n_paths, step):
        rows = out[lo:lo + step]
        block = z[:len(rows)]
        rng.standard_normal(out=block)
        with np.errstate(all="ignore"):  # the check below reports what went out of range
            block *= scale
            block += drift
            np.cumsum(block, axis=1, out=rows[:, 1:])
            # exp(0) * p0 is p0 exactly, so the whole block is one flat pass
            rows[:, 0] = 0.0
            np.exp(rows, out=rows)
            rows *= p0
        low, high = rows.min(), rows.max()
        if not (low > 0.0 and high < math.inf):  # NaN fails both
            raise ValueError(f"simulated prices must be positive and finite, got "
                             f"{float(high if low > 0.0 else low)!r} at mu {params.mu!r}, "
                             f"sigma {params.sigma!r}")
    return out


def simulate_path(params: GbmParams, p0: float, steps: int, seed) -> GbmPath:
    """Simulate one GBM path of `steps` steps from p0."""
    prices = simulate_paths(params, p0, steps, 1, seed)[0]
    return GbmPath(params=params, p0=p0, seed=seed, prices=prices)


def estimate_mle(prices, dt: float = 1.0 / TRADING_DAYS_PER_YEAR) -> GbmParams:
    """Maximum-likelihood GBM parameters from an observed price series.

    With log returns r_i = ln(p_i / p_{i-1}),

        sigma_hat**2 = mean((r_i - rbar)**2) / dt        (divisor n, biased)
        mu_hat       = rbar / dt + sigma_hat**2 / 2

    The sigma**2/2 term undoes the drift reduction built into the log-price
    process.  Needs at least 3 prices.
    """
    p = np.asarray(prices, dtype=float)
    if p.ndim != 1 or p.shape[0] < 3:
        raise ValueError("estimation needs a 1-d series of at least 3 prices")
    if not (np.all(np.isfinite(p)) and np.all(p > 0.0)):
        raise ValueError("prices must be finite and strictly positive")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    r = np.diff(np.log(p))
    rbar = r.mean()
    sigma2 = np.mean((r - rbar) ** 2) / dt
    mu = rbar / dt + 0.5 * sigma2
    return GbmParams(mu=float(mu), sigma=float(math.sqrt(sigma2)), dt=dt)


def _check_horizon(t) -> None:
    t = np.asarray(t)
    if not np.all(np.isfinite(t) & (t >= 0.0)):
        raise ValueError("horizon t must be >= 0 and finite")


def expected_gain(cp: ControlParams, gp: GbmParams, t):
    """Expected strategy gain at horizon t under GBM.

    Equals (i0/k) * (e**(k*mu*t) - 1 + (alpha/beta)*(e**(-beta*k*mu*t) - 1)),
    i.e. the deterministic total gain evaluated at the ratio q = e**(mu*t);
    volatility drops out of the mean.  cp may carry arrays of gains, which
    score a whole grid at once.
    """
    _check_horizon(t)
    return gain_total_closed(cp, np.exp(gp.mu * t))


def gain_variance(cp: ControlParams, gp: GbmParams, t):
    """Variance of the strategy gain at horizon t under GBM.

    Log-normal moments of the long and short investment factors give, with
    c = alpha/beta and k_s = beta*k,

        (i0/k)**2 * ( e**(2*k*mu*t) * (e**((k*sigma)**2 * t) - 1)
                    + c**2 * e**(-2*k_s*mu*t) * (e**((k_s*sigma)**2 * t) - 1)
                    + 2*c * e**((k - k_s)*mu*t) * (e**(-k*k_s*sigma**2*t) - 1) )

    The last term is twice the long-short covariance scaled by c; it is
    non-positive because the books hedge each other.  The variance is zero
    iff sigma == 0 or t == 0.  Where a factor of the product form overflows,
    it reads inf, inf - inf when a book's term meets the covariance, or
    0 * inf; those entries alone are summed in log space, so only a true
    overflow stays non-finite, as +inf.  Where sigma**2*t is tiny the terms
    cancel to O((sigma**2*t)**2), and a sum that rounding leaves below 0 reads 0.
    cp may carry arrays of gains; the square is np.square so that a scalar
    and an array round it the same way.
    """
    _check_horizon(t)
    k = cp.k
    ks = cp.k_short
    c = cp.alpha / cp.beta
    m = gp.mu
    s2 = gp.sigma * gp.sigma
    # (scale, a, b) of the long term, the short term and the covariance
    terms = [(1.0, 2.0 * k * m * t, k * k * s2 * t),
             (c * c, -2.0 * ks * m * t, ks * ks * s2 * t),
             (c, (k - ks) * m * t, -(k * ks) * s2 * t)]
    var_long, var_short, cov = (scale * np.exp(a) * np.expm1(b) for scale, a, b in terms)
    var = np.square(cp.i0 / k) * (var_long + var_short + 2.0 * cov)
    bad = ~np.isfinite(var)
    if bad.any():
        # at those entries, sum the terms scaled by the largest, whose logs do not overflow
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # ln|w * scale * e**a * (e**b - 1)| with the sum's weights w = 1, 1, -2,
            # adding a and b first, as the product form's e**(a + b) would
            logs = [a + np.maximum(b, 0.0) + (np.log(w * scale) + np.log(-np.expm1(-np.abs(b))))
                    for w, (scale, a, b) in zip((1.0, 1.0, 2.0), terms)]
            top = np.maximum(np.maximum(logs[0], logs[1]), logs[2])
            rel = np.exp(logs[0] - top) + np.exp(logs[1] - top) - np.exp(logs[2] - top)
            # every term is 0 where top is -inf: b == 0, as at sigma == 0
            log_var = np.where(top == -np.inf, -np.inf, 2.0 * np.log(cp.i0 / k) + top + np.log(rel))
            var = np.where(bad, np.exp(log_var), var)[()]
    return np.maximum(var, 0.0)
