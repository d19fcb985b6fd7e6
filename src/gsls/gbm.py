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

from .strategy import ControlParams, gain_total_closed

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
    """GBM drift mu, volatility sigma >= 0 and sampling interval dt > 0."""

    mu: float
    sigma: float
    dt: float = 1.0 / TRADING_DAYS_PER_YEAR

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu)):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be non-negative and finite, got {self.sigma!r}")
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

    Identical seeds reproduce identical paths.  The normal draws become the
    log increments in place, and their running sum, its exponential and the
    scaling by p0 are written straight into the returned array.
    """
    if not (math.isfinite(p0) and p0 > 0.0):
        raise ValueError(f"p0 must be positive and finite, got {p0!r}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_paths, steps))
    z *= params.sigma * math.sqrt(params.dt)
    z += (params.mu - 0.5 * params.sigma**2) * params.dt
    out = np.empty((n_paths, steps + 1))
    out[:, 0] = p0
    tail = out[:, 1:]
    np.cumsum(z, axis=1, out=tail)
    np.exp(tail, out=tail)
    tail *= p0
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
    if not np.all(np.asarray(t) >= 0.0):
        raise ValueError("horizon t must be >= 0")


def expected_gain(cp: ControlParams, gp: GbmParams, t):
    """Expected strategy gain at horizon t under GBM.

    Equals (i0/k) * (e**(k*mu*t) - 1 + (alpha/beta)*(e**(-beta*k*mu*t) - 1)),
    i.e. the deterministic total gain evaluated at the ratio q = e**(mu*t);
    volatility drops out of the mean.  cp may carry arrays of gains, which
    score a whole grid at once.
    """
    _check_horizon(t)
    return gain_total_closed(cp, np.exp(gp.mu * t))


def _variance_term(scale, a, b):
    """scale * e**a * (e**b - 1), one term of the gain variance.

    The product reads 0 * inf = NaN in two places where the term is not
    NaN.  Where b == 0 (sigma == 0), e**b - 1 is exactly 0, so the term is 0
    even where e**a overflows.  Where e**a underflows to 0 while e**b - 1
    overflows, e**b - 1 equals e**b to double precision, so the term is
    scale * e**(a + b).
    """
    term = scale * np.exp(a) * np.expm1(b)
    nan = np.isnan(term)
    if nan.any():
        term = np.where(nan, np.where(b == 0.0, 0.0, scale * np.exp(a + b)), term)
    return term


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
    it reads inf, or inf - inf when a book's term meets the covariance; those
    entries alone are summed in log space, so only a true overflow stays
    non-finite, as +inf.
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
    var_long, var_short, cov = (_variance_term(*term) for term in terms)
    var = np.square(cp.i0 / k) * (var_long + var_short + 2.0 * cov)
    bad = ~np.isfinite(var)
    if bad.any():
        # a term overflowed (inf, or inf - inf against the covariance); there,
        # sum the terms scaled by the largest, whose logs do not overflow
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # ln|w * scale * e**a * (e**b - 1)| with the sum's weights w = 1, 1, -2
            logs = [np.log(w * scale) + a + np.maximum(b, 0.0) + np.log(-np.expm1(-np.abs(b)))
                    for w, (scale, a, b) in zip((1.0, 1.0, 2.0), terms)]
            top = np.maximum(np.maximum(logs[0], logs[1]), logs[2])
            rel = np.exp(logs[0] - top) + np.exp(logs[1] - top) - np.exp(logs[2] - top)
            var = np.where(bad, np.exp(2.0 * np.log(cp.i0 / k) + top + np.log(rel)), var)[()]
    return var
