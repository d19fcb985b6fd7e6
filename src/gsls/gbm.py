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

from .strategy import _BLOCK_PRICES, ControlParams, _require, _usable_cpus, gain_total_closed

__all__ = [
    "GbmParams",
    "TRADING_DAYS_PER_YEAR",
    "estimate_mle",
    "expected_gain",
    "gain_variance",
    "simulate_paths",
]

TRADING_DAYS_PER_YEAR = 252

# fdlibm's Cody-Waite split of ln 2: n * _LN2_HI is exact for |n| <= _LN2_MAX_N,
# which keeps n in an int and 2**n far past the float range
_LN2 = math.log(2.0)
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_LN2_MAX_N = 1 << 20


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
        mu, sigma, dt = self.mu, self.sigma, self.dt
        _require("mu", mu, abs(mu) < math.inf, "finite")
        _require("sigma", sigma, (sigma >= 0.0) & (sigma < math.inf), "non-negative and finite")
        _require("dt", dt, (dt > 0.0) & (dt < math.inf), "positive and finite")


def simulate_paths(params: GbmParams, p0: float, steps: int, n_paths: int, seed) -> np.ndarray:
    """Simulate independent GBM paths; returns shape (n_paths, steps + 1).

    Identical seeds reproduce identical paths.  The returned array is the
    only one of that size: the paths are drawn in blocks of about
    _BLOCK_PRICES prices that stay in cache, each block's normal draws
    filling a reused scratch buffer.  They become the log increments in
    place, and their running sum, its exponential and the scaling by p0
    are written straight into the block's rows of the returned array.
    Drawing row blocks one after another consumes the generator's stream in
    the order one draw of shape (n_paths, steps) would, so the blocks do not
    change the bits.  With more than one block and more than one CPU in the
    process's affinity mask, one helper thread draws the next block's
    normals into a second buffer while this thread transforms the current
    block; the one generator still draws the blocks in order, so the bits
    do not depend on it.  One CPU or one block starts no thread.  Each
    block is checked while it is in cache: a price that overflows to inf or
    underflows to 0 raises ValueError, without a numpy warning, as does a
    sigma whose square overflows.
    """
    _require("p0", p0, (p0 > 0.0) & (p0 < math.inf), "positive and finite")
    _require("steps", steps, steps >= 1, ">= 1")
    _require("n_paths", n_paths, n_paths >= 1, ">= 1")
    rng = np.random.default_rng(seed)
    scale = params.sigma * math.sqrt(params.dt)
    try:
        drift = (params.mu - 0.5 * params.sigma**2) * params.dt
    except OverflowError:  # float ** raises where IEEE gives inf; every price then underflows
        drift = -math.inf
    out = np.empty((n_paths, steps + 1))
    step = max(1, _BLOCK_PRICES // steps)
    blocks = [out[lo:lo + step] for lo in range(0, n_paths, step)]
    helper = len(blocks) > 1 and _usable_cpus() > 1
    z = np.empty((1 + helper, len(blocks[0]), steps))

    def draw(i: int) -> np.ndarray:
        block = z[i % len(z), :len(blocks[i])]
        rng.standard_normal(out=block)
        return block

    def transform(rows: np.ndarray, block: np.ndarray) -> None:
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

    if not helper:
        for i, rows in enumerate(blocks):
            transform(rows, draw(i))
        return out
    from concurrent.futures import ThreadPoolExecutor

    # leaving the pool waits for the draw in flight, so an error leaves no thread
    with ThreadPoolExecutor(1) as pool:
        drawn = pool.submit(draw, 0)
        for i, rows in enumerate(blocks):
            block = drawn.result()
            if i + 1 < len(blocks):
                drawn = pool.submit(draw, i + 1)
            transform(rows, block)
    return out


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
    _require("prices", p, (p > 0.0) & (p < math.inf), "finite and strictly positive")
    _require("dt", dt, (dt > 0.0) & (dt < math.inf), "positive and finite")
    r = np.diff(np.log(p))
    rbar = r.mean()
    sigma2 = np.mean((r - rbar) ** 2) / dt
    mu = rbar / dt + 0.5 * sigma2
    return GbmParams(mu=float(mu), sigma=float(math.sqrt(sigma2)), dt=dt)


def _check_horizon(t) -> None:
    _require("horizon t", t, (t >= 0.0) & (t < math.inf), ">= 0 and finite")


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
    0 * inf; those entries alone are summed scaled by e**-top for the largest
    exponent top, with e**top applied last, so only a true overflow stays
    non-finite, as +inf.  There an exponent b that reads inf * 0 is formed
    again from k*sigma, and a book's a + b that reads -inf + inf takes the
    sign of the exact sum.  Where top itself overflows, the entry is +inf if
    some e**b - 1 is positive and 0 if every one is 0, and where sigma or t
    is 0 it is 0.  Where sigma**2*t is tiny the terms cancel to
    O((sigma**2*t)**2), and a sum that rounding leaves below 0 reads 0.
    cp may carry arrays of gains; the square is np.square so that a scalar
    and an array round it the same way.
    """
    _check_horizon(t)
    k = cp.k
    ks = cp.k_short
    c = cp.alpha / cp.beta
    m = gp.mu
    s2 = gp.sigma * gp.sigma
    # (scale, x, y) of the long term, the short term and the covariance, where x and y
    # are the signed gains of the two books in the term, and its (scale, a, b)
    pairs = [(1.0, k, k), (c * c, -ks, -ks), (c, k, -ks)]
    terms = [(scale, (x + y) * m * t, x * y * s2 * t) for scale, x, y in pairs]
    var_long, var_short, cov = (scale * np.exp(a) * np.expm1(b) for scale, a, b in terms)
    var = np.square(cp.i0 / k) * (var_long + var_short + 2.0 * cov)
    bad = ~np.isfinite(var)
    if bad.any():
        # at those entries, sum each term w * scale * e**a * |e**b - 1|, with the sum's
        # weights and signs w = 1, 1, -2, as w * scale * (1 - e**-|b|) * e**(big - top),
        # where big = a + max(b, 0) and top is the largest big; then apply e**top as
        # 2**n * e**r, and (i0/k)**2 likewise, so no partial result overflows
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # b read inf * 0 where k*k or sigma**2 left the float range: take it from k*sigma
            terms = [(scale, a, np.where(np.isnan(b), x * gp.sigma * (y * gp.sigma) * t, b))
                     for (scale, a, b), (_, x, y) in zip(terms, pairs)]
            bigs = [a + np.maximum(b, 0.0) for _, a, b in terms]
            # a book's a = -inf met b = +inf; its a + b = 2*x*t*(mu + x*sigma**2/2) has
            # the sign of x*(mu + x*sigma**2/2), which does not overflow to NaN
            bigs = [np.where(np.isnan(big), np.copysign(math.inf, x * (m + 0.5 * x * s2)), big)
                    for big, (_, x, _) in zip(bigs, pairs)]
            top = np.maximum(np.maximum(bigs[0], bigs[1]), bigs[2])
            rel = sum(w * scale * -np.expm1(-np.abs(b)) * np.exp(big - top)
                      for w, (scale, _, b), big in zip((1.0, 1.0, -2.0), terms, bigs))
            past = top == math.inf
            # past the clip every entry is 0 or inf, or 0 where rel is, as at sigma == 0
            top = np.clip(top, -_LN2_MAX_N * _LN2_HI, _LN2_MAX_N * _LN2_HI)
            n = np.rint(top / _LN2)
            r = (top - n * _LN2_HI) - n * _LN2_LO
            frac, exp2 = np.frexp(cp.i0 / k)
            scaled = np.ldexp(np.square(frac) * rel * np.exp(r), n.astype(np.int64) + 2 * exp2)
            # an exponent past the float range made e**(big - top) e**(inf - inf): there
            # the variance is inf if a term grows, and 0 if every e**b - 1 is 0
            grows = (terms[0][2] > 0.0) | (terms[1][2] > 0.0) | (terms[2][2] > 0.0)
            scaled = np.where(past, np.where(grows, math.inf, 0.0), scaled)
            # where sigma or t is 0 the variance is 0, whatever inf * 0 made of a or b
            scaled = np.where((gp.sigma == 0.0) | (np.asarray(t) == 0.0), 0.0, scaled)
            var = np.where(bad, scaled, var)[()]
    return np.maximum(var, 0.0)
