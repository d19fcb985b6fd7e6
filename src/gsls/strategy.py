"""Closed-form gains and the discrete executor for long-short feedback trading.

The controller keeps a long book invested at I_L = I0 + K*g_L and a short
book at I_S = -alpha*I0 - beta*K*g_S, where g_L and g_S are the books'
cumulative gains, K > 0 is the long feedback gain and alpha, beta > 0 scale
the short side.  alpha = beta = 1 is the classical symmetric long-short
controller.

Trading continuously against a deterministic price path gives closed forms
in the price ratio q = p(t)/p(0):

    g_L(q) = (I0/K) * (q**K - 1)
    g_S(q) = (alpha*I0/(beta*K)) * (q**(-beta*K) - 1)

and the total gain g = g_L + g_S.  The discrete executor integrates
dg = (dp/p) * I with one explicit Euler step per price observation, which is
the P&L of a strategy that rebalances at each observed price.  It converges
to the closed forms at first order: on the geometric path p_n = q**(n/N) its
final gain minus g(q) is

    i0*ln(q)**2/(2N) * [q**K*(1-K) - alpha*q**(-beta*K)*(1+beta*K)] + O(N**-2).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "Beta1Roots",
    "ControlParams",
    "StrategyTrace",
    "beta1_roots",
    "feedback_gain_partials",
    "gain_long_closed",
    "gain_short_closed",
    "gain_total_closed",
    "positive_gain_condition",
    "run_strategy",
]


@dataclass(frozen=True)
class ControlParams:
    """Controller parameters: initial investment i0 and gains k, alpha, beta.

    All four must be strictly positive and finite.  The long book trades
    with feedback gain k_long = k, the short book with k_short = beta*k.
    """

    i0: float
    k: float
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        for name in ("i0", "k", "alpha", "beta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    @property
    def k_long(self) -> float:
        return self.k

    @property
    def k_short(self) -> float:
        return self.beta * self.k


class Beta1Roots(NamedTuple):
    """Zero crossings and global minimum of the total gain for beta == 1."""

    q_root1: float
    q_root2: float
    q_min: float
    g_min: float


def _check_ratio(q) -> None:
    if not np.all(np.asarray(q) > 0.0):
        raise ValueError("price ratio q must be strictly positive")


def _power(q: np.ndarray, e):
    """q**e from numpy's pow loop, for one exponent or an array of them.

    Given one exponent for many bases, numpy replaces pow by 1/q, sqrt(q)
    or q*q at -1, 0.5 and 2, which differ from pow in the last bit on some
    q near 1.  An exponent array of the result's own shape keeps pow, so a
    ControlParams and a grid holding it give the same bits.
    """
    e = np.asarray(e, dtype=float)
    shape = np.broadcast_shapes(q.shape, e.shape)
    return np.power(q, np.full(shape or (1,), e)).reshape(shape)[()]


def gain_long_closed(params: ControlParams, q):
    """Closed-form cumulative gain of the long book at price ratio q.

    q may be a float or an ndarray.  params may hold arrays of gains that
    broadcast against q.  q goes through np.asarray and the power through
    _power, so that a scalar takes the same ufunc loop as an array and both
    give the same bits.
    """
    q = np.asarray(q)
    _check_ratio(q)
    return params.i0 / params.k * (_power(q, params.k) - 1.0)


def gain_short_closed(params: ControlParams, q):
    """Closed-form cumulative gain of the short book at price ratio q."""
    q = np.asarray(q)
    _check_ratio(q)
    ks = params.beta * params.k
    return (params.alpha * params.i0) / ks * (_power(q, -ks) - 1.0)


def gain_total_closed(params: ControlParams, q):
    """Total closed-form gain; exactly the sum of the long and short books."""
    return gain_long_closed(params, q) + gain_short_closed(params, q)


def feedback_gain_partials(params: ControlParams, q):
    """Partial derivatives of the total gain in the feedback gains.

    With K_L = k and K_S = beta*k,

        dg/dK_L = i0 * (q**K_L * (K_L*ln q - 1) + 1) / K_L**2
        dg/dK_S = alpha*i0 * (q**(-K_S) * (-K_S*ln q - 1) + 1) / K_S**2

    Both are non-negative for every q > 0 because e**x * (x - 1) + 1 >= 0;
    the total gain never decreases when either feedback gain grows.  As in
    the closed forms, q goes through np.asarray and the powers through
    _power, so a scalar q and an array of it give the same bits.
    """
    q = np.asarray(q)
    _check_ratio(q)
    kl = params.k
    ks = params.beta * params.k
    lnq = np.log(q)
    d_long = params.i0 * (_power(q, kl) * (kl * lnq - 1.0) + 1.0) / kl**2
    d_short = params.alpha * params.i0 * (_power(q, -ks) * (-ks * lnq - 1.0) + 1.0) / ks**2
    return d_long, d_short


def beta1_roots(params: ControlParams) -> Beta1Roots:
    """Roots and minimum of the total gain as a function of q when beta == 1.

    Through u = q**k the total gain factors as (i0/k) * (u-1) * (u-alpha) / u,
    so it vanishes at q = 1 and q = alpha**(1/k) and attains its global
    minimum -i0*(sqrt(alpha)-1)**2/k at q = alpha**(1/(2k)).  For alpha == 1
    the roots coincide at q = 1 and the minimum is 0.
    """
    if params.beta != 1.0:
        raise ValueError(f"roots in closed form require beta == 1, got beta={params.beta}")
    a, k, i0 = params.alpha, params.k, params.i0
    return Beta1Roots(
        q_root1=1.0,
        q_root2=a ** (1.0 / k),
        q_min=a ** (1.0 / (2.0 * k)),
        g_min=-(i0 * (math.sqrt(a) - 1.0) ** 2 / k),
    )


def positive_gain_condition(params: ControlParams, q: float) -> bool:
    """True when (1 - alpha) * ln(q) >= 0.

    Under this condition the total gain is bounded below by
    i0 * (1 - alpha) * ln(q) >= 0 for every k > 0 and beta > 0.  When it
    fails there are always small feedback gains with negative total gain.
    """
    _check_ratio(q)
    return (1.0 - params.alpha) * math.log(q) >= 0.0


# prices in one block of an executor run or a simulation, chosen by
# measurement on two vCPUs: on one thread blocks of 2**15 prices, whose
# arrays fit in L2, ran the executor 6% faster than 2**17, but on two
# threads 2**17 ran it 25% faster, because fewer blocks pass the GIL back
# and forth less often
_BLOCK_PRICES = 1 << 17


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _gain_long(params: ControlParams, inv_long: np.ndarray) -> np.ndarray:
    """Long-book gain (I_L - i0)/k from the long investment, in a new array."""
    gain = inv_long - params.i0
    gain /= params.k
    return gain


def _gain_short(params: ControlParams, inv_short: np.ndarray) -> np.ndarray:
    """Short-book gain -(I_S + alpha*i0)/(beta*k), in a new array."""
    gain = inv_short + params.alpha * params.i0
    np.negative(gain, out=gain)
    gain /= params.k_short
    return gain


@dataclass(frozen=True)
class StrategyTrace:
    """Step-by-step record of a discrete strategy run.

    All arrays share the shape of the input prices with time along the last
    axis, so a batch of paths produces a batch of traces in one object.

    run_strategy fills prices, the two investments and the total gain.
    gain_long, gain_short and inv_net are derived from the investments and
    params on first access, then cached on the instance, so a caller that
    reads only gain never allocates them.  The constructor takes params in
    place of those three arrays.
    """

    times: np.ndarray
    prices: np.ndarray
    params: ControlParams
    gain: np.ndarray
    inv_long: np.ndarray
    inv_short: np.ndarray

    @cached_property
    def gain_long(self) -> np.ndarray:
        return _gain_long(self.params, self.inv_long)

    @cached_property
    def gain_short(self) -> np.ndarray:
        return _gain_short(self.params, self.inv_short)

    @cached_property
    def inv_net(self) -> np.ndarray:
        return self.inv_long + self.inv_short

    @property
    def final_gain(self):
        # a copy, so keeping final gains does not keep every full gain array
        return self.gain[..., -1].copy()


def run_strategy(params: ControlParams, prices, times=None) -> StrategyTrace:
    """Run the discrete feedback strategy over a price series.

    For step n with simple return r_n = (p[n+1] - p[n]) / p[n] the books
    update by one explicit Euler step of dg = (dp/p) * I:

        g_L[n+1] = g_L[n] + r_n * (i0 + k*g_L[n])
        g_S[n+1] = g_S[n] + r_n * (-alpha*i0 - beta*k*g_S[n])

    with investments recomputed from the gains after every step.  Each
    update multiplies the running long investment by (1 + k*r_n) and the
    short investment by (1 - beta*k*r_n), so the whole trace follows from
    cumulative products of those factors.

    The final gain converges to gain_total_closed at first order in the
    step size.  On the geometric path q**(n/N), expanding
    N*ln(1 + k*(q**(1/N) - 1)) for each book gives the leading error

        i0*ln(q)**2/(2N) * [q**k*(1-k) - alpha*q**(-beta*k)*(1+beta*k)],

    so halving the step halves the error.

    prices may be any array with time along the last axis; leading axes are
    treated as independent paths.  params may be a ControlParams or hold one
    value per path, as arrays that broadcast to prices.shape[:-1] + (1,).

    A run allocates the two investments and the gain, and one scratch
    buffer of one block per thread.  It works through the paths in blocks
    of about _BLOCK_PRICES prices that stay in cache: per block it checks
    the prices, writes the returns into the scratch buffer, forms the
    factors and their cumulative products in place in the investment rows,
    and writes the gain, the short book's term going through the scratch
    buffer.  The blocks are spread over threads, one per CPU in the
    process's affinity mask, each running under the caller's numpy error
    state; one CPU or one block starts no thread.  Every value comes from
    the same operations in the same order whatever the blocks and threads,
    so the bits do not depend on the number of CPUs.
    """
    p = np.asarray(prices, dtype=float)
    if p.ndim == 0 or p.shape[-1] < 1:
        raise ValueError("price series must contain at least one price")
    n = p.shape[-1]
    rows = p.reshape(-1, n)
    n_rows = len(rows)
    # one value per row, or a scalar for all of them
    per_row = [v if np.ndim(v) == 0 else np.broadcast_to(v, p.shape[:-1] + (1,)).reshape(-1, 1)
               for v in (params.i0, params.k, params.k_short, params.alpha * params.i0)]
    inv_long = np.empty(p.shape)
    inv_short = np.empty(p.shape)
    gain = np.empty(p.shape)
    books = [a.reshape(-1, n) for a in (inv_long, inv_short, gain)]

    def trade(lo: int, hi: int, scratch: np.ndarray) -> None:
        block = rows[lo:hi]
        # a NaN makes the minimum NaN, so both comparisons fail on it
        if not (block.min() > 0.0 and block.max() < math.inf):
            raise ValueError("prices must be finite and strictly positive")
        i0, k, k_short, alpha_i0 = (v if np.ndim(v) == 0 else v[lo:hi] for v in per_row)
        long_, short, g = (a[lo:hi] for a in books)
        # r[:, j] is the return into price j, and r[:, 0] = 0 gives each book
        # the unit factor 1 + 0 there, so every pass below covers whole rows
        # and, for scalar parameters, runs as one flat loop over the block
        flat, r_flat = block.ravel(), scratch[:block.size]
        r = r_flat.reshape(block.shape)
        np.subtract(flat[1:], flat[:-1], out=r_flat[1:])
        r[:, 0] = 0.0
        r_flat[1:] /= flat[:-1]

        np.multiply(r, k, out=long_)
        long_ += 1.0
        np.cumprod(long_, axis=-1, out=long_)
        long_ *= i0

        r *= k_short
        np.subtract(1.0, r, out=short)
        np.cumprod(short, axis=-1, out=short)
        short *= -alpha_i0

        # (I_L - i0)/k + -(I_S + alpha*i0)/(beta*k), as _gain_long and _gain_short
        np.subtract(long_, i0, out=g)
        g /= k
        np.add(short, alpha_i0, out=r)
        np.negative(r, out=r)
        r /= k_short
        g += r

    step = max(1, _BLOCK_PRICES // n)
    starts = range(0, n_rows, step)
    workers = min(_usable_cpus(), len(starts))

    def work(share: range) -> None:
        scratch = np.empty(min(step, n_rows) * n)
        for lo in share:
            trade(lo, min(lo + step, n_rows), scratch)

    if workers <= 1:
        work(starts)
    else:
        import contextvars
        from concurrent.futures import ThreadPoolExecutor

        # contiguous shares in block order, so the first failing share holds the
        # error a serial loop would raise; new threads do not inherit numpy's
        # error state, a context variable, so each share runs in a copy of ours
        cuts = [len(starts) * j // workers for j in range(workers + 1)]
        with ThreadPoolExecutor(workers) as pool:
            runs = [pool.submit(contextvars.copy_context().run, work, starts[a:b])
                    for a, b in zip(cuts, cuts[1:])]
        for run in runs:
            run.result()

    # checked after the prices, whose error comes first
    if times is None:
        times = np.arange(n)
    else:
        times = np.asarray(times)
        if times.shape != (n,):
            raise ValueError(f"times must have shape ({n},), got {times.shape}")
    return StrategyTrace(times=times, prices=p, params=params, gain=gain,
                         inv_long=inv_long, inv_short=inv_short)
