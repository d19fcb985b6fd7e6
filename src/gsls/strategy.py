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


def _shown(value, ok) -> str:
    """A number's repr; for an array, its shape and first entry in C order where ok is False."""
    if not isinstance(value, np.ndarray):
        return repr(value)
    at = tuple(int(i) for i in np.unravel_index(np.argmin(ok), value.shape))
    return f"array(shape={value.shape}), first failing entry {float(value[at])!r} at index {at}"


def _require(name: str, value, ok, rule: str) -> None:
    """ValueError "<name> must be <rule>, got ..." unless ok, one comparison on value, holds."""
    if not (ok if type(ok) is bool else ok.all()):
        raise ValueError(f"{name} must be {rule}, got {_shown(value, ok)}")


@dataclass(frozen=True)
class ControlParams:
    """Controller parameters: initial investment i0 and gains k, alpha, beta.

    All four must be strictly positive and finite, and so must beta*k.  Each
    is a number or an array, and arrays broadcast: one ControlParams holds a
    point, a grid as np.ix_ axes, or one column per path.  The long book
    trades with feedback gain k_long = k, the short book with k_short = beta*k.
    """

    i0: float | np.ndarray
    k: float | np.ndarray
    alpha: float | np.ndarray = 1.0
    beta: float | np.ndarray = 1.0

    def __post_init__(self) -> None:
        with np.errstate(over="ignore"):  # each factor may be valid and beta*k over- or underflow
            for name in ("i0", "k", "alpha", "beta", "beta*k"):
                v = self.k_short if name == "beta*k" else getattr(self, name)
                _require(name, v, (v > 0.0) & (v < math.inf), "positive and finite")

    @property
    def k_long(self):
        return self.k

    @property
    def k_short(self):
        return self.beta * self.k


class Beta1Roots(NamedTuple):
    """Zero crossings and global minimum of the total gain for beta == 1."""

    q_root1: float | np.ndarray
    q_root2: float | np.ndarray
    q_min: float | np.ndarray
    g_min: float | np.ndarray


def _check_ratio(q) -> None:
    q = np.asarray(q)
    _require("price ratio q", q, q > 0.0, "strictly positive")


def _power(q: np.ndarray, e):
    """q**e from numpy's pow loop, for one exponent or an array of them.

    Given one exponent for many bases, numpy replaces pow by 1/q, sqrt(q)
    or q*q at -1, 0.5 and 2, which differ from pow in the last bit on some
    q near 1.  An exponent array of the result's own shape keeps pow, so a
    ControlParams of numbers and one of arrays holding them give the same bits.
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
    ks = params.k_short
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
    ks = params.k_short
    lnq = np.log(q)
    d_long = params.i0 * (_power(q, kl) * (kl * lnq - 1.0) + 1.0) / kl**2
    d_short = params.alpha * params.i0 * (_power(q, -ks) * (-ks * lnq - 1.0) + 1.0) / ks**2
    return d_long, d_short


def _entrywise(fn, nout: int, dtype, *args):
    """fn on each entry of the broadcast args, as one call on numbers per entry.

    fn works in float and math arithmetic, whose pow and log numpy's array
    loops do not always match in the last bit, so every entry gets the bits
    of a call on numbers.  Numbers and 0-d arrays in give fn's own results out.
    It is for accuracy too: numpy's loops changed 8% of scalar beta1_roots
    results, by up to 3 ulp, and in 332 of the 403 fields that differed libm's
    pow was the closer to a 50-digit mpmath value.
    """
    out = np.frompyfunc(fn, len(args), nout)(*args)
    if all(np.ndim(v) == 0 for v in args):
        return out
    return [np.asarray(o, dtype=dtype) for o in out] if nout > 1 else np.asarray(out, dtype=dtype)


def _float_power(a: float, e: float) -> float:
    try:
        return a ** e
    except OverflowError:  # float ** raises where IEEE gives inf
        return math.inf


def _beta1_roots(a, k, i0) -> tuple:
    return (1.0, _float_power(a, 1.0 / k), _float_power(a, 1.0 / (2.0 * k)),
            -(i0 * (math.sqrt(a) - 1.0) ** 2 / k))


def beta1_roots(params: ControlParams) -> Beta1Roots:
    """Roots and minimum of the total gain as a function of q when beta == 1.

    Through u = q**k the total gain factors as (i0/k) * (u-1) * (u-alpha) / u,
    so it vanishes at q = 1 and q = alpha**(1/k) and attains its global
    minimum -i0*(sqrt(alpha)-1)**2/k at q = alpha**(1/(2k)).  For alpha == 1
    the roots coincide at q = 1 and the minimum is 0.  A root past the float
    range is inf, the IEEE value, where float ** would raise.  Array fields
    broadcast, and each field of the result is then an array whose entries
    have the bits of the call on that entry's numbers.
    """
    _require("beta", params.beta, params.beta == 1.0, "1 (roots in closed form require beta == 1)")
    # a power past the float range leaves the overflow flag that numpy's loop reports
    with np.errstate(over="ignore"):
        return Beta1Roots(*_entrywise(_beta1_roots, 4, float, params.alpha, params.k, params.i0))


def positive_gain_condition(params: ControlParams, q) -> bool | np.ndarray:
    """True when (1 - alpha) * ln(q) >= 0.

    Under this condition the total gain is bounded below by
    i0 * (1 - alpha) * ln(q) >= 0 for every k > 0 and beta > 0.  When it
    fails there are always small feedback gains with negative total gain.
    An array alpha or q broadcasts to an array of bools, each entry that of
    the call on its numbers.
    """
    _check_ratio(q)
    return _entrywise(lambda a, q: (1.0 - a) * math.log(q) >= 0.0, 1, bool, params.alpha, q)


# prices in one block of an executor run or a simulation, chosen by
# measurement on one thread of a 2-vCPU x86-64 box: 12 final-gain runs on
# 4000 paths of 253 prices took a median 69, 57, 55 and 58 ms in blocks of
# 2**15, 2**16, 2**17 and 2**18 prices
_BLOCK_PRICES = 1 << 17


def _gain_long(inv_long: np.ndarray, i0, k, out=None) -> np.ndarray:
    """Long-book gain (I_L - i0)/k, in out or a new array; i0 and k are scalars or broadcast."""
    gain = np.subtract(inv_long, i0, out=out)
    return np.divide(gain, k, out=gain)


def _gain_short(inv_short: np.ndarray, alpha_i0, k_short, out=None) -> np.ndarray:
    """Short-book gain -(I_S + alpha*i0)/(beta*k), in out or a new array."""
    gain = np.add(inv_short, alpha_i0, out=out)
    np.negative(gain, out=gain)
    return np.divide(gain, k_short, out=gain)


@dataclass(frozen=True)
class StrategyTrace:
    """Step-by-step record of a discrete strategy run.

    All arrays share the shape of the input prices with time along the last
    axis, so a batch of paths produces a batch of traces in one object.

    run_strategy fills prices, params and final_gain, the total gain at the
    last price, one value per path in a read-only array.  The total gain
    comes from a re-run of the executor on prices, and reading gain alone
    allocates nothing else.  The two investments inv_long and inv_short
    come from one re-run that also fills gain, if it is not yet read, and
    gain_long, gain_short and inv_net from the investments and params, each
    on first access, then cached on the instance, so a caller that reads
    only final_gain never allocates an array of the prices' shape.
    """

    prices: np.ndarray
    params: ControlParams
    final_gain: np.ndarray

    @cached_property
    def gain(self) -> np.ndarray:
        return self._rerun(None)

    @cached_property
    def inv_long(self) -> np.ndarray:
        return self._books()[0]

    @cached_property
    def inv_short(self) -> np.ndarray:
        return self._books()[1]

    def _books(self) -> list[np.ndarray]:
        """Both investments from one re-run of the executor, cached together with gain."""
        books = [np.empty(self.prices.shape) for _ in range(2)]
        gain = self._rerun(books)
        vars(self).setdefault("gain", gain)
        vars(self).update(inv_long=books[0], inv_short=books[1])
        return books

    def _rerun(self, books) -> np.ndarray:
        """The gain from a re-run of the executor on prices, with books as _run takes them.

        The run that made final_gain did the same operations on the last
        column under the caller's numpy error state, so this one ignores
        floating-point errors.  It raises ValueError when its last column
        differs from final_gain in any bit, as it does when the prices
        changed after the run.
        """
        with np.errstate(all="ignore"):
            gain = _run(self.params, self.prices, books)
        if not np.array_equal(gain[..., -1].view(np.uint64), self.final_gain.view(np.uint64)):
            raise ValueError("prices changed after the run; its trace is lost")
        return gain

    @cached_property
    def gain_long(self) -> np.ndarray:
        return _gain_long(self.inv_long, self.params.i0, self.params.k)

    @cached_property
    def gain_short(self) -> np.ndarray:
        return _gain_short(self.inv_short, self.params.alpha * self.params.i0,
                           self.params.k_short)

    @cached_property
    def inv_net(self) -> np.ndarray:
        return self.inv_long + self.inv_short


def run_strategy(params: ControlParams, prices) -> StrategyTrace:
    """Run the discrete feedback strategy over a price series.

    For step n with simple return r_n = (p[n+1] - p[n]) / p[n] the books
    update by one explicit Euler step of dg = (dp/p) * I:

        g_L[n+1] = g_L[n] + r_n * (i0 + k*g_L[n])
        g_S[n+1] = g_S[n] + r_n * (-alpha*i0 - beta*k*g_S[n])

    with investments recomputed from the gains after every step.  Each
    update multiplies the running long investment by (1 + k*r_n) and the
    short investment by (1 - beta*k*r_n), so the whole trace follows from
    cumulative products of those factors, and the final gain from their
    products.

    The final gain converges to gain_total_closed at first order in the
    step size.  On the geometric path q**(n/N), expanding
    N*ln(1 + k*(q**(1/N) - 1)) for each book gives the leading error

        i0*ln(q)**2/(2N) * [q**k*(1-k) - alpha*q**(-beta*k)*(1+beta*k)],

    so halving the step halves the error.

    prices may be any array with time along the last axis; leading axes are
    treated as independent paths.  Each field of params is a number or holds
    one value per path, as an array that broadcasts to prices.shape[:-1] + (1,).

    A run computes only the final gains, on the calling thread, in one
    scratch block of about _BLOCK_PRICES prices that stays in cache.  It
    works through the paths in groups that fill half of it: per group it
    checks the prices, copies them time-major, with one column per path,
    into one half and their returns into the other, forms each book's
    factors in a half and reduces them to one product per path, from which
    the final gains follow.  Every value comes from the same operations in
    the same order whatever the blocks, so the bits do not depend on the
    block size.  The trace's gain and investments come from the same block
    loop, run again on first access with cumulative products in place of
    the products.
    """
    p = np.asarray(prices, dtype=float)
    if p.ndim == 0 or p.shape[-1] < 1:
        raise ValueError("price series must contain at least one price")
    final = _run(params, p, final=True)
    final.flags.writeable = False
    return StrategyTrace(prices=p, params=params, final_gain=final)


def _run(params: ControlParams, p: np.ndarray, books=None, final: bool = False) -> np.ndarray:
    """run_strategy's block loop over the float prices p.

    Each block of paths is copied with time along the first axis into one
    half of a scratch block, and each book's factors are folded along that
    axis by np.multiply, one price of every path at a time, in vector
    registers.  The fold multiplies from the left, the order np.cumprod
    multiplies in.  final reduces the factors to one product per path and
    returns the final gains alone, of shape p.shape[:-1], with the bits of a
    cumulative product's last column.  Otherwise the fold accumulates in
    place and the gain is returned; books is None, or two arrays of p's
    shape that receive inv_long and inv_short.
    """
    n = p.shape[-1]
    rows = p.reshape(-1, n)
    # one value per row, or a scalar for all of them
    per_row = [v if np.ndim(v) == 0 else np.broadcast_to(v, p.shape[:-1] + (1,)).reshape(-1, 1)
               for v in (params.i0, params.k, params.k_short, params.alpha * params.i0)]
    gain = np.empty(p.shape[:-1] if final else p.shape)
    outs = [a.reshape(len(rows), -1) for a in (gain, *(books or ()))]
    fold = ((lambda a: np.multiply.reduce(a, axis=0, keepdims=True)) if final
            else (lambda a: np.multiply.accumulate(a, axis=0, out=a)))

    step = max(1, _BLOCK_PRICES // (2 * n))
    scratch = np.empty((2, min(step, len(rows)) * n))
    for lo in range(0, len(rows), step):
        block = rows[lo:lo + step]
        # a NaN makes the minimum NaN, so both comparisons fail on it
        if not (block.min() > 0.0 and block.max() < math.inf):
            raise ValueError("prices must be finite and strictly positive")
        # one column per path: parameters as rows, and results leave by a transposed copy
        i0, k, k_short, alpha_i0 = (v if np.ndim(v) == 0 else v[lo:lo + step].T for v in per_row)
        g, *book_rows = (a[lo:lo + step] for a in outs)
        # the long book's factors overwrite the prices, the short book's the returns
        long_, r = (half[:block.size].reshape(n, -1) for half in scratch)
        np.copyto(long_, block.T)
        # r holds the return into each price, and a first return of 0 gives each
        # book the unit factor 1 + 0 there, so every pass below covers whole paths
        np.subtract(long_[1:], long_[:-1], out=r[1:])
        r[0] = 0.0
        r[1:] /= long_[:-1]

        np.multiply(r, k, out=long_)
        long_ += 1.0
        r *= k_short
        long_, short = fold(long_), fold(np.subtract(1.0, r, out=r))
        long_ *= i0
        short *= -alpha_i0

        for book, inv in zip(book_rows, (long_, short)):
            np.copyto(book, inv.T)
        _gain_long(long_, i0, k, out=long_)
        long_ += _gain_short(short, alpha_i0, k_short, out=short)
        np.copyto(g, long_.T)
    return gain
