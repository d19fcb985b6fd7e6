"""Closed-form gains, roots, and the discrete executor."""

import concurrent.futures
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import gsls
from gsls import strategy as strategy_module
from gsls import (
    Beta1Roots,
    ControlParams,
    beta1_roots,
    feedback_gain_partials,
    gain_long_closed,
    gain_short_closed,
    gain_total_closed,
    positive_gain_condition,
    run_strategy,
)
from gsls.optimizer import _GridPoints


def test_control_params_defaults_and_derived_gains():
    p = ControlParams(i0=2.0, k=1.5)
    assert p.alpha == 1.0 and p.beta == 1.0
    assert p.k_long == 1.5
    assert p.k_short == 1.5
    q = ControlParams(1.0, 2.0, alpha=0.5, beta=3.0)
    assert q.k_short == 6.0


@pytest.mark.parametrize("kwargs", [
    {"i0": 0.0, "k": 1.0},
    {"i0": 1.0, "k": 0.0},
    {"i0": 1.0, "k": -1.0},
    {"i0": 1.0, "k": 1.0, "alpha": 0.0},
    {"i0": 1.0, "k": 1.0, "beta": -0.5},
    {"i0": math.inf, "k": 1.0},
    {"i0": 1.0, "k": math.nan},
])
def test_control_params_rejects_non_positive_or_non_finite(kwargs):
    with pytest.raises(ValueError):
        ControlParams(**kwargs)


def test_gain_long_closed_value():
    # (1/3) * (1.5**3 - 1) = 2.375/3
    p = ControlParams(i0=1.0, k=3.0)
    assert gain_long_closed(p, 1.5) == pytest.approx(0.7916666666666666, rel=1e-15)


def test_gain_short_closed_values():
    assert gain_short_closed(ControlParams(1.0, 1.0), 1.0) == 0.0
    assert gain_short_closed(ControlParams(1.0, 1.0, alpha=0.5), 2.0) == pytest.approx(-0.25)
    # alpha=2, beta=2, K=1: (2/2)*(0.5**-2 - 1) = 3
    p = ControlParams(1.0, 1.0, alpha=2.0, beta=2.0)
    assert gain_short_closed(p, 0.5) == pytest.approx(3.0, rel=1e-15)


def test_gain_total_closed_values():
    sls = ControlParams(1.0, 1.0)
    assert gain_total_closed(sls, 2.0) == pytest.approx(0.5, rel=1e-15)
    for k in (0.5, 1.0, 3.7):
        assert gain_total_closed(ControlParams(1.0, k), 1.0) == 0.0
    p = ControlParams(1.0, 1.0, alpha=0.5)
    assert gain_total_closed(p, 2.0) == pytest.approx(0.75, rel=1e-15)


@pytest.mark.parametrize("fn", [gain_long_closed, gain_short_closed, gain_total_closed])
@pytest.mark.parametrize("q", [0.0, -1.0])
def test_closed_forms_reject_non_positive_ratio(fn, q):
    with pytest.raises(ValueError):
        fn(ControlParams(1.0, 1.0), q)


def test_total_is_exactly_long_plus_short():
    rng = np.random.default_rng(11)
    for _ in range(200):
        i0, k, a, b = rng.uniform(0.1, 5.0, size=4)
        q = rng.uniform(0.2, 5.0)
        p = ControlParams(i0, k, a, b)
        assert gain_total_closed(p, q) == gain_long_closed(p, q) + gain_short_closed(p, q)


def test_sls_reduction_non_negative_and_zero_only_at_unit_ratio():
    # alpha = beta = 1 collapses to (i0/k)(q**k + q**-k - 2) >= 0
    rng = np.random.default_rng(12)
    for _ in range(500):
        i0 = rng.uniform(0.5, 2.0)
        k = rng.uniform(0.1, 5.0)
        q = rng.uniform(0.2, 5.0)
        p = ControlParams(i0, k)
        g = gain_total_closed(p, q)
        direct = i0 / k * (q**k + q**(-k) - 2.0)
        assert g == pytest.approx(direct, rel=1e-12, abs=1e-13)
        assert g >= 0.0
        if abs(q - 1.0) > 1e-6:
            assert g > 0.0
    assert gain_total_closed(ControlParams(1.0, 2.0), 1.0) == 0.0


def test_lower_bound_holds_when_condition_is_met():
    # g >= i0*(1-alpha)*ln q whenever (1-alpha)*ln q >= 0
    rng = np.random.default_rng(13)
    for _ in range(1000):
        i0 = rng.uniform(0.5, 2.0)
        k = rng.uniform(0.1, 5.0)
        b = rng.uniform(0.1, 5.0)
        a = rng.uniform(0.1, 5.0)
        q = rng.uniform(1.0, 5.0) if a < 1.0 else rng.uniform(0.2, 1.0)
        p = ControlParams(i0, k, a, b)
        assert positive_gain_condition(p, q)
        bound = i0 * (1.0 - a) * math.log(q)
        g = gain_total_closed(p, q)
        assert g >= bound - 1e-12
        assert g >= -1e-12


def test_positive_gain_condition_cases():
    assert positive_gain_condition(ControlParams(1.0, 1.0, alpha=1.0), 0.3)
    assert positive_gain_condition(ControlParams(1.0, 1.0, alpha=1.0), 7.0)
    assert positive_gain_condition(ControlParams(1.0, 1.0, alpha=0.5), 2.0)
    assert not positive_gain_condition(ControlParams(1.0, 1.0, alpha=0.5), 0.5)
    assert not positive_gain_condition(ControlParams(1.0, 1.0, alpha=2.0), 2.0)
    assert positive_gain_condition(ControlParams(1.0, 1.0, alpha=2.0), 0.5)


def test_condition_failure_admits_a_losing_parameterization():
    # alpha=2, q=2 violates the condition and k=0.5 indeed loses money
    p = ControlParams(1.0, 0.5, alpha=2.0)
    assert not positive_gain_condition(p, 2.0)
    g = gain_total_closed(p, 2.0)
    assert g == pytest.approx(-0.3431457505076194, rel=1e-14)
    assert g == pytest.approx(4.0 * math.sqrt(2.0) - 6.0, rel=1e-14)


def test_beta1_roots_alpha_one_collapses():
    r = beta1_roots(ControlParams(1.0, 1.0))
    assert r == Beta1Roots(1.0, 1.0, 1.0, 0.0)


def test_beta1_roots_values():
    r = beta1_roots(ControlParams(1.0, 2.0, alpha=4.0))
    assert r.q_root1 == 1.0
    assert r.q_root2 == pytest.approx(2.0, rel=1e-15)
    assert r.q_min == pytest.approx(1.4142135623730951, rel=1e-15)
    assert r.g_min == pytest.approx(-0.5, rel=1e-15)

    r = beta1_roots(ControlParams(1.0, 1.0, alpha=0.25))
    assert (r.q_root2, r.q_min, r.g_min) == pytest.approx((0.25, 0.5, -0.25), rel=1e-15)


def test_beta1_roots_agree_with_the_gain_curve():
    rng = np.random.default_rng(14)
    for _ in range(50):
        p = ControlParams(rng.uniform(0.5, 2.0), rng.uniform(0.2, 4.0), rng.uniform(0.2, 4.0))
        r = beta1_roots(p)
        assert gain_total_closed(p, r.q_root1) == pytest.approx(0.0, abs=1e-12)
        assert gain_total_closed(p, r.q_root2) == pytest.approx(0.0, abs=1e-12)
        g_at_min = gain_total_closed(p, r.q_min)
        assert g_at_min == pytest.approx(r.g_min, rel=1e-12, abs=1e-15)
        # local sampling around the claimed minimizer
        for dq in (-1e-4, 1e-4):
            assert gain_total_closed(p, r.q_min * (1.0 + dq)) >= g_at_min


def test_beta1_roots_requires_beta_one():
    with pytest.raises(ValueError):
        beta1_roots(ControlParams(1.0, 1.0, beta=2.0))


def test_partials_match_central_differences():
    h = 1e-6
    rng = np.random.default_rng(15)
    for _ in range(100):
        i0 = rng.uniform(0.5, 2.0)
        kl = rng.uniform(0.3, 4.0)
        ks = rng.uniform(0.3, 4.0)
        a = rng.uniform(0.3, 3.0)
        q = rng.uniform(0.3, 3.0)
        d_long, d_short = feedback_gain_partials(ControlParams(i0, kl, a, ks / kl), q)

        def g(kl_, ks_):
            return gain_total_closed(ControlParams(i0, kl_, a, ks_ / kl_), q)

        fd_long = (g(kl + h, ks) - g(kl - h, ks)) / (2.0 * h)
        fd_short = (g(kl, ks + h) - g(kl, ks - h)) / (2.0 * h)
        assert d_long == pytest.approx(fd_long, rel=1e-4, abs=1e-7)
        assert d_short == pytest.approx(fd_short, rel=1e-4, abs=1e-7)
        assert d_long >= -1e-12 and d_short >= -1e-12


def test_run_strategy_constant_prices():
    p = ControlParams(1.5, 2.0, alpha=0.5, beta=3.0)
    trace = run_strategy(p, np.full(10, 42.0))
    assert np.all(trace.gain == 0.0)
    assert np.all(trace.inv_long == 1.5)
    assert np.all(trace.inv_short == -0.75)
    assert np.all(trace.inv_net == 0.75)
    assert trace.final_gain == 0.0


def test_run_strategy_single_step_by_hand():
    # one 10% move: long book gains 0.1, short book loses 0.1
    trace = run_strategy(ControlParams(1.0, 1.0), [100.0, 110.0])
    assert trace.gain_long[-1] == pytest.approx(0.1, rel=1e-12)
    assert trace.gain_short[-1] == pytest.approx(-0.1, rel=1e-12)
    assert abs(trace.final_gain) < 1e-12
    assert trace.inv_long[-1] == pytest.approx(1.1, rel=1e-12)
    assert trace.inv_short[-1] == pytest.approx(-0.9, rel=1e-12)


def test_run_strategy_matches_gain_form_recurrence():
    # same update written on the gains instead of the investments
    rng = np.random.default_rng(16)
    prices = 100.0 * np.exp(np.cumsum(np.concatenate([[0.0], rng.normal(0, 0.01, 60)])))
    p = ControlParams(1.3, 0.8, alpha=1.7, beta=0.6)
    gl = gs = 0.0
    for n in range(len(prices) - 1):
        r = (prices[n + 1] - prices[n]) / prices[n]
        gl = gl + r * (p.i0 + p.k * gl)
        gs = gs + r * (-p.alpha * p.i0 - p.beta * p.k * gs)
    trace = run_strategy(p, prices)
    assert trace.gain_long[-1] == pytest.approx(gl, rel=1e-12)
    assert trace.gain_short[-1] == pytest.approx(gs, rel=1e-12)
    assert trace.final_gain == pytest.approx(gl + gs, rel=1e-12, abs=1e-15)


def test_run_strategy_converges_to_closed_form():
    # discretizing the same terminal ratio with more steps shrinks the error
    p = ControlParams(1.0, 1.0)
    q = 2.0
    target = gain_total_closed(p, q)
    errors = []
    for n in (1000, 8000):
        path = 100.0 * q ** (np.arange(n + 1) / n)
        errors.append(abs(run_strategy(p, path).final_gain - target))
    assert errors[1] < errors[0] / 4.0
    assert errors[1] / abs(target) < 1e-3


def test_run_strategy_batched_paths_match_individual_runs():
    rng = np.random.default_rng(17)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=(3, 40)), axis=1))
    p = ControlParams(1.0, 2.0, alpha=0.5, beta=1.5)
    batch = run_strategy(p, prices)
    assert batch.gain.shape == (3, 40)
    assert batch.final_gain.shape == (3,)
    for i in range(3):
        single = run_strategy(p, prices[i])
        np.testing.assert_array_equal(batch.gain[i], single.gain)
        np.testing.assert_array_equal(batch.inv_net[i], single.inv_net)


def test_final_gain_is_a_copy_that_does_not_pin_the_gain_array():
    rng = np.random.default_rng(18)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=(4, 30)), axis=1))
    trace = run_strategy(ControlParams(1.0, 1.5, alpha=0.8, beta=1.2), prices)
    final = trace.final_gain
    assert not np.shares_memory(final, trace.gain)
    np.testing.assert_array_equal(final, trace.gain[:, -1])


def test_run_strategy_times_argument():
    trace = run_strategy(ControlParams(1.0, 1.0), [1.0, 2.0], times=[0.0, 0.5])
    assert trace.times[-1] == 0.5
    with pytest.raises(ValueError):
        run_strategy(ControlParams(1.0, 1.0), [1.0, 2.0], times=[0.0, 0.5, 1.0])


@pytest.mark.parametrize("prices", [[], [100.0, -1.0], [100.0, 0.0], [100.0, math.nan], 5.0])
def test_run_strategy_rejects_bad_prices(prices):
    with pytest.raises(ValueError):
        run_strategy(ControlParams(1.0, 1.0), prices)


def test_feedback_gain_partials_scalar_and_array_agree_bit_for_bit():
    # numpy's shortcut for a broadcast exponent of 2 differs from pow in the
    # last bit; a scalar q and an array of q must take the same loop
    qs = np.random.default_rng(21).uniform(0.9, 1.1, 2000)
    for k, beta in [(2.0, 1.0), (1.0, 0.5), (0.5, 2.0), (3.0, 1.0)]:
        params = ControlParams(1.0, k, alpha=1.3, beta=beta)
        d_long, d_short = feedback_gain_partials(params, qs)
        for i, q in enumerate(qs):
            s_long, s_short = feedback_gain_partials(params, float(q))
            assert s_long == d_long[i] and s_short == d_short[i], (k, beta, q)


def _eager_trace(params, prices):
    """The executor's trace as the eager array expressions it is defined by."""
    p = np.asarray(prices, dtype=float)
    r = np.diff(p, axis=-1) / p[..., :-1]
    lead = np.ones(p.shape[:-1] + (1,))
    long_factor = np.concatenate([lead, np.cumprod(1.0 + params.k * r, axis=-1)], axis=-1)
    short_factor = np.concatenate([lead, np.cumprod(1.0 - params.k_short * r, axis=-1)], axis=-1)
    inv_long = params.i0 * long_factor
    inv_short = -(params.alpha * params.i0) * short_factor
    gain_long = (inv_long - params.i0) / params.k
    gain_short = -(inv_short + params.alpha * params.i0) / params.k_short
    return {"gain": gain_long + gain_short, "gain_long": gain_long, "gain_short": gain_short,
            "inv_long": inv_long, "inv_short": inv_short, "inv_net": inv_long + inv_short}


_TRACE_PRICES = {
    "one-price": np.array([42.0]),
    "1-d": 100.0 * np.exp(np.cumsum(np.random.default_rng(22).normal(0, 0.02, 253))),
    "2-d": 50.0 * np.exp(np.cumsum(np.random.default_rng(23).normal(0, 0.03, (6, 40)), axis=1)),
    "3-d": np.exp(np.cumsum(np.random.default_rng(24).normal(0, 0.05, (2, 3, 17)), axis=2)),
    "one-price-batch": np.full((4, 1), 7.0),
}


@pytest.mark.parametrize("name", sorted(_TRACE_PRICES))
@pytest.mark.parametrize("params", [
    ControlParams(1.0, 1.0),
    ControlParams(1.5, 2.0, alpha=0.5, beta=3.0),
    ControlParams(0.7, 4.3, alpha=1.9, beta=0.35),
])
def test_run_strategy_trace_equals_eager_expressions_bit_for_bit(name, params):
    prices = _TRACE_PRICES[name]
    before = prices.copy()
    trace = run_strategy(params, prices)
    np.testing.assert_array_equal(prices, before)  # the caller's prices are untouched
    assert trace.params == params
    for field, expected in _eager_trace(params, before).items():
        got = getattr(trace, field)
        assert got.shape == expected.shape == prices.shape, field
        np.testing.assert_array_equal(got, expected, err_msg=field)


def test_run_strategy_derives_book_gains_and_net_investment_on_first_access():
    prices = _TRACE_PRICES["2-d"]
    trace = run_strategy(ControlParams(1.0, 2.0, alpha=1.5, beta=0.7), prices)
    for field in ("gain_long", "gain_short", "inv_net"):
        assert field not in vars(trace)
        first = getattr(trace, field)
        assert vars(trace)[field] is first
        assert getattr(trace, field) is first
    assert not np.shares_memory(trace.prices, trace.inv_long)
    assert not np.shares_memory(trace.gain, trace.gain_long)


def _walk(shape, seed):
    return 50.0 * np.exp(np.cumsum(np.random.default_rng(seed).normal(0, 0.04, shape), axis=-1))


def _columns(lead, seed):
    """Per-row (i0, k, alpha, beta) columns that broadcast to lead + (1,)."""
    rng = np.random.default_rng(seed)
    return _GridPoints(*(rng.uniform(0.3, 3.0, lead + (1,)) for _ in range(4)))


def _same_bits(got, expected, what):
    assert got.shape == expected.shape, what
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64), err_msg=what)


def _force(monkeypatch, block_prices, workers):
    monkeypatch.setattr(strategy_module, "_BLOCK_PRICES", block_prices)
    monkeypatch.setattr(strategy_module, "_usable_cpus", lambda: workers)


# (prices, params, block prices): 11 rows of 40 in blocks of 3 rows, one row and
# three rows longer than a block, a 3-d batch, and per-row parameter columns
_BLOCKED = {
    "ragged-rows": (_walk((11, 40), 31), ControlParams(1.5, 2.0, alpha=0.5, beta=3.0), 120),
    "one-long-row": (_walk(500, 32), ControlParams(0.7, 4.3, alpha=1.9, beta=0.35), 120),
    "long-rows": (_walk((3, 500), 33), ControlParams(1.0, 1.0), 120),
    "3-d": (_walk((2, 3, 17), 34), ControlParams(1.0, 2.5, alpha=1.2, beta=0.8), 40),
    "row-columns": (_walk((11, 40), 35), _columns((11,), 36), 120),
    "3-d-columns": (_walk((2, 3, 17), 37), _columns((2, 3), 38), 40),
    "3-d-broadcast-columns": (_walk((2, 3, 17), 39), _columns((3,), 40), 40),
}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("name", sorted(_BLOCKED))
def test_run_strategy_in_blocks_equals_eager_expressions_bit_for_bit(monkeypatch, name, workers):
    prices, params, block_prices = _BLOCKED[name]
    _force(monkeypatch, block_prices, workers)
    trace = run_strategy(params, prices)
    for field, expected in _eager_trace(params, prices).items():
        _same_bits(getattr(trace, field), expected, field)


def _overflowing(rows, n):
    """Ordinary paths whose last row alternates 1 and 1e130, so its books overflow."""
    prices = _walk((rows, n), 41)
    prices[-1] = np.where(np.arange(n) % 2, 1e130, 1.0)
    return prices


def test_run_strategy_gives_one_and_three_workers_the_same_bits(monkeypatch):
    prices = _overflowing(9, 60)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more workers than cores, switching as often as it can
    try:
        for workers in (1, 3):
            _force(monkeypatch, 130, workers)
            with np.errstate(over="ignore", invalid="ignore"):
                runs.append(run_strategy(ControlParams(1.0, 2.0, alpha=0.5, beta=1.5), prices))
    finally:
        sys.setswitchinterval(interval)
    assert not np.isfinite(runs[0].gain[-1]).all()  # the library keeps IEEE values
    for field in ("gain", "inv_long", "inv_short"):
        _same_bits(getattr(runs[1], field), getattr(runs[0], field), field)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_a_bad_price_in_the_last_block_raises_and_leaves_no_thread(monkeypatch, bad):
    prices = _walk((9, 30), 42)
    prices[-1, 7] = bad
    _force(monkeypatch, 60, 3)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="^prices must be finite and strictly positive$"):
        run_strategy(ControlParams(1.0, 2.0), prices)
    assert threading.active_count() == threads


def test_worker_threads_run_under_the_callers_error_state(monkeypatch):
    prices = _overflowing(9, 60)
    _force(monkeypatch, 130, 3)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        run_strategy(ControlParams(1.0, 2.0), prices)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            run_strategy(ControlParams(1.0, 2.0), prices)


@pytest.mark.parametrize("workers", [1, 3])
def test_the_first_failing_block_raises_as_in_a_serial_loop(monkeypatch, workers):
    # the first block overflows and the last holds a bad price
    prices = _overflowing(9, 60)[::-1].copy()
    prices[-1, 5] = -1.0
    _force(monkeypatch, 130, workers)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        run_strategy(ControlParams(1.0, 2.0), prices)


@pytest.mark.parametrize("block_prices, workers", [(60, 1), (1 << 20, 3)])
def test_one_cpu_or_one_block_starts_no_thread(monkeypatch, block_prices, workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("started a thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    _force(monkeypatch, block_prices, workers)
    prices = _walk((9, 30), 43)
    params = ControlParams(1.0, 2.0)
    _same_bits(run_strategy(params, prices).gain, _eager_trace(params, prices)["gain"], "gain")


def test_importing_gsls_loads_no_thread_pool():
    code = "import sys, gsls, gsls.cli; sys.exit('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(gsls.__file__).parents[1]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
