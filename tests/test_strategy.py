"""Closed-form gains, roots, and the discrete executor."""

import concurrent.futures
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("field", ["i0", "k", "alpha", "beta"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_control_params_rejects_one_bad_entry_of_an_array_field(field, bad):
    values = {name: np.full((4, 1), 1.5) for name in ("i0", "k", "alpha", "beta")}
    values[field][2, 0] = bad
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite, got array"):
        ControlParams(**values)


@pytest.mark.parametrize("q, shown", [
    ([1.0, 0.0], "array(shape=(2,)), first failing entry 0.0 at index (1,)"),
    (-2.0, "array(shape=()), first failing entry -2.0 at index ()"),
    ([[1.0, math.nan]], "array(shape=(1, 2)), first failing entry nan at index (0, 1)"),
])
def test_a_bad_price_ratio_is_shown_in_its_error(q, shown):
    for call in (gain_total_closed, feedback_gain_partials, positive_gain_condition):
        with pytest.raises(ValueError) as caught:
            call(ControlParams(1.0, 2.0), q)
        assert str(caught.value) == f"price ratio q must be strictly positive, got {shown}"


@pytest.mark.parametrize("k, beta, product", [(1e-300, 1e-300, 0.0), (1e200, 1e200, math.inf)])
def test_control_params_rejects_a_beta_times_k_outside_the_floats(k, beta, product):
    # each factor is valid, but the short book's feedback gain beta*k under- or overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^beta\*k must be positive and finite, "
                                             rf"got {product!r}$"):
            ControlParams(1.0, k, 1.0, beta)
        with pytest.raises(ValueError, match=r"^beta\*k must be positive and finite, got array"):
            ControlParams(1.0, np.array([2.0, k]), 1.0, beta)
        with pytest.raises(ValueError, match=r"^beta\*k must be positive and finite"):
            ControlParams(1.0, np.float64(k), 1.0, np.float64(beta))
    # the smallest and largest products that are still floats are accepted
    assert ControlParams(1.0, 1e-300, 1.0, 1e-8).k_short > 0.0
    assert ControlParams(1.0, 1e200, 1.0, 1e108).k_short < math.inf


def test_control_params_accepts_row_columns_and_grid_axes():
    columns = ControlParams(*np.random.default_rng(5).uniform(0.3, 3.0, (4, 7, 1)))
    assert columns.k_short.shape == (7, 1)
    np.testing.assert_array_equal(columns.k_short, columns.beta * columns.k)
    grid = ControlParams(1.0, *np.ix_([0.5, 1.0], [0.5, 1.0, 2.0], [1.0, 3.0, 4.0, 5.0]))
    assert grid.k_short.shape == (2, 1, 4)
    assert np.broadcast_shapes(grid.k.shape, grid.alpha.shape, grid.beta.shape) == (2, 3, 4)


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


def test_beta1_roots_requires_beta_one_at_every_entry():
    with pytest.raises(ValueError, match="require beta == 1"):
        beta1_roots(ControlParams(1.0, np.array([1.0, 2.0]), beta=np.array([1.0, 1.5])))


def test_beta1_roots_names_the_first_beta_that_is_not_one_on_one_line():
    with pytest.raises(ValueError) as err:
        beta1_roots(ControlParams(1.0, 2.0, 1.0, np.linspace(1, 2, 50)))
    assert str(err.value) == ("beta must be 1 (roots in closed form require beta == 1), got "
                              "array(shape=(50,)), first failing entry 1.0204081632653061 "
                              "at index (1,)")


def test_beta1_roots_past_the_float_range_are_inf():
    # 100**1000 overflows a float, where float ** raises
    one = beta1_roots(ControlParams(1.0, 0.001, alpha=100.0))
    assert one.q_root2 == one.q_min == math.inf
    assert all(type(value) is float for value in one)
    grid = beta1_roots(ControlParams(1.0, np.array([1.0, 0.001]), alpha=100.0))
    for i, k in enumerate([1.0, 0.001]):
        alone = beta1_roots(ControlParams(1.0, k, alpha=100.0))
        assert _bits([field[i] for field in grid]) == _bits(alone)


POSITIVE = st.floats(1e-2, 1e2)
COLUMN = st.lists(POSITIVE, min_size=1, max_size=4)


def _bits(values) -> list[int]:
    return np.array(values, dtype=float).view(np.uint64).tolist()


@settings(max_examples=200, deadline=None)
@given(i0=COLUMN, k=COLUMN, alpha=COLUMN, q=COLUMN)
def test_beta1_roots_and_positive_gain_condition_give_array_entries_the_number_bits(i0, k, alpha,
                                                                                    q):
    # i0 a number or a column, k a row, alpha along a third axis
    i0_axis = np.array(i0).reshape(-1, 1, 1) if len(i0) > 1 else i0[0]
    roots = beta1_roots(ControlParams(i0_axis, np.array(k).reshape(-1, 1), np.array(alpha)))
    shape = (len(i0), len(k), len(alpha)) if len(i0) > 1 else (len(k), len(alpha))
    assert all(field.shape == shape for field in roots)
    i0_entries = np.broadcast_to(i0_axis, (len(i0), len(k), len(alpha)))
    for (a, b, c), i0_n in np.ndenumerate(i0_entries):
        one = beta1_roots(ControlParams(float(i0_n), k[b], alpha[c]))
        assert all(type(value) is float for value in one)
        index = (a, b, c) if len(i0) > 1 else (b, c)
        assert _bits([field[index] for field in roots]) == _bits(one)
    # alpha a column against a row of ratios, and a number alpha against the row
    grid = positive_gain_condition(ControlParams(1.0, 1.0, np.array(alpha).reshape(-1, 1)),
                                   np.array(q))
    rows = [[positive_gain_condition(ControlParams(1.0, 1.0, a), q_n) for q_n in q] for a in alpha]
    assert all(type(value) is bool for row in rows for value in row)
    assert grid.dtype == bool and grid.tolist() == rows
    assert positive_gain_condition(ControlParams(1.0, 1.0, alpha[0]), np.array(q)).tolist() == rows[0]


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
    """Blocks of block_prices prices, with `workers` CPUs in the affinity mask."""
    monkeypatch.setattr(strategy_module, "_BLOCK_PRICES", block_prices)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)


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
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
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
    # every block runs on the calling thread, so under the caller's error state
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


@pytest.mark.parametrize("block_prices, workers", [(60, 1), (1 << 20, 3), (60, 3)])
def test_run_strategy_starts_no_thread(monkeypatch, block_prices, workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("started a thread pool")

    def no_thread(*args, **kwargs):
        raise AssertionError("started a thread")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    _force(monkeypatch, block_prices, workers)
    prices = _walk((9, 30), 43)
    params = ControlParams(1.0, 2.0)
    _same_bits(run_strategy(params, prices).gain, _eager_trace(params, prices)["gain"], "gain")


def test_importing_gsls_loads_no_thread_pool():
    code = "import sys, gsls, gsls.cli; sys.exit('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(gsls.__file__).parents[1]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_run_strategy_on_many_blocks_and_cpus_loads_no_thread_pool():
    code = ("import os, sys, threading\n"
            "import numpy as np\n"
            "from gsls import strategy\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "strategy._BLOCK_PRICES = 60\n"
            "prices = np.linspace(1.0, 2.0, 9 * 30).reshape(9, 30)\n"
            "trace = strategy.run_strategy(strategy.ControlParams(1.0, 2.0), prices)\n"
            "trace.inv_long\n"
            "sys.exit('concurrent.futures' in sys.modules or threading.active_count() != 1)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(gsls.__file__).parents[1]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_run_strategy_allocates_only_the_gain(monkeypatch):
    # one CPU and one block buffer: the investments stay in per-block scratch
    _force(monkeypatch, 1 << 17, 1)
    paths = _walk((4000, 253), 44)
    params = ControlParams(1.0, 2.0, alpha=0.5, beta=1.5)
    tracemalloc.start()
    try:
        gain = run_strategy(params, paths).gain
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gain.shape == paths.shape
    assert peak < 1.5 * gain.nbytes


def test_run_strategy_derives_the_investments_once_on_first_access(monkeypatch):
    prices, params, block_prices = _BLOCKED["row-columns"]
    _force(monkeypatch, block_prices, 3)
    trace = run_strategy(params, prices)
    assert {"inv_long", "inv_short"}.isdisjoint(vars(trace))
    runs = []
    run = strategy_module._run
    monkeypatch.setattr(strategy_module, "_run", lambda *args: runs.append(args) or run(*args))
    short = trace.inv_short
    long_ = trace.inv_long
    for field in ("inv_net", "gain_long", "gain_short", "inv_long", "inv_short"):
        getattr(trace, field)
    assert len(runs) == 1
    assert vars(trace)["inv_long"] is long_ is trace.inv_long
    assert vars(trace)["inv_short"] is short is trace.inv_short
    assert not np.shares_memory(long_, short)
    assert not np.shares_memory(long_, trace.gain) and not np.shares_memory(short, trace.gain)


def test_reading_the_investments_of_an_overflowing_run_warns_nothing(monkeypatch):
    _force(monkeypatch, 130, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        trace = run_strategy(ControlParams(1.0, 2.0, alpha=0.5, beta=1.5), _overflowing(9, 60))
    assert not np.isfinite(trace.inv_long[-1]).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):  # the re-run ignores the caller's error state
            assert not np.isfinite(trace.inv_short[-1]).all()


@pytest.mark.parametrize("change", ["scale-one-price", "scale-one-path", "bad-price"])
def test_reading_the_investments_after_the_prices_changed_raises(change):
    prices = _walk((6, 40), 45)
    trace = run_strategy(ControlParams(1.0, 2.0, alpha=0.5, beta=1.5), prices)
    gain = trace.gain.copy()
    if change == "scale-one-price":
        prices[2, 17] *= 1.001
    elif change == "scale-one-path":
        prices[4, 20:] *= 1.5
    else:
        prices[5, 3] = -1.0
    with pytest.raises(ValueError):
        trace.inv_long
    with pytest.raises(ValueError):
        trace.inv_net
    assert {"inv_long", "inv_short", "inv_net"}.isdisjoint(vars(trace))
    _same_bits(trace.gain, gain, "gain")


def _with_overflowing_path(prices):
    """prices whose last path alternates 1 and 1e130, so that its books overflow."""
    prices = prices.copy()
    prices[(-1,) * (prices.ndim - 1)] = np.where(np.arange(prices.shape[-1]) % 2, 1e130, 1.0)
    return prices


@pytest.mark.parametrize("overflow", [False, True])
@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("name", sorted(_BLOCKED))
def test_final_gain_is_the_gains_last_column_bit_for_bit(monkeypatch, name, workers, overflow):
    prices, params, block_prices = _BLOCKED[name]
    if overflow:
        prices = _with_overflowing_path(prices)
    _force(monkeypatch, block_prices, workers)
    with np.errstate(over="ignore", invalid="ignore"):
        trace = run_strategy(params, prices)
        eager = _eager_trace(params, prices)["gain"]
    assert "gain" not in vars(trace)
    _same_bits(trace.final_gain, eager[..., -1], "final gain against the eager gain")
    _same_bits(trace.final_gain, trace.gain[..., -1], "final gain against the trace's gain")
    _same_bits(trace.gain, eager, "gain")
    assert np.isfinite(trace.final_gain).all() != overflow


def test_final_gain_is_read_only():
    trace = run_strategy(ControlParams(1.0, 2.0), _walk((3, 20), 47))
    with pytest.raises(ValueError, match="read-only"):
        trace.final_gain[0] = 0.0


def test_the_final_gains_allocate_under_a_quarter_of_the_prices(monkeypatch):
    _force(monkeypatch, 1 << 17, 1)
    paths = _walk((4000, 253), 44)
    params = ControlParams(1.0, 2.0, alpha=0.5, beta=1.5)
    tracemalloc.start()
    try:
        final = run_strategy(params, paths).final_gain
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert final.shape == (4000,)
    assert peak < paths.nbytes / 4


def test_one_rerun_serves_the_gain_and_both_investments(monkeypatch):
    prices, params, block_prices = _BLOCKED["row-columns"]
    _force(monkeypatch, block_prices, 3)
    trace, alone = run_strategy(params, prices), run_strategy(params, prices)
    assert {"gain", "inv_long", "inv_short"}.isdisjoint(vars(trace))
    runs = []
    run = strategy_module._run
    monkeypatch.setattr(strategy_module, "_run", lambda *args: runs.append(args) or run(*args))
    long_ = trace.inv_long
    for field in ("gain", "inv_short", "inv_net", "gain_long", "gain_short"):
        getattr(trace, field)
    assert len(runs) == 1
    assert vars(trace)["gain"] is trace.gain and vars(trace)["inv_long"] is long_
    _same_bits(trace.gain, _eager_trace(params, prices)["gain"], "gain")
    # reading the gain first re-runs for it alone, and leaves the investments unmade
    _same_bits(alone.gain, trace.gain, "gain read first")
    assert {"inv_long", "inv_short"}.isdisjoint(vars(alone))
    assert len(runs) == 2


@pytest.mark.parametrize("change", ["scale-one-price", "scale-one-path"])
def test_reading_the_gain_after_the_prices_changed_raises(change):
    prices = _walk((6, 40), 46)
    trace = run_strategy(ControlParams(1.0, 2.0, alpha=0.5, beta=1.5), prices)
    final = trace.final_gain.copy()
    if change == "scale-one-price":
        prices[2, 17] *= 1.001
    else:
        prices[4, 20:] *= 1.5
    with pytest.raises(ValueError, match="^prices changed after the run"):
        trace.gain
    assert {"gain", "inv_long", "inv_short"}.isdisjoint(vars(trace))
    _same_bits(trace.final_gain, final, "final gain")
