"""GBM simulation, MLE estimation, and closed-form gain moments."""

import concurrent.futures
import math
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsls import gbm as gbm_module
from gsls import (
    ControlParams,
    GbmParams,
    estimate_mle,
    expected_gain,
    gain_total_closed,
    gain_variance,
    run_strategy,
    simulate_paths,
)


def test_gbm_params_validation():
    GbmParams(0.1, 0.0)  # zero volatility is legal
    with pytest.raises(ValueError):
        GbmParams(math.nan, 0.2)
    with pytest.raises(ValueError):
        GbmParams(0.1, -0.2)
    with pytest.raises(ValueError):
        GbmParams(0.1, 0.2, dt=0.0)


def test_simulate_paths_shape_and_start():
    paths = simulate_paths(GbmParams(0.1, 0.2), 100.0, steps=20, n_paths=7, seed=0)
    assert paths.shape == (7, 21)
    assert np.all(paths[:, 0] == 100.0)
    assert np.all(paths > 0.0)


def _one_shot_paths(params, p0, steps, n_paths, seed):
    """simulate_paths as one draw of shape (n_paths, steps) and whole-array passes."""
    z = np.random.default_rng(seed).standard_normal((n_paths, steps))
    z *= params.sigma * math.sqrt(params.dt)
    z += (params.mu - 0.5 * params.sigma**2) * params.dt
    out = np.empty((n_paths, steps + 1))
    out[:, 0] = p0
    np.cumsum(z, axis=1, out=out[:, 1:])
    np.exp(out[:, 1:], out=out[:, 1:])
    out[:, 1:] *= p0
    return out


@pytest.mark.parametrize("block_prices", [50, 1 << 17])
@pytest.mark.parametrize("n_paths, steps", [(1, 1), (1, 40), (1, 300), (7, 3), (13, 20),
                                            (16, 25), (5, 301), (400, 252)])
def test_simulate_paths_in_blocks_equals_one_draw_bit_for_bit(monkeypatch, block_prices,
                                                               n_paths, steps):
    # blocks of 50 prices: rows of 20 go two to a block, rows over 50 one to a block;
    # on more than one CPU a helper thread draws the next block while this one transforms
    monkeypatch.setattr(gbm_module, "_BLOCK_PRICES", block_prices)
    params, seed = GbmParams(0.3, 0.45, dt=0.01), [4, n_paths, steps]
    expected = _one_shot_paths(params, 37.5, steps, n_paths, seed)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(gbm_module, "_usable_cpus", lambda: cpus)
        got = simulate_paths(params, 37.5, steps, n_paths, seed)
        assert got.shape == expected.shape == (n_paths, steps + 1)
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64),
                                      err_msg=f"{cpus} CPUs")


@pytest.mark.parametrize("block_prices, cpus", [(50, 1), (1 << 20, 2)])
def test_simulate_paths_on_one_cpu_or_in_one_block_starts_no_thread(monkeypatch, block_prices,
                                                                     cpus):
    def no_pool(*args, **kwargs):
        raise AssertionError("started a thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(gbm_module, "_BLOCK_PRICES", block_prices)
    monkeypatch.setattr(gbm_module, "_usable_cpus", lambda: cpus)
    params = GbmParams(0.3, 0.45, dt=0.01)
    got = simulate_paths(params, 37.5, 20, 13, 8)
    expected = _one_shot_paths(params, 37.5, 20, 13, 8)
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_simulate_paths_with_a_draw_in_flight_raises_and_leaves_no_thread(monkeypatch):
    # prices overflow in the first of 13 blocks, while the helper draws the second
    monkeypatch.setattr(gbm_module, "_BLOCK_PRICES", 40)
    monkeypatch.setattr(gbm_module, "_usable_cpus", lambda: 2)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="^simulated prices must be positive and finite"):
        simulate_paths(GbmParams(1e5, 0.2), 100.0, 20, 26, seed=0)
    assert threading.active_count() == threads


def test_simulate_paths_seed_reproducibility():
    gp = GbmParams(0.05, 0.3)
    a = simulate_paths(gp, 50.0, 30, 4, seed=123)
    b = simulate_paths(gp, 50.0, 30, 4, seed=123)
    c = simulate_paths(gp, 50.0, 30, 4, seed=124)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    # sequence seeds work too
    d = simulate_paths(gp, 50.0, 30, 4, seed=[1, 2, 3])
    assert d.shape == (4, 31)


def test_simulate_paths_zero_volatility_is_exponential():
    gp = GbmParams(0.1, 0.0, dt=1.0 / 252.0)
    path = simulate_paths(gp, 100.0, 252, 1, seed=0)[0]
    expected = 100.0 * np.exp(0.1 * np.arange(253) / 252.0)
    np.testing.assert_allclose(path, expected, rtol=1e-12)
    flat = simulate_paths(GbmParams(0.0, 0.0), 100.0, 10, 1, seed=0)[0]
    np.testing.assert_allclose(flat, 100.0, rtol=1e-15)


def test_simulate_paths_validation():
    gp = GbmParams(0.1, 0.2)
    with pytest.raises(ValueError):
        simulate_paths(gp, 0.0, 10, 1, seed=0)
    with pytest.raises(ValueError):
        simulate_paths(gp, 100.0, 0, 1, seed=0)
    with pytest.raises(ValueError):
        simulate_paths(gp, 100.0, 10, 0, seed=0)


def test_terminal_ratio_mean_matches_lognormal_mean():
    # E[p_N / p0] = exp(mu * t) regardless of sigma
    gp = GbmParams(0.1, 0.2, dt=1.0 / 252.0)
    paths = simulate_paths(gp, 100.0, 252, 100_000, seed=42)
    ratios = paths[:, -1] / 100.0
    se = ratios.std(ddof=1) / math.sqrt(len(ratios))
    assert abs(ratios.mean() - math.exp(0.1)) < 3.0 * se


def test_estimate_mle_recovers_deterministic_drift():
    mu, dt = 0.07, 1.0 / 252.0
    prices = 100.0 * np.exp(mu * np.arange(300) * dt)
    gp = estimate_mle(prices, dt=dt)
    assert gp.mu == pytest.approx(mu, rel=1e-9)
    assert gp.sigma < 1e-9
    assert gp.dt == dt


def test_estimate_mle_alternating_returns_oracle():
    # log returns +c, -c, ...: rbar = 0, sigma2 = c**2/dt, mu = sigma2/2
    c, dt = 0.01, 1.0 / 252.0
    steps = np.tile([c, -c], 100)
    prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))
    gp = estimate_mle(prices, dt=dt)
    assert gp.sigma**2 == pytest.approx(c**2 / dt, rel=1e-9)
    assert gp.mu == pytest.approx(c**2 / (2.0 * dt), rel=1e-9)


def test_estimate_mle_uses_biased_divisor():
    prices = np.array([100.0, 101.0, 99.5, 100.7])
    r = np.diff(np.log(prices))
    dt = 1.0 / 252.0
    sigma2 = np.mean((r - r.mean()) ** 2) / dt  # divisor n, not n-1
    gp = estimate_mle(prices, dt=dt)
    assert gp.sigma == pytest.approx(math.sqrt(sigma2), rel=1e-12)
    assert gp.mu == pytest.approx(r.mean() / dt + sigma2 / 2.0, rel=1e-12)


def test_estimate_mle_validation():
    with pytest.raises(ValueError):
        estimate_mle([100.0, 101.0])
    with pytest.raises(ValueError):
        estimate_mle([[100.0, 101.0, 102.0]])
    with pytest.raises(ValueError):
        estimate_mle([100.0, -1.0, 102.0])
    with pytest.raises(ValueError):
        estimate_mle([100.0, 101.0, 102.0], dt=0.0)


def test_estimate_mle_sampling_distribution():
    # light coverage check; the full 200-seed version lives in the acceptance suite
    gp = GbmParams(0.1, 0.2, dt=1.0 / 252.0)
    n = 2520
    hits_mu = hits_sigma = 0
    for s in range(50):
        prices = simulate_paths(gp, 100.0, n, 1, seed=[7, s])[0]
        est = estimate_mle(prices, dt=gp.dt)
        se_mu = est.sigma / math.sqrt(n * gp.dt)
        se_sigma = est.sigma / math.sqrt(2.0 * n)
        hits_mu += abs(est.mu - 0.1) <= 2.0 * se_mu
        hits_sigma += abs(est.sigma - 0.2) <= 2.0 * se_sigma
    assert hits_mu >= 42
    assert hits_sigma >= 42


def test_the_gain_moments_never_see_a_beta_times_k_outside_the_floats():
    # expected_gain once divided by a beta*k that underflowed to 0, and gain_variance
    # read NaN there; ControlParams now rejects such a point before either runs
    with pytest.raises(ValueError, match=r"^beta\*k must be positive and finite"):
        expected_gain(ControlParams(1.0, 1e-300, 1.0, 1e-300), GbmParams(-0.1, 0.1), 1.0)
    with pytest.raises(ValueError, match=r"^beta\*k must be positive and finite"):
        gain_variance(ControlParams(1.0, 1e200, 1.0, 1e200), GbmParams(-0.1, 0.1), 1.0)


def test_expected_gain_trivial_cases():
    cp = ControlParams(1.0, 1.0)
    assert expected_gain(cp, GbmParams(0.1, 0.2), 0.0) == 0.0
    for k, a, b in [(1.0, 1.0, 1.0), (2.5, 0.5, 3.0)]:
        assert expected_gain(ControlParams(1.0, k, a, b), GbmParams(0.0, 0.3), 1.0) == 0.0
    with pytest.raises(ValueError):
        expected_gain(cp, GbmParams(0.1, 0.2), -1.0)


def test_expected_gain_value_and_delegation():
    cp = ControlParams(1.0, 1.0)
    gp = GbmParams(0.1, 0.2)
    g = expected_gain(cp, gp, 1.0)
    assert g == pytest.approx(0.01000833611160723, rel=1e-15)
    assert g == pytest.approx(math.exp(0.1) + math.exp(-0.1) - 2.0, rel=1e-14)
    # volatility does not enter the mean
    assert g == expected_gain(cp, GbmParams(0.1, 0.9), 1.0)
    rng = np.random.default_rng(21)
    for _ in range(50):
        cp = ControlParams(rng.uniform(0.5, 2), rng.uniform(0.1, 5),
                           rng.uniform(0.1, 5), rng.uniform(0.1, 5))
        gp = GbmParams(rng.uniform(-0.3, 0.3), rng.uniform(0, 0.5))
        t = rng.uniform(0.1, 3.0)
        assert expected_gain(cp, gp, t) == gain_total_closed(cp, np.exp(gp.mu * t))


def test_expected_gain_sign_follows_drift_condition():
    rng = np.random.default_rng(22)
    for _ in range(300):
        a = rng.uniform(0.1, 5.0)
        mu = rng.uniform(0.0, 0.3) if a < 1.0 else rng.uniform(-0.3, 0.0)
        cp = ControlParams(1.0, rng.uniform(0.1, 5.0), a, rng.uniform(0.1, 5.0))
        assert expected_gain(cp, GbmParams(mu, 0.2), 1.0) >= -1e-12


def test_expected_gain_monotone_in_feedback_gains():
    gp = GbmParams(0.12, 0.2)
    ks = np.linspace(0.2, 5.0, 25)
    gains = [expected_gain(ControlParams(1.0, k, 1.3, 0.7), gp, 1.0) for k in ks]
    assert np.all(np.diff(gains) >= -1e-12)
    betas = np.linspace(0.2, 5.0, 25)
    gains = [expected_gain(ControlParams(1.0, 1.5, 1.3, b), gp, 1.0) for b in betas]
    assert np.all(np.diff(gains) >= -1e-12)


def test_gain_variance_trivial_cases():
    cp = ControlParams(1.0, 2.0, alpha=0.5, beta=1.5)
    assert gain_variance(cp, GbmParams(0.1, 0.0), 1.0) == 0.0
    assert gain_variance(cp, GbmParams(0.1, 0.2), 0.0) == 0.0


@pytest.mark.parametrize("t", [math.inf, math.nan, -1.0, np.array([1.0, math.inf])])
def test_gain_moments_reject_a_negative_or_non_finite_horizon(t):
    cp, gp = ControlParams(1.0, 1.0), GbmParams(0.1, 0.2)
    for moment in (expected_gain, gain_variance):
        with pytest.raises(ValueError, match="horizon"):
            moment(cp, gp, t)


def test_gain_variance_value_and_positivity():
    v = gain_variance(ControlParams(1.0, 1.0), GbmParams(0.0, 1.0), 1.0)
    assert v == pytest.approx(2.0 * math.e + 2.0 / math.e - 4.0, rel=1e-12)
    assert gain_variance(ControlParams(1.0, 1.0), GbmParams(0.1, 0.2), 1.0) == pytest.approx(
        0.004838306354110755, rel=1e-14)
    rng = np.random.default_rng(23)
    for _ in range(300):
        cp = ControlParams(rng.uniform(0.5, 2), rng.uniform(0.1, 4),
                           rng.uniform(0.1, 4), rng.uniform(0.1, 4))
        gp = GbmParams(rng.uniform(-0.2, 0.2), rng.uniform(0.01, 0.5))
        assert gain_variance(cp, gp, rng.uniform(0.1, 2.0)) >= -1e-12


def test_gain_moments_against_monte_carlo():
    # one quick setting; the ten-setting sweep lives in the acceptance suite
    cp = ControlParams(1.0, 1.0)
    gp = GbmParams(0.1, 0.2, dt=1.0 / 252.0)
    paths = simulate_paths(gp, 1.0, 252, 20_000, seed=77)
    finals = run_strategy(cp, paths).final_gain
    t = 252 * gp.dt
    se = finals.std(ddof=1) / math.sqrt(len(finals))
    assert abs(finals.mean() - expected_gain(cp, gp, t)) < 4.0 * se
    assert finals.var(ddof=1) == pytest.approx(gain_variance(cp, gp, t), rel=0.1)


def _eager_paths(params, p0, steps, n_paths, seed):
    """simulate_paths as the eager array expressions it is defined by."""
    z = np.random.default_rng(seed).standard_normal((n_paths, steps))
    increments = (params.mu - 0.5 * params.sigma**2) * params.dt + params.sigma * math.sqrt(params.dt) * z
    out = np.empty((n_paths, steps + 1))
    out[:, 0] = p0
    out[:, 1:] = p0 * np.exp(np.cumsum(increments, axis=1))
    return out


@pytest.mark.parametrize("seed", [0, 7, [3, 1, 4]])
@pytest.mark.parametrize("steps, n_paths", [(1, 1), (252, 1), (17, 9), (252, 300)])
def test_simulate_paths_equals_eager_expressions_bit_for_bit(seed, steps, n_paths):
    for gp, p0 in [(GbmParams(0.1, 0.2), 100.0), (GbmParams(-0.7, 1.3, dt=0.01), 3.5),
                   (GbmParams(0.05, 0.0), 1.0)]:
        got = simulate_paths(gp, p0, steps, n_paths, seed)
        np.testing.assert_array_equal(got, _eager_paths(gp, p0, steps, n_paths, seed))


def _grid_points():
    from gsls import GridSpec
    from gsls.optimizer import _GridPoints

    k, alpha, beta = np.array(list(GridSpec.default().combos()), dtype=float).T
    return _GridPoints(1.0, k, alpha, beta)


def _product_form_variance(cp, gp, t):
    """gain_variance as the plain product form, with its 0 * inf NaNs."""
    k, ks, c, m, s2 = cp.k, cp.k_short, cp.alpha / cp.beta, gp.mu, gp.sigma * gp.sigma
    var_long = np.exp(2.0 * k * m * t) * np.expm1(k * k * s2 * t)
    var_short = c * c * np.exp(-2.0 * ks * m * t) * np.expm1(ks * ks * s2 * t)
    cov = c * np.exp((k - ks) * m * t) * np.expm1(-(k * ks) * s2 * t)
    return np.square(cp.i0 / k) * (var_long + var_short + 2.0 * cov)


def test_gain_variance_has_no_zero_times_infinity_nan():
    # at (60, 3) exp(-2*k_s*mu*t) underflows while expm1(k_s**2*sigma**2*t)
    # overflows on 350 of the default grid's 1000 points
    cp, gp = _grid_points(), GbmParams(60.0, 3.0)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        plain = _product_form_variance(cp, gp, 1.0)
        v = gain_variance(cp, gp, 1.0)
    assert np.isnan(plain).sum() == 350
    assert not np.isnan(v).any()
    assert np.isfinite(v).sum() == 780
    # the short-book term there is c**2 * exp(-351) = 0.1**2 * exp(-351)
    one = ControlParams(1.0, 2.0, 0.5, 4.5)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        assert math.isfinite(gain_variance(one, gp, 1.0))


def test_gain_variance_is_zero_at_zero_volatility_past_overflow():
    # exp(2*k*mu*t) = exp(800) overflows, but every expm1 factor is exactly 0
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        assert gain_variance(ControlParams(1.0, 1.0), GbmParams(400.0, 0.0), 1.0) == 0.0
        plain = _product_form_variance(_grid_points(), GbmParams(400.0, 0.0), 1.0)
        v = gain_variance(_grid_points(), GbmParams(400.0, 0.0), 1.0)
    assert not np.isfinite(plain).all()
    np.testing.assert_array_equal(v, np.zeros(1000))


def test_gain_variance_term_past_underflow_matches_high_precision():
    # exp(-2*k_s*mu*t) = exp(-750) underflows and expm1(k_s**2*sigma**2*t) =
    # expm1(1250) overflows, yet the short-book term c**2*e**500 dominates
    from decimal import Decimal, localcontext

    cp, gp, t = ControlParams(1.0, 5.0, 2.0, 5.0), GbmParams(15.0, math.sqrt(2.0)), 1.0
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        v = gain_variance(cp, gp, t)
    with localcontext() as ctx:
        ctx.prec = 60
        k, ks, c = Decimal(cp.k), Decimal(cp.k_short), Decimal(cp.alpha) / Decimal(cp.beta)
        m, s2, t_ = Decimal(gp.mu), Decimal(gp.sigma) ** 2, Decimal(t)
        exact = (Decimal(cp.i0) / k) ** 2 * (
            (2 * k * m * t_).exp() * ((k * k * s2 * t_).exp() - 1)
            + c * c * (-2 * ks * m * t_).exp() * ((ks * ks * s2 * t_).exp() - 1)
            + 2 * c * ((k - ks) * m * t_).exp() * ((-k * ks * s2 * t_).exp() - 1))
    assert v == pytest.approx(float(exact), rel=1e-12)


def test_gain_variance_keeps_every_finite_product_form_value():
    cp = _grid_points()
    rng = np.random.default_rng(25)
    cases = [(60.0, 3.0, 1.0), (-60.0, 3.0, 1.0)] + list(zip(
        rng.uniform(-80.0, 80.0, 60), rng.uniform(0.0, 5.0, 60), rng.uniform(0.01, 3.0, 60)))
    for mu, sigma, t in cases:
        gp = GbmParams(float(mu), float(sigma))
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            plain = _product_form_variance(cp, gp, float(t))
            v = gain_variance(cp, gp, float(t))
        finite = np.isfinite(plain)
        np.testing.assert_array_equal(v[finite], plain[finite])
        assert not (np.isnan(v) & ~np.isnan(plain)).any()


def _decimal_variance(cp, gp, t, digits=80):
    """gain_variance's product form in `digits`-digit decimal arithmetic."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = digits, 10**9, -10**9
        k, ks, c = Decimal(cp.k), Decimal(cp.k_short), Decimal(cp.alpha) / Decimal(cp.beta)
        m, s2, t_ = Decimal(gp.mu), Decimal(gp.sigma) ** 2, Decimal(t)
        return (Decimal(cp.i0) / k) ** 2 * (
            (2 * k * m * t_).exp() * ((k * k * s2 * t_).exp() - 1)
            + c * c * (-2 * ks * m * t_).exp() * ((ks * ks * s2 * t_).exp() - 1)
            + 2 * c * ((k - ks) * m * t_).exp() * ((-k * ks * s2 * t_).exp() - 1))


def test_gain_variance_past_the_float_range_is_inf_not_nan():
    # at (-60, 3) the short-book term overflows to +inf and the covariance to
    # -inf on 130 of the default grid's 1000 points, so the product form reads
    # inf - inf; an 80-digit reference puts all 130 above the float range
    from decimal import Decimal

    cp, gp = _grid_points(), GbmParams(-60.0, 3.0)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        plain = _product_form_variance(cp, gp, 1.0)
        v = gain_variance(cp, gp, 1.0)
    nan = np.isnan(plain)
    assert nan.sum() == 130
    assert not np.isnan(v).any()
    np.testing.assert_array_equal(v[nan], np.inf)
    largest = Decimal(np.finfo(float).max)
    for i in np.flatnonzero(nan):
        point = ControlParams(1.0, cp.k[i], cp.alpha[i], cp.beta[i])
        assert _decimal_variance(point, gp, 1.0) > largest
    # the scalar API gives the grid's value
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        assert gain_variance(ControlParams(1.0, 3.0, 0.5, 5.0), gp, 1.0) == np.inf


@pytest.mark.parametrize("mu, sigma, expected", [
    (1e306, 0.1, math.inf),  # e**(2*k*mu*t) past the float range, times e**25 - 1
    (-1e306, 0.0, 0.0),  # sigma*t = 0: every e**b - 1 is 0
    (0.1, 1e153, math.inf),  # (k*sigma)**2 * t overflows to inf
])
def test_gain_variance_where_an_exponent_overflows_upward_is_not_nan(mu, sigma, expected):
    cp, gp = ControlParams(1.0, 5.0), GbmParams(mu, sigma)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        assert gain_variance(cp, gp, 100.0) == expected
        # an array entry gives the number call's value, and the finite entries beside it
        # keep their bits
        grid = gain_variance(ControlParams(1.0, np.array([5.0, 1e-300])), gp, 100.0)
        alone = gain_variance(ControlParams(1.0, 1e-300), gp, 100.0)
    assert grid[0] == expected
    np.testing.assert_array_equal(grid[1:].view(np.uint64), np.array([alone]).view(np.uint64))


@pytest.mark.parametrize("k, mu, sigma, t, expected", [
    # k*k*sigma**2*t reads inf * 0, and the variance is 0 at sigma 0 or t 0
    (1e200, 0.1, 0.0, 1.0, 0.0),
    (1e200, 0.0, 0.0, 1.0, 0.0),
    (2.0, 0.1, 1e160, 0.0, 0.0),
    (1000.0, 0.0, 1e152, 0.0, 0.0),
    # 2*k*mu*t reads inf * 0
    (2.0, 1e308, 0.2, 0.0, 0.0),
    # a = 2*k*mu*t overflows to -inf or +inf and b = k**2*sigma**2*t to +inf; one
    # book's a + b is +inf
    (5.0, 1e306, 1e153, 100.0, math.inf),
    (5.0, -1e306, 1e153, 100.0, math.inf),
])
def test_gain_variance_where_an_exponent_reads_nan_is_its_limit(k, mu, sigma, t, expected):
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        assert gain_variance(ControlParams(1.0, k), GbmParams(mu, sigma), t) == expected


def test_gain_variance_where_only_a_factor_overflows_is_finite():
    # e**(2*k*mu*t) = e**710 overflows, but times expm1(0.01) the long-book
    # term is about e**705.4, inside the float range
    cp, gp = ControlParams(1.0, 1.0), GbmParams(355.0, 0.1)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        assert np.isinf(_product_form_variance(cp, gp, 1.0))
        v = gain_variance(cp, gp, 1.0)
    assert v == pytest.approx(float(_decimal_variance(cp, gp, 1.0)), rel=1e-11)


def test_gain_variance_repaired_entries_are_within_1e_15_of_mpmath():
    # at (60, 3) the product form is non-finite on 410 of the default grid's 1000
    # points; 190 of them lie inside the float range, and the repair must give each
    # to within 1e-15 relative of a 60-digit reference, the other 220 as inf
    import mpmath

    cp, gp = _grid_points(), GbmParams(60.0, 3.0)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        plain = _product_form_variance(cp, gp, 1.0)
        v = gain_variance(cp, gp, 1.0)
    repaired = np.flatnonzero(~np.isfinite(plain))
    assert len(repaired) == 410 and np.isfinite(v[repaired]).sum() == 190
    largest = mpmath.mpf(float(np.finfo(float).max))
    with mpmath.workdps(60):
        for i in repaired.tolist():
            k, ks = mpmath.mpf(cp.k[i]), mpmath.mpf(cp.k[i]) * mpmath.mpf(cp.beta[i])
            c, m, s2 = mpmath.mpf(cp.alpha[i]) / mpmath.mpf(cp.beta[i]), mpmath.mpf(60), 9
            exact = (1 / k) ** 2 * (
                mpmath.exp(2 * k * m) * mpmath.expm1(k * k * s2)
                + c * c * mpmath.exp(-2 * ks * m) * mpmath.expm1(ks * ks * s2)
                + 2 * c * mpmath.exp((k - ks) * m) * mpmath.expm1(-k * ks * s2))
            if math.isfinite(v[i]):
                assert abs(v[i] - exact) <= 1e-15 * exact
            else:
                assert v[i] == np.inf and exact > largest


EXTREME_GAIN = st.floats(1e-3, 1e3)
# the float range's edges: k*k, sigma**2 and k*mu*t overflow, and t = 0 meets them
WIDE_K = st.one_of(EXTREME_GAIN, st.floats(1e-3, 1e200))
WIDE_MU = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e308, 1e308),
                    st.sampled_from([0.0, 60.0, -60.0, 400.0]))
WIDE_SIGMA = st.one_of(st.floats(0.0, 50.0), st.floats(0.0, 1e160))
WIDE_T = st.one_of(st.floats(0.0, 100.0), st.just(0.0))


@settings(max_examples=400, deadline=None)
@given(mu=WIDE_MU, sigma=WIDE_SIGMA, t=WIDE_T, k=WIDE_K, alpha=EXTREME_GAIN, beta=EXTREME_GAIN)
def test_gain_moments_raise_or_are_never_nan(mu, sigma, t, k, alpha, beta):
    cp, gp = ControlParams(1.0, k, alpha, beta), GbmParams(mu, sigma)
    for moment in (expected_gain, gain_variance):
        with np.errstate(over="ignore", invalid="ignore", under="ignore", divide="ignore"):
            try:
                value = moment(cp, gp, t)
            except ValueError:  # e**(mu*t) underflows to 0: the mean is undefined
                continue
        assert not math.isnan(value)


def _points(k, alpha, beta):
    """ControlParams of one point per (k, alpha, beta) triple, as arrays."""
    return ControlParams(1.0, *(np.array(axis) for axis in (k, alpha, beta)))


EXTREME_POINTS = st.lists(st.tuples(EXTREME_GAIN, EXTREME_GAIN, EXTREME_GAIN),
                          min_size=1, max_size=6)
EXTREME_MU = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, 60.0, -60.0, 400.0]))
WIDE_POINTS = st.lists(st.tuples(WIDE_K, EXTREME_GAIN, EXTREME_GAIN), min_size=1, max_size=6)


@settings(max_examples=400, deadline=None)
@given(mu=WIDE_MU, sigma=WIDE_SIGMA, t=WIDE_T, points=WIDE_POINTS)
# alpha = 1 at mu = 0: the terms cancel to about 1e-380, and the product form read -2.9e-211
@example(mu=0.0, sigma=1.0, t=1.0826920824133997e-195, points=[(412.46653662392333, 1.0, 3.0)])
def test_gain_variance_is_never_nan_or_negative(mu, sigma, t, points):
    gp = GbmParams(mu, sigma)
    with np.errstate(over="ignore", invalid="ignore", under="ignore", divide="ignore"):
        grid = gain_variance(_points(*zip(*points)), gp, t)
        scalars = [gain_variance(ControlParams(1.0, *point), gp, t) for point in points]
    assert not np.isnan(grid).any() and not (grid < 0.0).any()
    if sigma == 0.0 or t == 0.0:
        assert not grid.any()
    # the scalar API gives the grid's bits
    np.testing.assert_array_equal(np.array(scalars).view(np.uint64), grid.view(np.uint64))


@settings(max_examples=400, deadline=None)
@given(mu=EXTREME_MU, t=st.floats(0.0, 100.0), points=EXTREME_POINTS)
def test_expected_gain_is_the_closed_form_at_e_to_the_mu_t(mu, t, points):
    gp = GbmParams(mu, 0.3)
    for cp in [_points(*zip(*points)), *(ControlParams(1.0, *point) for point in points)]:
        with np.errstate(over="ignore", invalid="ignore", under="ignore", divide="ignore"):
            q = np.exp(gp.mu * t)
            try:
                closed = gain_total_closed(cp, q)
            except ValueError:  # e**(mu*t) underflows to 0
                with pytest.raises(ValueError):
                    expected_gain(cp, gp, t)
                continue
            mean = expected_gain(cp, gp, t)
        np.testing.assert_array_equal(np.asarray(mean).view(np.uint64),
                                      np.asarray(closed).view(np.uint64))


@pytest.mark.parametrize("field, bad, message", [
    ("mu", math.nan, "mu must be finite"),
    ("mu", math.inf, "mu must be finite"),
    ("mu", -math.inf, "mu must be finite"),
    ("sigma", -0.5, "sigma must be non-negative and finite"),
    ("sigma", math.nan, "sigma must be non-negative and finite"),
    ("sigma", math.inf, "sigma must be non-negative and finite"),
])
def test_gbm_params_rejects_one_bad_entry_of_an_array_field(field, bad, message):
    values = {"mu": np.full((4, 1), 0.1), "sigma": np.full((4, 1), 0.2)}
    values[field][2, 0] = bad
    with pytest.raises(ValueError, match=f"^{message}, got array"):
        GbmParams(**values)


def test_gbm_params_of_columns_give_each_rows_bits_in_the_moments():
    # one row per series against the default grid's axes, as the grid search scores them;
    # (60, 3) and (-60, 3) reach the log-space variance, (0.4, 0) a zero variance
    rng = np.random.default_rng(42)
    mu = np.concatenate([[60.0, -60.0, 0.4], rng.uniform(-3.0, 3.0, 37)])
    sigma = np.concatenate([[3.0, 3.0, 0.0], rng.uniform(0.0, 2.0, 37)])
    t = rng.uniform(0.01, 3.0, 40)
    axes = np.ix_(*([np.linspace(0.5, 5.0, 10)] * 3))
    cp = ControlParams(1.0, *axes)
    columns = GbmParams(*(np.reshape(x, (-1, 1, 1, 1)) for x in (mu, sigma)))
    with np.errstate(over="ignore", invalid="ignore"):
        for moment in (expected_gain, gain_variance):
            batch = moment(cp, columns, t.reshape(-1, 1, 1, 1))
            rows = np.array([moment(cp, GbmParams(*row[:2]), row[2])
                             for row in zip(mu.tolist(), sigma.tolist(), t.tolist())])
            assert batch.shape == (40, 10, 10, 10)
            np.testing.assert_array_equal(batch.view(np.uint64), rows.view(np.uint64))


@pytest.mark.parametrize("mu, sigma, bad", [(1000.0, 0.2, "inf"), (0.1, 200.0, "0.0")])
def test_simulate_paths_raises_where_a_price_overflows_or_underflows(mu, sigma, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        with pytest.raises(ValueError, match=f"^simulated prices must be positive and finite, "
                                             f"got {bad} at mu {mu!r}, sigma {sigma!r}$"):
            simulate_paths(GbmParams(mu, sigma), 100.0, 252, 3, seed=0)


@pytest.mark.parametrize("sigma", [1.4e154, 1e200, 1.7e308])
def test_simulate_paths_raises_where_sigma_squared_overflows(sigma):
    # sigma**2 on floats raises OverflowError; IEEE makes the drift -inf and every price 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^simulated prices must be positive and finite, "
                                             f"got (0.0|nan) at mu 0.1, sigma {re.escape(repr(sigma))}$"):
            simulate_paths(GbmParams(0.1, sigma), 100.0, 252, 3, seed=0)
