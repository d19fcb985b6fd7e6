"""Objectives, target policies, and the deterministic grid search."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsls import (
    ControlParams,
    DriftAdaptiveTarget,
    FixedTarget,
    GbmParams,
    GridSpec,
    NoFiniteObjectiveError,
    Objective,
    expected_gain,
    gain_variance,
    grid_search,
    policy_label,
    resolve_target,
    trading_bias,
    trading_mse,
)
from gsls import optimizer
from gsls.optimizer import _GridPoints


def test_objective_enum_values():
    assert Objective("bias") is Objective.BIAS_SQUARED
    assert Objective("mse") is Objective.MSE
    with pytest.raises(ValueError):
        Objective("rmse")


def test_target_policy_validation():
    FixedTarget(0.15)
    FixedTarget(-0.1)
    with pytest.raises(ValueError):
        FixedTarget(math.inf)
    DriftAdaptiveTarget(0.0)
    with pytest.raises(ValueError):
        DriftAdaptiveTarget(-0.01)


def test_resolve_target():
    assert resolve_target(FixedTarget(0.15), GbmParams(0.3, 0.2)) == 0.15
    assert resolve_target(DriftAdaptiveTarget(0.05), GbmParams(0.1, 0.2)) == pytest.approx(0.15)
    assert resolve_target(DriftAdaptiveTarget(0.05), GbmParams(-0.2, 0.2)) == pytest.approx(0.25)


def test_policy_label():
    assert policy_label(FixedTarget(0.15)) == "fixed0.15"
    assert policy_label(DriftAdaptiveTarget(0.05)) == "drift0.05"


def test_trading_bias_values():
    cp = ControlParams(1.0, 1.0)
    gp = GbmParams(0.1, 0.2)
    g = expected_gain(cp, gp, 1.0)
    assert trading_bias(cp, gp, 1.0, g) == 0.0
    assert trading_bias(cp, gp, 1.0, 0.15) == pytest.approx(-0.13999166388839276, rel=1e-15)
    for k, a, b in [(0.5, 0.5, 0.5), (5.0, 2.0, 3.0)]:
        assert trading_bias(ControlParams(1.0, k, a, b), GbmParams(0.0, 0.2), 1.0, 0.15) == -0.15


def test_trading_mse_dominates_squared_bias():
    rng = np.random.default_rng(31)
    for _ in range(300):
        cp = ControlParams(rng.uniform(0.5, 2), rng.uniform(0.1, 4),
                           rng.uniform(0.1, 4), rng.uniform(0.1, 4))
        gp = GbmParams(rng.uniform(-0.2, 0.2), rng.uniform(0.0, 0.5))
        t = rng.uniform(0.1, 2.0)
        target = rng.uniform(-0.1, 0.3)
        b = trading_bias(cp, gp, t, target)
        m = trading_mse(cp, gp, t, target)
        assert m >= b * b - 1e-15
        if gp.sigma == 0.0:
            assert m == b * b


def test_trading_mse_zero_volatility_equals_squared_bias():
    cp = ControlParams(1.0, 2.0, alpha=0.7)
    gp = GbmParams(0.08, 0.0)
    b = trading_bias(cp, gp, 1.0, 0.15)
    assert trading_mse(cp, gp, 1.0, 0.15) == b * b
    assert trading_mse(cp, gp, 1.0, expected_gain(cp, gp, 1.0)) == 0.0


def test_grid_spec_sorts_dedupes_and_validates():
    g = GridSpec((3.0, 1.0, 3.0), (1.0,), (2.0, 0.5))
    assert g.k_values == (1.0, 3.0)
    assert g.beta_values == (0.5, 2.0)
    assert g.size == 4
    with pytest.raises(ValueError):
        GridSpec((), (1.0,), (1.0,))
    with pytest.raises(ValueError):
        GridSpec((1.0, 0.0), (1.0,), (1.0,))
    with pytest.raises(ValueError):
        GridSpec((1.0,), (-2.0,), (1.0,))


def test_grid_spec_rejects_a_point_whose_beta_times_k_leaves_the_floats():
    # the 1e-170..1e-160 grid holds valid k and beta values, but some products underflow
    with pytest.raises(ValueError, match=r"^beta\*k must be positive and finite"):
        GridSpec.equally_spaced(1e-170, 1e-160, 2)
    with pytest.raises(ValueError, match=r"^beta\*k must be positive and finite"):
        GridSpec((1.0, 1e200), (1.0,), (1e200,))
    # an SLS grid has beta = 1, so beta*k is k
    assert GridSpec.equally_spaced(1e-170, 1e-160, 2, sls_only=True).size == 2


def test_grid_spec_equally_spaced_default():
    g = GridSpec.default()
    assert g.k_values == tuple(0.5 * i for i in range(1, 11))
    assert g.alpha_values == g.k_values and g.beta_values == g.k_values
    assert g.size == 1000
    combos = list(g.combos())
    assert len(combos) == 1000
    assert combos[0] == (0.5, 0.5, 0.5)
    assert combos[-1] == (5.0, 5.0, 5.0)
    assert combos == sorted(combos)


def test_grid_spec_sls_only():
    g = GridSpec.equally_spaced(sls_only=True)
    assert g.alpha_values == (1.0,)
    assert g.beta_values == (1.0,)
    assert g.size == 10


def test_grid_spec_equally_spaced_validation():
    with pytest.raises(ValueError):
        GridSpec.equally_spaced(n=0)
    with pytest.raises(ValueError):
        GridSpec.equally_spaced(lo=0.0)
    with pytest.raises(ValueError):
        GridSpec.equally_spaced(lo=2.0, hi=1.0)


def test_grid_search_single_point():
    gp = GbmParams(0.1, 0.2)
    grid = GridSpec((2.0,), (1.5,), (0.5,))
    res = grid_search(gp, 1.0, FixedTarget(0.15), grid, Objective.MSE, i0=1.3)
    assert res.params == ControlParams(1.3, 2.0, 1.5, 0.5)
    assert res.objective_value == trading_mse(res.params, gp, 1.0, 0.15)
    assert res.target == 0.15


def test_grid_search_rejects_bad_horizon():
    with pytest.raises(ValueError):
        grid_search(GbmParams(0.1, 0.2), 0.0, FixedTarget(0.15),
                    GridSpec.default(), Objective.MSE)


def _best_by_enumeration(gp, t, target, grid, objective, i0=1.0):
    """Independent re-enumeration with first-wins tie-breaking."""
    best = None
    for k, a, b in itertools.product(grid.k_values, grid.alpha_values, grid.beta_values):
        cp = ControlParams(i0, k, a, b)
        if objective is Objective.MSE:
            value = trading_mse(cp, gp, t, target)
        else:
            value = trading_bias(cp, gp, t, target) ** 2
        if best is None or value < best[0]:
            best = (value, cp)
    return best


@pytest.mark.parametrize("objective", [Objective.BIAS_SQUARED, Objective.MSE])
def test_grid_search_matches_independent_enumeration(objective):
    grid = GridSpec.default()
    rng = np.random.default_rng(32)
    for _ in range(3):
        gp = GbmParams(rng.uniform(-0.2, 0.2), rng.uniform(0.05, 0.4))
        res = grid_search(gp, 1.0, FixedTarget(0.15), grid, objective)
        value, cp = _best_by_enumeration(gp, 1.0, 0.15, grid, objective)
        assert res.params == cp
        assert res.objective_value == value


def test_grid_search_zero_drift_tie_breaks_to_smallest_point():
    # at mu=0 every grid point has expected gain 0, so all biases tie
    res = grid_search(GbmParams(0.0, 0.2), 1.0, FixedTarget(0.15),
                      GridSpec.default(), Objective.BIAS_SQUARED)
    assert (res.params.k, res.params.alpha, res.params.beta) == (0.5, 0.5, 0.5)


def test_grid_search_parallel_equals_sequential():
    grid = GridSpec.default()
    cases = [(GbmParams(0.0, 0.2), Objective.BIAS_SQUARED),
             (GbmParams(0.1, 0.2), Objective.MSE),
             (GbmParams(-0.15, 0.3), Objective.BIAS_SQUARED)]
    for gp, objective in cases:
        base = grid_search(gp, 1.0, FixedTarget(0.15), grid, objective, jobs=1)
        for jobs in (2, 4, 7):
            res = grid_search(gp, 1.0, FixedTarget(0.15), grid, objective, jobs=jobs)
            assert res.params == base.params
            assert res.objective_value == base.objective_value


def test_grid_search_table_contents():
    grid = GridSpec.equally_spaced(n=3)
    gp = GbmParams(0.1, 0.2)
    res = grid_search(gp, 1.0, FixedTarget(0.15), grid, Objective.MSE, keep_table=True)
    assert res.table is not None
    assert len(res.table) == grid.size
    assert [row[:3] for row in res.table] == list(grid.combos())
    for k, a, b, value in res.table:
        assert value == trading_mse(ControlParams(1.0, k, a, b), gp, 1.0, 0.15)
    assert min(row[3] for row in res.table) == res.objective_value
    # parallel table is concatenated in grid order
    par = grid_search(gp, 1.0, FixedTarget(0.15), grid, Objective.MSE,
                      jobs=3, keep_table=True)
    assert par.table == res.table


def test_grid_search_zero_volatility_objectives_agree():
    gp = GbmParams(0.1, 0.0)
    a = grid_search(gp, 1.0, FixedTarget(0.15), GridSpec.default(), Objective.BIAS_SQUARED)
    b = grid_search(gp, 1.0, FixedTarget(0.15), GridSpec.default(), Objective.MSE)
    assert a.params == b.params


def test_grid_search_passes_i0_through():
    res = grid_search(GbmParams(0.1, 0.2), 1.0, FixedTarget(0.15),
                      GridSpec.default(), Objective.MSE, i0=2.5)
    assert res.params.i0 == 2.5


def test_grid_search_drift_adaptive_target():
    gp = GbmParams(-0.2, 0.2)
    res = grid_search(gp, 1.0, DriftAdaptiveTarget(0.05), GridSpec.default(),
                      Objective.BIAS_SQUARED)
    assert res.target == pytest.approx(0.25)


def test_mse_picks_more_conservative_expected_gain_for_some_volatility():
    # high volatility pushes the MSE choice below the bias choice's mean
    gp_by_sigma = [GbmParams(0.1, s) for s in (0.05, 0.1, 0.2, 0.4)]
    grid = GridSpec.default()
    found = []
    for gp in gp_by_sigma:
        bias = grid_search(gp, 1.0, FixedTarget(0.15), grid, Objective.BIAS_SQUARED)
        mse = grid_search(gp, 1.0, FixedTarget(0.15), grid, Objective.MSE)
        found.append(expected_gain(mse.params, gp, 1.0) < expected_gain(bias.params, gp, 1.0))
    assert any(found)


def test_grid_search_raises_when_no_value_is_finite():
    # every point overflows or meets inf - inf in the variance
    with pytest.raises(NoFiniteObjectiveError, match="no grid point has a finite objective value"):
        grid_search(GbmParams(400.0, 50.0), 1.0, FixedTarget(0.15),
                    GridSpec.default(), Objective.MSE)


def test_grid_search_never_picks_a_non_finite_value():
    res = grid_search(GbmParams(60.0, 3.0), 1.0, FixedTarget(0.15), GridSpec.default(),
                      Objective.MSE, keep_table=True)
    values = [row[3] for row in res.table]
    assert not all(math.isfinite(v) for v in values)
    best = min(v for v in values if math.isfinite(v))
    first = next(row for row in res.table if row[3] == best)
    assert math.isfinite(res.objective_value)
    assert res.objective_value == best
    assert (res.params.k, res.params.alpha, res.params.beta) == first[:3]


def test_grid_search_rejects_bad_i0_before_scoring():
    with pytest.raises(ValueError, match="i0"):
        grid_search(GbmParams(400.0, 50.0), 1.0, FixedTarget(0.15),
                    GridSpec.default(), Objective.MSE, i0=0.0)


def test_grid_search_underflowing_price_ratio_raises_before_scoring():
    # mu*t = -800: e^(mu*t) is 0, where the mean gain is undefined
    with pytest.raises(NoFiniteObjectiveError, match="price ratio e\\^\\(mu\\*t\\) underflows to 0"):
        grid_search(GbmParams(-400.0, 1.0), 2.0, FixedTarget(0.15), GridSpec.default(),
                    Objective.MSE)


_grid_axis = st.lists(st.floats(0.05, 10.0), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(mu=st.floats(-2.0, 2.0), sigma=st.floats(0.0, 1.5),
       t=st.floats(0.0, 3.0, exclude_min=True), target=st.floats(-2.0, 2.0),
       i0=st.floats(0.01, 100.0), objective=st.sampled_from(Objective),
       k_values=_grid_axis, alpha_values=_grid_axis, beta_values=_grid_axis)
def test_grid_search_rows_equal_the_scalar_api(mu, sigma, t, target, i0, objective,
                                               k_values, alpha_values, beta_values):
    gp = GbmParams(mu, sigma)
    grid = GridSpec(k_values, alpha_values, beta_values)
    expected = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k, a, b in grid.combos():
            cp = ControlParams(i0, k, a, b)
            if objective is Objective.MSE:
                expected.append(float(trading_mse(cp, gp, t, target)))
            else:
                # b*b, as the search squares it; np.float64 ** 2 calls pow,
                # which differs from the product in the last bit on ~0.1% of inputs
                bias = trading_bias(cp, gp, t, target)
                expected.append(float(bias * bias))
    finite = [v for v in expected if math.isfinite(v)]
    if not finite:
        with pytest.raises(NoFiniteObjectiveError):
            grid_search(gp, t, FixedTarget(target), grid, objective, i0=i0)
        return
    res = grid_search(gp, t, FixedTarget(target), grid, objective, i0=i0, keep_table=True)
    assert [row[:3] for row in res.table] == list(grid.combos())
    for row, value in zip(res.table, expected):
        assert row[3] == value or not (math.isfinite(row[3]) or math.isfinite(value))
    first = expected.index(min(finite))
    assert res.params == ControlParams(i0, *list(grid.combos())[first])
    assert res.objective_value == min(finite)


def test_closed_forms_on_grid_points_equal_the_scalar_api():
    # irregular values reach the ~0.1% of inputs where two roundings of one
    # formula (pow against a product, or a scalar loop against a vector one)
    # differ in the last bit; the moments are compared before the objective
    # can absorb such a difference
    rng = np.random.default_rng(33)
    for _ in range(20):
        gp = GbmParams(rng.uniform(-2.0, 2.0), rng.uniform(0.0, 1.5))
        t, i0 = rng.uniform(0.01, 3.0), rng.uniform(0.01, 100.0)
        k, a, b = rng.uniform(0.05, 10.0, (3, 500))
        with np.errstate(over="ignore", invalid="ignore"):
            for fn in (expected_gain, gain_variance):
                batch = fn(_GridPoints(i0, k, a, b), gp, t)
                scalar = np.array([fn(ControlParams(i0, *x), gp, t) for x in zip(k, a, b)])
                np.testing.assert_array_equal(batch, scalar)


def test_special_exponents_on_grid_points_equal_the_scalar_api():
    # numpy swaps pow for 1/q, sqrt(q) or q*q when one exponent of -1, 0.5
    # or 2 meets the base; near q = 1 those differ from pow in the last bit,
    # which the cancellation in a small mean gain turns into large errors
    values = (0.5, 1.0, 2.0)
    k, a, b = (np.array(axis, dtype=float) for axis in zip(*itertools.product(values, repeat=3)))
    rng = np.random.default_rng(34)
    for mu_t in rng.uniform(-1e-6, 1e-6, 200):
        gp, t = GbmParams(mu_t, 0.0), 1.0
        batch = expected_gain(_GridPoints(1.0, k, a, b), gp, t)
        scalar = np.array([expected_gain(ControlParams(1.0, *x), gp, t) for x in zip(k, a, b)])
        np.testing.assert_array_equal(batch, scalar)


_extreme_mu = st.one_of(st.floats(-2.0, 2.0), st.floats(-1e3, 1e3),
                        st.sampled_from([0.0, 60.0, -60.0, 400.0, -400.0]))
_extreme_sigma = st.one_of(st.floats(0.0, 1.5), st.floats(0.0, 60.0),
                           st.sampled_from([0.0, 3.0, 50.0]))
_extreme_t = st.one_of(st.floats(1e-3, 3.0), st.sampled_from([1e-9, 1.0, 2.0, 100.0]))
_policy = st.one_of(st.builds(FixedTarget, st.floats(-2.0, 2.0)),
                    st.builds(DriftAdaptiveTarget, st.floats(0.0, 1.0)))
# K, A and B all differ, so scoring with two axes swapped moves the winner
_grids = st.sampled_from([GridSpec((0.5, 1.0, 2.5), (0.7, 1.3), (0.4, 0.9, 1.6, 3.0)),
                          GridSpec.equally_spaced(0.5, 5.0, 4, sls_only=True),
                          GridSpec.default()])


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(_extreme_mu, _extreme_sigma, _extreme_t), min_size=1, max_size=40),
       policy=_policy, grid=_grids, objective=st.sampled_from(Objective),
       i0=st.floats(0.01, 100.0), cells=st.sampled_from([1, 50, optimizer._CHUNK_CELLS]))
def test_batched_search_equals_grid_search_row_by_row(rows, policy, grid, objective, i0, cells):
    gps = [GbmParams(mu, sigma) for mu, sigma, _ in rows]
    ts = [t for _, _, t in rows]
    with pytest.MonkeyPatch.context() as mp:
        # small chunks put rows of one draw into different evaluations
        mp.setattr(optimizer, "_CHUNK_CELLS", cells)
        batch = optimizer._search(gps, ts, policy, grid, objective, i0)
    assert len(batch) == len(rows)
    for gp, t, got in zip(gps, ts, batch):
        try:
            want = grid_search(gp, t, policy, grid, objective, i0=i0)
        except NoFiniteObjectiveError as exc:
            assert type(got) is NoFiniteObjectiveError and str(got) == str(exc)
            continue
        assert (got.params, got.target) == (want.params, want.target)
        assert got.objective_value.hex() == want.objective_value.hex()
        # grid_search never returns a non-finite winner
        assert math.isfinite(got.objective_value)
        # the scalar API scores the reported point at the reported value, which
        # fails when the values and the (k, alpha, beta) points disagree on the axis order
        with np.errstate(over="ignore", invalid="ignore"):
            b = trading_bias(got.params, gp, t, got.target)
            scalar = (trading_mse(got.params, gp, t, got.target) if objective is Objective.MSE
                      else b * b)
        assert float(scalar) == got.objective_value


def test_batched_search_covers_every_outcome_and_the_log_space_variance():
    # one row per outcome: a finite winner, a variance that takes the log-space
    # sum, an underflowing e^(mu*t), and no finite value at all
    gps = [GbmParams(0.1, 0.2), GbmParams(-60.0, 3.0), GbmParams(-400.0, 1.0),
           GbmParams(400.0, 50.0)]
    ts = [1.0, 1.0, 2.0, 1.0]
    grid = GridSpec.default()
    k, _, b = (np.array(axis) for axis in zip(*grid.combos()))
    with np.errstate(over="ignore"):
        # the short term's factor e^(-2*beta*k*mu*t) overflows at row 1
        assert not np.isfinite(np.exp(-2.0 * b * k * -60.0)).all()
    batch = optimizer._search(gps, ts, FixedTarget(0.15), grid, Objective.MSE)
    assert batch[0] == grid_search(gps[0], 1.0, FixedTarget(0.15), grid, Objective.MSE)
    assert batch[1] == grid_search(gps[1], 1.0, FixedTarget(0.15), grid, Objective.MSE)
    assert str(batch[2]) == "price ratio e^(mu*t) underflows to 0 at mu*t = -800"
    assert str(batch[3]) == "no grid point has a finite objective value"
    # no rows, nothing to check or score
    assert optimizer._search([], [], FixedTarget(0.15), grid, Objective.MSE, i0=0.0) == []
