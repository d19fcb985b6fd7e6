"""Series loading, windowing, the per-series pipeline, and aggregation."""

import csv
import dataclasses
import functools
import json
import math
import multiprocessing
import os
import warnings
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gsls import backtest as backtest_module
from gsls import optimizer as optimizer_module
from gsls import strategy as strategy_module
from gsls import (
    ControlParams,
    DataError,
    DriftAdaptiveTarget,
    FixedTarget,
    GainSummary,
    GbmParams,
    GridSpec,
    Objective,
    PriceSeries,
    SeriesResult,
    SplitSpec,
    aggregate,
    backtest_one,
    backtest_universe,
    gain_total_closed,
    load_series,
    load_universe,
    report_to_dict,
    run_fixed_strategy,
    run_fixed_strategy_universe,
    run_strategy,
    simulate_paths,
    write_daily_csv,
    write_summary_csv,
)

D = date.fromisoformat


def _days(start, n):
    first = D(start)
    return tuple(first + timedelta(days=i) for i in range(n))


def _series(symbol, start, prices):
    prices = np.asarray(prices, dtype=float)
    return PriceSeries(symbol, _days(start, len(prices)), prices)


def test_price_series_validation():
    with pytest.raises(DataError):
        PriceSeries("x", _days("2016-01-01", 3), [1.0, 2.0])
    with pytest.raises(DataError):
        PriceSeries("x", (), [])
    days = (D("2016-01-02"), D("2016-01-01"))
    with pytest.raises(DataError):
        PriceSeries("x", days, [1.0, 2.0])
    with pytest.raises(DataError):
        _series("x", "2016-01-01", [1.0, -2.0])
    with pytest.raises(DataError):
        _series("x", "2016-01-01", [1.0, math.inf])


def test_price_series_window_bounds_are_inclusive():
    s = _series("x", "2016-01-01", [1.0, 2.0, 3.0, 4.0, 5.0])
    w = s.window(D("2016-01-02"), D("2016-01-04"))
    assert len(w) == 3
    np.testing.assert_array_equal(w.prices, [2.0, 3.0, 4.0])
    assert w.dates[0] == D("2016-01-02")
    # window wider than the data clips to it
    assert len(s.window(D("2015-01-01"), D("2017-01-01"))) == 5
    with pytest.raises(DataError):
        s.window(D("2017-01-01"), D("2017-02-01"))


def test_price_series_window_keeps_the_parent_slice():
    s = _series("x", "2016-01-01", np.linspace(1.0, 10.0, 10))
    w = s.window(D("2016-01-03"), D("2016-01-07"))
    assert w.symbol == "x"
    assert w.dates == s.dates[2:7]
    np.testing.assert_array_equal(w.prices, s.prices[2:7])
    ww = w.window(D("2016-01-04"), D("2016-01-05"))
    assert ww.dates == s.dates[3:5]
    np.testing.assert_array_equal(ww.prices, s.prices[3:5])


def test_split_spec_validation():
    SplitSpec(D("2016-01-01"), D("2016-06-30"), D("2016-07-01"), D("2016-12-31"))
    with pytest.raises(ValueError):
        SplitSpec(D("2016-06-30"), D("2016-01-01"), D("2016-07-01"), D("2016-12-31"))
    with pytest.raises(ValueError):
        SplitSpec(D("2016-01-01"), D("2016-06-30"), D("2016-12-31"), D("2016-07-01"))
    with pytest.raises(ValueError):
        SplitSpec(D("2016-01-01"), D("2016-07-01"), D("2016-07-01"), D("2016-12-31"))


def test_load_series_round_trip(tmp_path):
    f = tmp_path / "acme.csv"
    f.write_text("date,close\n2016-01-01,100.0\n2016-01-02,101.5\n")
    s = load_series(f)
    assert s.symbol == "acme"
    assert len(s) == 2
    np.testing.assert_array_equal(s.prices, [100.0, 101.5])


def test_load_series_tolerates_header_case_and_blank_lines(tmp_path):
    f = tmp_path / "a.csv"
    f.write_text("Date, Close\n2016-01-01,100\n\n2016-01-02,101\n")
    assert len(load_series(f)) == 2


@pytest.mark.parametrize("body,fragment", [
    ("", "empty file"),
    ("date,close\n", "no data rows"),
    ("time,close\n2016-01-01,1\n", "header"),
    ("date,close\n2016-01-01,100\n2016-01-02,0\n", "row 3"),
    ("date,close\nnot-a-date,100\n", "row 2"),
    ("date,close\n2016-01-01,abc\n", "row 2"),
    ("date,close\n2016-01-01,100,extra\n", "row 2"),
    ("date,close\n2016-01-02,100\n2016-01-01,101\n", "increasing"),
])
def test_load_series_reports_the_offending_row(tmp_path, body, fragment):
    f = tmp_path / "bad.csv"
    f.write_text(body)
    with pytest.raises(DataError, match=fragment):
        load_series(f)


def test_load_series_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_series(tmp_path / "nope.csv")


_BAD_DATES = ["not-a-date", "2016-13-01", "2016-02-30", "", "today", "2007-01", "NaT",
              "0000-01-01", "20160102"]
_ODD_PRICES = ["1_000", " 12.5 ", "\t7", "abc", "", "0", "-0.0", "-3.5", "inf", "-inf",
               "nan", "1e999", "0x10"]


@st.composite
def _price_csv(draw):
    """A date,close text: canonical, or with odd lines, cells and endings."""
    days = draw(st.lists(st.dates(date(2015, 12, 1), date(2016, 3, 31)), max_size=6,
                         unique=draw(st.integers(0, 3)) > 0))
    days = sorted(days) if draw(st.integers(0, 3)) else draw(st.permutations(days))
    odd = draw(st.booleans())
    lines = [draw(st.sampled_from(["date,close", "Date, Close", "date,close,x", "time,close"]))
             if odd and not draw(st.integers(0, 3)) else "date,close"]
    carry = ""  # kind 8 moves a line's price to the start of the next line
    for day in days:
        day_cell, price_cell = day.isoformat(), repr(draw(st.floats(1e-3, 1e6)))
        kind = draw(st.integers(0, 23)) if odd else 23
        if kind == 0:
            day_cell = draw(st.sampled_from(_BAD_DATES))
        elif kind == 1:
            price_cell = draw(st.sampled_from(_ODD_PRICES))
        elif kind == 2:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        elif kind == 3:
            day_cell, price_cell = f" {day_cell}\t", f" {price_cell} "
        lines.append(carry + {
            4: f'"{day_cell}","{price_cell}"',
            5: f'{day_cell},"{price_cell}"',
            6: day_cell,
            7: f"{day_cell},{price_cell},{price_cell}",
            8: day_cell,
        }.get(kind, f"{day_cell},{price_cell}"))
        carry = f"{price_cell}," if kind == 8 else ""
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _loaded(load, *args):
    """What a loader returns, as comparable values, or its DataError text."""
    try:
        series = load(*args)
    except DataError as exc:
        return str(exc)
    return series.symbol, series.dates, series.prices.tobytes()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_price_csv())
def test_load_series_equals_the_row_loop(tmp_path, text):
    f = tmp_path / "s.csv"
    f.write_bytes(text.encode())
    lines = f.read_text().splitlines()
    assert _loaded(load_series, f) == _loaded(backtest_module._load_rows, f, lines)


def _count_loop_calls(monkeypatch):
    calls = []
    loop = backtest_module._load_rows

    def spy(*args):
        calls.append(args)
        return loop(*args)

    monkeypatch.setattr(backtest_module, "_load_rows", spy)
    return calls


def test_load_series_parses_a_canonical_file_without_the_row_loop(tmp_path, monkeypatch):
    calls = _count_loop_calls(monkeypatch)
    f = tmp_path / "a.csv"
    f.write_text("date,close\n2016-01-01,100.0\n2016-01-04, 1_000\n2016-01-05,99.25\n")
    s = load_series(f)
    assert calls == []
    assert s.dates == (D("2016-01-01"), D("2016-01-04"), D("2016-01-05"))
    np.testing.assert_array_equal(s.prices, [100.0, 1000.0, 99.25])


def test_load_series_sends_quoted_and_rejected_files_to_the_row_loop(tmp_path, monkeypatch):
    calls = _count_loop_calls(monkeypatch)
    quoted = tmp_path / "q.csv"
    quoted.write_text('date,close\n"2016-01-01","100"\n2016-01-02,101\n')
    assert len(load_series(quoted)) == 2
    assert len(calls) == 1
    bad = tmp_path / "b.csv"
    bad.write_text("date,close\n2016-01-01,100\n2016-01-02,-1\n")
    with pytest.raises(DataError, match="row 3: price must be positive"):
        load_series(bad)
    assert len(calls) == 2
    # the cells would line up if the file were split at every comma
    shifted = tmp_path / "s.csv"
    shifted.write_text("date,close\n2016-01-01\n100,2016-01-02,101\n")
    with pytest.raises(DataError, match="row 2: expected 2 fields, got 1"):
        load_series(shifted)
    assert len(calls) == 3
    # csv.reader refuses a field longer than its limit, so the bulk pass
    # must not accept one either
    padded = tmp_path / "p.csv"
    padded.write_text(f"date,close\n2016-01-01,{' ' * csv.field_size_limit()}100\n")
    with pytest.raises((csv.Error, DataError)):
        load_series(padded)
    assert len(calls) == 4


def test_load_series_checks_one_comma_per_line_not_in_total(tmp_path, monkeypatch):
    # two commas on one line and none on the next: split at every comma, the
    # cells would read as the two valid rows (2016-01-01, 5) and (2016-01-02, 7)
    calls = _count_loop_calls(monkeypatch)
    f = tmp_path / "c.csv"
    f.write_text("date,close\n2016-01-01,5,2016-01-02\n7\n")
    with pytest.raises(DataError, match="row 2: expected 2 fields, got 3"):
        load_series(f)
    assert len(calls) == 1


def test_load_universe_sorted_and_skip_with_report(tmp_path):
    (tmp_path / "b.csv").write_text("date,close\n2016-01-01,2\n2016-01-02,3\n")
    (tmp_path / "a.csv").write_text("date,close\n2016-01-01,1\n2016-01-02,2\n")
    (tmp_path / "c.csv").write_text("date,close\n2016-01-01,0\n")
    with pytest.raises(DataError):
        load_universe(tmp_path)
    series, failures = load_universe(tmp_path, skip_errors=True)
    assert [s.symbol for s in series] == ["a", "b"]
    assert list(failures) == ["c.csv"]
    assert "row 2" in failures["c.csv"]


def test_load_universe_skip_records_a_field_over_the_csv_size_limit(tmp_path):
    (tmp_path / "a.csv").write_text("date,close\n2016-01-01,1\n2016-01-02,2\n")
    (tmp_path / "big.csv").write_text(f"date,close\n2016-01-01,1{'0' * 150_000}\n")
    with pytest.raises(DataError, match="row 2: field larger than field limit"):
        load_universe(tmp_path)
    series, failures = load_universe(tmp_path, skip_errors=True)
    assert [s.symbol for s in series] == ["a"]
    assert list(failures) == ["big.csv"]
    assert "row 2: field larger than field limit" in failures["big.csv"]


def test_load_universe_empty_directory(tmp_path):
    with pytest.raises(DataError, match="no CSV files"):
        load_universe(tmp_path)


@pytest.fixture
def stripes(request, monkeypatch):
    """The processes that load_universe parses files with, forced to request.param."""
    monkeypatch.setattr(backtest_module, "_cpus", lambda: request.param)
    yield request.param
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _csv_text(days, prices, end="\n"):
    rows = zip(days, np.asarray(prices, dtype=float).tolist())
    return end.join(["date,close", *(f"{d},{p!r}" for d, p in rows)]) + end


def _mixed_universe(root):
    """Clean files on two calendars, row-loop files and bad files, in one directory."""
    short = [d.isoformat() for d in _days("2016-01-01", 40)]
    long = [d.isoformat() for d in _days("2015-06-01", 90)]
    rng = np.random.default_rng(31)
    files = {}
    for i in range(9):
        days = long if i % 3 == 2 else short
        files[f"clean_{i}.csv"] = _csv_text(days, 100.0 * np.exp(rng.normal(0, 0.01, len(days))
                                                                 .cumsum()))
    prices = rng.uniform(50.0, 150.0, len(short))
    files["crlf.csv"] = _csv_text(short, prices, "\r\n")
    files["quoted.csv"] = _csv_text(short, prices).replace("2016-01-05,", '"2016-01-05",')
    files["spaced.csv"] = _csv_text(short, prices).replace("\n2016-01-09,", "\n\n 2016-01-09 ,")
    files["bad_price.csv"] = _csv_text(short, prices).replace(f",{prices[7].item()!r}\n", ",-1\n")
    files["bad_order.csv"] = _csv_text(short[:5] + short[6:7] + short[5:6] + short[7:],
                                       prices)
    files["bad_date.csv"] = _csv_text(short, prices).replace("2016-01-03", "2016-01-32")
    files["bad_fields.csv"] = _csv_text(short, prices).replace("2016-01-04,", "2016-01-04,1,")
    files["empty.csv"] = ""
    for name, text in files.items():
        (root / name).write_bytes(text.encode())
    return short, long


def _load(root, skip_errors):
    """load_universe's result as comparable values, or the type and text of its error."""
    try:
        universe, failures = load_universe(root, skip_errors=skip_errors)
    except Exception as exc:
        return type(exc), str(exc)
    return [(s.symbol, s.dates, s.prices.tobytes(), s.prices.flags.writeable)
            for s in universe], failures


@pytest.mark.parametrize("stripes", [1, 2, 3], indirect=True)
def test_load_universe_in_stripes_equals_one_process(tmp_path, monkeypatch, stripes):
    short, long = _mixed_universe(tmp_path)
    got = [_load(tmp_path, skip) for skip in (True, False)]
    monkeypatch.setattr(backtest_module, "_cpus", lambda: 1)
    assert got == [_load(tmp_path, skip) for skip in (True, False)]
    series, failures = got[0]
    assert [symbol for symbol, *_ in series] == [*(f"clean_{i}" for i in range(9)), "crlf",
                                                 "quoted", "spaced"]
    assert {dates for _, dates, *_ in series} == {tuple(map(D, short)), tuple(map(D, long))}
    assert sorted(failures) == ["bad_date.csv", "bad_fields.csv", "bad_order.csv",
                                "bad_price.csv", "empty.csv"]
    # without skip_errors, the first bad file in name order
    assert got[1] == (DataError, failures["bad_date.csv"])
    # every file holds what load_series reads from it
    for symbol, dates, prices, _ in series:
        one = load_series(tmp_path / f"{symbol}.csv")
        assert (one.dates, one.prices.tobytes()) == (dates, prices)
    for name, reason in failures.items():
        with pytest.raises(DataError) as err:
            load_series(tmp_path / name)
        assert str(err.value) == reason


@pytest.mark.parametrize("stripes", [2, 3], indirect=True)
def test_an_error_in_a_stripe_is_raised_at_its_file(tmp_path, monkeypatch, stripes):
    _mixed_universe(tmp_path)
    parent, read_text = os.getpid(), backtest_module.Path.read_text

    def fails_in_a_child(path):
        if path.name == "clean_1.csv" and os.getpid() != parent:
            raise RuntimeError("read failed")
        return read_text(path)

    monkeypatch.setattr(backtest_module.Path, "read_text", fails_in_a_child)
    with pytest.raises(RuntimeError, match="read failed"):
        load_universe(tmp_path, skip_errors=True)


@pytest.mark.parametrize("stripes", [1, 2, 3], indirect=True)
def test_series_on_one_calendar_share_one_dates_tuple(tmp_path, stripes):
    days = [d.isoformat() for d in _days("2016-01-01", 30)]
    other = days[:-1] + ["2016-02-15"]  # one cell differs
    for i in range(6):
        (tmp_path / f"s{i}.csv").write_text(_csv_text(other if i == 4 else days,
                                                      np.linspace(1.0, 2.0 + i, 30)))
    universe, _ = load_universe(tmp_path)
    assert len({id(s.dates) for s in universe}) == 2
    assert universe[0].dates is universe[5].dates
    assert universe[4].dates == tuple(map(D, other)) != universe[0].dates


def test_a_date_column_is_parsed_once_per_universe(tmp_path, monkeypatch):
    parsed = []

    class CountingDate(date):
        @classmethod
        def fromisoformat(cls, text):
            parsed.append(text)
            return date.fromisoformat(text)

    monkeypatch.setattr(backtest_module, "_cpus", lambda: 1)
    monkeypatch.setattr(backtest_module, "date", CountingDate)
    days = [d.isoformat() for d in _days("2016-01-01", 30)]
    other = days[:-1] + ["2016-02-15"]
    for i in range(5):
        (tmp_path / f"s{i}.csv").write_text(_csv_text(other if i == 3 else days,
                                                      np.linspace(1.0, 2.0, 30)))
    universe, _ = load_universe(tmp_path)
    assert len(universe) == 5
    assert parsed == days + other


@pytest.mark.parametrize("stripes", [1, 2], indirect=True)
def test_a_calendar_already_parsed_keeps_every_error_text(tmp_path, stripes):
    # b and d reuse a's dates, and c holds them with two swapped
    days = [d.isoformat() for d in _days("2016-01-01", 10)]
    text = _csv_text(days, [10.0 + i for i in range(10)])
    (tmp_path / "a.csv").write_text(text)
    (tmp_path / "b.csv").write_text(text.replace(",15.0\n", ",-15.0\n"))
    (tmp_path / "c.csv").write_text(text.replace("-04,", "-xx,").replace("-05,", "-04,")
                                    .replace("-xx,", "-05,"))
    (tmp_path / "d.csv").write_text(text.replace(",12.0\n", ",x12\n"))
    universe, failures = load_universe(tmp_path, skip_errors=True)
    assert [s.symbol for s in universe] == ["a"]
    assert failures == {
        "b.csv": f"{tmp_path / 'b.csv'}: row 7: price must be positive, got '-15.0'",
        "c.csv": f"{tmp_path / 'c.csv'}: c: dates must be strictly increasing",
        "d.csv": f"{tmp_path / 'd.csv'}: row 4: bad price 'x12'",
    }



@pytest.mark.parametrize("stripes", [1, 2], indirect=True)
def test_a_file_that_is_not_utf8_is_a_data_error_naming_it(tmp_path, stripes):
    days = [d.isoformat() for d in _days("2016-01-01", 3)]
    (tmp_path / "a.csv").write_text(_csv_text(days, [10.0, 11.0, 12.0]))
    (tmp_path / "b.csv").write_bytes(b"date,close\n2016-01-01,1\xe9\n")
    reason = (f"{tmp_path / 'b.csv'}: 'utf-8' codec can't decode byte 0xe9 in position 23: "
              "invalid continuation byte")
    universe, failures = load_universe(tmp_path, skip_errors=True)
    assert [s.symbol for s in universe] == ["a"]
    assert failures == {"b.csv": reason}
    with pytest.raises(DataError) as err:
        load_universe(tmp_path)
    assert str(err.value) == reason

def test_gain_summary_from_gains():
    s = GainSummary.from_gains([1.0, 2.0, 3.0, 4.0])
    assert s.q1 == 1.75
    assert s.median == 2.5
    assert s.mean == 2.5
    assert s.q3 == 3.25
    assert s.iqr == pytest.approx(1.5)


def _result(symbol, gains):
    return SeriesResult(symbol=symbol, params=ControlParams(1.0, 1.0),
                        gains=np.asarray(gains, dtype=float))


def test_aggregate_single_series_quantiles_collapse():
    gains = [0.0, 0.1, -0.2, 0.3]
    report = aggregate([_result("a", gains)])
    np.testing.assert_array_equal(report.day_mean, gains)
    np.testing.assert_array_equal(report.day_q025, gains)
    np.testing.assert_array_equal(report.day_q50, gains)
    np.testing.assert_array_equal(report.day_q975, gains)
    assert report.summary.median == 0.3
    assert report.n_days == 4


def test_aggregate_symmetric_pair_centers_at_zero():
    g = np.array([0.0, 0.5, -0.25, 1.0])
    report = aggregate([_result("up", g), _result("down", -g)])
    np.testing.assert_allclose(report.day_mean, 0.0, atol=1e-15)
    np.testing.assert_allclose(report.day_q50, 0.0, atol=1e-15)


def test_aggregate_misaligned_lengths():
    short = _result("s", [0.0, 0.1])
    long = _result("l", [0.0, 0.2, 0.3])
    with pytest.raises(DataError, match="misaligned"):
        aggregate([short, long])
    report = aggregate([short, long], truncate=True)
    assert report.n_days == 2
    np.testing.assert_allclose(report.day_mean, [0.0, 0.15])
    with pytest.raises(DataError):
        aggregate([])


def _naive_quantile(values, p):
    """Linear interpolation between order statistics, written from scratch."""
    x = sorted(values)
    h = (len(x) - 1) * p
    lo = math.floor(h)
    hi = math.ceil(h)
    return x[lo] + (h - lo) * (x[hi] - x[lo])


def test_aggregate_quantiles_match_sort_based_oracle():
    rng = np.random.default_rng(41)
    trajectories = np.cumsum(rng.normal(0, 0.01, size=(1000, 50)), axis=1)
    report = aggregate([_result(f"s{i}", trajectories[i]) for i in range(1000)])
    for day in (0, 17, 49):
        col = trajectories[:, day]
        assert report.day_q025[day] == pytest.approx(_naive_quantile(col, 0.025), abs=1e-12)
        assert report.day_q50[day] == pytest.approx(_naive_quantile(col, 0.5), abs=1e-12)
        assert report.day_q975[day] == pytest.approx(_naive_quantile(col, 0.975), abs=1e-12)
    finals = trajectories[:, -1]
    assert report.summary.q1 == pytest.approx(_naive_quantile(finals, 0.25), abs=1e-12)
    assert report.summary.q3 == pytest.approx(_naive_quantile(finals, 0.75), abs=1e-12)
    assert report.summary.mean == pytest.approx(finals.mean(), rel=1e-12)
    # two code paths to the same number
    assert report.summary.mean == pytest.approx(report.final_gains.mean(), rel=1e-12)


SPLIT = SplitSpec(D("2016-01-01"), D("2016-06-30"), D("2016-07-01"), D("2016-12-31"))


def test_backtest_one_constant_prices_trade_nothing():
    s = _series("flat", "2016-01-01", np.full(366, 50.0))
    r = backtest_one(s, SPLIT, FixedTarget(0.15), GridSpec.default(),
                     Objective.BIAS_SQUARED)
    assert r.mu_hat == 0.0
    assert r.sigma_hat == 0.0
    np.testing.assert_array_equal(r.gains, 0.0)
    # every grid point ties at bias 0.15, so the first one wins
    assert (r.params.k, r.params.alpha, r.params.beta) == (0.5, 0.5, 0.5)
    assert r.target == 0.15


def test_backtest_one_deterministic_exponential_matches_closed_form():
    mu, dt = 0.1, 1.0 / 252.0
    prices = 100.0 * np.exp(mu * np.arange(366) * dt)
    s = _series("trend", "2016-01-01", prices)
    r = backtest_one(s, SPLIT, FixedTarget(0.15), GridSpec.default(),
                     Objective.BIAS_SQUARED, dt=dt)
    assert r.mu_hat == pytest.approx(mu, rel=1e-9)
    test_len = len(s.window(SPLIT.test_start, SPLIT.test_end))
    q = math.exp(mu * (test_len - 1) * dt)
    assert r.final_gain == pytest.approx(gain_total_closed(r.params, q), rel=5e-2)


def test_backtest_one_window_errors():
    s = _series("tiny", "2016-06-30", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    with pytest.raises(DataError, match="training window"):
        backtest_one(s, SPLIT, FixedTarget(0.15), GridSpec.default(), Objective.MSE)
    # 2 training observations clear the window check but not estimation
    s = _series("thin", "2016-06-29", np.linspace(1.0, 2.0, 10))
    with pytest.raises(DataError, match="estimation failed"):
        backtest_one(s, SPLIT, FixedTarget(0.15), GridSpec.default(), Objective.MSE)


def _explosive(symbol):
    # alternating between 1 and 1e130 gives mu_hat ~ 1e7, so every grid
    # point's objective overflows
    prices = np.where(np.arange(366) % 2 == 0, 1.0, 1e130)
    return _series(symbol, "2016-01-01", prices)


def test_backtest_one_explosive_training_window_is_a_data_error():
    with pytest.raises(DataError, match="boom: optimization failed: no grid point"):
        backtest_one(_explosive("boom"), SPLIT, FixedTarget(0.15), GridSpec.default(),
                     Objective.MSE)


def test_backtest_universe_skip_errors_records_failed_optimization():
    universe = _gbm_universe(2, 0.1, 0.2, 365, seed_tag=52)
    universe.append(_explosive("boom"))
    with pytest.raises(DataError, match="optimization failed"):
        backtest_universe(universe, SPLIT, FixedTarget(0.15), GridSpec.default(),
                          Objective.BIAS_SQUARED)
    report, failures = backtest_universe(universe, SPLIT, FixedTarget(0.15),
                                         GridSpec.default(), Objective.BIAS_SQUARED,
                                         skip_errors=True)
    assert list(failures) == ["boom"]
    assert [r.symbol for r in report.results] == ["s000", "s001"]


def test_backtest_universe_skip_errors_records_an_underflowing_price_ratio():
    # a training drift of -2 a day gives mu_hat = -504, so at a horizon of 2
    # years e^(mu*t) underflows to 0
    universe = _gbm_universe(2, 0.1, 0.2, 365, seed_tag=54)
    universe.append(_series("fall", "2016-01-01", 100.0 * np.exp(-2.0 * np.arange(366))))
    args = (universe, SPLIT, FixedTarget(0.15), GridSpec.default(), Objective.MSE)
    with pytest.raises(DataError, match="fall: optimization failed: price ratio"):
        backtest_universe(*args, horizon=2.0)
    report, failures = backtest_universe(*args, horizon=2.0, skip_errors=True)
    assert list(failures) == ["fall"]
    assert "underflows to 0" in failures["fall"]
    assert [r.symbol for r in report.results] == ["s000", "s001"]


def test_run_fixed_strategy_windows_and_errors():
    s = _series("x", "2016-01-01", np.linspace(100.0, 110.0, 20))
    r = run_fixed_strategy(s, ControlParams(1.0, 1.0), D("2016-01-05"), D("2016-01-10"))
    assert len(r.gains) == 6
    assert r.target is None and r.mu_hat is None
    with pytest.raises(DataError):
        run_fixed_strategy(s, ControlParams(1.0, 1.0), D("2016-01-20"), D("2016-01-21"))


def _gbm_universe(count, mus, sigma, steps, seed_tag, start="2016-01-01"):
    days = _days(start, steps + 1)
    universe = []
    for i in range(count):
        gp = GbmParams(mus[i] if np.ndim(mus) else mus, sigma, dt=1.0 / 252.0)
        prices = simulate_paths(gp, 100.0, steps, 1, seed=[seed_tag, i])[0]
        universe.append(PriceSeries(f"s{i:03d}", days, prices))
    return universe


def test_backtest_universe_jobs_are_equivalent():
    universe = _gbm_universe(10, 0.1, 0.2, 120, seed_tag=50)
    split = SplitSpec(D("2016-01-01"), D("2016-03-01"), D("2016-03-02"), D("2016-04-30"))
    r1, f1 = backtest_universe(universe, split, FixedTarget(0.15),
                               GridSpec.default(), Objective.MSE, jobs=1)
    r3, f3 = backtest_universe(universe, split, FixedTarget(0.15),
                               GridSpec.default(), Objective.MSE, jobs=3)
    assert f1 == f3 == {}
    assert report_to_dict(r1) == report_to_dict(r3)


def test_backtest_universe_skip_errors_reports_symbols():
    universe = _gbm_universe(4, 0.1, 0.2, 120, seed_tag=51)
    universe.append(_series("late", "2016-03-10", np.linspace(90.0, 95.0, 60)))
    split = SplitSpec(D("2016-01-01"), D("2016-03-01"), D("2016-03-02"), D("2016-04-30"))
    with pytest.raises(DataError):
        backtest_universe(universe, split, FixedTarget(0.15),
                          GridSpec.default(), Objective.MSE)
    report, failures = backtest_universe(universe, split, FixedTarget(0.15),
                                         GridSpec.default(), Objective.MSE,
                                         skip_errors=True)
    assert list(failures) == ["late"]
    assert len(report.results) == 4


def test_mse_lands_nearer_target_than_bias_on_homogeneous_universe():
    # 495 GBM series sharing mu=0.1, sigma=0.2; one year to train, one to trade
    universe = _gbm_universe(495, 0.1, 0.2, 504, seed_tag=62)
    days = universe[0].dates
    split = SplitSpec(days[0], days[252], days[253], days[504])
    means = {}
    for objective in (Objective.BIAS_SQUARED, Objective.MSE):
        report, _ = backtest_universe(universe, split, FixedTarget(0.15),
                                      GridSpec.default(), objective, jobs=4)
        means[objective] = report.summary.mean
    assert abs(means[Objective.MSE] - 0.15) < abs(means[Objective.BIAS_SQUARED] - 0.15)


def test_fixed_sls_sweep_mean_gain_grows_with_k_on_rising_universe():
    mus = np.linspace(0.05, 0.3, 8)
    days = _days("2016-01-01", 253)
    universe = []
    for i, mu in enumerate(mus):
        prices = 100.0 * np.exp(mu * np.arange(253) / 252.0)
        universe.append(PriceSeries(f"s{i}", days, prices))
    means = []
    for k in (1.0, 2.0, 3.0, 4.0, 5.0):
        report, _ = run_fixed_strategy_universe(universe, ControlParams(1.0, k),
                                                days[0], days[-1])
        means.append(report.summary.mean)
    assert np.all(np.diff(means) >= -1e-12)


def test_short_heavy_controller_loses_on_rising_universe():
    mus = np.linspace(0.05, 0.3, 8)
    days = _days("2016-01-01", 253)
    universe = []
    for i, mu in enumerate(mus):
        prices = 100.0 * np.exp(mu * np.arange(253) / 252.0)
        universe.append(PriceSeries(f"s{i}", days, prices))
    heavy, _ = run_fixed_strategy_universe(
        universe, ControlParams(1.0, 2.0, alpha=2.0), days[0], days[-1])
    light, _ = run_fixed_strategy_universe(
        universe, ControlParams(1.0, 2.0, alpha=0.5), days[0], days[-1])
    assert heavy.summary.mean < light.summary.mean


def test_report_to_dict_is_json_ready():
    universe = _gbm_universe(3, 0.1, 0.2, 120, seed_tag=52)
    split = SplitSpec(D("2016-01-01"), D("2016-03-01"), D("2016-03-02"), D("2016-04-30"))
    report, _ = backtest_universe(universe, split, FixedTarget(0.15),
                                  GridSpec.default(), Objective.MSE)
    doc = report_to_dict(report)
    text = json.dumps(doc)  # must not choke on numpy scalars
    assert json.loads(text) == doc
    assert [row["symbol"] for row in doc["series"]] == ["s000", "s001", "s002"]
    assert doc["summary"]["iqr"] == pytest.approx(doc["summary"]["q3"] - doc["summary"]["q1"])
    assert len(doc["daily"]["mean"]) == report.n_days


def test_report_to_dict_holds_the_gains_bit_for_bit():
    universe = _gbm_universe(3, 0.1, 0.2, 120, seed_tag=53)
    split = SplitSpec(D("2016-01-01"), D("2016-03-01"), D("2016-03-02"), D("2016-04-30"))
    report, _ = backtest_universe(universe, split, FixedTarget(0.15),
                                  GridSpec.default(), Objective.MSE)
    doc = report_to_dict(report)
    pairs = [(row["gains"], r.gains) for row, r in zip(doc["series"], report.results)]
    pairs += [(doc["daily"][key], getattr(report, f"day_{key}"))
              for key in ("mean", "q025", "q50", "q975")]
    for values, array in pairs:
        assert all(type(v) is float for v in values)
        np.testing.assert_array_equal(np.array(values).view(np.uint64), array.view(np.uint64))


@pytest.mark.parametrize("fixed", [False, True])
def test_report_rows_hold_every_series_result_field(fixed):
    # a row is built from dataclasses.fields(SeriesResult), so a new field reaches report.json
    universe = _gbm_universe(3, 0.1, 0.2, 120, seed_tag=55)
    if fixed:
        report, _ = run_fixed_strategy_universe(universe, ControlParams(1.0, 2.0, 0.5, 3.0),
                                                D("2016-03-02"), D("2016-04-30"))
    else:
        split = SplitSpec(D("2016-01-01"), D("2016-03-01"), D("2016-03-02"), D("2016-04-30"))
        report, _ = backtest_universe(universe, split, FixedTarget(0.15),
                                      GridSpec.default(), Objective.MSE)
    keys = ({f.name for f in dataclasses.fields(SeriesResult)} - {"params"}
            | {"i0", "k", "alpha", "beta", "gains", "final_gain"})
    for row, r in zip(report_to_dict(report)["series"], report.results, strict=True):
        assert set(row) == keys
        assert (row["i0"], row["k"], row["alpha"], row["beta"]) == (
            r.params.i0, r.params.k, r.params.alpha, r.params.beta)
        assert row["final_gain"] == r.final_gain
        assert all(type(v) is float for v in row["gains"])
        np.testing.assert_array_equal(np.array(row["gains"]).view(np.uint64),
                                      r.gains.view(np.uint64))
        for key in keys - {"i0", "k", "alpha", "beta", "gains", "final_gain"}:
            assert row[key] == getattr(r, key)
        if fixed:
            assert row["mu_hat"] is row["target"] is row["objective_value"] is None


def test_report_to_dict_lazy_rows_equal_the_default_list():
    universe = _gbm_universe(3, 0.1, 0.2, 120, seed_tag=54)
    report, _ = run_fixed_strategy_universe(universe, ControlParams(1.0, 2.0, 1.0, 1.0),
                                            D("2016-03-02"), D("2016-04-30"))
    doc = report_to_dict(report)
    lazy = report_to_dict(report, rows=iter)
    rows = lazy.pop("series")
    assert iter(rows) is rows
    assert lazy == {key: value for key, value in doc.items() if key != "series"}
    assert list(rows) == doc["series"]


def test_csv_writers(tmp_path):
    report = aggregate([_result("a", [0.0, 0.25]), _result("b", [0.0, 0.75])])
    daily = tmp_path / "daily.csv"
    write_daily_csv(report, daily)
    rows = list(csv.reader(daily.read_text().splitlines()))
    assert rows[0] == ["day", "mean", "q025", "q50", "q975"]
    assert len(rows) == 3
    assert float(rows[2][1]) == 0.5

    summary = tmp_path / "summary.csv"
    write_summary_csv([("sls_k1", report.summary)], summary)
    rows = list(csv.reader(summary.read_text().splitlines()))
    assert rows[0] == ["strategy", "q1", "median", "mean", "q3", "iqr"]
    assert rows[1][0] == "sls_k1"
    assert float(rows[1][3]) == 0.5


def test_write_csv_writes_every_float_as_its_str(tmp_path):
    # the CSV writers pass plain floats and rely on csv.writer writing str(float)
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2**64, 20000, dtype=np.uint64, endpoint=False)
    info = np.finfo(float)
    values = [*bits.view(float).tolist(), *rng.standard_normal(1000).tolist(),
              0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
              float(info.smallest_normal), float(info.smallest_normal) / 3.0, float(info.max),
              float(-info.max), float(info.eps), 0.1, 1e16, 1e-7, 123456789012345680.0]
    path = tmp_path / "floats.csv"
    backtest_module.write_csv(["x", "y"], ((v, -v) for v in values), path)
    lines = path.read_bytes().decode().split("\r\n")
    assert lines[0] == "x,y" and lines[-1] == ""
    assert lines[1:-1] == [f"{v!s},{-v!s}" for v in values]


def test_both_windows_are_cut_before_either_length_check():
    # one training observation and none in the testing window: the empty
    # testing window is reported, not the short training window
    s = _series("lone", "2016-06-30", [5.0])
    message = "lone: no observations in 2016-07-01..2016-12-31"
    with pytest.raises(DataError) as err:
        backtest_one(s, SPLIT, FixedTarget(0.15), GridSpec.default(), Objective.MSE)
    assert str(err.value) == message
    universe = [*_gbm_universe(2, 0.1, 0.2, 365, seed_tag=55), s]
    report, failures = backtest_universe(universe, SPLIT, FixedTarget(0.15),
                                         GridSpec.default(), Objective.MSE, skip_errors=True)
    assert failures == {"lone": message}
    assert [r.symbol for r in report.results] == ["s000", "s001"]


def test_run_fixed_strategy_universe_records_a_short_window_like_run_fixed_strategy():
    s = _series("short", "2016-12-31", [5.0, 6.0])
    with pytest.raises(DataError) as err:
        run_fixed_strategy(s, ControlParams(1.0, 1.0), SPLIT.test_start, SPLIT.test_end)
    universe = [*_gbm_universe(2, 0.1, 0.2, 365, seed_tag=56), s]
    report, failures = run_fixed_strategy_universe(
        universe, ControlParams(1.0, 2.0), SPLIT.test_start, SPLIT.test_end, skip_errors=True)
    assert failures == {"short": str(err.value)}
    assert str(err.value) == "short: testing window has 1 observation(s), need >= 2"
    assert len(report.results) == 2


def _staged_universe():
    # [ok, fails at optimization, fails at its windows, ok]: the second fails at a
    # later stage than the third
    ok0, ok3 = _gbm_universe(2, 0.1, 0.2, 365, seed_tag=57)
    fall = _series("fall", "2016-01-01", 100.0 * np.exp(-2.0 * np.arange(366)))
    # 2016-07-01 is the testing window's one observation
    short = _series("short", "2016-01-01", np.linspace(90.0, 95.0, 183))
    return [ok0, fall, short, ok3]


def test_backtest_universe_reports_failures_in_input_order_whatever_their_stage():
    args = (_staged_universe(), SPLIT, FixedTarget(0.15), GridSpec.default(), Objective.MSE)
    fall = "fall: optimization failed: price ratio e^(mu*t) underflows to 0 at mu*t = -1008"
    short = "short: testing window has 1 observation(s), need >= 2"
    with pytest.raises(DataError) as err:
        backtest_universe(*args, horizon=2.0)
    assert str(err.value) == fall
    report, failures = backtest_universe(*args, horizon=2.0, skip_errors=True)
    assert list(failures.items()) == [("fall", fall), ("short", short)]
    assert [r.symbol for r in report.results] == ["s000", "s001"]


def _overflowing_universe():
    # an ordinary ramp, and prices alternating 1 and 1e130, whose books overflow
    return [_series("ramp", "2016-01-01", np.linspace(100.0, 150.0, 366)),
            _series("wild", "2016-01-01", np.where(np.arange(366) % 2, 1e130, 1.0))]


@pytest.mark.parametrize("block_prices, workers", [(1 << 17, 1), (1, 3)])
def test_an_overflowing_gain_is_a_data_error_that_names_the_series(monkeypatch, block_prices,
                                                                   workers):
    # blocks of one price put each series in its own block; the executor runs them all on
    # the calling thread, however many CPUs the affinity mask holds
    monkeypatch.setattr(strategy_module, "_BLOCK_PRICES", block_prices)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    args = (_overflowing_universe(), ControlParams(1.0, 2.0), SPLIT.test_start, SPLIT.test_end)
    message = "wild: trading failed: the gain overflows"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=f"^{message}$"):
            run_fixed_strategy_universe(*args)
        report, failures = run_fixed_strategy_universe(*args, skip_errors=True)
    assert failures == {"wild": message}
    assert [r.symbol for r in report.results] == ["ramp"]
    json.dumps(report_to_dict(report), allow_nan=False)
    # the library's executor keeps returning IEEE values
    window = args[0][1].window(SPLIT.test_start, SPLIT.test_end).prices
    with np.errstate(over="ignore", invalid="ignore"):
        gain = run_strategy(args[1], window).gain
    assert np.isinf(gain).any() and np.isnan(gain).any()


@pytest.mark.parametrize("order, raised", [
    (("wild", "short"), "wild: trading failed: the gain overflows"),
    (("short", "wild"), "short: testing window has 1 observation(s), need >= 2"),
])
def test_a_trading_failure_is_raised_in_input_order(order, raised):
    series = {"wild": _overflowing_universe()[1],
              "short": _series("short", "2016-12-31", [5.0, 6.0])}
    with pytest.raises(DataError) as err:
        run_fixed_strategy_universe([series[name] for name in order], ControlParams(1.0, 2.0),
                                    SPLIT.test_start, SPLIT.test_end)
    assert str(err.value) == raised


@pytest.mark.parametrize("prices", [1, 600, 1 << 15])
def test_universe_gains_equal_a_run_on_each_window_alone(monkeypatch, prices):
    # test windows of 6 lengths, so truncate must clip; small executor blocks split
    # each length's run
    universe = [PriceSeries(s.symbol, s.dates[:366 - (i % 6) * 9], s.prices[:366 - (i % 6) * 9])
                for i, s in enumerate(_gbm_universe(14, 0.1, 0.2, 365, seed_tag=58))]
    monkeypatch.setattr(strategy_module, "_BLOCK_PRICES", prices)
    optimized, _ = backtest_universe(universe, SPLIT, DriftAdaptiveTarget(0.05), GridSpec.default(),
                                     Objective.BIAS_SQUARED, truncate=True)
    fixed, _ = run_fixed_strategy_universe(universe, ControlParams(1.3, 2.0, 0.7, 1.5),
                                           SPLIT.test_start, SPLIT.test_end, truncate=True)
    assert len({len(r.gains) for r in optimized.results}) == 6
    for report in (optimized, fixed):
        for series, r in zip(universe, report.results):
            window = series.window(SPLIT.test_start, SPLIT.test_end).prices
            alone = run_strategy(r.params, window).gain
            np.testing.assert_array_equal(r.gains.view(np.uint64), alone.view(np.uint64))
    for series, r in zip(universe, optimized.results):
        one = backtest_one(series, SPLIT, DriftAdaptiveTarget(0.05), GridSpec.default(),
                           Objective.BIAS_SQUARED)
        assert (one.params, one.target, one.mu_hat, one.sigma_hat, one.objective_value) == (
            r.params, r.target, r.mu_hat, r.sigma_hat, r.objective_value)


def test_one_runner_call_gives_each_strategy_the_bits_of_its_own_call():
    # training windows that all estimate; the second series' test window is shorter
    universe = _gbm_universe(6, [0.3, -0.2, 0.1, 0.0, 0.5, -0.4], 0.25, 365, seed_tag=60)
    universe[1] = PriceSeries("s001", universe[1].dates[:300], universe[1].prices[:300])
    fixed = ControlParams(1.3, 2.0, 0.7, 1.5)
    grid, policy = GridSpec.equally_spaced(0.5, 4.0, 5), DriftAdaptiveTarget(0.05)
    search = functools.partial(optimizer_module._search, policy=policy, grid=grid,
                               objective=Objective.MSE, i0=2.0)
    test, train = (SPLIT.test_start, SPLIT.test_end), (SPLIT.train_start, SPLIT.train_end)
    runs = list(backtest_module._run_stages(universe, [fixed, search, fixed], test, train,
                                            truncate=True))
    alone = run_fixed_strategy_universe(universe, fixed, *test, truncate=True)
    optimized = backtest_universe(universe, SPLIT, policy, grid, Objective.MSE, i0=2.0,
                                  truncate=True)
    assert len(runs) == 3
    for (report, failures), (want, want_failures) in zip(runs, [alone, optimized, alone]):
        assert failures == want_failures == {}
        assert len(report.results) == len(want.results) == 6
        for r, w in zip(report.results, want.results):
            assert (r.symbol, r.params, r.target, r.mu_hat, r.sigma_hat, r.objective_value) == (
                w.symbol, w.params, w.target, w.mu_hat, w.sigma_hat, w.objective_value)
            np.testing.assert_array_equal(r.gains.view(np.uint64), w.gains.view(np.uint64))
        for name in ("day_mean", "day_q025", "day_q50", "day_q975"):
            np.testing.assert_array_equal(getattr(report, name).view(np.uint64),
                                          getattr(want, name).view(np.uint64))
        assert report.summary == want.summary
    assert runs[1][0].results[0].target is not None and runs[0][0].results[0].target is None


def test_one_runner_call_shares_its_stage_1_failures_with_every_strategy():
    # a series with one training observation fails stage 1 once, for every strategy
    universe = [*_gbm_universe(2, 0.1, 0.2, 365, seed_tag=61),
                _series("late", "2016-06-30", np.linspace(90.0, 95.0, 100))]
    search = functools.partial(optimizer_module._search, policy=FixedTarget(0.15),
                               grid=GridSpec.default(), objective=Objective.MSE)
    test, train = (SPLIT.test_start, SPLIT.test_end), (SPLIT.train_start, SPLIT.train_end)
    message = "late: training window has 1 observation(s), need >= 2"
    runs = backtest_module._run_stages(universe, [ControlParams(1.0, 2.0), search], test, train,
                                       skip_errors=True)
    for report, failures in runs:
        assert failures == {"late": message}
        assert [r.symbol for r in report.results] == ["s000", "s001"]
    with pytest.raises(DataError) as err:
        next(backtest_module._run_stages(universe, [search], test, train))
    assert str(err.value) == message


def test_the_runner_makes_one_executor_pass_per_window_length_and_strategy(monkeypatch):
    # test windows of 3 lengths; a final-gain pass and then a re-run for the gain
    # once made two passes per group
    universe = [PriceSeries(s.symbol, s.dates[:366 - (i % 3) * 9], s.prices[:366 - (i % 3) * 9])
                for i, s in enumerate(_gbm_universe(6, 0.1, 0.2, 365, seed_tag=62))]
    search = functools.partial(optimizer_module._search, policy=FixedTarget(0.15),
                               grid=GridSpec.default(), objective=Objective.MSE)
    test, train = (SPLIT.test_start, SPLIT.test_end), (SPLIT.train_start, SPLIT.train_end)
    passes = []
    run = strategy_module._run

    def counted(params, p, *args, **kwargs):
        passes.append(p.shape)
        return run(params, p, *args, **kwargs)

    monkeypatch.setattr(strategy_module, "_run", counted)
    monkeypatch.setattr(backtest_module, "_run", counted, raising=False)
    runs = backtest_module._run_stages(universe, [ControlParams(1.3, 2.0, 0.7, 1.5), search],
                                       test, train, truncate=True)
    for report, failures in runs:
        assert failures == {} and len(report.results) == 6
        assert sorted(passes) == [(2, 166), (2, 175), (2, 184)]
        passes.clear()
