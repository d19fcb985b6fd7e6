"""Batch experiment pipeline over universes of daily price series.

A universe is a directory of per-series CSV files with header ``date,close``.
For every series the pipeline estimates GBM dynamics on a training window,
picks control parameters by grid search against a target gain, runs the
discrete strategy over the testing window, and pools the per-day gains into
cross-series means, quantile bands, and an end-of-period quartile summary.

Series are aligned by position within the test window (day 0 is each
series' first test observation), not by calendar join.  Quantiles use
numpy's default linear interpolation between order statistics.
"""

from __future__ import annotations

import csv
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import date
from itertools import repeat
from pathlib import Path

import numpy as np

from .gbm import TRADING_DAYS_PER_YEAR, estimate_mle
from .optimizer import (
    GridSpec,
    NoFiniteObjectiveError,
    Objective,
    TargetPolicy,
    grid_search,
    resolve_target,
)
from .strategy import ControlParams, run_strategy

__all__ = [
    "BacktestReport",
    "DataError",
    "GainSummary",
    "PriceSeries",
    "SeriesResult",
    "SplitSpec",
    "aggregate",
    "backtest_one",
    "backtest_universe",
    "load_series",
    "load_universe",
    "report_to_dict",
    "run_fixed_strategy",
    "run_fixed_strategy_universe",
    "write_daily_csv",
    "write_summary_csv",
]

DEFAULT_DT = 1.0 / TRADING_DAYS_PER_YEAR


class DataError(ValueError):
    """Input data cannot be used: parse failure, bad ordering, empty window."""


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """One instrument's dated close prices, strictly increasing in time."""

    symbol: str
    dates: tuple[date, ...]
    prices: np.ndarray

    def __post_init__(self) -> None:
        prices = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "prices", prices)
        if len(self.dates) != len(prices):
            raise DataError(f"{self.symbol}: {len(self.dates)} dates vs {len(prices)} prices")
        if len(prices) == 0:
            raise DataError(f"{self.symbol}: empty series")
        if not all(map(operator.lt, self.dates, self.dates[1:])):
            raise DataError(f"{self.symbol}: dates must be strictly increasing")
        if not np.all(np.isfinite(prices) & (prices > 0.0)):
            raise DataError(f"{self.symbol}: prices must be positive and finite")

    def __len__(self) -> int:
        return len(self.dates)

    def window(self, start: date, end: date) -> "PriceSeries":
        """Sub-series with start <= date <= end; raises if nothing falls inside."""
        lo = bisect_left(self.dates, start)
        hi = bisect_right(self.dates, end)
        if lo >= hi:
            raise DataError(f"{self.symbol}: no observations in {start}..{end}")
        # a slice of a checked series is already ordered, positive and finite,
        # so skip __post_init__ and its per-date scan
        sub = object.__new__(PriceSeries)
        object.__setattr__(sub, "symbol", self.symbol)
        object.__setattr__(sub, "dates", self.dates[lo:hi])
        object.__setattr__(sub, "prices", self.prices[lo:hi])
        return sub


@dataclass(frozen=True)
class SplitSpec:
    """Disjoint training and testing date windows, training first."""

    train_start: date
    train_end: date
    test_start: date
    test_end: date

    def __post_init__(self) -> None:
        if not (self.train_start <= self.train_end):
            raise ValueError("training window ends before it starts")
        if not (self.test_start <= self.test_end):
            raise ValueError("testing window ends before it starts")
        if not (self.train_end < self.test_start):
            raise ValueError("training window must precede the testing window")


def load_series(path) -> PriceSeries:
    """Parse one ``date,close`` CSV into a validated PriceSeries.

    Row numbers in error messages count from 1 at the header line.

    A file without quotes whose every data line holds exactly one comma is
    parsed column by column in a few C-level passes.  Any other file, and
    any such file the bulk pass rejects, goes through the row loop, which
    therefore decides every error message.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    lines = text.splitlines()
    limit = csv.field_size_limit()
    if (lines and '"' not in text
            # csv.reader raises on a field over its size limit; leave that to the loop
            and (len(text) <= limit or max(map(len, lines)) <= limit)
            and [h.strip().lower() for h in lines[0].split(",")] == ["date", "close"]):
        try:
            # a line without exactly one comma leaves a comma or nothing in
            # its price cell, which float rejects
            days, _, closes = zip(*map(str.partition, lines[1:], repeat(",")))
            dates = tuple(map(date.fromisoformat, map(str.strip, days)))
            prices = np.fromiter(map(float, closes), float, len(closes))
            # PriceSeries checks order and prices; its DataError is a ValueError
            return PriceSeries(path.stem, dates, prices)
        except ValueError:
            pass  # the loop finds the offending row and words the error
    return _load_rows(path, lines)


def _load_rows(path: Path, lines: list[str]) -> PriceSeries:
    """The general parser: csv.reader and per-row checks over the lines."""
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    if [h.strip().lower() for h in header] != ["date", "close"]:
        raise DataError(f"{path}: expected header 'date,close', got {','.join(header)!r}")

    dates: list[date] = []
    prices: list[float] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise DataError(f"{path}: row {lineno}: expected 2 fields, got {len(row)}")
        try:
            day = date.fromisoformat(row[0].strip())
        except ValueError as exc:
            raise DataError(f"{path}: row {lineno}: bad date {row[0]!r}") from exc
        try:
            close = float(row[1])
        except ValueError as exc:
            raise DataError(f"{path}: row {lineno}: bad price {row[1]!r}") from exc
        if not (math.isfinite(close) and close > 0.0):
            raise DataError(f"{path}: row {lineno}: price must be positive, got {row[1]!r}")
        dates.append(day)
        prices.append(close)
    if not dates:
        raise DataError(f"{path}: no data rows")
    try:
        return PriceSeries(path.stem, tuple(dates), np.array(prices))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_universe(path, skip_errors: bool = False) -> tuple[list[PriceSeries], dict[str, str]]:
    """Load every ``*.csv`` under path, sorted by file name.

    Returns the loaded series plus a {file name: reason} map of rejects.
    Without skip_errors the first bad file aborts the load.
    """
    root = Path(path)
    files = sorted(root.glob("*.csv"))
    if not files:
        raise DataError(f"{root}: no CSV files found")
    series: list[PriceSeries] = []
    failures: dict[str, str] = {}
    for f in files:
        try:
            series.append(load_series(f))
        except DataError as exc:
            if not skip_errors:
                raise
            failures[f.name] = str(exc)
    return series, failures


@dataclass(frozen=True, eq=False)
class SeriesResult:
    """Gain trajectory of one series over its test window.

    gains[0] is 0 at the first test observation; estimation fields are None
    when the parameters were fixed rather than optimized.
    """

    symbol: str
    params: ControlParams
    gains: np.ndarray
    target: float | None = None
    mu_hat: float | None = None
    sigma_hat: float | None = None
    objective_value: float | None = None

    @property
    def final_gain(self) -> float:
        return float(self.gains[-1])


@dataclass(frozen=True)
class GainSummary:
    """Quartile summary of end-of-period gains."""

    q1: float
    median: float
    mean: float
    q3: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1

    @classmethod
    def from_gains(cls, gains) -> "GainSummary":
        gains = np.asarray(gains, dtype=float)
        q1, med, q3 = np.quantile(gains, [0.25, 0.5, 0.75])
        return cls(float(q1), float(med), float(np.mean(gains)), float(q3))


@dataclass(frozen=True, eq=False)
class BacktestReport:
    """Per-series results plus position-aligned cross-series aggregates."""

    results: tuple[SeriesResult, ...]
    day_mean: np.ndarray
    day_q025: np.ndarray
    day_q50: np.ndarray
    day_q975: np.ndarray
    summary: GainSummary

    @property
    def n_days(self) -> int:
        return len(self.day_mean)

    @property
    def final_gains(self) -> np.ndarray:
        return np.array([r.gains[self.n_days - 1] for r in self.results])


def aggregate(results, truncate: bool = False) -> BacktestReport:
    """Pool per-series gain trajectories into daily and terminal statistics.

    Trajectories must share a length; truncate=True instead clips every
    series to the shortest one.
    """
    results = tuple(results)
    if not results:
        raise DataError("nothing to aggregate")
    lengths = {len(r.gains) for r in results}
    if len(lengths) > 1:
        if not truncate:
            raise DataError(f"misaligned day counts {sorted(lengths)}; pass truncate to clip")
        n = min(lengths)
    else:
        (n,) = lengths
    matrix = np.stack([r.gains[:n] for r in results])
    q025, q50, q975 = np.quantile(matrix, [0.025, 0.5, 0.975], axis=0)
    return BacktestReport(
        results=results,
        day_mean=matrix.mean(axis=0),
        day_q025=q025,
        day_q50=q50,
        day_q975=q975,
        summary=GainSummary.from_gains(matrix[:, -1]),
    )


def backtest_one(series: PriceSeries, split: SplitSpec, policy: TargetPolicy,
                 grid: GridSpec, objective: Objective, i0: float = 1.0,
                 dt: float = DEFAULT_DT, horizon: float | None = None,
                 jobs: int = 1) -> SeriesResult:
    """Estimate on the training window, optimize, trade the test window.

    horizon defaults to the test window's length in units of dt, so a
    252-observation window optimizes for one year ahead.  jobs is accepted
    for compatibility and has no effect.
    """
    train = series.window(split.train_start, split.train_end)
    test = series.window(split.test_start, split.test_end)
    for name, part in (("training", train), ("testing", test)):
        if len(part) < 2:
            raise DataError(f"{series.symbol}: {name} window has {len(part)} observation(s), need >= 2")
    try:
        gp = estimate_mle(train.prices, dt=dt)
    except ValueError as exc:
        raise DataError(f"{series.symbol}: estimation failed: {exc}") from exc
    t = (len(test) - 1) * dt if horizon is None else horizon
    try:
        best = grid_search(gp, t, policy, grid, objective, i0=i0)
    except NoFiniteObjectiveError as exc:
        raise DataError(f"{series.symbol}: optimization failed: {exc}") from exc
    trace = run_strategy(best.params, test.prices)
    return SeriesResult(
        symbol=series.symbol,
        params=best.params,
        gains=trace.gain,
        target=best.target,
        mu_hat=gp.mu,
        sigma_hat=gp.sigma,
        objective_value=best.objective_value,
    )


def run_fixed_strategy(series: PriceSeries, params: ControlParams,
                       start: date, end: date) -> SeriesResult:
    """Trade one series over [start, end] with fixed parameters."""
    test = series.window(start, end)
    if len(test) < 2:
        raise DataError(f"{series.symbol}: testing window has {len(test)} observation(s), need >= 2")
    trace = run_strategy(params, test.prices)
    return SeriesResult(symbol=series.symbol, params=params, gains=trace.gain)


def _run_batch(universe, worker, skip_errors: bool):
    """Apply worker per series, in input order, collecting DataError rejects."""
    results, failures = [], {}
    for series in universe:
        try:
            results.append(worker(series))
        except DataError as exc:
            if not skip_errors:
                raise
            failures[series.symbol] = str(exc)
    return results, failures


def backtest_universe(universe, split: SplitSpec, policy: TargetPolicy,
                      grid: GridSpec, objective: Objective, i0: float = 1.0,
                      dt: float = DEFAULT_DT, horizon: float | None = None,
                      jobs: int = 1, skip_errors: bool = False,
                      truncate: bool = False) -> tuple[BacktestReport, dict[str, str]]:
    """Run the estimate/optimize/trade pipeline on every series and aggregate.

    Series run one after another in input order; each one's grid is scored
    in a single array evaluation.  With skip_errors, series that fail with a
    data problem are reported instead of fatal.  jobs is accepted for
    compatibility and has no effect.
    """

    def worker(series):
        return backtest_one(series, split, policy, grid, objective,
                            i0=i0, dt=dt, horizon=horizon)

    results, failures = _run_batch(universe, worker, skip_errors)
    return aggregate(results, truncate=truncate), failures


def run_fixed_strategy_universe(universe, params: ControlParams, start: date,
                                end: date, jobs: int = 1, skip_errors: bool = False,
                                truncate: bool = False) -> tuple[BacktestReport, dict[str, str]]:
    """Apply one fixed parameter set to every series over [start, end].

    jobs is accepted for compatibility and has no effect.
    """

    def worker(series):
        return run_fixed_strategy(series, params, start, end)

    results, failures = _run_batch(universe, worker, skip_errors)
    return aggregate(results, truncate=truncate), failures


def report_to_dict(report: BacktestReport) -> dict:
    """JSON-ready view of a report; arrays become plain lists."""
    return {
        "series": [
            {
                "symbol": r.symbol,
                "i0": r.params.i0,
                "k": r.params.k,
                "alpha": r.params.alpha,
                "beta": r.params.beta,
                "target": r.target,
                "mu_hat": r.mu_hat,
                "sigma_hat": r.sigma_hat,
                "objective_value": r.objective_value,
                "final_gain": r.final_gain,
                "gains": r.gains.tolist(),
            }
            for r in report.results
        ],
        "daily": {
            "mean": report.day_mean.tolist(),
            "q025": report.day_q025.tolist(),
            "q50": report.day_q50.tolist(),
            "q975": report.day_q975.tolist(),
        },
        "summary": {
            "q1": report.summary.q1,
            "median": report.summary.median,
            "mean": report.summary.mean,
            "q3": report.summary.q3,
            "iqr": report.summary.iqr,
        },
    }


def write_daily_csv(report: BacktestReport, path) -> None:
    """day,mean,q025,q50,q975 rows, one per test-window day."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day", "mean", "q025", "q50", "q975"])
        for day in range(report.n_days):
            writer.writerow([
                day,
                str(float(report.day_mean[day])),
                str(float(report.day_q025[day])),
                str(float(report.day_q50[day])),
                str(float(report.day_q975[day])),
            ])


def write_summary_csv(rows, path) -> None:
    """strategy,q1,median,mean,q3,iqr rows from (label, GainSummary) pairs."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "q1", "median", "mean", "q3", "iqr"])
        for label, summary in rows:
            writer.writerow([
                label,
                str(float(summary.q1)),
                str(float(summary.median)),
                str(float(summary.mean)),
                str(float(summary.q3)),
                str(float(summary.iqr)),
            ])
