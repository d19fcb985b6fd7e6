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
import os
import signal
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from contextlib import closing, nullcontext
from dataclasses import dataclass, fields
from datetime import date
from functools import partial
from itertools import count
from pathlib import Path

import numpy as np

from .gbm import TRADING_DAYS_PER_YEAR, estimate_mle
from .optimizer import (
    GridSpec,
    NoFiniteObjectiveError,
    Objective,
    TargetPolicy,
    _search,
    grid_search,  # noqa: F401  perfbench/child.py wraps backtest.grid_search by name
)
from .strategy import ControlParams, _run, _usable_cpus
from .strategy import run_strategy  # noqa: F401  perfbench/child.py wraps it by name

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
# output names, in output order: BacktestReport.day_<name> columns and GainSummary fields
DAILY_COLUMNS = ("mean", "q025", "q50", "q975")
SUMMARY_COLUMNS = ("q1", "median", "mean", "q3", "iqr")


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
        # a slice of a checked series is already ordered, positive and finite
        return PriceSeries._checked(self.symbol, self.dates[lo:hi], self.prices[lo:hi])

    @classmethod
    def _checked(cls, symbol: str, dates: tuple[date, ...], prices: np.ndarray) -> "PriceSeries":
        """A series from fields already checked, without __post_init__ and its per-date scan."""
        series = object.__new__(cls)
        object.__setattr__(series, "symbol", symbol)
        object.__setattr__(series, "dates", dates)
        object.__setattr__(series, "prices", prices)
        return series


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
    calendars: dict[str, tuple[date, ...]] = {}
    return _series(*_columns(Path(path), calendars), calendars)


def _columns(path: Path, calendars: dict) -> tuple[str, str, np.ndarray]:
    """load_series's checked parse of one file, as a compact message.

    The message is the symbol, the date column's cells joined by newlines
    (the row loop's dates as ISO text) and the prices; _series turns it
    back into the PriceSeries.  Dates go through the calendars memo.
    """
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:  # a file that is not text is bad data
        raise DataError(f"{path}: {exc}") from exc
    lines = text.splitlines()
    limit = csv.field_size_limit()
    if (lines and '"' not in text
            # csv.reader raises on a field over its size limit; leave that to the loop
            and (len(text) <= limit or max(map(len, lines)) <= limit)
            and [h.strip().lower() for h in lines[0].split(",")] == ["date", "close"]):
        body = "\n".join(lines[1:])
        cells = body.replace(",", "\n").split("\n")
        days, closes = cells[0::2], cells[1::2]
        # the cells rejoined as "date,close" lines give back the body only when
        # every line holds exactly one comma; a total comma count would let
        # "d,5,d" and "7" pass as two rows
        if "\n".join(map(",".join, zip(days, closes))) == body:
            column = "\n".join(days)
            try:
                _calendar(column, calendars)
                prices = np.fromiter(map(float, closes), float, len(closes))
                if np.all(np.isfinite(prices) & (prices > 0.0)):
                    return path.stem, column, prices
            except ValueError:
                pass  # the loop finds the offending row and words the error
    series = _load_rows(path, lines)
    return series.symbol, "\n".join(map(date.isoformat, series.dates)), series.prices


def _calendar(column: str, calendars: dict) -> tuple[date, ...]:
    """The dates of a date column given as its cells joined by newlines.

    calendars maps each column already parsed to its dates, so a column is
    parsed and checked to be strictly increasing once, and series with equal
    columns share one dates tuple.  A bad or out-of-order column raises
    ValueError and is not kept.
    """
    dates = calendars.get(column)
    if dates is None:
        dates = tuple(map(date.fromisoformat, map(str.strip, column.split("\n"))))
        if not all(map(operator.lt, dates, dates[1:])):
            raise ValueError("dates must be strictly increasing")
        calendars[column] = dates
    return dates


def _series(symbol: str, column: str, prices: np.ndarray, calendars: dict) -> PriceSeries:
    """The PriceSeries of a _columns message, its dates from the calendars memo."""
    return PriceSeries._checked(symbol, _calendar(column, calendars), prices)


def _load_rows(path: Path, lines: list[str]) -> PriceSeries:
    """The general parser: csv.reader and per-row checks over the lines."""
    reader = _csv_rows(path, lines)
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


def _csv_rows(path: Path, lines: list[str]):
    """csv.reader rows; a csv.Error, such as a field over the size limit, is a DataError."""
    reader = csv.reader(lines)
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}: row {reader.line_num}: {exc}") from exc


def load_universe(path, skip_errors: bool = False) -> tuple[list[PriceSeries], dict[str, str]]:
    """Load every ``*.csv`` under path, sorted by file name.

    Returns the loaded series plus a {file name: reason} map of rejects.
    Without skip_errors the first bad file in name order aborts the load.

    The files are parsed in stripes, one per CPU this process may use
    (_cpus): forked children parse every n-th file and send back only its
    symbol, its date cells and its price array.  Equal date columns are
    parsed once, so series that share a calendar share one dates tuple.
    Under ``taskset -c 0`` nothing forks, and the series never depend on
    the number of CPUs.
    """
    root = Path(path)
    files = sorted(root.glob("*.csv"))
    if not files:
        raise DataError(f"{root}: no CSV files found")
    calendars: dict[str, tuple[date, ...]] = {}

    def read(file: Path):
        try:
            return _columns(file, calendars)
        except DataError as exc:
            return exc

    universe, failures = [], {}
    with closing(_striped(read, files, _cpus())) as messages:
        for file, message in zip(files, messages, strict=True):
            if not isinstance(message, DataError):
                universe.append(_series(*message, calendars))
            elif skip_errors:
                failures[file.name] = str(message)
            else:
                raise message
    return universe, failures


def _cpus() -> int:
    """Stripes of a _striped map: the CPUs this process may run on, 1 without fork.

    load_universe and the report.json writer use this many processes; under
    ``taskset -c 0`` they use one and never fork.  Their output never
    depends on it.
    """
    return _usable_cpus() if hasattr(os, "fork") else 1


class _Mapped(Iterator):
    """map(build, sources) that keeps build and the sources apart for _striped."""

    def __init__(self, build, sources):
        self.build, self.sources = build, iter(sources)

    def __next__(self):
        return self.build(next(self.sources))


def _striped(fn, items, stripes: int):
    """Yield fn(item) for each of items, in order, with item i computed by stripe i % stripes.

    Stripe 0 is this process.  Stripe j > 0 is a forked child that walks its
    own copy of items and sends fn(item) for items j, j + stripes, ...
    through its own pipe, or the exception raised for one in its place,
    which is raised here at that item.  So items and fn need not pickle,
    the results must, and this process holds about one result per pipe.
    Every child is reaped on every way out, once the generator is exhausted
    or closed, so callers close it.  One stripe is a plain loop, which
    neither imports multiprocessing nor forks.  When items is a _Mapped,
    the stripes walk its sources, so each item is built only by the stripe
    that computes fn of it.
    """
    if isinstance(items, _Mapped):
        outer, build, items = fn, items.build, items.sources

        def fn(source):
            return outer(build(source))

    children = []
    try:
        if stripes > 1:
            import multiprocessing

            # fork, whatever the platform's default, so children inherit fn and items
            fork = multiprocessing.get_context("fork")
            sys.stdout.flush()  # a child flushes both streams as it exits
            sys.stderr.flush()
            for stripe in range(1, stripes):
                recv, send = fork.Pipe(duplex=False)
                with send:
                    child = fork.Process(target=_stripe, args=(fn, items, stripe, stripes, send))
                    child.start()
                children.append((child, recv))
        for i, item in enumerate(items):
            yield _receive(*children[i % stripes - 1], last=False) if i % stripes else fn(item)
        for child in children:
            _receive(*child, last=True)
    finally:
        for child, recv in children:
            child.kill()
            child.join()
            child.close()
            recv.close()


def _stripe(fn, items, stripe: int, stripes: int, send) -> None:
    """A stripe's child: send (fn(item),) for items stripe, stripe + stripes, ..., then None.

    An exception goes to the parent in place of the next result.  The
    parent alone handles an interrupt, and kills this child.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        for i, item in enumerate(items):
            if i % stripes == stripe:
                send.send((fn(item),))
    except Exception as exc:
        send.send(exc)
    else:
        send.send(None)


def _receive(child, recv, last: bool):
    """A stripe's next result, or its end mark when last; raises what the child raised."""
    try:
        message = recv.recv()
    except EOFError:
        child.join()
        raise ChildProcessError(f"stripe process exited with code {child.exitcode}") from None
    if isinstance(message, BaseException):
        raise message
    if (message is None) != last:
        raise ChildProcessError("stripe processes disagree on the number of items")
    return None if last else message[0]


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
    if len(lengths) > 1 and not truncate:
        raise DataError(f"misaligned day counts {sorted(lengths)}; pass truncate to clip")
    matrix = np.stack([r.gains[:min(lengths)] for r in results])
    q025, q50, q975 = np.quantile(matrix, [0.025, 0.5, 0.975], axis=0)
    return BacktestReport(results, matrix.mean(axis=0), q025, q50, q975,
                          GainSummary.from_gains(matrix[:, -1]))


def backtest_one(series: PriceSeries, split: SplitSpec, policy: TargetPolicy,
                 grid: GridSpec, objective: Objective, i0: float = 1.0,
                 dt: float = DEFAULT_DT, horizon: float | None = None,
                 jobs: int = 1) -> SeriesResult:
    """Estimate on the training window, optimize, trade the test window.

    The one-series case of backtest_universe.  horizon defaults to the test
    window's length in units of dt, so a 252-observation window optimizes
    for one year ahead.  jobs is accepted for compatibility and has no effect.
    """
    report, _ = backtest_universe([series], split, policy, grid, objective, i0, dt, horizon)
    return report.results[0]


def run_fixed_strategy(series: PriceSeries, params: ControlParams,
                       start: date, end: date) -> SeriesResult:
    """run_fixed_strategy_universe on one series: trade it over [start, end] with params."""
    report, _ = run_fixed_strategy_universe([series], params, start, end)
    return report.results[0]


def backtest_universe(universe, split: SplitSpec, policy: TargetPolicy,
                      grid: GridSpec, objective: Objective, i0: float = 1.0,
                      dt: float = DEFAULT_DT, horizon: float | None = None,
                      jobs: int = 1, skip_errors: bool = False,
                      truncate: bool = False) -> tuple[BacktestReport, dict[str, str]]:
    """Run the estimate/optimize/trade pipeline on every series and aggregate.

    The pipeline runs in stages, each over every series still in the run:
    the windows are cut and checked and the dynamics estimated series by
    series, the grids of a chunk of series are scored in one array
    evaluation, and the test windows of each length are traded in one
    executor run.  Every result has the bits of a run on its series alone.
    With skip_errors, series that fail with a data problem are reported
    instead of fatal.  jobs is accepted for compatibility and has no effect.
    """
    search = partial(_search, policy=policy, grid=grid, objective=objective, i0=i0)
    return next(_run_stages(universe, [search], (split.test_start, split.test_end),
                            (split.train_start, split.train_end), dt, horizon,
                            skip_errors, truncate))


def run_fixed_strategy_universe(universe, params: ControlParams, start: date,
                                end: date, jobs: int = 1, skip_errors: bool = False,
                                truncate: bool = False) -> tuple[BacktestReport, dict[str, str]]:
    """Apply one fixed parameter set to every series over [start, end].

    The windows of each length are traded in one executor run.
    jobs is accepted for compatibility and has no effect.
    """
    return next(_run_stages(universe, [params], (start, end),
                            skip_errors=skip_errors, truncate=truncate))


def _run_stages(universe, strategies, test, train=None, dt: float = DEFAULT_DT,
                horizon: float | None = None, skip_errors: bool = False,
                truncate: bool = False):
    """Yield per strategy its aggregated SeriesResults and {symbol: reason} per DataError.

    A strategy is a ControlParams, or _search bound to a policy, grid,
    objective and i0, which needs the train window; windows are (start, end).
    1. Once, per series in input order: cut the train window, if given, and
       the test window, check that each holds two observations, and
       estimate the dynamics on the train window.
    2. Per strategy, for all those series at once: a search chooses the
       parameters for horizon, by default the test window's length in units
       of dt; a NoFiniteObjectiveError is a DataError.
    3. The test windows of each length are traded in one executor pass
       with per-row parameter columns, which gives each row the bits of a
       run_strategy call on its window alone.  A row whose gains are not all
       finite, an overflow of the executor, is a DataError.

    Without skip_errors a strategy raises the error of its first failing
    series in input order, as a loop over the series would, even when it
    fails at a later stage than a series after it; no series after a
    failure runs the later stages, and no strategy after it runs.
    """
    universe = list(universe)
    windows = {"training": train, "testing": test} if train else {"testing": test}
    failed: dict[int, DataError] = {}
    live = []
    for i, series in enumerate(universe):
        try:
            cuts = {name: series.window(*window) for name, window in windows.items()}
            for name, cut in cuts.items():
                if len(cut) < 2:
                    raise DataError(
                        f"{series.symbol}: {name} window has {len(cut)} observation(s), need >= 2")
            gp = None
            if train:
                try:
                    gp = estimate_mle(cuts["training"].prices, dt=dt)
                except ValueError as exc:
                    raise DataError(f"{series.symbol}: estimation failed: {exc}") from exc
            live.append((i, cuts["testing"].prices, gp))
        except DataError as exc:
            failed[i] = exc
            if not skip_errors:
                break
    for strategy in strategies:
        errors, by_length = dict(failed), {}
        picks = [(strategy, {})] * len(live)
        if not isinstance(strategy, ControlParams):
            ts = [(len(p) - 1) * dt if horizon is None else horizon for _, p, _ in live]
            picks = [DataError(f"{universe[i].symbol}: optimization failed: {best}")
                     if isinstance(best, NoFiniteObjectiveError)
                     else (best.params, dict(target=best.target, mu_hat=gp.mu, sigma_hat=gp.sigma,
                                             objective_value=best.objective_value))
                     for (i, _, gp), best in zip(live, strategy([gp for *_, gp in live], ts))]
        for (i, prices, _), pick in zip(live, picks):
            if isinstance(pick, DataError):
                errors[i] = pick
            elif skip_errors or not errors or i < min(errors):
                by_length.setdefault(len(prices), []).append((i, prices, pick))
        results = {}
        for group in by_length.values():
            columns = np.array([(p.i0, p.k, p.alpha, p.beta) for _, _, (p, _) in group])
            # an overflowing row is reported below, not warned about
            with np.errstate(over="ignore", invalid="ignore"):
                gains = _run(ControlParams(*columns.T[:, :, None]),
                             np.stack([prices for _, prices, _ in group]))
            finite = np.isfinite(gains).all(axis=1)
            for (i, _, (params, fields)), row, ok in zip(group, gains, finite):
                symbol = universe[i].symbol
                if ok:
                    results[i] = SeriesResult(symbol, params, row, **fields)
                else:
                    errors[i] = DataError(f"{symbol}: trading failed: the gain overflows")
        if errors and not skip_errors:
            raise errors[min(errors)]
        yield (aggregate([results[i] for i in sorted(results)], truncate=truncate),
               {universe[i].symbol: str(errors[i]) for i in sorted(errors)})


def _series_row(r: SeriesResult) -> dict:
    """r's fields as a JSON-ready row: a ControlParams spread out, arrays as float lists."""
    row = {"final_gain": r.final_gain}
    for f in fields(r):
        value = getattr(r, f.name)
        if isinstance(value, ControlParams):
            row.update(vars(value))
        else:
            row[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return row


def report_to_dict(report: BacktestReport, rows=list) -> dict:
    """JSON-ready view of a report; arrays become plain lists.

    rows receives an iterator of the per-series rows and returns the
    "series" value: a list by default; rows=iter keeps it lazy, so each row
    is built only when it is consumed, and a striped report.json writer
    builds each row in the process that encodes it (_striped).
    """
    return {
        "series": rows(_Mapped(_series_row, report.results)),
        "daily": dict(zip(DAILY_COLUMNS, _daily_lists(report))),
        "summary": {name: getattr(report.summary, name) for name in SUMMARY_COLUMNS},
    }


def write_csv(header, rows, path) -> None:
    """A header row, then rows, to the file at path or to stdout when path is None.

    csv.writer writes a float as str(float); pass floats, not numpy scalars.
    """
    with nullcontext(sys.stdout) if path is None else open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _daily_lists(report: BacktestReport) -> list[list[float]]:
    """The day_<name> columns as float lists, in DAILY_COLUMNS order."""
    return [getattr(report, f"day_{name}").tolist() for name in DAILY_COLUMNS]


def write_daily_columns(columns, path) -> None:
    """day,mean,q025,q50,q975 rows from the four daily columns, sequences of floats."""
    write_csv(["day", *DAILY_COLUMNS], zip(count(), *columns), path)


def write_daily_csv(report: BacktestReport, path) -> None:
    """day,mean,q025,q50,q975 rows, one per test-window day."""
    write_daily_columns(_daily_lists(report), path)


def write_summary_csv(rows, path) -> None:
    """strategy,q1,median,mean,q3,iqr rows from (label, GainSummary) pairs."""
    write_csv(["strategy", *SUMMARY_COLUMNS],
              ((label, *(getattr(s, name) for name in SUMMARY_COLUMNS)) for label, s in rows), path)
