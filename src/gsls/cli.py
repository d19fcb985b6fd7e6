"""Command-line front end: simulate, estimate, optimize, backtest, plotdata.

Settings resolve flag > config file > built-in default.  The config file is
flat ``key = value`` text whose keys mirror the long flag names ('#' starts
a comment).  Every JSON output embeds the resolved settings and the library
version; reruns with identical settings and seeds are byte-identical.

Exit codes: 0 success, 2 usage error, 3 data error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from . import __version__
from .backtest import (
    DEFAULT_DT,
    DataError,
    SplitSpec,
    backtest_universe,
    load_series,
    load_universe,
    report_to_dict,
    run_fixed_strategy_universe,
    write_daily_csv,
    write_summary_csv,
)
from .gbm import GbmParams, estimate_mle, expected_gain, gain_variance, simulate_paths
from .optimizer import (
    DriftAdaptiveTarget,
    FixedTarget,
    GridSpec,
    NoFiniteObjectiveError,
    Objective,
    grid_search,
    policy_label,
    trading_bias,
    trading_mse,
)
from .strategy import ControlParams, gain_total_closed

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4

# config keys that differ from their argparse dest
CONFIG_ALIASES = {"in": "in_path"}


class UsageError(Exception):
    """Bad or missing settings; maps to exit code 2."""


def _parse_bool(raw: str) -> bool:
    value = raw.strip().lower()
    if value in {"1", "true", "yes", "on"}:
        return True
    if value in {"0", "false", "no", "off"}:
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_floats(raw: str, name: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in raw.split(","))
    except ValueError:
        raise UsageError(f"{name}: expected comma-separated numbers, got {raw!r}") from None
    if not values:
        raise UsageError(f"{name}: empty list")
    return values


def _parse_date(raw: str, name: str) -> date:
    try:
        return date.fromisoformat(raw.strip())
    except ValueError:
        raise UsageError(f"{name}: expected YYYY-MM-DD, got {raw!r}") from None


def _parse_window(raw: str, name: str) -> tuple[date, date]:
    parts = raw.split(":")
    if len(parts) != 2:
        raise UsageError(f"{name}: expected YYYY-MM-DD:YYYY-MM-DD, got {raw!r}")
    return _parse_date(parts[0], name), _parse_date(parts[1], name)


def _load_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    settings: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower().replace("-", "_")
        settings[CONFIG_ALIASES.get(key, key)] = value.strip()
    return settings


class _Resolver:
    """Flag > config > default lookup that tracks which keys were consumed."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _load_config(args.config) if args.config else {}
        self.consumed: set[str] = set()

    def get(self, key: str, cast, default=None):
        self.consumed.add(key)
        value = getattr(self.args, key, None)
        if value is not None:
            return value
        if key in self.config:
            try:
                return cast(self.config[key])
            except ValueError as exc:
                raise UsageError(f"config key {key}: {exc}") from None
        return default

    def require(self, key: str, cast, flag: str):
        value = self.get(key, cast)
        if value is None:
            raise UsageError(f"missing required setting {flag}")
        return value

    def finish(self) -> None:
        unknown = set(self.config) - self.consumed
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")


def _write_json(payload: dict, out: str | None) -> None:
    # one line: CPython's C encoder runs only without indent
    text = json.dumps(payload, sort_keys=True, default=str) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _write_csv(header: list[str], rows, out: str | None) -> None:
    if out is None:
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
        return
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x) -> str:
    return str(float(x))


def _resolve_grid(r: _Resolver) -> GridSpec:
    lo = r.get("grid_min", float, 0.5)
    hi = r.get("grid_max", float, 5.0)
    n = r.get("grid_n", int, 10)
    sls_only = bool(r.get("sls_only", _parse_bool, False))
    return GridSpec.equally_spaced(lo, hi, n, sls_only=sls_only)


def _policy_from(fixed: float | None, drift: float | None):
    if (fixed is None) == (drift is None):
        raise UsageError("give exactly one of --target-fixed or --target-drift")
    return FixedTarget(fixed) if fixed is not None else DriftAdaptiveTarget(drift)


def _objective_from(name: str | None) -> Objective:
    if name is None:
        raise UsageError("missing required setting --objective")
    try:
        return Objective(name)
    except ValueError:
        raise UsageError(f"--objective must be 'bias' or 'mse', got {name!r}") from None


def _strategy_label(params: ControlParams) -> str:
    if params.alpha == 1.0 and params.beta == 1.0:
        return f"sls_k{params.k:g}"
    return f"gsls_k{params.k:g}_a{params.alpha:g}_b{params.beta:g}"


def _estimate_from_file(in_path: str, window: str | None, dt: float):
    series = load_series(in_path)
    if window:
        start, end = _parse_window(window, "--train-window")
        series = series.window(start, end)
    try:
        return series, estimate_mle(series.prices, dt=dt)
    except ValueError as exc:
        raise DataError(f"{series.symbol}: {exc}") from exc


def _cmd_simulate(args: argparse.Namespace) -> int:
    r = _Resolver(args)
    mu = r.require("mu", float, "--mu")
    sigma = r.require("sigma", float, "--sigma")
    dt = r.get("dt", float, DEFAULT_DT)
    steps = r.get("steps", int, 252)
    count = r.get("count", int, 1)
    seed = r.get("seed", int, 0)
    p0 = r.get("p0", float, 100.0)
    start = r.get("start", str, "2016-01-01")
    out = r.require("out", str, "--out")
    r.finish()

    start_day = _parse_date(start, "--start")
    paths = simulate_paths(GbmParams(mu, sigma, dt), p0, steps, count, seed)
    days = [start_day + timedelta(days=i) for i in range(steps + 1)]
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    width = max(4, len(str(count - 1)))
    names = []
    for i in range(count):
        name = f"series_{i:0{width}d}.csv"
        with open(out_dir / name, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "close"])
            writer.writerows(
                (day.isoformat(), _fmt(price)) for day, price in zip(days, paths[i])
            )
        names.append(name)

    config = {"mu": mu, "sigma": sigma, "dt": dt, "steps": steps, "count": count,
              "seed": seed, "p0": p0, "start": start, "out": str(out)}
    _write_json({"version": __version__, "config": config, "files": names},
                str(out_dir / "manifest.json"))
    return EXIT_OK


def _cmd_estimate(args: argparse.Namespace) -> int:
    r = _Resolver(args)
    in_path = r.require("in_path", str, "--in")
    dt = r.get("dt", float, DEFAULT_DT)
    window = r.get("train_window", str)
    out = r.get("out", str)
    r.finish()

    series, gp = _estimate_from_file(in_path, window, dt)
    config = {"in": in_path, "dt": dt, "train_window": window}
    payload = {
        "version": __version__,
        "config": config,
        "estimate": {"symbol": series.symbol, "n_obs": len(series),
                     "mu": gp.mu, "sigma": gp.sigma, "dt": gp.dt},
    }
    _write_json(payload, out)
    return EXIT_OK


def _cmd_optimize(args: argparse.Namespace) -> int:
    r = _Resolver(args)
    in_path = r.get("in_path", str)
    mu = r.get("mu", float)
    sigma = r.get("sigma", float)
    dt = r.get("dt", float, DEFAULT_DT)
    window = r.get("train_window", str)
    horizon = r.get("horizon", float, 1.0)
    i0 = r.get("i0", float, 1.0)
    jobs = r.get("jobs", int, 1)
    table = bool(r.get("table", _parse_bool, False))
    grid = _resolve_grid(r)
    objective = _objective_from(r.get("objective", str))
    policy = _policy_from(r.get("target_fixed", float), r.get("target_drift", float))
    out = r.get("out", str)
    r.finish()

    if in_path is not None and (mu is not None or sigma is not None):
        raise UsageError("give either --in or explicit --mu/--sigma, not both")
    if in_path is None:
        if mu is None or sigma is None:
            raise UsageError("need --in or both --mu and --sigma")
        symbol = None
        gp = GbmParams(mu, sigma, dt)
    else:
        series, gp = _estimate_from_file(in_path, window, dt)
        symbol = series.symbol

    try:
        result = grid_search(gp, horizon, policy, grid, objective,
                             i0=i0, keep_table=table)
    except NoFiniteObjectiveError as exc:
        raise DataError(f"optimization failed: {exc}") from exc
    config = {"in": in_path, "mu": mu, "sigma": sigma, "dt": dt,
              "train_window": window, "horizon": horizon, "i0": i0, "jobs": jobs,
              "grid_min": grid.k_values[0], "grid_max": grid.k_values[-1],
              "grid_n": len(grid.k_values), "sls_only": grid.is_sls_only,
              "objective": objective.value, "target": policy_label(policy)}
    chosen = {
        "symbol": symbol,
        "mu": gp.mu,
        "sigma": gp.sigma,
        "k": result.params.k,
        "alpha": result.params.alpha,
        "beta": result.params.beta,
        "i0": result.params.i0,
        "objective": objective.value,
        "objective_value": result.objective_value,
        "target": result.target,
    }
    if result.table is not None:
        chosen["table"] = [list(row) for row in result.table]
    _write_json({"version": __version__, "config": config, "result": chosen}, out)
    return EXIT_OK


def _cmd_backtest(args: argparse.Namespace) -> int:
    r = _Resolver(args)
    in_path = r.require("in_path", str, "--in")
    out = r.require("out", str, "--out")
    train_raw = r.require("train_window", str, "--train-window")
    test_raw = r.require("test_window", str, "--test-window")
    dt = r.get("dt", float, DEFAULT_DT)
    horizon = r.get("horizon", float)
    i0 = r.get("i0", float, 1.0)
    jobs = r.get("jobs", int, 1)
    skip = bool(r.get("skip_errors", _parse_bool, False))
    truncate = bool(r.get("truncate", _parse_bool, False))
    fixed_k = r.get("fixed_k", str)
    fixed_alpha = r.get("fixed_alpha", float, 1.0)
    fixed_beta = r.get("fixed_beta", float, 1.0)
    objective_raw = r.get("objective", str)
    fixed_target = r.get("target_fixed", float)
    drift_target = r.get("target_drift", float)
    grid = _resolve_grid(r)
    r.finish()

    train_window = _parse_window(train_raw, "--train-window")
    test_window = _parse_window(test_raw, "--test-window")
    split = SplitSpec(*train_window, *test_window)
    in_dir = Path(in_path)
    if not in_dir.is_dir():
        raise UsageError(f"--in: not a directory: {in_path}")
    if not any(in_dir.glob("*.csv")):
        raise UsageError(f"--in: no CSV files in {in_path}")
    universe, load_failures = load_universe(in_path, skip_errors=skip)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)

    config = {"in": in_path, "out": out, "train_window": train_raw,
              "test_window": test_raw, "dt": dt, "horizon": horizon, "i0": i0,
              "jobs": jobs, "skip_errors": skip, "truncate": truncate,
              "grid_min": grid.k_values[0], "grid_max": grid.k_values[-1],
              "grid_n": len(grid.k_values), "sls_only": grid.is_sls_only,
              "fixed_k": fixed_k, "fixed_alpha": fixed_alpha, "fixed_beta": fixed_beta,
              "objective": objective_raw,
              "target_fixed": fixed_target, "target_drift": drift_target}

    if fixed_k is not None:
        # fixed-parameter sweep: no estimation or optimization involved
        if objective_raw is not None or fixed_target is not None or drift_target is not None:
            raise UsageError("--fixed-k runs a parameter sweep; drop --objective/--target-* flags")
        strategies = {}
        summary_rows = []
        for k in _parse_floats(fixed_k, "--fixed-k"):
            params = ControlParams(i0, k, fixed_alpha, fixed_beta)
            label = _strategy_label(params)
            if label in strategies:
                raise UsageError(f"duplicate strategy {label} in --fixed-k")
            report, failures = run_fixed_strategy_universe(
                universe, params, test_window[0], test_window[1],
                skip_errors=skip, truncate=truncate)
            strategies[label] = {"failures": failures, "report": report_to_dict(report)}
            summary_rows.append((label, report.summary))
            write_daily_csv(report, out_dir / f"daily_aggregate_{label}.csv")
        write_summary_csv(summary_rows, out_dir / "summary.csv")
        payload = {"version": __version__, "config": config,
                   "load_failures": load_failures, "strategies": strategies}
        _write_json(payload, str(out_dir / "report.json"))
        return EXIT_OK

    objective = _objective_from(objective_raw)
    policy = _policy_from(fixed_target, drift_target)
    report, failures = backtest_universe(
        universe, split, policy, grid, objective, i0=i0, dt=dt,
        horizon=horizon, skip_errors=skip, truncate=truncate)
    label = f"{objective.value}_{policy_label(policy)}"
    write_daily_csv(report, out_dir / "daily_aggregate.csv")
    write_summary_csv([(label, report.summary)], out_dir / "summary.csv")
    payload = {"version": __version__, "config": config,
               "load_failures": load_failures, "failures": failures,
               "report": report_to_dict(report)}
    _write_json(payload, str(out_dir / "report.json"))
    return EXIT_OK


def _read_report(in_path: str) -> dict:
    try:
        doc = json.loads(Path(in_path).read_text())
    except OSError as exc:
        raise DataError(f"{in_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{in_path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{in_path}: expected a JSON object")
    body = doc.get("report", doc)
    if not isinstance(body, dict):
        raise DataError(f"{in_path}: malformed report")
    return body


def _plot_density(r: _Resolver) -> None:
    in_path = r.require("in_path", str, "--in")
    bins = r.get("bins", int, 50)
    out = r.get("out", str)
    r.finish()
    if bins < 1:
        raise UsageError("--bins must be >= 1")
    body = _read_report(in_path)
    rows = body.get("series")
    if not rows:
        raise DataError(f"{in_path}: report contains no per-series gains")
    finals = np.array([row["final_gain"] for row in rows], dtype=float)
    counts, edges = np.histogram(finals, bins=bins)
    widths = np.diff(edges)
    density = counts / (counts.sum() * widths)
    out_rows = [
        (_fmt(edges[i]), _fmt(edges[i + 1]), str(int(counts[i])), _fmt(density[i]))
        for i in range(len(counts))
    ]
    _write_csv(["bin_left", "bin_right", "count", "density"], out_rows, out)


def _plot_daily(r: _Resolver) -> None:
    in_path = r.require("in_path", str, "--in")
    out = r.get("out", str)
    r.finish()
    daily = _read_report(in_path).get("daily")
    if not daily:
        raise DataError(f"{in_path}: report contains no daily aggregates")
    keys = ("mean", "q025", "q50", "q975")
    out_rows = [
        (str(day), *(_fmt(daily[key][day]) for key in keys))
        for day in range(len(daily["mean"]))
    ]
    _write_csv(["day", "mean", "q025", "q50", "q975"], out_rows, out)


def _plot_gain_vs_q(r: _Resolver) -> None:
    k_raw = r.require("k", str, "--k")
    alpha = r.get("alpha", float, 1.0)
    beta = r.get("beta", float, 1.0)
    i0 = r.get("i0", float, 1.0)
    q_min = r.get("q_min", float, 0.2)
    q_max = r.get("q_max", float, 5.0)
    q_n = r.get("q_n", int, 101)
    out = r.get("out", str)
    r.finish()
    if not (0.0 < q_min <= q_max):
        raise UsageError(f"need 0 < --q-min <= --q-max, got {q_min}, {q_max}")
    if q_n < 1:
        raise UsageError("--q-n must be >= 1")
    qs = np.linspace(q_min, q_max, q_n)
    out_rows = []
    for k in _parse_floats(k_raw, "--k"):
        gains = gain_total_closed(ControlParams(i0, k, alpha, beta), qs)
        out_rows.extend((_fmt(k), _fmt(q), _fmt(g)) for q, g in zip(qs, gains))
    _write_csv(["k", "q", "gain"], out_rows, out)


def _plot_gain_vs_k(r: _Resolver) -> None:
    mu = r.require("mu", float, "--mu")
    sigma = r.require("sigma", float, "--sigma")
    dt = r.get("dt", float, DEFAULT_DT)
    horizon = r.get("horizon", float, 1.0)
    alpha = r.get("alpha", float, 1.0)
    beta = r.get("beta", float, 1.0)
    i0 = r.get("i0", float, 1.0)
    target = r.get("target_fixed", float, 0.0)
    lo = r.get("grid_min", float, 0.5)
    hi = r.get("grid_max", float, 5.0)
    n = r.get("grid_n", int, 10)
    out = r.get("out", str)
    r.finish()
    gp = GbmParams(mu, sigma, dt)
    out_rows = []
    for k in GridSpec.equally_spaced(lo, hi, n).k_values:
        cp = ControlParams(i0, k, alpha, beta)
        out_rows.append((
            _fmt(k),
            _fmt(expected_gain(cp, gp, horizon)),
            _fmt(gain_variance(cp, gp, horizon)),
            _fmt(trading_bias(cp, gp, horizon, target)),
            _fmt(trading_mse(cp, gp, horizon, target)),
        ))
    _write_csv(["k", "expected_gain", "gain_variance", "bias", "mse"], out_rows, out)


def _cmd_plotdata(args: argparse.Namespace) -> int:
    r = _Resolver(args)
    kind = r.require("kind", str, "--kind")
    handlers = {
        "density": _plot_density,
        "daily": _plot_daily,
        "gain-vs-q": _plot_gain_vs_q,
        "gain-vs-k": _plot_gain_vs_k,
    }
    if kind not in handlers:
        raise UsageError(f"--kind must be one of {sorted(handlers)}, got {kind!r}")
    handlers[kind](r)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value settings file")
    parser.add_argument("--out", help="output file or directory")


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid-min", type=float, help="smallest grid value (default 0.5)")
    parser.add_argument("--grid-max", type=float, help="largest grid value (default 5.0)")
    parser.add_argument("--grid-n", type=int, help="values per parameter (default 10)")
    parser.add_argument("--sls-only", action="store_true", default=None,
                        help="pin alpha = beta = 1 and search k only")


def _add_target_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--objective", choices=["bias", "mse"], help="scoring rule")
    parser.add_argument("--target-fixed", type=float, metavar="G",
                        help="fixed target gain")
    parser.add_argument("--target-drift", type=float, metavar="C",
                        help="per-series target |mu_hat| + C")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsls",
        description="Simultaneous long-short feedback trading toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a universe of simulated GBM series")
    p.add_argument("--mu", type=float, help="annual drift")
    p.add_argument("--sigma", type=float, help="annual volatility")
    p.add_argument("--dt", type=float, help="step size in years (default 1/252)")
    p.add_argument("--steps", type=int, help="steps per series (default 252)")
    p.add_argument("--count", type=int, help="number of series (default 1)")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p.add_argument("--p0", type=float, help="initial price (default 100)")
    p.add_argument("--start", help="first observation date (default 2016-01-01)")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="fit GBM drift and volatility to a series")
    p.add_argument("--in", dest="in_path", help="input date,close CSV")
    p.add_argument("--dt", type=float, help="step size in years (default 1/252)")
    p.add_argument("--train-window", help="YYYY-MM-DD:YYYY-MM-DD row filter")
    _add_common(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("optimize", help="grid-search control parameters")
    p.add_argument("--in", dest="in_path", help="series CSV to estimate from")
    p.add_argument("--mu", type=float, help="explicit drift (skips estimation)")
    p.add_argument("--sigma", type=float, help="explicit volatility (skips estimation)")
    p.add_argument("--dt", type=float, help="step size in years (default 1/252)")
    p.add_argument("--train-window", help="estimation row filter")
    p.add_argument("--horizon", type=float, help="target horizon in years (default 1)")
    p.add_argument("--i0", type=float, help="initial long investment (default 1)")
    p.add_argument("--jobs", type=int, help="accepted for compatibility; has no effect")
    p.add_argument("--table", action="store_true", default=None,
                   help="emit the full grid evaluation table")
    _add_grid_flags(p)
    _add_target_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("backtest", help="estimate, optimize, and trade a universe")
    p.add_argument("--in", dest="in_path", help="directory of date,close CSVs")
    p.add_argument("--train-window", help="estimation window YYYY-MM-DD:YYYY-MM-DD")
    p.add_argument("--test-window", help="trading window YYYY-MM-DD:YYYY-MM-DD")
    p.add_argument("--dt", type=float, help="step size in years (default 1/252)")
    p.add_argument("--horizon", type=float,
                   help="optimization horizon in years (default: test window length)")
    p.add_argument("--i0", type=float, help="initial long investment (default 1)")
    p.add_argument("--jobs", type=int, help="accepted for compatibility; has no effect")
    p.add_argument("--skip-errors", action="store_true", default=None,
                   help="report bad series instead of aborting")
    p.add_argument("--truncate", action="store_true", default=None,
                   help="clip all series to the shortest test trajectory")
    p.add_argument("--fixed-k", metavar="K1,K2,...",
                   help="skip optimization; sweep these fixed k values")
    p.add_argument("--fixed-alpha", type=float, help="alpha for --fixed-k (default 1)")
    p.add_argument("--fixed-beta", type=float, help="beta for --fixed-k (default 1)")
    _add_grid_flags(p)
    _add_target_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_backtest)

    p = sub.add_parser("plotdata", help="emit plot-ready CSV data")
    p.add_argument("--kind", choices=["density", "daily", "gain-vs-q", "gain-vs-k"],
                   help="what to emit")
    p.add_argument("--in", dest="in_path", help="report JSON (density, daily)")
    p.add_argument("--bins", type=int, help="histogram bins (default 50)")
    p.add_argument("--k", help="comma-separated k values (gain-vs-q)")
    p.add_argument("--alpha", type=float, help="short-side investment scale (default 1)")
    p.add_argument("--beta", type=float, help="short-side feedback scale (default 1)")
    p.add_argument("--i0", type=float, help="initial long investment (default 1)")
    p.add_argument("--q-min", type=float, help="smallest price ratio (default 0.2)")
    p.add_argument("--q-max", type=float, help="largest price ratio (default 5.0)")
    p.add_argument("--q-n", type=int, help="ratio sample count (default 101)")
    p.add_argument("--mu", type=float, help="drift (gain-vs-k)")
    p.add_argument("--sigma", type=float, help="volatility (gain-vs-k)")
    p.add_argument("--dt", type=float, help="step size in years (default 1/252)")
    p.add_argument("--horizon", type=float, help="horizon in years (default 1)")
    p.add_argument("--target-fixed", type=float, metavar="G",
                   help="target gain for bias/mse columns (default 0)")
    _add_grid_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_plotdata)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
