"""Command-line front end: simulate, estimate, optimize, backtest, plotdata.

Each subcommand's settings are one table of ``(key, type, default, help)``
rows (``plotdata`` has one per ``--kind``), resolved flag > config file >
default.  A row's flag is its key with '_' written as '-'; the config file is
flat ``key = value`` text over the keys themselves ('#' starts a comment).
Every JSON output embeds the resolved settings and the library version.

Exit codes: 0 success, 2 usage error, 3 data error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator
from contextlib import closing, nullcontext
from datetime import date, timedelta
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .backtest import (DAILY_COLUMNS, DEFAULT_DT, DataError, SplitSpec, _cpus, _run_stages,
                       _striped, load_series, load_universe, report_to_dict, write_csv,
                       write_daily_columns, write_daily_csv, write_summary_csv)
from .gbm import GbmParams, estimate_mle, expected_gain, gain_variance, simulate_paths
from .optimizer import (DriftAdaptiveTarget, FixedTarget, GridSpec, NoFiniteObjectiveError,
                        Objective, _check_search_horizon, _search, grid_search, policy_label)
from .strategy import ControlParams, _require, gain_total_closed

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


class UsageError(Exception):
    """Bad or missing settings; maps to exit code 2."""


# Settings rows shared by several subcommands: (key, type, default, help).
# A bool row is an on/off flag; a tuple type lists the accepted values.
MU = ("mu", float, None, "annual drift")
SIGMA = ("sigma", float, None, "annual volatility")
DT = ("dt", float, DEFAULT_DT, "step size in years (default 1/252)")
TRAIN_WINDOW = ("train_window", str, None, "estimation window YYYY-MM-DD:YYYY-MM-DD")
HORIZON = ("horizon", float, 1.0, "horizon in years (default 1)")
I0 = ("i0", float, 1.0, "initial long investment (default 1)")
JOBS = ("jobs", int, 1, "accepted for compatibility; has no effect")
OUT = ("out", str, None, "output file or directory")
GRID = [
    ("grid_min", float, 0.5, "smallest grid value (default 0.5)"),
    ("grid_max", float, 5.0, "largest grid value (default 5.0)"),
    ("grid_n", int, 10, "values per parameter (default 10)"),
    ("sls_only", bool, False, "pin alpha = beta = 1 and search k only"),
]
TARGET = [
    ("objective", tuple(o.value for o in Objective), None, "scoring rule"),
    ("target_fixed", float, None, "fixed target gain"),
    ("target_drift", float, None, "per-series target |mu_hat| + this margin"),
]


def _parse_bool(raw: str) -> bool:
    value = raw.strip().lower()
    if value in {"1", "true", "yes", "on"}:
        return True
    if value in {"0", "false", "no", "off"}:
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_floats(raw: str, name: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in raw.split(","))
    except ValueError:
        raise UsageError(f"{name}: expected comma-separated numbers, got {raw!r}") from None


def _parse_date(raw: str, name: str) -> date:
    try:
        return date.fromisoformat(raw.strip())
    except ValueError:
        raise UsageError(f"{name}: expected YYYY-MM-DD, got {raw!r}") from None


def _parse_window(raw: str, name: str) -> tuple[date, date]:
    parts = raw.split(":")
    if len(parts) != 2:
        raise UsageError(f"{name}: expected YYYY-MM-DD:YYYY-MM-DD, got {raw!r}")
    start, end = (_parse_date(part, name) for part in parts)
    if end < start:
        raise UsageError(f"{name}: window ends before it starts, got {raw!r}")
    return start, end


def _load_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    settings: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        settings[key.strip().lower().replace("-", "_")] = value.strip()
    return settings


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _lookup(args: argparse.Namespace, config: dict[str, str], row):
    """One row's value: the flag, else the cast config value, else the default."""
    key, kind, default, _ = row
    value = getattr(args, key)
    if value is not None:
        return value
    if key not in config:
        return default
    cast = _parse_bool if kind is bool else str if isinstance(kind, tuple) else kind
    try:
        value = cast(config[key])
    except ValueError as exc:
        raise UsageError(f"config key {key}: {exc}") from None
    if isinstance(kind, tuple) and value not in kind:
        raise UsageError(f"config key {key}: invalid choice {value!r} "
                         f"(choose from {', '.join(kind)})")
    return value


def _resolve(args: argparse.Namespace, config: dict[str, str], rows) -> dict:
    """Every row's value by key; this dict is also the JSON ``config`` echo."""
    unknown = set(config) - {row[0] for row in rows}
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return {row[0]: _lookup(args, config, row) for row in rows}


def _need(s: dict, *keys: str) -> None:
    for key in keys:
        if s[key] is None:
            raise UsageError(f"missing required setting {_flag(key)}")


# one line: CPython's C encoder runs only without indent
_ENCODER = json.JSONEncoder(sort_keys=True, default=str)


def _stream_json(value, write, stripes: int = 1) -> None:
    """write() the text of json.dumps(value, sort_keys=True, default=str) in pieces.

    A dict goes key by key (keys must be str) and an iterator as a list item
    by item, so an iterator's items exist one at a time; any other value is
    one piece.  With stripes > 1, an iterator that is not an item of another
    one has its items encoded by that many processes (backtest._striped),
    and this process writes them in order; report_to_dict's lazy rows are
    each built only by the process that encodes it.
    """
    if isinstance(value, Iterator):
        write("[")
        with closing(_striped(_encode, value, stripes)) as texts:
            for i, text in enumerate(texts):
                write(", " + text if i else text)
        write("]")
    elif isinstance(value, dict):
        write("{")
        for i, key in enumerate(sorted(value)):
            write((", " if i else "") + _ENCODER.encode(key) + ": ")
            _stream_json(value[key], write, stripes)
        write("}")
    else:
        write(_ENCODER.encode(value))


def _encode(value) -> str:
    """The text _stream_json writes for value, in one process."""
    pieces: list[str] = []
    _stream_json(value, pieces.append)
    return "".join(pieces)


def _write_json(payload: dict, out: str | None) -> None:
    """payload's JSON and a newline, streamed to stdout or to the file out.

    A failed write removes out, unless out is a link or not a regular file.
    """
    with nullcontext(sys.stdout) if out is None else open(out, "w") as fh:
        try:
            _stream_json(payload, fh.write, _cpus())
            fh.write("\n")
        except BaseException:
            if out is not None and Path(out).is_file() and not Path(out).is_symlink():
                Path(out).unlink()
            raise


def _check(s: dict) -> None:
    """Check dt, i0 and horizon where s holds them, by their owners' rules, before any input."""
    GbmParams(0.0, 0.0, s["dt"])
    ControlParams(s.get("i0", 1.0), 1.0)
    if s.get("horizon") is not None:
        _check_search_horizon(s["horizon"])


def _grid(s: dict) -> GridSpec:
    return GridSpec.equally_spaced(s["grid_min"], s["grid_max"], s["grid_n"],
                                   sls_only=s["sls_only"])


def _policy(s: dict):
    fixed, drift = s["target_fixed"], s["target_drift"]
    if (fixed is None) == (drift is None):
        raise UsageError("give exactly one of --target-fixed or --target-drift")
    return FixedTarget(fixed) if fixed is not None else DriftAdaptiveTarget(drift)


def _objective(s: dict) -> Objective:
    _need(s, "objective")
    return Objective(s["objective"])


def _estimate_from_file(in_path: str, window: str | None, dt: float):
    span = _parse_window(window, "--train-window") if window else None
    series = load_series(in_path)
    if span:
        series = series.window(*span)
    try:
        return series, estimate_mle(series.prices, dt=dt)
    except ValueError as exc:
        raise DataError(f"{series.symbol}: {exc}") from exc


SIMULATE = [
    MU, SIGMA, DT,
    ("steps", int, 252, "steps per series (default 252)"),
    ("count", int, 1, "number of series (default 1)"),
    ("seed", int, 0, "RNG seed (default 0)"),
    ("p0", float, 100.0, "initial price (default 100)"),
    ("start", str, "2016-01-01", "first observation date (default 2016-01-01)"),
    OUT,
]


def _cmd_simulate(s: dict) -> None:
    _need(s, "mu", "sigma", "out")
    start = _parse_date(s["start"], "--start")
    if (date.max - start).days < s["steps"]:
        raise UsageError(f"--start {start} and --steps {s['steps']} put the last date "
                         f"past {date.max}")
    gp = GbmParams(s["mu"], s["sigma"], s["dt"])
    paths = simulate_paths(gp, s["p0"], s["steps"], s["count"], s["seed"])
    days = [(start + timedelta(days=i)).isoformat() for i in range(s["steps"] + 1)]
    out_dir = Path(s["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    width = max(4, len(str(s["count"] - 1)))
    names = [f"series_{i:0{width}d}.csv" for i in range(s["count"])]
    for name, path in zip(names, paths):
        write_csv(["date", "close"], zip(days, path.tolist()), out_dir / name)
    _write_json({"version": __version__, "config": s, "files": names},
                str(out_dir / "manifest.json"))


ESTIMATE = [("in", str, None, "input date,close CSV"), DT, TRAIN_WINDOW, OUT]


def _cmd_estimate(s: dict) -> None:
    _need(s, "in")
    _check(s)
    series, gp = _estimate_from_file(s["in"], s["train_window"], s["dt"])
    estimate = {"symbol": series.symbol, "n_obs": len(series),
                "mu": gp.mu, "sigma": gp.sigma, "dt": gp.dt}
    _write_json({"version": __version__, "config": s, "estimate": estimate}, s["out"])


OPTIMIZE = [
    ("in", str, None, "series CSV to estimate from (or give --mu and --sigma)"),
    MU, SIGMA, DT, TRAIN_WINDOW, HORIZON, I0, JOBS,
    ("table", bool, False, "emit the full grid evaluation table"),
    *GRID, *TARGET, OUT,
]


def _cmd_optimize(s: dict) -> None:
    _check(s)
    grid = _grid(s)
    objective = _objective(s)
    policy = _policy(s)
    if s["in"] is not None and (s["mu"] is not None or s["sigma"] is not None):
        raise UsageError("give either --in or explicit --mu/--sigma, not both")
    if s["in"] is None:
        if s["mu"] is None or s["sigma"] is None:
            raise UsageError("need --in or both --mu and --sigma")
        if s["train_window"] is not None:
            raise UsageError("--train-window applies only to --in; drop it with --mu/--sigma")
        symbol, gp = None, GbmParams(s["mu"], s["sigma"], s["dt"])
    else:
        series, gp = _estimate_from_file(s["in"], s["train_window"], s["dt"])
        symbol = series.symbol
    result = grid_search(gp, s["horizon"], policy, grid, objective,
                         i0=s["i0"], keep_table=s["table"])
    chosen = {"symbol": symbol, "mu": gp.mu, "sigma": gp.sigma, **vars(result.params),
              "objective": objective.value, "objective_value": result.objective_value,
              "target": result.target}
    if result.table is not None:
        chosen["table"] = result.table
    _write_json({"version": __version__, "config": s, "result": chosen}, s["out"])


BACKTEST = [
    ("in", str, None, "directory of date,close CSVs"), TRAIN_WINDOW,
    ("test_window", str, None, "trading window YYYY-MM-DD:YYYY-MM-DD"), DT,
    ("horizon", float, None, "optimization horizon in years (default: test window length)"),
    I0, JOBS,
    ("skip_errors", bool, False, "report bad series instead of aborting"),
    ("truncate", bool, False, "clip all series to the shortest test trajectory"),
    ("fixed_k", str, None, "skip optimization; sweep these fixed k values K1,K2,..."),
    ("fixed_alpha", float, 1.0, "alpha for --fixed-k (default 1)"),
    ("fixed_beta", float, 1.0, "beta for --fixed-k (default 1)"),
    *GRID, *TARGET, OUT,
]
# the keys that only an optimized backtest reads, and those that only a --fixed-k sweep reads
OPTIMIZED_ONLY = {"dt", "horizon", *(row[0] for row in [*GRID, *TARGET])}
SWEEP_ONLY = {"fixed_alpha", "fixed_beta"}


def _cmd_backtest(s: dict) -> None:
    sweep, strategies = s["fixed_k"] is not None, {}
    # a sweep trades the test window alone; a training window given to it is still checked
    _need(s, "in", "out", *([] if sweep else ["train_window"]), "test_window")
    _check(s)
    stray = ", ".join(_flag(key) for key, _, default, _ in BACKTEST
                      if key in (OPTIMIZED_ONLY if sweep else SWEEP_ONLY) and s[key] != default)
    if stray:
        raise UsageError(f"--fixed-k runs a parameter sweep; drop {stray}" if sweep
                         else f"only a --fixed-k sweep reads {stray}")
    train, test = (None if s[key] is None else _parse_window(s[key], _flag(key))
                   for key in ("train_window", "test_window"))
    if not Path(s["in"]).is_dir():
        raise UsageError(f"--in: not a directory: {s['in']}")
    if not any(Path(s["in"]).glob("*.csv")):
        raise UsageError(f"--in: no CSV files in {s['in']}")
    # label -> strategy, settled before any data is read; a --fixed-k sweep has one
    # ControlParams per k and never optimizes
    if sweep:
        alpha, beta = s["fixed_alpha"], s["fixed_beta"]
        for k in _parse_floats(s["fixed_k"], "--fixed-k"):
            params = ControlParams(s["i0"], k, alpha, beta)
            label = f"sls_k{k:g}" if alpha == beta == 1.0 else f"gsls_k{k:g}_a{alpha:g}_b{beta:g}"
            if label in strategies:  # labels show k to 6 digits, so two values may share one
                other = strategies[label].k
                raise UsageError(f"duplicate strategy {label} in --fixed-k" if other == k else
                                 f"--fixed-k {other!r} and {k!r} share the strategy label {label}")
            strategies[label] = params
    else:
        SplitSpec(*train, *test)  # checks that the training window comes first
        grid, objective, policy = _grid(s), _objective(s), _policy(s)
        strategies[f"{objective.value}_{policy_label(policy)}"] = partial(
            _search, policy=policy, grid=grid, objective=objective, i0=s["i0"])
    universe, load_failures = load_universe(s["in"], skip_errors=s["skip_errors"])
    out_dir = Path(s["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    runs, summary_rows = {}, []
    reports = _run_stages(universe, strategies.values(), test, None if sweep else train,
                          s["dt"], s["horizon"], s["skip_errors"], s["truncate"])
    for label, (report, failures) in zip(strategies, reports):
        # lazy rows: each series' gains become floats only while report.json is written
        runs[label] = {"failures": failures, "report": report_to_dict(report, rows=iter)}
        summary_rows.append((label, report.summary))
        write_daily_csv(report, out_dir / (f"daily_aggregate_{label}.csv" if sweep
                                           else "daily_aggregate.csv"))
    write_summary_csv(summary_rows, out_dir / "summary.csv")
    payload = {"version": __version__, "config": s, "load_failures": load_failures}
    payload.update({"strategies": runs} if sweep else next(iter(runs.values())))
    _write_json(payload, str(out_dir / "report.json"))


def _read_report(s: dict) -> dict:
    """The report of the backtest JSON at --in; a --fixed-k sweep needs --strategy."""
    in_path, label = s["in"], s["strategy"]
    try:
        doc = json.loads(Path(in_path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{in_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{in_path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{in_path}: expected a JSON object")
    runs = doc.get("strategies")
    if runs is None:
        if label is not None:
            raise UsageError(f"--strategy: {in_path} is not a --fixed-k sweep report")
        body = doc.get("report", doc)
    elif not isinstance(runs, dict) or not runs:
        raise DataError(f"{in_path}: malformed strategies")
    elif label not in runs:
        given = "" if label is None else f"it holds no strategy {label!r}; "
        raise UsageError(f"{in_path} is a --fixed-k sweep report; {given}pick --strategy from: "
                         + ", ".join(runs))
    else:
        body = runs[label].get("report") if isinstance(runs[label], dict) else None
    if not isinstance(body, dict):
        raise DataError(f"{in_path}: malformed report")
    return body


REPORT = [("in", str, None, "backtest report JSON"),
          ("strategy", str, None, "label of the strategies entry to read from a --fixed-k sweep")]
SHAPE = [
    ("alpha", float, 1.0, "short-side investment scale (default 1)"),
    ("beta", float, 1.0, "short-side feedback scale (default 1)"), I0,
]
DENSITY = [*REPORT, ("bins", int, 50, "histogram bins (default 50)"), OUT]


def _floats(values) -> list[float] | None:
    """A JSON list of numbers (bools excluded) as floats; None for anything else."""
    numeric = isinstance(values, list) and all(type(v) in (int, float) for v in values)
    try:
        return list(map(float, values)) if numeric else None
    except OverflowError:  # an integer beyond the float range
        return None


def _plot_density(s: dict) -> None:
    _need(s, "in")
    _require("--bins", s["bins"], s["bins"] >= 1, ">= 1")
    rows = _read_report(s).get("series")
    if not rows:
        raise DataError(f"{s['in']}: report contains no per-series gains")
    try:
        finals = _floats([row["final_gain"] for row in rows])
    except (KeyError, TypeError):
        finals = None
    if finals is None or not np.all(np.isfinite(finals)):
        raise DataError(f"{s['in']}: every series row needs a finite numeric final_gain")
    lo, hi = min(finals), max(finals)
    span = f"{s['in']}: final gains from {lo!r} to {hi!r} span"
    if hi - lo == np.inf:  # numpy's bin edges would overflow
        raise DataError(f"{span} past the floats")
    try:  # numpy's ValueError: two bin edges round to one float
        counts, edges = np.histogram(finals, bins=s["bins"])
        width = np.diff(edges)
        with np.errstate(over="ignore"):  # in a wide bin count * width may pass the floats
            mass = counts.sum() * width
        with np.errstate(over="raise"):  # a bin too narrow for its density
            density = counts / mass
        wide = mass == np.inf  # there counts / mass reads 0, so divide one factor at a time
        density[wide] = counts[wide] / counts.sum() / width[wide]
    except (ValueError, FloatingPointError):
        raise DataError(f"{span} too little for --bins {s['bins']}") from None
    out_rows = zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist(), density.tolist())
    write_csv(["bin_left", "bin_right", "count", "density"], out_rows, s["out"])


def _plot_daily(s: dict) -> None:
    _need(s, "in")
    daily = _read_report(s).get("daily")
    if not daily:
        raise DataError(f"{s['in']}: report contains no daily aggregates")
    columns = [_floats(daily.get(key)) if isinstance(daily, dict) else None
               for key in DAILY_COLUMNS]
    if None in columns or len(set(map(len, columns))) != 1:
        raise DataError(f"{s['in']}: daily {', '.join(DAILY_COLUMNS)} must be equal-length "
                        "lists of numbers")
    write_daily_columns(columns, s["out"])


GAIN_VS_Q = [
    ("k", str, None, "comma-separated k values"), *SHAPE,
    ("q_min", float, 0.2, "smallest price ratio (default 0.2)"),
    ("q_max", float, 5.0, "largest price ratio (default 5.0)"),
    ("q_n", int, 101, "ratio sample count (default 101)"),
    OUT,
]


def _plot_gain_vs_q(s: dict) -> None:
    _need(s, "k")
    q_min, q_max = s["q_min"], s["q_max"]
    if not (0.0 < q_min <= q_max < np.inf):
        raise UsageError(f"need 0 < --q-min <= --q-max, got {q_min}, {q_max}")
    _require("--q-n", s["q_n"], s["q_n"] >= 1, ">= 1")
    qs, ks = np.linspace(q_min, q_max, s["q_n"]), _parse_floats(s["k"], "--k")
    with np.errstate(over="ignore", invalid="ignore"):  # a gain past the floats reads inf
        gains = np.array([gain_total_closed(ControlParams(s["i0"], k, s["alpha"], s["beta"]), qs)
                          for k in ks])
    _check_no_nan(ks, gains)
    out_rows = [(k, q, g) for k, row in zip(ks, gains.tolist()) for q, g in zip(qs.tolist(), row)]
    write_csv(["k", "q", "gain"], out_rows, s["out"])


def _check_no_nan(ks, table: np.ndarray) -> None:
    """UsageError naming the first k whose row of table, one row per k, holds a NaN."""
    nan = np.isnan(table).any(axis=1)
    if nan.any():
        raise UsageError(f"the closed forms read NaN at k {ks[int(np.argmax(nan))]!r}")


GAIN_VS_K = [
    MU, SIGMA, DT, HORIZON, *SHAPE,
    ("target_fixed", float, 0.0, "target gain of the bias and mse columns (default 0)"),
    *GRID, OUT,
]


def _plot_gain_vs_k(s: dict) -> None:
    _need(s, "mu", "sigma")
    grid = _grid(s)
    gp = GbmParams(s["mu"], s["sigma"], s["dt"])
    FixedTarget(s["target_fixed"])  # a NaN or infinite target would fill the bias column
    t, k = s["horizon"], np.array(grid.k_values)
    # the k axis, scored in one evaluation as grid_search scores a grid, under its errstate;
    # a bad i0, alpha or beta fails here
    points = ControlParams(s["i0"], k, s["alpha"], s["beta"])
    with np.errstate(over="ignore", invalid="ignore"):
        mean, var = expected_gain(points, gp, t), gain_variance(points, gp, t)
        bias = mean - s["target_fixed"]
        columns = [c.tolist() for c in (k, mean, var, bias, bias * bias + var)]
    _check_no_nan(grid.k_values, np.transpose(columns))
    write_csv(["k", "expected_gain", "gain_variance", "bias", "mse"], zip(*columns), s["out"])


# plotdata kind -> (settings rows, command)
PLOTS = {
    "density": (DENSITY, _plot_density),
    "daily": ([*REPORT, OUT], _plot_daily),
    "gain-vs-q": (GAIN_VS_Q, _plot_gain_vs_q),
    "gain-vs-k": (GAIN_VS_K, _plot_gain_vs_k),
}
KIND = ("kind", tuple(PLOTS), None, "what to emit")
# plotdata's parser takes every kind's flags; its rows and command are the chosen kind's
PLOTDATA = list({row[0]: row for rows, _ in PLOTS.values() for row in [KIND, *rows]}.values())

# subcommand -> (help, settings rows, command)
COMMANDS = {
    "simulate": ("write a universe of simulated GBM series", SIMULATE, _cmd_simulate),
    "estimate": ("fit GBM drift and volatility to a series", ESTIMATE, _cmd_estimate),
    "optimize": ("grid-search control parameters", OPTIMIZE, _cmd_optimize),
    "backtest": ("estimate, optimize, and trade a universe", BACKTEST, _cmd_backtest),
    "plotdata": ("emit plot-ready CSV data", PLOTDATA, None),
}


def _plot_kind(args: argparse.Namespace, config: dict[str, str]):
    """The rows and command of the chosen --kind; another kind's flags are an error."""
    kind = _lookup(args, config, KIND)
    _need({"kind": kind}, "kind")
    rows = [KIND, *PLOTS[kind][0]]
    keys = {row[0] for row in rows} | {"command", "config"}
    stray = [_flag(key) for key, value in vars(args).items()
             if value is not None and key not in keys]
    if stray:
        raise UsageError(f"--kind {kind} takes no {', '.join(stray)}")
    return rows, PLOTS[kind][1]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsls",
        description="Simultaneous long-short feedback trading toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, rows, _) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for key, kind, _, help_ in rows:
            how = ({"action": "store_true", "default": None} if kind is bool
                   else {"choices": kind} if isinstance(kind, tuple) else {"type": kind})
            p.add_argument(_flag(key), help=help_, **how)
        p.add_argument("--config", help="flat key = value settings file")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        config = _load_config(args.config) if args.config else {}
        _, rows, command = COMMANDS[args.command]
        if command is None:
            rows, command = _plot_kind(args, config)
        command(_resolve(args, config, rows))
    except (DataError, NoFiniteObjectiveError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
