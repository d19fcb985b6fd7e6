"""Reference computations the benchmark checks the program's outputs against.

Everything here is written again from the formulas, with numpy alone; no
function of gsls is called.  Each check returns a list of mismatch messages,
empty when the outputs agree.  Nothing is compared with a stored copy of an
earlier output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

DT = 1.0 / 252
I0 = 1.0
GRID = np.linspace(0.5, 5.0, 10)    # the program's default grid, per parameter
REL = 1e-9
SE_BAND = 6.0                       # standard errors allowed on a sample mean


def close(a, b, rel: float = REL, scale=1.0) -> np.ndarray:
    """|a - b| <= rel * max(scale, |a|, |b|), elementwise."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b) <= rel * np.maximum(np.maximum(np.abs(a), np.abs(b)), scale)


def mle(prices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise GBM MLE: (mu_hat, sigma_hat, size of the terms in mu_hat)."""
    r = np.diff(np.log(prices), axis=-1)
    rbar = r.mean(axis=-1)
    s2 = ((r - rbar[..., None]) ** 2).mean(axis=-1) / DT
    return rbar / DT + 0.5 * s2, np.sqrt(s2), np.abs(rbar / DT) + 0.5 * s2


def lognormal_objective(mu: float, sigma: float, t: float, target: float):
    """(points, MSE) over the default grid from the log-normal gain moments.

    E[g] = (i0/k)(e^(k mu t) - 1) + (alpha i0/(beta k))(e^(-beta k mu t) - 1);
    Var[g] sums the two books' log-normal variances and twice their
    covariance, each scaled by its book's i0/k factor.
    """
    k, a, b = (v.ravel() for v in np.meshgrid(GRID, GRID, GRID, indexing="ij"))
    ks = b * k
    c = a / b
    s2 = sigma * sigma
    mean = I0 / k * np.expm1(k * mu * t) + a * I0 / ks * np.expm1(-ks * mu * t)
    var = (I0 / k) ** 2 * (
        np.exp(2 * k * mu * t) * np.expm1(k * k * s2 * t)
        + c * c * np.exp(-2 * ks * mu * t) * np.expm1(ks * ks * s2 * t)
        + 2 * c * np.exp((k - ks) * mu * t) * np.expm1(-k * ks * s2 * t))
    return np.stack([k, a, b], axis=1), (mean - target) ** 2 + var


def gain_paths(prices: np.ndarray, k, alpha, beta) -> np.ndarray:
    """Total gain along each row of prices by g[n+1] = g[n] + r_n * I[n].

    k, alpha and beta are scalars or one value per row.  The long book holds
    I_L = i0 + k g_L and the short book I_S = -alpha i0 - beta k g_S.
    """
    prices = np.atleast_2d(prices)
    k, alpha, beta = (np.asarray(v, dtype=float) for v in (k, alpha, beta))
    g_long = np.zeros(prices.shape[0])
    g_short = np.zeros(prices.shape[0])
    out = np.zeros(prices.shape)
    for n in range(prices.shape[1] - 1):
        r = (prices[:, n + 1] - prices[:, n]) / prices[:, n]
        inv_long = I0 + k * g_long
        inv_short = -alpha * I0 - beta * k * g_short
        g_long = g_long + r * inv_long
        g_short = g_short + r * inv_short
        out[:, n + 1] = g_long + g_short
    return out


def discrete_moments(mu, sigma, dt, steps, k, alpha, beta) -> tuple[float, float]:
    """Exact mean and variance of the executor's final gain on GBM paths.

    Simple returns r = e^X - 1 with X ~ N((mu - sigma^2/2) dt, sigma^2 dt) are
    independent, so each book's investment factor is a product of N
    independent factors with E[r] = e^(mu dt) - 1 and
    E[r^2] = e^((2 mu + sigma^2) dt) - 2 e^(mu dt) + 1.
    """
    m1 = math.expm1(mu * dt)
    m2 = math.exp((2 * mu + sigma * sigma) * dt) - 2 * math.exp(mu * dt) + 1
    ks = beta * k
    wl, ws = I0 / k, alpha * I0 / ks            # g = wl (L - 1) + ws (S - 1)
    el, es = (1 + k * m1) ** steps, (1 - ks * m1) ** steps
    ell = (1 + 2 * k * m1 + k * k * m2) ** steps
    ess = (1 - 2 * ks * m1 + ks * ks * m2) ** steps
    els = (1 + (k - ks) * m1 - k * ks * m2) ** steps
    mean = wl * (el - 1) + ws * (es - 1)
    var = wl * wl * (ell - el * el) + ws * ws * (ess - es * es) + 2 * wl * ws * (els - el * es)
    return mean, var


def _window(dates: list[str], window: str) -> slice:
    lo, hi = window.split(":")
    idx = [i for i, d in enumerate(dates) if lo <= d <= hi]
    return slice(idx[0], idx[-1] + 1)


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _check_report(report: dict, label: str, out_dir: Path, daily_name: str,
                  summary_rows: dict, where: str) -> list[str]:
    """Daily and quartile aggregates recomputed from the per-series gains."""
    errors = []
    gains = np.array([s["gains"] for s in report["series"]], dtype=float)
    finals = gains[:, -1]
    mean = gains.mean(axis=0)
    q025, q50, q975 = np.quantile(gains, [0.025, 0.5, 0.975], axis=0)
    expect = {"mean": mean, "q025": q025, "q50": q50, "q975": q975}
    rows = _read_csv(out_dir / daily_name)
    if rows[0] != ["day", "mean", "q025", "q50", "q975"] or len(rows) != gains.shape[1] + 1:
        errors.append(f"{where}: {daily_name} has the wrong header or {len(rows) - 1} days")
    else:
        table = np.array(rows[1:], dtype=float)
        for col, key in enumerate(("mean", "q025", "q50", "q975"), start=1):
            for name, got in ((daily_name, table[:, col]), ("report daily", report["daily"][key])):
                bad = ~close(got, expect[key], scale=1e-3)
                if bad.any():
                    day = int(np.argmax(bad))
                    errors.append(f"{where}: {name} {key} day {day}: {float(np.asarray(got)[day])!r} "
                                  f"!= recomputed {float(expect[key][day])!r}")
    q1, med, q3 = np.quantile(finals, [0.25, 0.5, 0.75])
    summary = {"q1": q1, "median": med, "mean": finals.mean(), "q3": q3, "iqr": q3 - q1}
    row = summary_rows.get(label)
    if row is None:
        errors.append(f"{where}: summary.csv has no row {label!r}")
    for i, key in enumerate(("q1", "median", "mean", "q3", "iqr")):
        for name, got in (("summary.csv", None if row is None else float(row[i])),
                          ("report summary", report["summary"][key])):
            if got is not None and not close(got, summary[key], scale=1e-3):
                errors.append(f"{where}: {name} {key} {got!r} != recomputed {float(summary[key])!r}")
    return errors


def _gain_errors(report: dict, prices: np.ndarray, k, alpha, beta, where: str) -> list[str]:
    got = np.array([s["gains"] for s in report["series"]], dtype=float)
    ref = gain_paths(prices, k, alpha, beta)
    if got.shape != ref.shape:
        return [f"{where}: gain paths of shape {got.shape}, expected {ref.shape}"]
    bad = ~close(got, ref)
    if not bad.any():
        return []
    i, n = np.argwhere(bad)[0]
    return [f"{where}: {int(bad.any(axis=1).sum())} series off the recurrence, first "
            f"{report['series'][i]['symbol']} day {n}: {float(got[i, n])!r} != {float(ref[i, n])!r}"]


def _summary_rows(out_dir: Path) -> dict:
    rows = _read_csv(out_dir / "summary.csv")
    return {r[0]: r[1:] for r in rows[1:]}


def _load(inputs: Path):
    prices = np.load(inputs / "prices.npy")
    dates = json.loads((inputs / "dates.json").read_text())
    symbols = [f"s{i:04d}" for i in range(len(prices))]
    return prices, dates, symbols


def check_backtest(inputs: Path, out_dir: Path, spec: dict, target: float) -> tuple[int, int, list[str]]:
    """(attempted, failed, mismatches) for one optimized backtest output."""
    prices, dates, symbols = _load(inputs)
    doc = json.loads((out_dir / "report.json").read_text())
    failed = len(doc["load_failures"]) + len(doc["failures"])
    report = doc["report"]
    keep = [symbols.index(s["symbol"]) for s in report["series"]]
    errors = []
    if len(keep) + failed != len(symbols):
        errors.append(f"{len(keep)} series and {failed} failures for {len(symbols)} files")
    train = prices[keep][:, _window(dates, spec["train"])]
    test = prices[keep][:, _window(dates, spec["test"])]
    horizon = (test.shape[1] - 1) * DT

    mu, sigma, scale = mle(train)
    field = lambda name: np.array([s[name] for s in report["series"]], dtype=float)
    for name, ref, sc in (("mu_hat", mu, scale), ("sigma_hat", sigma, sigma)):
        bad = ~close(field(name), ref, scale=sc)
        if bad.any():
            i = int(np.argmax(bad))
            errors.append(f"{report['series'][i]['symbol']}: {name} {float(field(name)[i])!r} "
                          f"!= MLE {float(ref[i])!r} ({int(bad.sum())} series)")

    wrong = []
    for i, s in enumerate(report["series"]):
        points, values = lognormal_objective(s["mu_hat"], s["sigma_hat"], horizon, target)
        if not np.all(np.isfinite(values)):
            errors.append(f"{s['symbol']}: {int((~np.isfinite(values)).sum())} grid values not finite")
            continue
        best = values.min()
        at = np.flatnonzero((points == (s["k"], s["alpha"], s["beta"])).all(axis=1))
        if s["target"] != target:
            wrong.append(f"{s['symbol']}: target {s['target']!r} != {target!r}")
        elif at.size != 1:
            wrong.append(f"{s['symbol']}: chosen point {(s['k'], s['alpha'], s['beta'])} not on the grid")
        elif not (close(values[at[0]], best) and close(s["objective_value"], best)):
            wrong.append(f"{s['symbol']}: chosen point {(s['k'], s['alpha'], s['beta'])} scores "
                         f"{float(values[at[0]])!r} (report {s['objective_value']!r}), grid minimum {float(best)!r}")
    if wrong:
        errors.append(f"{len(wrong)} series not at the grid minimum; first: {wrong[0]}")

    errors += _gain_errors(report, test, field("k"), field("alpha"), field("beta"), "backtest")
    errors += _check_report(report, f"mse_fixed{target:g}", out_dir, "daily_aggregate.csv",
                            _summary_rows(out_dir), "backtest")
    return len(symbols), failed, errors


def check_sweep(inputs: Path, out_dir: Path, spec: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, mismatches) for one fixed-k sweep output."""
    prices, dates, symbols = _load(inputs)
    doc = json.loads((out_dir / "report.json").read_text())
    test = prices[:, _window(dates, spec["test"])]
    summary_rows = _summary_rows(out_dir)
    errors = []
    attempted, failed = 0, 0
    for k in spec["fixed_k"]:
        label = f"sls_k{k:g}"
        attempted += len(symbols)
        entry = doc["strategies"].get(label)
        if entry is None:
            errors.append(f"report.json has no strategy {label}")
            failed += len(symbols)
            continue
        failed += len(doc["load_failures"]) + len(entry["failures"])
        report = entry["report"]
        keep = [symbols.index(s["symbol"]) for s in report["series"]]
        if len(keep) != len(symbols) - len(doc["load_failures"]) - len(entry["failures"]):
            errors.append(f"{label}: {len(keep)} series for {len(symbols)} files")
        if any((s["k"], s["alpha"], s["beta"]) != (k, 1.0, 1.0) for s in report["series"]):
            errors.append(f"{label}: a series traded other parameters than k={k:g}")
        errors += _gain_errors(report, test[keep], k, 1.0, 1.0, label)
        errors += _check_report(report, label, out_dir, f"daily_aggregate_{label}.csv",
                                summary_rows, label)
    return attempted, failed, errors


def check_mc(pair: dict, dt: float, steps: int, p0: float, paths: np.ndarray,
             outputs: list[np.ndarray]) -> list[str]:
    """Final gains of one path batch, one array per parameter set of the pair."""
    errors = []
    where = f"mc mu={pair['mu']:.4g} sigma={pair['sigma']:.4g}"
    if paths.shape[1] != steps + 1 or not np.all(paths[:, 0] == p0):
        return [f"{where}: paths of shape {paths.shape} or a first price other than {p0}"]
    for s, final in zip(pair["sets"], outputs):
        ref = gain_paths(paths, s["k"], s["alpha"], s["beta"])[:, -1]
        bad = ~close(final, ref)
        if bad.any():
            i = int(np.argmax(bad))
            errors.append(f"{where} {s}: {int(bad.sum())} final gains off the recurrence, "
                          f"path {i}: {float(final[i])!r} != {float(ref[i])!r}")
        mean, var = discrete_moments(pair["mu"], pair["sigma"], dt, steps,
                                     s["k"], s["alpha"], s["beta"])
        se = math.sqrt(var / len(final))
        if not abs(final.mean() - mean) <= SE_BAND * se:
            errors.append(f"{where} {s}: sample mean {float(final.mean())!r} is "
                          f"{(final.mean() - mean) / se:+.2f} standard errors from {mean!r}")
    return errors
