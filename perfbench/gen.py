"""Seeded inputs for the benchmark workloads, made with numpy alone.

Nothing here imports gsls, so a change to ``gsls.gbm.simulate_paths`` cannot
change the inputs of the command-line workloads.  Every input is a pure
function of the workload name and the seed; a finished input directory is
cached under ``_work/inputs``, keyed by the seed and the workload's settings
below, and reused by later runs.

Prices are GBM on the exact log-normal step

    p[n+1] = p[n] * exp((mu - sigma**2/2)*dt + sigma*sqrt(dt)*Z_n),

written with ``repr`` so that parsing the CSV gives back the same doubles.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from datetime import date, timedelta
from pathlib import Path

import numpy as np

DT = 1.0 / 252
P0 = 100.0

# The ROADMAP baseline universe: 505 consecutive calendar days from
# 2016-01-01, the first 252 for training and the last 253 for trading.
BACKTEST = {
    "count": 500, "prices": 505, "mu": 0.1, "sigma": 0.2,
    "start": "2016-01-01", "weekdays": False,
    "train": "2016-01-01:2016-09-08", "test": "2016-09-09:2017-05-19",
}
# About ten years of weekday prices; the sweep trades 2008 onwards.
SWEEP = {
    "count": 200, "prices": 2521, "mu": 0.08, "sigma": 0.2,
    "start": "2007-01-01", "weekdays": True,
    "train": "2007-01-01:2007-12-31", "test": "2008-01-01:2017-12-31",
    "fixed_k": [0.5, 1.0, 2.0, 3.0, 4.0],
}
# Monte Carlo: PAIRS (mu, sigma) batches of PATHS paths, each traded with
# SETS (k, alpha, beta) sets.  beta*k*sigma stays at or below BKS_MAX, where
# the sample mean of the final gain is still close to normal at this batch
# size, so the exact-mean check holds on every seed.
MC = {"pairs": 4, "sets": 3, "paths": 4000, "steps": 252, "bks_max": 1.0}

_TAGS = {"backtest-mse-uniform": 1, "sweep-fixedk-long": 2, "montecarlo-gbm": 3}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([_TAGS[workload], seed % 2**63])


def _dates(spec: dict) -> list[str]:
    day = date.fromisoformat(spec["start"])
    out = []
    while len(out) < spec["prices"]:
        if not spec["weekdays"] or day.weekday() < 5:
            out.append(day.isoformat())
        day += timedelta(days=1)
    return out


def gbm_prices(rng: np.random.Generator, count: int, n_prices: int,
               mu: float, sigma: float) -> np.ndarray:
    """(count, n_prices) GBM paths from P0 on the exact log-normal step."""
    z = rng.standard_normal((count, n_prices - 1))
    steps = (mu - 0.5 * sigma * sigma) * DT + sigma * np.sqrt(DT) * z
    out = np.empty((count, n_prices))
    out[:, 0] = P0
    out[:, 1:] = P0 * np.exp(np.cumsum(steps, axis=1))
    return out


def _write_universe(root: Path, spec: dict, prices: np.ndarray) -> None:
    dates = _dates(spec)
    for i, row in enumerate(prices):
        lines = ["date,close"]
        lines.extend(f"{d},{p!r}" for d, p in zip(dates, row.tolist()))
        (root / f"s{i:04d}.csv").write_text("\n".join(lines) + "\n")


def mc_sets(rng: np.random.Generator) -> list[dict]:
    """One dict per (mu, sigma) pair with its path seed and parameter sets."""
    pairs = []
    for j in range(MC["pairs"]):
        mu = float(rng.uniform(-0.1, 0.3))
        sigma = float(rng.uniform(0.1, 0.35))
        sets = []
        while len(sets) < MC["sets"]:
            k, alpha, beta = (float(v) for v in rng.uniform([0.5, 0.5, 0.5], [3.0, 2.0, 2.0]))
            if beta * k * sigma <= MC["bks_max"]:
                sets.append({"k": k, "alpha": alpha, "beta": beta})
        pairs.append({"mu": mu, "sigma": sigma, "path_seed": [int(rng.integers(2**31)), j],
                      "sets": sets})
    return pairs


def make_inputs(work: Path, workload: str, seed: int) -> Path:
    """Directory holding the inputs of (workload, seed), made on first use.

    CSV workloads get ``universe/*.csv`` and ``prices.npy``; the Monte Carlo
    workload gets ``mc.json``.
    """
    spec = {"backtest-mse-uniform": BACKTEST, "sweep-fixedk-long": SWEEP, "montecarlo-gbm": MC}[workload]
    key = hashlib.sha256(json.dumps([spec, P0, DT], sort_keys=True).encode()).hexdigest()[:12]
    root = work / "inputs" / f"{workload}-{key}-{seed}"
    if (root / "done").exists():
        return root
    if root.exists():
        shutil.rmtree(root)
    (root / "universe").mkdir(parents=True)
    rng = _rng(workload, seed)
    if workload == "montecarlo-gbm":
        doc = {"steps": MC["steps"], "paths": MC["paths"], "p0": P0, "dt": DT,
               "pairs": mc_sets(rng)}
        (root / "mc.json").write_text(json.dumps(doc, indent=1))
    else:
        prices = gbm_prices(rng, spec["count"], spec["prices"], spec["mu"], spec["sigma"])
        _write_universe(root / "universe", spec, prices)
        np.save(root / "prices.npy", prices)
        (root / "dates.json").write_text(json.dumps(_dates(spec)))
    (root / "done").write_text("")
    _prune(root.parent, keep=root, prefix=f"{workload}-", limit=4)
    return root


def _prune(parent: Path, keep: Path, prefix: str, limit: int) -> None:
    """Keep at most `limit` cached inputs per workload, newest first."""
    cached = sorted((p for p in parent.iterdir() if p.name.startswith(prefix) and p != keep),
                    key=lambda p: p.stat().st_mtime, reverse=True)
    for old in cached[limit - 1:]:
        shutil.rmtree(old, ignore_errors=True)
