"""The parts of the benchmark that run in a fresh interpreter of their own.

    child.py import                     time one ``import gsls``
    child.py mc INPUTS [--trace]        one Monte Carlo round, then its checks
    child.py cli -- ARGV...             one traced ``gsls.cli.main(ARGV)``

Each prints one JSON object on stdout.  ``gsls`` must be importable from the
``src`` directory named by PYTHONPATH.  Nothing imports numpy before the
timed ``import gsls``, which therefore includes it.  The traced modes wrap module
attributes of gsls from here, so the package itself carries no timers.
"""

from __future__ import annotations

import inspect
import json
import resource
import sys
import time
from pathlib import Path


def _import_gsls() -> float:
    t0 = time.perf_counter()
    import gsls
    elapsed = time.perf_counter() - t0
    expected = Path.cwd() / "src" / "gsls"
    if Path(gsls.__file__).resolve().parent != expected.resolve():
        raise SystemExit(f"imported gsls from {gsls.__file__}, not from {expected}")
    return elapsed


class Tracer:
    """Busy time, self time and call counts per wrapped function.

    Self time is busy time minus the time of wrapped calls made inside it.
    """

    def __init__(self):
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[float] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr by a timed wrapper; count(bound args, result)
        returns extra {counter: amount} and runs outside the timed span."""
        fn = getattr(owner, attr)
        signature = inspect.signature(fn)
        self.busy.setdefault(name, 0.0)
        self.self_time.setdefault(name, 0.0)
        self.calls.setdefault(name, 0)

        def traced(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                inner = self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
                self.busy[name] += elapsed
                self.self_time[name] += elapsed - inner
                self.calls[name] += 1
            if count is not None:
                bound = signature.bind(*args, **kwargs).arguments
                for key, amount in count(bound, result).items():
                    self.counts[key] = self.counts.get(key, 0) + amount
            return result

        setattr(owner, attr, traced)


def _exec_counts(bound, trace) -> dict:
    import numpy as np

    p = np.asarray(bound["prices"])
    arrays = [v for k, v in vars(trace).items() if k != "prices" and isinstance(v, np.ndarray)]
    return {"exec_steps": p.size - p.size // p.shape[-1],
            "exec_out_bytes": sum(a.nbytes for a in arrays)}


def _simulate_counts(bound, _paths) -> dict:
    return {"simulate_steps": bound["steps"] * bound["n_paths"]}


def _grid_counts(bound, _result) -> dict:
    return {"grid_points": bound["grid"].size}


def _load_counts(_bound, result) -> dict:
    series, failures = result
    return {"load_files": len(series) + len(failures)}


def _per_s(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer figures by name; zero for a layer the workload never calls."""
    busy = lambda *names: sum(tr.busy.get(n, 0.0) for n in names)
    calls = lambda n: tr.calls.get(n, 0)
    c = tr.counts
    return {
        "optimizer.grid_s": busy("grid_search"),
        "optimizer.grid_calls": calls("grid_search"),
        "optimizer.grid_points": c.get("grid_points", 0),
        "optimizer.grid_points_per_s": _per_s(c.get("grid_points", 0), busy("grid_search")),
        "backtest.load_s": busy("load_universe"),
        "backtest.load_files": c.get("load_files", 0),
        "backtest.window_s": busy("window"),
        "backtest.window_calls": calls("window"),
        "backtest.aggregate_s": busy("aggregate"),
        "backtest.report_dict_s": busy("report_to_dict"),
        "backtest.csv_s": busy("write_daily_csv", "write_summary_csv"),
        "cli.self_s": tr.self_time.get("main", 0.0),
        "strategy.exec_s": busy("run_strategy"),
        "strategy.exec_calls": calls("run_strategy"),
        "strategy.exec_steps": c.get("exec_steps", 0),
        "strategy.exec_steps_per_s": _per_s(c.get("exec_steps", 0), busy("run_strategy")),
        "strategy.exec_out_mb": c.get("exec_out_bytes", 0) / 1e6,
        "gbm.simulate_s": busy("simulate_paths"),
        "gbm.simulate_steps_per_s": _per_s(c.get("simulate_steps", 0), busy("simulate_paths")),
        "gbm.moments_s": busy("expected_gain", "gain_variance"),
        "gbm.mle_s": busy("estimate_mle"),
        "gbm.mle_calls": calls("estimate_mle"),
    }


def mc_round(inputs: Path, trace: bool) -> dict:
    import_s = _import_gsls()
    from gsls import gbm, strategy
    import check

    tracer = Tracer()
    if trace:
        tracer.wrap(gbm, "simulate_paths", "simulate_paths", _simulate_counts)
        tracer.wrap(strategy, "run_strategy", "run_strategy", _exec_counts)
        tracer.wrap(gbm, "expected_gain", "expected_gain")
        tracer.wrap(gbm, "gain_variance", "gain_variance")
    doc = json.loads((inputs / "mc.json").read_text())
    steps, t = doc["steps"], doc["steps"] * doc["dt"]
    batches = []
    t0 = time.perf_counter()
    for pair in doc["pairs"]:
        gp = gbm.GbmParams(pair["mu"], pair["sigma"], doc["dt"])
        paths = gbm.simulate_paths(gp, doc["p0"], steps, doc["paths"], pair["path_seed"])
        finals = []
        for s in pair["sets"]:
            cp = strategy.ControlParams(1.0, s["k"], s["alpha"], s["beta"])
            final = strategy.run_strategy(cp, paths).final_gain.copy()
            # the README quick start: sample mean against the GBM moments
            _ = (final.mean(), gbm.expected_gain(cp, gp, t), gbm.gain_variance(cp, gp, t))
            finals.append(final)
        batches.append((pair, paths, finals))
    wall = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors = []
    for pair, paths, finals in batches:
        errors += check.check_mc(pair, doc["dt"], steps, doc["p0"], paths, finals)
    out = {"wall_s": wall, "peak_rss_mb": rss_mb, "import_s": import_s, "errors": errors,
           "ops": sum(len(pair["sets"]) for pair in doc["pairs"]),
           "series": doc["paths"] * sum(len(pair["sets"]) for pair in doc["pairs"])}
    if trace:
        out["layers"] = layer_metrics(tracer)
    return out


def traced_cli(argv: list[str]) -> dict:
    import_s = _import_gsls()
    import gsls.backtest as backtest
    import gsls.cli as cli

    tracer = Tracer()
    tracer.wrap(cli, "load_universe", "load_universe", _load_counts)
    tracer.wrap(backtest, "estimate_mle", "estimate_mle")
    tracer.wrap(backtest, "grid_search", "grid_search", _grid_counts)
    tracer.wrap(backtest, "run_strategy", "run_strategy", _exec_counts)
    tracer.wrap(backtest, "aggregate", "aggregate")
    tracer.wrap(backtest.PriceSeries, "window", "window")
    tracer.wrap(cli, "report_to_dict", "report_to_dict")
    tracer.wrap(cli, "write_daily_csv", "write_daily_csv")
    tracer.wrap(cli, "write_summary_csv", "write_summary_csv")
    tracer.wrap(cli, "main", "main")
    rc = cli.main(argv)
    return {"rc": rc, "import_s": import_s, "layers": layer_metrics(tracer)}


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode == "import":
        out = {"import_s": _import_gsls()}
    elif mode == "mc" and len(argv) in (2, 3):
        out = mc_round(Path(argv[1]), trace=argv[2:] == ["--trace"])
    elif mode == "cli" and argv[1:2] == ["--"]:
        out = traced_cli(argv[2:])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
