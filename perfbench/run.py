"""Benchmark of the gsls package: three workloads with output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the package in ``src/``.
The inputs are made from the seed by ``gen.py`` and cached under
``perfbench/_work``.  A run repeats whole rounds of its workload, each in a
fresh process, until the next round would end after S seconds, and checks
the outputs against ``check.py``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics (medians over the run) with ``--trace 0``, and the
per-layer metrics of one extra traced round with ``--trace 1``.  A mismatch
is printed to standard error and the run exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import check
import gen

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
CHILD = HERE / "child.py"
WORKLOADS = ("backtest-mse-uniform", "sweep-fixedk-long", "montecarlo-gbm")
TARGET = 0.15
IMPORTS = 9                  # fresh interpreters timed for setup_s, after one warm-up
CHILD_TIMEOUT_S = 170

UNITS = {"_s": "s", "_calls": "count", "_points": "count", "_files": "count",
         "_steps": "count", "_per_s": "1/s", "_mb": "MB", "_mb_per_s": "MB/s", "_pct": "%"}


class RunError(Exception):
    """The program or a check did not behave as the benchmark requires."""


def metric(value: float, name: str) -> dict:
    """{value, unit}, the unit read from the longest matching name suffix."""
    return {"value": value, "unit": UNITS[max((s for s in UNITS if name.endswith(s)), key=len)]}


def spawn(argv: list[str], env: dict) -> tuple[float, float, str]:
    """Run argv to its end: (wall seconds, peak RSS in MB, stdout)."""
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "child.out", "w+") as out, open(WORK / "child.err", "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if proc.returncode != 0:
        raise RunError(f"{' '.join(argv[1:4])}... exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return wall, usage.ru_maxrss / 1024, stdout


def child(mode: list[str], env: dict) -> tuple[float, dict]:
    wall, _, stdout = spawn([sys.executable, str(CHILD), *mode], env)
    return wall, json.loads(stdout.strip().splitlines()[-1])


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cli_argv(workload: str, inputs: Path, out: Path) -> list[str]:
    spec = gen.BACKTEST if workload == "backtest-mse-uniform" else gen.SWEEP
    argv = ["backtest", "--in", str(inputs / "universe"), "--out", str(out),
            "--train-window", spec["train"], "--test-window", spec["test"], "--skip-errors"]
    if workload == "backtest-mse-uniform":
        return argv + ["--objective", "mse", "--target-fixed", f"{TARGET:g}"]
    return argv + ["--fixed-k", ",".join(f"{k:g}" for k in spec["fixed_k"])]


class Workload:
    """Rounds of one workload: untraced, traced, and the checks of both."""

    def __init__(self, name: str, inputs: Path, env: dict):
        self.name, self.inputs, self.env = name, inputs, env
        self.out = WORK / "out" / name
        self.digests: set[str] = set()

    def round(self) -> dict:
        """One untraced round: wall_s and peak_rss_mb."""
        if self.name == "montecarlo-gbm":
            _, doc = child(["mc", str(self.inputs)], self.env)
            if doc["errors"]:
                raise RunError("; ".join(doc["errors"][:5]))
            self.mc_counts = doc["ops"], 0, doc["series"]
            return {"wall_s": doc["wall_s"], "peak_rss_mb": doc["peak_rss_mb"]}
        shutil.rmtree(self.out, ignore_errors=True)
        argv = [sys.executable, "-m", "gsls", *cli_argv(self.name, self.inputs, self.out)]
        wall, rss, _ = spawn(argv, self.env)
        self.digests.add(digest(self.out))
        return {"wall_s": wall, "peak_rss_mb": rss}

    def check(self) -> tuple[int, int, int]:
        """Check the last round's outputs: (attempted, failed, series) per round.

        An operation is one series, one series and gain of the sweep, or one
        path batch and parameter set; series counts traded price series.
        """
        if self.name == "montecarlo-gbm":
            return self.mc_counts    # each Monte Carlo round checks itself in its child
        if len(self.digests) != 1:
            raise RunError(f"{len(self.digests)} different outputs from identical rounds")
        if self.name == "backtest-mse-uniform":
            attempted, failed, errors = check.check_backtest(self.inputs, self.out, gen.BACKTEST, TARGET)
        else:
            attempted, failed, errors = check.check_sweep(self.inputs, self.out, gen.SWEEP)
        if errors:
            raise RunError("; ".join(errors[:10]))
        return attempted, failed, attempted

    def traced(self, untraced_wall: float) -> dict:
        """One traced round; per-layer metrics by name."""
        if self.name == "montecarlo-gbm":
            _, doc = child(["mc", str(self.inputs), "--trace"], self.env)
            if doc["errors"]:
                raise RunError("; ".join(doc["errors"][:5]))
            wall, layers = doc["wall_s"], doc["layers"]
            report_mb, load_mb = 0.0, 0.0
        else:
            # Same --out as the checked untraced rounds, so that report.json,
            # which echoes it, must come out byte-identical.
            shutil.rmtree(self.out, ignore_errors=True)
            wall, doc = child(["cli", "--", *cli_argv(self.name, self.inputs, self.out)], self.env)
            if doc["rc"] != 0 or digest(self.out) not in self.digests:
                raise RunError(f"traced run exited {doc['rc']} or wrote other outputs than the untraced runs")
            layers = doc["layers"]
            report_mb = (self.out / "report.json").stat().st_size / 1e6
            load_mb = sum(p.stat().st_size for p in (self.inputs / "universe").glob("*.csv")) / 1e6
        load_s = layers["backtest.load_s"]
        layers.update({
            "backtest.load_mb_per_s": load_mb / load_s if load_s > 0 else 0.0,
            "cli.report_mb": report_mb,
            "gsls.import_s": doc["import_s"],
            "trace.overhead_pct": 100.0 * (wall / untraced_wall - 1.0),
        })
        return layers


def measure(work: Workload, seconds: float) -> list[dict]:
    """Whole rounds until the next one would end after `seconds`."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(work.round())
        elapsed = time.perf_counter() - t0
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def setup_seconds(env: dict) -> float:
    """Median time of a fresh interpreter's ``import gsls``."""
    child(["import"], env)          # warm-up: byte-compiles a fresh checkout
    return statistics.median(child(["import"], env)[1]["import_s"] for _ in range(IMPORTS))


def run(args) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path.cwd() / "src"), env.get("PYTHONPATH")]))
    inputs = gen.make_inputs(WORK, args.workload, args.seed)
    work = Workload(args.workload, inputs, env)
    setup_s = setup_seconds(env)
    rounds = measure(work, args.seconds)
    attempted, failed, series = work.check()
    wall = statistics.median(r["wall_s"] for r in rounds)
    n_rounds = len(rounds)
    if args.trace:
        layers = work.traced(wall)
        (WORK / f"trace-{args.workload}.json").write_text(json.dumps(layers, indent=1) + "\n")
        metrics = {name: metric(value, name) for name, value in layers.items()}
        n_rounds += 1
    else:
        metrics = {
            "wall_s": metric(wall, "wall_s"),
            "series_per_s": metric(statistics.median(series / r["wall_s"] for r in rounds), "series_per_s"),
            "setup_s": metric(setup_s, "setup_s"),
            "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in rounds), "peak_rss_mb"),
        }
    declared = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if names != set(metrics):
        raise RunError(f"metrics {sorted(set(metrics) ^ names)} are not both declared and measured")
    print(f"{args.workload}: {len(rounds)} untraced round(s), walls "
          + ", ".join(f"{r['wall_s']:.3f}" for r in rounds), file=sys.stderr)
    return {"correct": True, "attempted": attempted * n_rounds, "failed": failed * n_rounds,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (Path.cwd() / "src" / "gsls" / "__init__.py").is_file():
        print("error: run from the root of a gsls checkout (no src/gsls here)", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except Exception as exc:
        if not isinstance(exc, RunError):
            traceback.print_exc()
        print(f"FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(WORK / "out", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
