"""Paired parent/change runs of perfbench, summarized as a BENCH_<n>.json.

    python3 scripts/bench_pairs.py --base REF [--change TREE] --seed N \
        --out BENCH_<n>.json

Run it from the root of a checkout.  REF and TREE are any git tree-ish; TREE
defaults to the staged index (``git write-tree``), so stage the change first.
Each side is extracted with ``git archive`` into its own directory under
--work (default ``build/bench-pairs``) and runs its own
``perfbench/run.py``, as a fresh checkout would.
Every workload runs 10 pairs of ``run_seconds`` (from the change's
``BENCHMARK.json``) each, and the pairs alternate which side runs first.
After the pairs, each side runs once more for 10 s with ``--trace 1`` for
the per-layer metrics.

For every end-to-end metric the output holds each side's median and
quartiles (``statistics.quantiles``, inclusive method), every run, and how
many pairs the change won, ties counting for neither side.  From those and
the metric's relative ``bound`` in ``BENCHMARK.json`` it gives a ``verdict``:

    worse         the change's median is worse than the parent's by more
                  than the bound
    unresolved    otherwise, the parent's IQR over its median exceeds the
                  bound, unless every change run beats every parent run
    within_bound  otherwise

and ``claim_met``: the change won at least 9 of the 10 pairs, and its
median beats the parent's by more than the parent's IQR.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

WORKLOADS = ("backtest-mse-uniform", "sweep-fixedk-long", "montecarlo-gbm")
TRACED = ("backtest.load_s", "backtest.report_dict_s", "cli.self_s", "cli.report_mb")
PAIRS = 10
CLAIM_WINS = 9
TRACE_SECONDS = 10.0


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def extract(tree: str, dest: Path) -> None:
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    data = subprocess.run(["git", "archive", "--format=tar", tree], check=True,
                          capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=data, check=True)


def perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in root; its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{root.name} {workload}: run failed: {proc.stderr.strip()[-2000:]}")
    doc = json.loads(lines[-1])
    if not doc["correct"]:
        raise SystemExit(f"{root.name} {workload}: output check failed: {proc.stderr.strip()[-2000:]}")
    return doc


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def verdict(p: dict, c: dict, sign: float, bound: float) -> str:
    """worse, unresolved or within_bound for parent and change spreads p and c."""
    if sign * (c["median"] - p["median"]) > bound * abs(p["median"]):
        return "worse"
    if (p["q3"] - p["q1"] > bound * abs(p["median"])
            and not max(sign * v for v in c["runs"]) < min(sign * v for v in p["runs"])):
        return "unresolved"
    return "within_bound"


def summarize(runs: dict[str, list[dict]], declared: list[dict]) -> dict:
    """Per end-to-end metric of BENCHMARK.json: both sides' spreads and the verdicts."""
    out = {}
    for metric in declared:
        name, direction = metric["name"], metric["better"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        p, c = spread(parent), spread(change)
        out[name] = {
            "unit": runs["parent"][0]["metrics"][name]["unit"], "better": direction,
            "parent": p, "change": c, "pairs": len(parent), "change_wins": wins,
            "median_change_pct": 100.0 * (c["median"] / p["median"] - 1.0),
            "parent_iqr": p["q3"] - p["q1"],
            "bound": metric["bound"],
            "verdict": verdict(p, c, sign, metric["bound"]),
            "claim_met": (wins >= CLAIM_WINS
                          and sign * (p["median"] - c["median"]) > p["q3"] - p["q1"]),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent tree-ish")
    parser.add_argument("--change", help="change tree-ish (default: the staged index)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, default=Path("build/bench-pairs"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    change = args.change or git("write-tree")
    trees = {"parent": git("rev-parse", f"{args.base}^{{tree}}"),
             "change": git("rev-parse", f"{change}^{{tree}}")}
    roots = {side: args.work.resolve() / side for side in trees}
    for side, tree in trees.items():
        extract(tree, roots[side])
    declared = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = float(declared["run_seconds"])

    workloads = {}
    for workload in WORKLOADS:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(perfbench(roots[side], workload, args.seed, seconds, 0))
            print(f"{workload} pair {i + 1}/{PAIRS}: wall_s "
                  + ", ".join(f"{s} {runs[s][-1]['metrics']['wall_s']['value']:.3f}" for s in order),
                  file=sys.stderr)
        traced = {side: perfbench(roots[side], workload, args.seed, TRACE_SECONDS, 1)["metrics"]
                  for side in ("parent", "change")}
        workloads[workload] = {
            "end_to_end": summarize(runs, declared["end_to_end"]),
            "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
            "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
            "traced": {side: {name: traced[side][name]["value"] for name in TRACED}
                       for side in traced},
            "traced_all": {side: {name: m["value"] for name, m in traced[side].items()}
                           for side in traced},
        }

    doc = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1",
        "seeds": [args.seed], "pairs": PAIRS, "seconds": seconds,
        "trace_seconds": TRACE_SECONDS,
        "parent": {"commit": git("rev-parse", args.base), "tree": trees["parent"],
                   "src_tree": git("rev-parse", f"{trees['parent']}:src")},
        "change": {"tree": trees["change"], "src_tree": git("rev-parse", f"{trees['change']}:src")},
        "machine": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "platform": platform.platform()},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
