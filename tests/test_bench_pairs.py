"""The verdicts scripts/bench_pairs.py draws from paired benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "series_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}


def _summary(metric, parent, change):
    runs = {side: [{"metrics": {metric["name"]: {"value": v, "unit": metric["unit"]}}}
                   for v in values] for side, values in (("parent", parent), ("change", change))}
    return bench_pairs.summarize(runs, [metric])[metric["name"]]


NARROW = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
WIDE = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 1.0, 0.9, 1.1]


@pytest.mark.parametrize("metric, parent, change, verdict", [
    (WALL, NARROW, [v * 1.3 for v in NARROW], "worse"),
    (WALL, NARROW, [v * 1.2 for v in NARROW], "within_bound"),
    (WALL, NARROW, [v * 0.5 for v in NARROW], "within_bound"),
    (RATE, NARROW, [v * 0.7 for v in NARROW], "worse"),
    (RATE, NARROW, [v * 1.3 for v in NARROW], "within_bound"),
    # a parent IQR of 40% of its median hides any change within the bound
    (WALL, WIDE, WIDE[::-1], "unresolved"),
    (RATE, WIDE, WIDE[::-1], "unresolved"),
    # unless every change run beats every parent run
    (WALL, WIDE, [v * 0.4 for v in WIDE], "within_bound"),
    (RATE, WIDE, [v * 2.5 for v in WIDE], "within_bound"),
    # a median worse past the bound is worse, however wide the parent
    (WALL, WIDE, [v * 1.5 for v in WIDE], "worse"),
])
def test_verdict(metric, parent, change, verdict):
    assert _summary(metric, parent, change)["verdict"] == verdict


def test_a_claim_needs_nine_wins_and_a_median_gap_past_the_parent_iqr():
    faster = [v * 0.9 for v in NARROW]
    one_loss = faster[:9] + [1.05]
    two_losses = faster[:8] + [1.05, 1.05]
    assert _summary(WALL, NARROW, faster)["claim_met"]
    assert _summary(WALL, NARROW, one_loss)["change_wins"] == 9
    assert _summary(WALL, NARROW, one_loss)["claim_met"]
    assert not _summary(WALL, NARROW, two_losses)["claim_met"]
    assert _summary(RATE, NARROW, [v * 1.1 for v in NARROW])["claim_met"]
    assert not _summary(RATE, NARROW, faster)["claim_met"]
    # ten wins by less than the parent's IQR claim nothing
    assert not _summary(WALL, WIDE, [v * 0.95 for v in WIDE])["claim_met"]
