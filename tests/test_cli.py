"""End-to-end CLI behavior: exit codes, config precedence, determinism."""

import csv
import json
import math
import warnings
from datetime import date, timedelta

import numpy as np
import pytest

from gsls import (
    ControlParams,
    FixedTarget,
    GbmParams,
    GridSpec,
    Objective,
    PriceSeries,
    estimate_mle,
    expected_gain,
    gain_total_closed,
    gain_variance,
    grid_search,
    trading_bias,
    trading_mse,
)
from gsls import cli
from gsls.cli import main


def _read_csv(path):
    return list(csv.reader(path.read_text().splitlines()))


def _simulate(tmp_path, name="universe", **overrides):
    args = {"mu": "0.1", "sigma": "0.2", "steps": "60", "count": "3", "seed": "0"}
    args.update({k: str(v) for k, v in overrides.items()})
    out = tmp_path / name
    argv = ["simulate", "--out", str(out)]
    for key, value in args.items():
        argv.extend([f"--{key}", value])
    assert main(argv) == 0
    return out


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "gsls" in capsys.readouterr().out


def test_simulate_writes_universe_and_manifest(tmp_path):
    out = _simulate(tmp_path, count=2, steps=5)
    files = sorted(p.name for p in out.glob("*.csv"))
    assert files == ["series_0000.csv", "series_0001.csv"]
    rows = _read_csv(out / "series_0000.csv")
    assert rows[0] == ["date", "close"]
    assert len(rows) == 7
    assert rows[1][0] == "2016-01-01"
    assert rows[2][0] == "2016-01-02"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == files
    assert manifest["config"]["seed"] == 0


def test_simulate_rerun_is_byte_identical(tmp_path):
    out = _simulate(tmp_path, count=2, steps=20)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    _simulate(tmp_path, count=2, steps=20)
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before == after


def test_simulate_zero_volatility_single_series(tmp_path):
    out = _simulate(tmp_path, sigma="0", count=1, steps=10)
    rows = _read_csv(out / "series_0000.csv")
    prices = np.array([float(r[1]) for r in rows[1:]])
    expected = 100.0 * np.exp(0.1 * np.arange(11) / 252.0)
    np.testing.assert_allclose(prices, expected, rtol=1e-12)


def test_simulate_rejects_zero_steps(tmp_path, capsys):
    code = main(["simulate", "--mu", "0.1", "--sigma", "0.2", "--steps", "0",
                 "--out", str(tmp_path / "u")])
    assert code == 2
    assert "steps" in capsys.readouterr().err


def test_simulate_requires_mu(tmp_path, capsys):
    code = main(["simulate", "--sigma", "0.2", "--out", str(tmp_path / "u")])
    assert code == 2
    assert "--mu" in capsys.readouterr().err


def test_config_file_fills_missing_settings(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu = 0.1\nsigma = 0.2\nsteps = 5\ncount = 1  # tiny universe\n")
    out = tmp_path / "u"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(_read_csv(out / "series_0000.csv")) == 7


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu = 0.1\nsigma = 0.2\nsteps = 5\nseed = 1\n")
    out = tmp_path / "u"
    assert main(["simulate", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 7
    assert manifest["config"]["mu"] == 0.1


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu = 0.1\nsigma = 0.2\nbogus = 1\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "u")]) == 2
    assert "bogus" in capsys.readouterr().err


def test_bad_config_value_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu = fast\nsigma = 0.2\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "u")]) == 2
    capsys.readouterr()


def test_estimate_matches_library(tmp_path):
    out = _simulate(tmp_path, count=1, steps=60)
    result = tmp_path / "est.json"
    assert main(["estimate", "--in", str(out / "series_0000.csv"),
                 "--out", str(result)]) == 0
    doc = json.loads(result.read_text())
    prices = np.array([float(r[1]) for r in _read_csv(out / "series_0000.csv")[1:]])
    gp = estimate_mle(prices)
    assert doc["estimate"]["mu"] == gp.mu
    assert doc["estimate"]["sigma"] == gp.sigma
    assert doc["estimate"]["n_obs"] == 61
    assert doc["estimate"]["symbol"] == "series_0000"
    assert doc["version"]


def test_estimate_train_window_filters_rows(tmp_path):
    out = _simulate(tmp_path, count=1, steps=60)
    result = tmp_path / "est.json"
    assert main(["estimate", "--in", str(out / "series_0000.csv"),
                 "--train-window", "2016-01-01:2016-01-31", "--out", str(result)]) == 0
    assert json.loads(result.read_text())["estimate"]["n_obs"] == 31


def test_estimate_missing_input_file(tmp_path, capsys):
    assert main(["estimate", "--in", str(tmp_path / "nope.csv")]) == 3
    capsys.readouterr()


def test_estimate_requires_in(capsys):
    assert main(["estimate"]) == 2
    capsys.readouterr()


def test_optimize_explicit_params_matches_grid_search(tmp_path):
    result = tmp_path / "opt.json"
    assert main(["optimize", "--mu", "0.1", "--sigma", "0.2", "--objective", "mse",
                 "--target-fixed", "0.15", "--out", str(result)]) == 0
    doc = json.loads(result.read_text())
    res = grid_search(GbmParams(0.1, 0.2), 1.0, FixedTarget(0.15),
                      GridSpec.default(), Objective.MSE)
    assert doc["result"]["k"] == res.params.k
    assert doc["result"]["alpha"] == res.params.alpha
    assert doc["result"]["beta"] == res.params.beta
    assert doc["result"]["objective_value"] == res.objective_value
    assert doc["result"]["symbol"] is None
    assert "table" not in doc["result"]


def test_optimize_table_and_sls_only(tmp_path):
    result = tmp_path / "opt.json"
    assert main(["optimize", "--mu", "0.1", "--sigma", "0.2", "--objective", "bias",
                 "--target-fixed", "0.15", "--sls-only", "--table",
                 "--out", str(result)]) == 0
    doc = json.loads(result.read_text())
    assert doc["config"]["sls_only"] is True
    assert doc["result"]["alpha"] == 1.0 and doc["result"]["beta"] == 1.0
    assert len(doc["result"]["table"]) == 10


def test_optimize_from_series_file(tmp_path):
    out = _simulate(tmp_path, count=1, steps=60)
    result = tmp_path / "opt.json"
    assert main(["optimize", "--in", str(out / "series_0000.csv"),
                 "--objective", "bias", "--target-drift", "0.05",
                 "--out", str(result)]) == 0
    doc = json.loads(result.read_text())
    assert doc["result"]["symbol"] == "series_0000"
    assert doc["result"]["target"] == pytest.approx(abs(doc["result"]["mu"]) + 0.05)


@pytest.mark.parametrize("argv", [
    ["optimize", "--objective", "bias", "--target-fixed", "0.15"],
    ["optimize", "--mu", "0.1", "--objective", "bias", "--target-fixed", "0.15"],
    ["optimize", "--in", "x.csv", "--mu", "0.1", "--sigma", "0.2",
     "--objective", "bias", "--target-fixed", "0.15"],
    ["optimize", "--mu", "0.1", "--sigma", "0.2", "--target-fixed", "0.15"],
    ["optimize", "--mu", "0.1", "--sigma", "0.2", "--objective", "bias"],
    ["optimize", "--mu", "0.1", "--sigma", "0.2", "--objective", "bias",
     "--target-fixed", "0.15", "--target-drift", "0.05"],
])
def test_optimize_usage_errors(argv, capsys):
    assert main(argv) == 2
    capsys.readouterr()


def test_optimize_no_finite_objective_is_a_data_error(tmp_path, capsys):
    code = main(["optimize", "--mu", "400", "--sigma", "50", "--objective", "mse",
                 "--target-fixed", "0.15", "--out", str(tmp_path / "opt.json")])
    assert code == 3
    assert "no grid point has a finite objective value" in capsys.readouterr().err


def test_optimize_underflowing_price_ratio_is_a_data_error(tmp_path, capsys):
    code = main(["optimize", "--mu", "-400", "--sigma", "1", "--horizon", "2",
                 "--objective", "mse", "--target-fixed", "0.15",
                 "--out", str(tmp_path / "opt.json")])
    assert code == 3
    assert "price ratio e^(mu*t) underflows to 0" in capsys.readouterr().err


def test_optimize_rejects_unknown_objective(capsys):
    code = main(["optimize", "--mu", "0.1", "--sigma", "0.2",
                 "--objective", "rmse", "--target-fixed", "0.15"])
    assert code == 2
    capsys.readouterr()


BACKTEST_WINDOWS = ["--train-window", "2016-01-01:2016-02-01",
                    "--test-window", "2016-02-02:2016-03-01"]


def test_backtest_optimized_outputs(tmp_path):
    universe = _simulate(tmp_path, count=4, steps=60)
    out = tmp_path / "run"
    assert main(["backtest", "--in", str(universe), "--out", str(out),
                 *BACKTEST_WINDOWS, "--objective", "bias",
                 "--target-fixed", "0.15"]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["config"]["objective"] == "bias"
    assert doc["failures"] == {} and doc["load_failures"] == {}
    assert len(doc["report"]["series"]) == 4
    rows = _read_csv(out / "summary.csv")
    assert rows[1][0] == "bias_fixed0.15"
    daily = _read_csv(out / "daily_aggregate.csv")
    assert len(daily) - 1 == len(doc["report"]["daily"]["mean"])


def test_backtest_rerun_is_byte_identical(tmp_path):
    universe = _simulate(tmp_path, count=4, steps=60)
    out = tmp_path / "run"
    argv = ["backtest", "--in", str(universe), "--out", str(out), *BACKTEST_WINDOWS,
            "--objective", "mse", "--target-fixed", "0.15", "--jobs", "2"]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(argv) == 0
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before == after


def test_backtest_fixed_k_sweep(tmp_path):
    universe = _simulate(tmp_path, count=3, steps=60)
    out = tmp_path / "sweep"
    assert main(["backtest", "--in", str(universe), "--out", str(out),
                 *BACKTEST_WINDOWS, "--fixed-k", "1,2"]) == 0
    rows = _read_csv(out / "summary.csv")
    assert [r[0] for r in rows[1:]] == ["sls_k1", "sls_k2"]
    assert (out / "daily_aggregate_sls_k1.csv").exists()
    assert (out / "daily_aggregate_sls_k2.csv").exists()
    doc = json.loads((out / "report.json").read_text())
    assert sorted(doc["strategies"]) == ["sls_k1", "sls_k2"]


def test_backtest_fixed_k_gsls_labels(tmp_path):
    universe = _simulate(tmp_path, count=2, steps=60)
    out = tmp_path / "sweep"
    assert main(["backtest", "--in", str(universe), "--out", str(out),
                 *BACKTEST_WINDOWS, "--fixed-k", "2", "--fixed-alpha", "0.5"]) == 0
    rows = _read_csv(out / "summary.csv")
    assert rows[1][0] == "gsls_k2_a0.5_b1"


@pytest.mark.parametrize("extra", [
    ["--fixed-k", "1", "--objective", "bias"],
    ["--fixed-k", "1", "--target-fixed", "0.15"],
    ["--fixed-k", "1,1"],
    ["--fixed-k", "one"],
])
def test_backtest_sweep_flag_conflicts(tmp_path, extra, capsys):
    universe = _simulate(tmp_path, count=2, steps=60)
    code = main(["backtest", "--in", str(universe), "--out", str(tmp_path / "x"),
                 *BACKTEST_WINDOWS, *extra])
    assert code == 2
    capsys.readouterr()


def test_backtest_empty_universe_is_a_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(["backtest", "--in", str(empty), "--out", str(tmp_path / "x"),
                 *BACKTEST_WINDOWS, "--objective", "bias", "--target-fixed", "0.15"])
    assert code == 2
    code = main(["backtest", "--in", str(tmp_path / "missing"), "--out",
                 str(tmp_path / "x"), *BACKTEST_WINDOWS, "--objective", "bias",
                 "--target-fixed", "0.15"])
    assert code == 2
    capsys.readouterr()


def test_backtest_bad_series_data_error_and_skip(tmp_path, capsys):
    universe = _simulate(tmp_path, count=2, steps=60)
    (universe / "zz_bad.csv").write_text("date,close\n2016-01-01,-5\n")
    out = tmp_path / "run"
    base = ["backtest", "--in", str(universe), "--out", str(out), *BACKTEST_WINDOWS,
            "--objective", "bias", "--target-fixed", "0.15"]
    assert main(base) == 3
    assert main([*base, "--skip-errors"]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert list(doc["load_failures"]) == ["zz_bad.csv"]
    assert len(doc["report"]["series"]) == 2
    capsys.readouterr()


def test_backtest_underflowing_price_ratio_is_a_data_error_and_skip(tmp_path, capsys):
    universe = _simulate(tmp_path, count=2, steps=60)
    # -2 a day in log price: mu_hat = -504, so e^(mu*t) underflows at --horizon 2
    rows = [f"2016-{1 + i // 31:02d}-{1 + i % 31:02d},{100.0 * math.exp(-2.0 * i)!r}"
            for i in range(60)]
    (universe / "zz_fall.csv").write_text("date,close\n" + "\n".join(rows) + "\n")
    out = tmp_path / "run"
    base = ["backtest", "--in", str(universe), "--out", str(out), *BACKTEST_WINDOWS,
            "--objective", "mse", "--target-fixed", "0.15", "--horizon", "2"]
    assert main(base) == 3
    assert "zz_fall: optimization failed: price ratio" in capsys.readouterr().err
    assert main([*base, "--skip-errors"]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert list(doc["failures"]) == ["zz_fall"]
    assert "underflows to 0" in doc["failures"]["zz_fall"]
    assert len(doc["report"]["series"]) == 2


def test_backtest_overflowing_gain_is_a_data_error_and_skip(tmp_path, capsys):
    universe = tmp_path / "universe"
    universe.mkdir()
    days = [date(2016, 1, 1) + timedelta(days=i) for i in range(366)]
    # an ordinary ramp, and prices alternating 1 and 1e130, whose books overflow
    for name, prices in [("ramp", np.linspace(100.0, 150.0, 366)),
                         ("wild", np.where(np.arange(366) % 2, 1e130, 1.0))]:
        rows = [f"{day},{price!r}" for day, price in zip(days, prices.tolist())]
        (universe / f"{name}.csv").write_text("date,close\n" + "\n".join(rows) + "\n")
    out = tmp_path / "sweep"
    base = ["backtest", "--in", str(universe), "--out", str(out),
            "--train-window", "2016-01-01:2016-06-30", "--test-window", "2016-07-01:2016-12-31",
            "--fixed-k", "1,2"]
    message = "wild: trading failed: the gain overflows"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(base) == 3
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert main([*base, "--skip-errors"]) == 0
    assert caught == []
    assert capsys.readouterr().err == ""

    def no_constant(name):
        raise AssertionError(f"report.json holds {name}")

    doc = json.loads((out / "report.json").read_text(), parse_constant=no_constant)
    for label in ("sls_k1", "sls_k2"):
        assert doc["strategies"][label]["failures"] == {"wild": message}
        assert [row["symbol"] for row in doc["strategies"][label]["report"]["series"]] == ["ramp"]

def test_json_outputs_are_one_line(tmp_path):
    universe = _simulate(tmp_path, count=2, steps=60)
    out = tmp_path / "run"
    assert main(["backtest", "--in", str(universe), "--out", str(out), *BACKTEST_WINDOWS,
                 "--objective", "bias", "--target-fixed", "0.15"]) == 0
    for path in (universe / "manifest.json", out / "report.json"):
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        assert json.loads(text)


def test_backtest_bad_window_format(tmp_path, capsys):
    universe = _simulate(tmp_path, count=2, steps=60)
    code = main(["backtest", "--in", str(universe), "--out", str(tmp_path / "x"),
                 "--train-window", "2016-01-01", "--test-window",
                 "2016-02-02:2016-03-01", "--objective", "bias",
                 "--target-fixed", "0.15"])
    assert code == 2
    capsys.readouterr()


def test_plotdata_gain_vs_q_matches_closed_form(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["plotdata", "--kind", "gain-vs-q", "--k", "1,3", "--alpha", "0.5",
                 "--q-min", "0.5", "--q-max", "2.0", "--q-n", "7",
                 "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0] == ["k", "q", "gain"]
    assert len(rows) == 15
    for k, q, gain in rows[1:]:
        params = ControlParams(1.0, float(k), 0.5, 1.0)
        assert float(gain) == gain_total_closed(params, float(q))


def test_plotdata_gain_vs_k_columns(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["plotdata", "--kind", "gain-vs-k", "--mu", "0.1", "--sigma", "0.2",
                 "--grid-n", "5", "--target-fixed", "0.15", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0] == ["k", "expected_gain", "gain_variance", "bias", "mse"]
    assert len(rows) == 6
    gp = GbmParams(0.1, 0.2)
    for k, eg, var, bias, mse in rows[1:]:
        cp = ControlParams(1.0, float(k))
        assert float(eg) == expected_gain(cp, gp, 1.0)
        assert float(var) == gain_variance(cp, gp, 1.0)
        assert float(bias) == trading_bias(cp, gp, 1.0, 0.15)
        assert float(mse) == trading_mse(cp, gp, 1.0, 0.15)


def test_plotdata_gain_vs_k_requires_dynamics(capsys):
    assert main(["plotdata", "--kind", "gain-vs-k", "--sigma", "0.2"]) == 2
    capsys.readouterr()


def test_plotdata_gain_vs_k_takes_the_grid_settings_of_every_command(tmp_path):
    # sls_only only pins alpha and beta, so the k column and the output stay put
    args = ["plotdata", "--kind", "gain-vs-k", "--mu", "0.1", "--sigma", "0.2"]
    plain, flag, configured = (tmp_path / name for name in ("plain.csv", "flag.csv", "cfg.csv"))
    config = tmp_path / "grid.cfg"
    config.write_text("sls_only = true\ngrid_n = 4\n")
    assert main([*args, "--grid-n", "4", "--out", str(plain)]) == 0
    assert main([*args, "--grid-n", "4", "--sls-only", "--out", str(flag)]) == 0
    assert main([*args, "--config", str(config), "--out", str(configured)]) == 0
    assert len(_read_csv(plain)) == 5
    assert flag.read_bytes() == plain.read_bytes()
    assert configured.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("horizon", ["inf", "nan", "-1"])
def test_plotdata_gain_vs_k_rejects_a_negative_or_non_finite_horizon(tmp_path, capsys, horizon):
    out = tmp_path / "curve.csv"
    args = ["plotdata", "--kind", "gain-vs-k", "--mu", "0.1", "--sigma", "0.2", "--grid-n", "3"]
    assert main([*args, "--horizon", horizon, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: horizon t must be >= 0 and finite, got {float(horizon)!r}\n")
    assert not out.exists()
    assert main([*args, "--horizon", "0", "--out", str(out)]) == 0
    assert [row[1:] for row in _read_csv(out)[1:]] == [["0.0"] * 4] * 3


def test_plotdata_gain_vs_k_is_silent_where_the_moments_overflow(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["plotdata", "--kind", "gain-vs-k", "--mu", "60", "--sigma", "3",
                     "--grid-n", "4", "--out", str(out)]) == 0
    assert caught == []
    assert capsys.readouterr().err == ""
    rows = _read_csv(out)[1:]
    gp = GbmParams(60.0, 3.0)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = [[repr(float(f(ControlParams(1.0, float(row[0])), gp, 1.0)))
                     for f in (expected_gain, gain_variance)] for row in rows]
    assert [row[1:3] for row in rows] == expected
    assert rows[-1][2] == "inf"


def _small_report(tmp_path):
    universe = _simulate(tmp_path, count=4, steps=60)
    out = tmp_path / "run"
    assert main(["backtest", "--in", str(universe), "--out", str(out),
                 *BACKTEST_WINDOWS, "--objective", "bias",
                 "--target-fixed", "0.15"]) == 0
    return out / "report.json"


def test_plotdata_density(tmp_path):
    report = _small_report(tmp_path)
    out = tmp_path / "density.csv"
    assert main(["plotdata", "--kind", "density", "--in", str(report),
                 "--bins", "8", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0] == ["bin_left", "bin_right", "count", "density"]
    assert len(rows) == 9
    counts = [int(r[2]) for r in rows[1:]]
    assert sum(counts) == 4
    mass = sum(float(r[3]) * (float(r[1]) - float(r[0])) for r in rows[1:])
    assert mass == pytest.approx(1.0, rel=1e-9)


def test_plotdata_density_errors(tmp_path, capsys):
    report = _small_report(tmp_path)
    assert main(["plotdata", "--kind", "density", "--in", str(report),
                 "--bins", "0"]) == 2
    assert main(["plotdata", "--kind", "density",
                 "--in", str(tmp_path / "nope.json")]) == 3
    empty = tmp_path / "empty.json"
    empty.write_text("{\"report\": {\"series\": []}}")
    assert main(["plotdata", "--kind", "density", "--in", str(empty)]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["plotdata", "--kind", "density", "--in", str(bad)]) == 3
    capsys.readouterr()


def test_plotdata_daily_mirrors_report(tmp_path):
    report_path = _small_report(tmp_path)
    out = tmp_path / "daily.csv"
    assert main(["plotdata", "--kind", "daily", "--in", str(report_path),
                 "--out", str(out)]) == 0
    rows = _read_csv(out)
    doc = json.loads(report_path.read_text())
    assert len(rows) - 1 == len(doc["report"]["daily"]["mean"])
    assert float(rows[1][1]) == doc["report"]["daily"]["mean"][0]


def test_plotdata_rejects_unknown_kind(capsys):
    assert main(["plotdata", "--kind", "sparkline"]) == 2
    assert main(["plotdata"]) == 2
    capsys.readouterr()


def test_backtest_field_over_the_csv_size_limit_is_a_data_error(tmp_path, capsys):
    universe = _simulate(tmp_path, count=2, steps=60)
    (universe / "zz_big.csv").write_text(f"date,close\n2016-01-01,1{'0' * 150_000}\n")
    out = tmp_path / "run"
    base = ["backtest", "--in", str(universe), "--out", str(out), *BACKTEST_WINDOWS,
            "--objective", "bias", "--target-fixed", "0.15"]
    assert main(base) == 3
    assert "zz_big.csv: row 2: field larger than field limit" in capsys.readouterr().err
    assert main([*base, "--skip-errors"]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert list(doc["load_failures"]) == ["zz_big.csv"]


def test_plotdata_rejects_the_flags_of_another_kind(tmp_path, capsys):
    argv = ["plotdata", "--kind", "gain-vs-q", "--k", "1", "--out", str(tmp_path / "q.csv")]
    assert main([*argv, "--bins", "5", "--mu", "3"]) == 2
    assert "--kind gain-vs-q takes no --bins, --mu" in capsys.readouterr().err
    assert main([*argv, "--sls-only"]) == 2
    assert "--sls-only" in capsys.readouterr().err
    config = tmp_path / "plot.cfg"
    config.write_text("bins = 5\n")
    assert main([*argv, "--config", str(config)]) == 2
    assert "unknown config keys: bins" in capsys.readouterr().err
    assert not (tmp_path / "q.csv").exists()
    assert main(argv) == 0


def test_backtest_sweep_gives_a_short_series_the_same_failure_under_every_label(tmp_path):
    universe = _simulate(tmp_path, count=2, steps=60)
    (universe / "aa_short.csv").write_text("date,close\n2016-01-04,10\n2016-02-10,11\n")
    out = tmp_path / "sweep"
    assert main(["backtest", "--in", str(universe), "--out", str(out), *BACKTEST_WINDOWS,
                 "--fixed-k", "0.5,1,2", "--fixed-alpha", "0.7", "--skip-errors"]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert sorted(doc["strategies"]) == ["gsls_k0.5_a0.7_b1", "gsls_k1_a0.7_b1",
                                         "gsls_k2_a0.7_b1"]
    expected = {"aa_short": "aa_short: testing window has 1 observation(s), need >= 2"}
    for run in doc["strategies"].values():
        assert run["failures"] == expected
        assert len(run["report"]["series"]) == 2


@pytest.mark.parametrize("extra", [
    ["--fixed-k", "1,1"],
    ["--fixed-k", "one"],
    ["--fixed-k", "1,-1"],
    ["--fixed-k", "1", "--objective", "mse"],
    ["--target-fixed", "0.15"],
    ["--objective", "mse"],
])
def test_backtest_checks_every_setting_before_reading_or_writing(tmp_path, extra, capsys):
    # a usage error wins over the unreadable file, and --out is never created
    universe = _simulate(tmp_path, count=2, steps=60)
    (universe / "zz_bad.csv").write_text("date,close\n2016-01-01,-5\n")
    out = tmp_path / "run"
    assert main(["backtest", "--in", str(universe), "--out", str(out),
                 *BACKTEST_WINDOWS, *extra]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


OPTIMIZED = ["--objective", "mse", "--target-fixed", "0.15"]


@pytest.mark.parametrize("command, extra, setting", [
    ("backtest", ["--horizon", "-1"], "horizon"),
    ("backtest", ["--horizon", "nan"], "horizon"),
    ("backtest", ["--i0", "-1"], "i0"),
    ("backtest", ["--dt", "0"], "dt"),
    ("backtest", ["--fixed-k", "1", "--dt", "0"], "dt"),
    ("estimate", ["--dt", "0"], "dt"),
    ("optimize", ["--dt", "0"], "dt"),
    ("optimize", ["--horizon", "-1"], "horizon"),
    ("optimize", ["--i0", "-1"], "i0"),
])
@pytest.mark.parametrize("bad_file", [False, True])
def test_a_bad_setting_exits_2_before_any_input_is_read(tmp_path, capsys, command, extra,
                                                         setting, bad_file):
    universe = _simulate(tmp_path, count=2, steps=60)
    if bad_file:
        (universe / "zz_bad.csv").write_text("date,close\n2016-01-01,-5\n")
    out = tmp_path / "out"
    if command == "backtest":
        argv = ["backtest", "--in", str(universe), *BACKTEST_WINDOWS]
        argv += [] if "--fixed-k" in extra else OPTIMIZED
    else:
        argv = [command, "--in", str(universe / ("zz_bad.csv" if bad_file else "series_0000.csv"))]
        argv += OPTIMIZED if command == "optimize" else []
    assert main([*argv, *extra, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {setting} ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "optimize"])
def test_a_bad_train_window_is_reported_before_the_input_is_read(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [command, "--in", str(tmp_path / "missing.csv"), "--train-window", "garbage",
            *(OPTIMIZED if command == "optimize" else []), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: --train-window: ")
    assert not out.exists()


@pytest.mark.parametrize("mode, extra, flags", [
    ("optimized", ["--fixed-alpha", "2"], "--fixed-alpha"),
    ("optimized", ["--fixed-alpha", "2", "--fixed-beta", "3"], "--fixed-alpha, --fixed-beta"),
    ("optimized", ["--fixed-beta", "0.5"], "--fixed-beta"),
    ("sweep", ["--horizon", "3"], "--horizon"),
    ("sweep", ["--horizon", "3", "--sls-only", "--grid-n", "3"],
     "--horizon, --grid-n, --sls-only"),
    ("sweep", ["--dt", "0.01"], "--dt"),
    ("sweep", ["--grid-min", "1", "--grid-max", "2"], "--grid-min, --grid-max"),
    ("sweep", ["--objective", "mse", "--target-drift", "0.05"], "--objective, --target-drift"),
])
@pytest.mark.parametrize("bad_file", [False, True])
def test_a_flag_the_backtest_mode_ignores_is_a_usage_error(tmp_path, capsys, mode, extra,
                                                           flags, bad_file):
    universe = _simulate(tmp_path, count=2, steps=60)
    if bad_file:
        (universe / "zz_bad.csv").write_text("date,close\n2016-01-01,-5\n")
    out = tmp_path / "out"
    argv = ["backtest", "--in", str(universe), *BACKTEST_WINDOWS,
            *(OPTIMIZED if mode == "optimized" else ["--fixed-k", "1"]), *extra]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: --fixed-k runs a parameter sweep; drop " + flags if mode == "sweep"
                   else "error: only a --fixed-k sweep reads " + flags) + "\n"
    assert not out.exists()


def test_a_config_value_the_backtest_mode_ignores_is_named_by_its_flag(tmp_path, capsys):
    universe = _simulate(tmp_path, count=2, steps=60)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fixed_alpha = 0.5\n")
    out = tmp_path / "out"
    assert main(["backtest", "--in", str(universe), *BACKTEST_WINDOWS, *OPTIMIZED,
                 "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: only a --fixed-k sweep reads --fixed-alpha\n"
    assert "config key" not in err
    assert not out.exists()


@pytest.mark.parametrize("mode, extra", [
    ("optimized", ["--fixed-alpha", "1", "--fixed-beta", "1.0"]),
    ("sweep", ["--grid-n", "10", "--grid-min", "0.5", "--grid-max", "5"]),
])
def test_a_mode_ignored_flag_at_its_default_is_accepted(tmp_path, mode, extra):
    universe = _simulate(tmp_path, count=2, steps=60)
    argv = ["backtest", "--in", str(universe), *BACKTEST_WINDOWS,
            *(OPTIMIZED if mode == "optimized" else ["--fixed-k", "1"])]

    def outputs(name, more):
        out = tmp_path / name
        assert main([*argv, *more, "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        del doc["config"]["out"]
        return doc, {p.name: p.read_bytes() for p in out.iterdir() if p.name != "report.json"}

    assert outputs("with", extra) == outputs("without", [])


def test_optimize_with_mu_and_sigma_rejects_a_train_window(tmp_path, capsys):
    out = tmp_path / "opt.json"
    assert main(["optimize", "--mu", "0.1", "--sigma", "0.2", *OPTIMIZED,
                 "--train-window", "2016-01-01:2016-02-01", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --train-window ") and "config key" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, key, line", [
    (["optimize", "--mu", "0.1", "--sigma", "0.2", "--target-fixed", "0.15"], "objective",
     "error: config key objective: invalid choice 'rmse' (choose from bias, mse)"),
    (["plotdata"], "kind", "error: config key kind: invalid choice 'rmse' "
                           "(choose from density, daily, gain-vs-q, gain-vs-k)"),
])
def test_a_config_choice_is_checked_like_its_flag(tmp_path, capsys, argv, key, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = rmse\n")
    assert main([*argv, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == line + "\n"


def test_optimize_no_finite_objective_is_reported_by_main(capsys):
    assert main(["optimize", "--mu", "400", "--sigma", "50", *OPTIMIZED]) == 3
    assert capsys.readouterr().err == "data error: no grid point has a finite objective value\n"


def test_plotdata_daily_writes_the_bytes_of_the_backtest_daily_csv(tmp_path):
    report_path = _small_report(tmp_path)
    out = tmp_path / "daily.csv"
    assert main(["plotdata", "--kind", "daily", "--in", str(report_path),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (report_path.parent / "daily_aggregate.csv").read_bytes()


def _plot_report(tmp_path, kind, body):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"report": body}))
    return main(["plotdata", "--kind", kind, "--in", str(path), "--out",
                 str(tmp_path / "out.csv")])


@pytest.mark.parametrize("daily", [
    {"mean": [0.0, 1.0], "q025": [0.0], "q50": [0.0, 1.0], "q975": [0.0, 1.0]},
    {"mean": [0.0], "q025": [0.0], "q50": [0.0]},
    {"mean": [0.0], "q025": [0.0], "q50": ["x"], "q975": [0.0]},
    {"mean": [True], "q025": [0.0], "q50": [0.0], "q975": [0.0]},
    {"mean": [None], "q025": [0.0], "q50": [0.0], "q975": [0.0]},
    {"mean": 0.0, "q025": 0.0, "q50": 0.0, "q975": 0.0},
    {"mean": [10 ** 400], "q025": [0.0], "q50": [0.0], "q975": [0.0]},
    [[0.0, 1.0]],
])
def test_plotdata_daily_rejects_a_malformed_report(tmp_path, capsys, daily):
    assert _plot_report(tmp_path, "daily", {"daily": daily}) == 3
    assert "daily mean, q025, q50, q975 must be" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("series", [
    [{"gain": 1}],
    [{"final_gain": 0.5}, {"gain": 1}],
    [{"final_gain": "x"}],
    [{"final_gain": None}],
    [{"final_gain": False}],
    [{"final_gain": float("nan")}],
    [0.5],
    {"final_gain": 0.5},
    "abc",
])
def test_plotdata_density_rejects_a_malformed_report(tmp_path, capsys, series):
    assert _plot_report(tmp_path, "density", {"series": series}) == 3
    assert "every series row needs a finite numeric final_gain" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_plotdata_readers_accept_integers(tmp_path):
    assert _plot_report(tmp_path, "daily", {"daily": {
        "mean": [0, 1], "q025": [0, 1], "q50": [0, 1], "q975": [0, 1]}}) == 0
    assert _read_csv(tmp_path / "out.csv")[2] == ["1", "1.0", "1.0", "1.0", "1.0"]
    assert _plot_report(tmp_path, "density", {"series": [{"final_gain": 1}]}) == 0


def _sweep(tmp_path, ks="1,2", name="sweep"):
    universe = tmp_path / "universe"
    if not universe.exists():
        _simulate(tmp_path, count=4, steps=60)
    out = tmp_path / name
    assert main(["backtest", "--in", str(universe), "--out", str(out),
                 *BACKTEST_WINDOWS, "--fixed-k", ks]) == 0
    return out


@pytest.mark.parametrize("label", ["sls_k1", "sls_k2"])
def test_plotdata_daily_strategy_writes_the_bytes_of_its_sweep_daily_csv(tmp_path, label):
    sweep = _sweep(tmp_path)
    out = tmp_path / "daily.csv"
    assert main(["plotdata", "--kind", "daily", "--in", str(sweep / "report.json"),
                 "--strategy", label, "--out", str(out)]) == 0
    assert out.read_bytes() == (sweep / f"daily_aggregate_{label}.csv").read_bytes()


def test_plotdata_density_strategy_reads_one_sweep_entry(tmp_path):
    both, alone = _sweep(tmp_path, "1,2"), _sweep(tmp_path, "2", name="alone")
    outs = [tmp_path / "both.csv", tmp_path / "alone.csv"]
    for sweep, out in zip((both, alone), outs):
        assert main(["plotdata", "--kind", "density", "--in", str(sweep / "report.json"),
                     "--strategy", "sls_k2", "--bins", "3", "--out", str(out)]) == 0
    assert sum(int(row[2]) for row in _read_csv(outs[0])[1:]) == 4
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("kind", ["daily", "density"])
@pytest.mark.parametrize("strategy, message", [
    ([], "sweep/report.json is a --fixed-k sweep report; pick --strategy from: sls_k1, sls_k2"),
    (["--strategy", "sls_k3"], "it holds no strategy 'sls_k3'; pick --strategy from: "
                               "sls_k1, sls_k2"),
], ids=["missing", "unknown"])
def test_plotdata_sweep_report_needs_one_of_its_strategies(tmp_path, capsys, kind, strategy,
                                                           message):
    sweep = _sweep(tmp_path)
    out = tmp_path / "out.csv"
    assert main(["plotdata", "--kind", kind, "--in", str(sweep / "report.json"), *strategy,
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_plotdata_strategy_needs_a_sweep_report(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["plotdata", "--kind", "daily", "--in", str(_small_report(tmp_path)),
                 "--strategy", "sls_k1", "--out", str(out)]) == 2
    assert "is not a --fixed-k sweep report" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("strategies", [[], {}, "sls_k1", {"sls_k1": []},
                                        {"sls_k1": {"report": [1.0]}}])
def test_plotdata_rejects_malformed_strategies(tmp_path, capsys, strategies):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"strategies": strategies}))
    out = tmp_path / "out.csv"
    assert main(["plotdata", "--kind", "daily", "--in", str(path), "--strategy", "sls_k1",
                 "--out", str(out)]) == 3
    assert "data error: " in capsys.readouterr().err
    assert not out.exists()


def test_a_sweep_needs_no_train_window(tmp_path):
    universe = _simulate(tmp_path, count=3, steps=60)
    sweep = ["backtest", "--in", str(universe), "--fixed-k", "1,2", "--fixed-alpha", "0.5"]

    def outputs(name, windows):
        out = tmp_path / name
        assert main([*sweep, *windows, "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        return doc, {p.name: p.read_bytes() for p in out.iterdir() if p.name != "report.json"}

    with_doc, with_files = outputs("with", BACKTEST_WINDOWS)
    without_doc, without_files = outputs("without", BACKTEST_WINDOWS[2:])
    assert sorted(with_files) == ["daily_aggregate_gsls_k1_a0.5_b1.csv",
                                  "daily_aggregate_gsls_k2_a0.5_b1.csv", "summary.csv"]
    assert without_files == with_files
    # the config echo differs in the two settings given; nothing else does
    assert (with_doc["config"].pop("train_window"), with_doc["config"].pop("out")) == (
        BACKTEST_WINDOWS[1], str(tmp_path / "with"))
    assert (without_doc["config"].pop("train_window"), without_doc["config"].pop("out")) == (
        None, str(tmp_path / "without"))
    assert without_doc == with_doc
    # a training window that overlaps the test window is not read, so it is no error
    assert main([*sweep, "--train-window", "2016-01-01:2016-02-20", *BACKTEST_WINDOWS[2:],
                 "--out", str(tmp_path / "overlap")]) == 0
    assert (tmp_path / "overlap" / "summary.csv").read_bytes() == with_files["summary.csv"]


def test_a_sweep_still_rejects_a_malformed_train_window(tmp_path, capsys):
    universe = _simulate(tmp_path, count=2, steps=60)
    (universe / "zz_bad.csv").write_text("date,close\n2016-01-01,-5\n")
    out = tmp_path / "out"
    assert main(["backtest", "--in", str(universe), "--fixed-k", "1", "--train-window",
                 "garbage", *BACKTEST_WINDOWS[2:], "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --train-window: expected YYYY-MM-DD:YYYY-MM-DD, got 'garbage'\n")
    assert not out.exists()


def test_an_optimized_backtest_still_needs_a_train_window(tmp_path, capsys):
    universe = _simulate(tmp_path, count=2, steps=60)
    out = tmp_path / "out"
    assert main(["backtest", "--in", str(universe), *BACKTEST_WINDOWS[2:], *OPTIMIZED,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: missing required setting --train-window\n"
    assert not out.exists()


OPTIMIZE_MSE = ["optimize", "--mu", "0.1", "--sigma", "0.2", *OPTIMIZED]


def test_config_booleans_read_off_and_no_and_reject_anything_else(tmp_path, capsys):
    expected = tmp_path / "expected.json"
    assert main([*OPTIMIZE_MSE, "--out", str(expected)]) == 0
    cfg = tmp_path / "run.cfg"
    for off in ("no", "off", "OFF"):
        cfg.write_text(f"sls_only = {off}\ntable = no\n")
        out = tmp_path / "got.json"
        assert main([*OPTIMIZE_MSE, "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["sls_only"] is False and doc["config"]["table"] is False
        assert doc["result"] == json.loads(expected.read_text())["result"]
    cfg.write_text("sls_only = maybe\n")
    assert main([*OPTIMIZE_MSE, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: config key sls_only: not a boolean: 'maybe'\n"


def test_simulate_rejects_a_malformed_start_date(tmp_path, capsys):
    out = tmp_path / "u"
    assert main(["simulate", "--mu", "0.1", "--sigma", "0.2", "--start", "garbage",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --start: expected YYYY-MM-DD, got 'garbage'\n"
    assert not out.exists()


def test_a_config_file_that_is_not_utf8_is_a_usage_error_naming_it(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"mu = 0.1\xe9\n")
    out = tmp_path / "u"
    assert main(["simulate", "--config", str(cfg), "--sigma", "0.2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read config {cfg}: 'utf-8' codec can't decode byte 0xe9 in position 8: "
        "invalid continuation byte\n")
    assert not out.exists()


def test_config_file_errors_and_comments(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path / "u")]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read config {missing}: ")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment-only line\n   # another\n\nmu = 0.1  # drift\nsigma = 0.2\n")
    assert main(["simulate", "--config", str(cfg), "--steps", "5",
                 "--out", str(tmp_path / "u")]) == 0
    manifest = json.loads((tmp_path / "u" / "manifest.json").read_text())
    assert (manifest["config"]["mu"], manifest["config"]["sigma"]) == (0.1, 0.2)
    cfg.write_text("mu = 0.1\nsigma 0.2\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:2: expected 'key = value', got 'sigma 0.2'\n"
    assert not (tmp_path / "v").exists()


def test_estimate_on_a_two_price_window_is_a_data_error_naming_the_series(tmp_path, capsys):
    universe = _simulate(tmp_path, count=1, steps=60)
    out = tmp_path / "est.json"
    assert main(["estimate", "--in", str(universe / "series_0000.csv"),
                 "--train-window", "2016-01-01:2016-01-02", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "data error: series_0000: estimation needs a 1-d series of at least 3 prices\n")
    assert not out.exists()


def test_plotdata_rejects_a_json_array_and_a_report_without_daily(tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text("[1, 2]")
    out = tmp_path / "out.csv"
    assert main(["plotdata", "--kind", "daily", "--in", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"data error: {path}: expected a JSON object\n"
    assert _plot_report(tmp_path, "daily", {"series": []}) == 3
    assert capsys.readouterr().err == (
        f"data error: {tmp_path / 'bad.json'}: report contains no daily aggregates\n")
    assert not out.exists()


@pytest.mark.parametrize("extra, message", [
    (["--q-min", "3", "--q-max", "1"], "need 0 < --q-min <= --q-max, got 3.0, 1.0"),
    pytest.param(["--q-n", "0"], "--q-n must be >= 1, got 0", id="extra1---q-n must be >= 1"),
    # refused before np.linspace warns on the infinite range
    (["--q-max", "inf"], "need 0 < --q-min <= --q-max, got 0.2, inf"),
])
def test_plotdata_gain_vs_q_rejects_a_bad_ratio_range(tmp_path, capsys, extra, message):
    out = tmp_path / "q.csv"
    assert main(["plotdata", "--kind", "gain-vs-q", "--k", "1", *extra, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_file_that_is_not_utf8_is_a_data_error_naming_it(tmp_path, capsys):
    universe = _simulate(tmp_path, count=2, steps=60)
    bad = universe / "series_0001.csv"
    bad.write_bytes(b"date,close\n2016-01-01,1\xe9\n")
    reason = f"{bad}: 'utf-8' codec can't decode byte 0xe9 in position 23: invalid continuation byte"
    sweep = ["backtest", "--in", str(universe), "--fixed-k", "1", *BACKTEST_WINDOWS[2:]]
    assert main([*sweep, "--out", str(tmp_path / "run")]) == 3
    assert capsys.readouterr().err == f"data error: {reason}\n"
    assert main(["estimate", "--in", str(bad)]) == 3
    assert capsys.readouterr().err == f"data error: {reason}\n"
    out = tmp_path / "skip"
    assert main([*sweep, "--skip-errors", "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["load_failures"] == {"series_0001.csv": reason}
    report = tmp_path / "report.json"
    report.write_bytes(b'{"report": "\xe9"}')
    assert main(["plotdata", "--kind", "daily", "--in", str(report),
                 "--out", str(tmp_path / "d.csv")]) == 3
    assert capsys.readouterr().err.startswith(f"data error: {report}: 'utf-8' codec ")


@pytest.mark.parametrize("command, flag", [
    ("sweep", "--test-window"), ("sweep", "--train-window"), ("backtest", "--test-window"),
    ("backtest", "--train-window"), ("estimate", "--train-window"),
    ("optimize", "--train-window"),
])
def test_a_window_that_ends_before_it_starts_is_a_usage_error(tmp_path, capsys, command, flag):
    universe = _simulate(tmp_path, count=2, steps=60)
    windows = dict(zip(BACKTEST_WINDOWS[0::2], BACKTEST_WINDOWS[1::2]))
    windows[flag] = "2016-03-01:2016-02-02"
    if command in ("sweep", "backtest"):
        argv = ["backtest", "--in", str(universe), *(["--fixed-k", "1"] if command == "sweep"
                                                     else OPTIMIZED)]
        argv += [arg for item in windows.items() for arg in item]
    else:
        argv = [command, "--in", str(universe / "series_0000.csv"), flag, windows[flag],
                *(OPTIMIZED if command == "optimize" else [])]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {flag}: window ends before it starts, got '2016-03-01:2016-02-02'\n")
    assert not out.exists()


def test_simulate_rejects_a_last_date_past_9999(tmp_path, capsys):
    out = tmp_path / "u"
    argv = ["simulate", "--mu", "0.1", "--sigma", "0.2", "--start", "9999-12-30"]
    assert main([*argv, "--steps", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --start 9999-12-30 and --steps 5 put the last date past 9999-12-31\n")
    assert not out.exists()
    assert main([*argv, "--steps", "1", "--out", str(out)]) == 0
    assert _read_csv(out / "series_0000.csv")[-1][0] == "9999-12-31"


@pytest.mark.parametrize("mu, sigma, bad", [("1000", "0.2", "inf"), ("0.1", "200", "0.0"),
                                            ("0.1", "1e200", "0.0")])
def test_simulate_rejects_prices_that_overflow_or_underflow(tmp_path, capsys, mu, sigma, bad):
    out = tmp_path / "u"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--mu", mu, "--sigma", sigma, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: simulated prices must be positive and finite, got {bad} "
        f"at mu {float(mu)!r}, sigma {float(sigma)!r}\n")
    assert not out.exists()


TINY_GRID = ["--grid-min", "1e-170", "--grid-max", "1e-160", "--grid-n", "2"]


@pytest.mark.parametrize("command", [
    ["optimize", "--mu", "0.1", "--sigma", "0.2"],
    ["optimize", "--in", "UNIVERSE/series_0000.csv"],
    ["backtest", "--in", "UNIVERSE", *BACKTEST_WINDOWS],
])
def test_a_grid_whose_beta_times_k_underflows_exits_2_before_any_input(tmp_path, monkeypatch,
                                                                      capsys, command):
    # k and beta of 1e-170 are valid alone, but their product underflows to 0; such a
    # grid once ran with numpy warnings and exited 0
    universe = _simulate(tmp_path, count=2, steps=60)
    command = [arg.replace("UNIVERSE", str(universe)) for arg in command]

    def no_input(*args, **kwargs):
        raise AssertionError("input read")

    monkeypatch.setattr(cli, "load_series", no_input)
    monkeypatch.setattr(cli, "load_universe", no_input)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*command, "--objective", "mse", "--target-fixed", "0.15", *TINY_GRID,
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: beta*k must be positive and finite, got array(")
    assert not out.exists()


def test_a_bad_grid_point_is_named_on_one_line(capsys):
    # the error once held the whole (2, 1, 2) array of products over three lines
    assert main(["optimize", "--mu", "0.1", "--sigma", "0.2", "--objective", "mse",
                 "--target-fixed", "0.15", *TINY_GRID]) == 2
    assert capsys.readouterr().err == (
        "error: beta*k must be positive and finite, got array(shape=(2, 1, 2)), "
        "first failing entry 0.0 at index (0, 0, 0)\n")


def test_a_fixed_k_sweep_whose_beta_times_k_overflows_exits_2_before_any_input(tmp_path,
                                                                               capsys):
    universe = _simulate(tmp_path, count=2, steps=60)
    out = tmp_path / "out"
    assert main(["backtest", "--in", str(universe), "--out", str(out), *BACKTEST_WINDOWS,
                 "--fixed-k", "1,1e200", "--fixed-beta", "1e200"]) == 2
    assert capsys.readouterr().err == "error: beta*k must be positive and finite, got inf\n"
    assert not out.exists()


def test_a_fixed_k_sweep_cuts_each_test_window_once(tmp_path, monkeypatch):
    # every strategy trades the windows of one cut; a loop over the strategies cut
    # every window once per strategy
    universe = _simulate(tmp_path, count=4, steps=60)
    cut, window = [], PriceSeries.window

    def counted(series, start, end):
        cut.append((series.symbol, start, end))
        return window(series, start, end)

    monkeypatch.setattr(PriceSeries, "window", counted)
    assert main(["backtest", "--in", str(universe), "--out", str(tmp_path / "sweep"),
                 *BACKTEST_WINDOWS, "--fixed-k", "0.5,1,2"]) == 0
    test = (date(2016, 2, 2), date(2016, 3, 1))
    assert cut == [(f"series_{i:04d}", *test) for i in range(4)]


def test_a_sweep_whose_strategies_fail_raises_the_first_failing_strategys_error(tmp_path,
                                                                               capsys):
    # prices alternating 1 and A over the test window: the gain overflows at k 2 for
    # A = 3e21 and at k 1 and 2 for A = 1e22, never at k 0.5
    universe = _simulate(tmp_path, count=2, steps=60)
    days = [date(2016, 1, 1) + timedelta(days=i) for i in range(61)]
    for name, big in [("a_k2", 3e21), ("b_k1", 1e22)]:
        rows = (f"{day},{big if i % 2 else 1.0!r}" for i, day in enumerate(days))
        (universe / f"{name}.csv").write_text("date,close\n" + "\n".join(rows) + "\n")
    out = tmp_path / "sweep"
    argv = ["backtest", "--in", str(universe), *BACKTEST_WINDOWS, "--fixed-k", "0.5,1,2"]
    assert main([*argv, "--out", str(out)]) == 3
    # k 1 is the first strategy to fail, at b_k1, although a_k2 comes first and fails at
    # k 2; the strategies before it have written their daily files
    assert capsys.readouterr().err == "data error: b_k1: trading failed: the gain overflows\n"
    assert sorted(p.name for p in out.iterdir()) == ["daily_aggregate_sls_k0.5.csv"]
    assert main([*argv, "--out", str(tmp_path / "skip"), "--skip-errors"]) == 0
    runs = json.loads((tmp_path / "skip" / "report.json").read_text())["strategies"]
    assert {label: sorted(run["failures"]) for label, run in runs.items()} == {
        "sls_k0.5": [], "sls_k1": ["b_k1"], "sls_k2": ["a_k2", "b_k1"]}


def test_plotdata_gain_vs_q_is_silent_where_a_power_overflows(tmp_path, capsys):
    out = tmp_path / "q.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["plotdata", "--kind", "gain-vs-q", "--k", "1000", "--out", str(out)]) == 0
    assert caught == []
    assert capsys.readouterr().err == ""
    # q**1000 leaves the float range at both ends of the default 0.2..5 ratios
    gains = [row[2] for row in _read_csv(out)[1:]]
    assert gains[0] == gains[-1] == "inf"


@pytest.mark.parametrize("target", ["nan", "inf"])
def test_plotdata_gain_vs_k_checks_its_target_as_optimize_does(tmp_path, capsys, target):
    out = tmp_path / "curve.csv"
    assert main(["plotdata", "--kind", "gain-vs-k", "--mu", "0.1", "--sigma", "0.2",
                 "--target-fixed", target, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: target gain must be finite, got {target}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--kind", "gain-vs-q", "--k", "1,1e-320,1e-321"],
    ["--kind", "gain-vs-k", "--mu", "0.1", "--sigma", "0.2", "--sls-only",
     "--grid-min", "1e-320", "--grid-max", "1e-320", "--grid-n", "1"],
])
def test_plotdata_names_the_first_k_whose_row_reads_nan(tmp_path, capsys, argv):
    # i0/k overflows to inf at k 1e-320 and meets a factor of 0, so the row would read nan
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["plotdata", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: the closed forms read NaN at k 1e-320\n"
    assert not out.exists()


@pytest.mark.parametrize("bins", ["1", "3"])
def test_plotdata_density_on_gains_spanning_more_than_the_floats_is_a_data_error(tmp_path,
                                                                                  capsys, bins):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"report": {"series": [{"final_gain": 1e308},
                                                        {"final_gain": -1e308}]}}))
    out = tmp_path / "density.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["plotdata", "--kind", "density", "--in", str(report), "--bins", bins,
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"data error: {report}: final gains from -1e+308 to 1e+308 span past the floats\n")
    assert not out.exists()


@pytest.mark.parametrize("lo, hi, bins", [
    (0.0, 5e-324, 1),  # one bin of the smallest float width: its density overflows
    (1.0, 1.0000000000000002, 50),  # two of numpy's bin edges round to one float
])
def test_plotdata_density_on_gains_too_close_for_the_bins_is_a_data_error(tmp_path, capsys,
                                                                           lo, hi, bins):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"report": {"series": [{"final_gain": lo},
                                                        {"final_gain": hi}]}}))
    out = tmp_path / "density.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["plotdata", "--kind", "density", "--in", str(report), "--bins", str(bins),
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err == (f"data error: {report}: final gains from {lo!r} to "
                                       f"{hi!r} span too little for --bins {bins}\n")
    assert not out.exists()


def test_plotdata_density_on_a_span_whose_bin_mass_passes_the_floats(tmp_path, capsys):
    # one bin 1.6e308 wide holding both gains has count * width = inf, but a finite
    # density; three bins keep count * width finite and the density its old bits
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"report": {"series": [{"final_gain": -8e307},
                                                        {"final_gain": 8e307}]}}))
    out = tmp_path / "density.csv"
    for bins, densities in [(1, ["6.25e-309"]), (3, ["9.375e-309", "0.0", "9.375e-309"])]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["plotdata", "--kind", "density", "--in", str(report), "--bins",
                         str(bins), "--out", str(out)]) == 0
        assert [row[3] for row in _read_csv(out)[1:]] == densities
    assert capsys.readouterr().err == ""


def test_plotdata_density_names_a_bin_count_below_1_before_reading_the_report(tmp_path,
                                                                               capsys):
    out = tmp_path / "density.csv"
    assert main(["plotdata", "--kind", "density", "--in", str(tmp_path / "nope.json"),
                 "--bins", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --bins must be >= 1, got 0\n"
    assert not out.exists()


def test_a_fixed_k_sweep_names_the_values_that_share_a_label(tmp_path, capsys):
    # labels show k to 6 significant digits; one value given twice keeps its own message
    universe = _simulate(tmp_path, count=2, steps=60)
    out = tmp_path / "sweep"
    for ks, message in [("0.1234567,0.1234568", "--fixed-k 0.1234567 and 0.1234568 share the "
                                                "strategy label sls_k0.123457"),
                        ("1,1.0", "duplicate strategy sls_k1 in --fixed-k")]:
        assert main(["backtest", "--in", str(universe), "--out", str(out), *BACKTEST_WINDOWS,
                     "--fixed-k", ks]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_an_infinite_grid_bound_exits_2_before_numpy_spaces_it(tmp_path, capsys):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["optimize", "--mu", "0.1", "--sigma", "0.2", "--objective", "mse",
                     "--target-fixed", "0.15", "--grid-max", "inf", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: need 0 < lo <= hi, got lo=0.5, hi=inf\n"
    assert not out.exists()
