"""Each CLI setting is one row of its subcommand's table, and the table drives
the flags, the config-file keys and the JSON ``config`` echo."""

import json

import pytest

from gsls import cli
from gsls.backtest import DEFAULT_DT
from gsls.cli import main


def _tables():
    """(test id, argv prefix, rows) for every subcommand and plotdata kind."""
    for name, (_, rows, command) in cli.COMMANDS.items():
        if command is not None:
            yield name, [name], rows
    for kind, (rows, _) in cli.PLOTS.items():
        yield f"plotdata-{kind}", ["plotdata", "--kind", kind], [cli.KIND, *rows]


ROWS = [pytest.param(prefix, rows, row, id=f"{name}-{row[0]}")
        for name, prefix, rows in _tables() for row in rows]


def _sample(row, tmp_path):
    """A raw string for the row and the value it resolves to."""
    key, kind, _, _ = row
    if kind is bool:
        return "true", True
    if isinstance(kind, tuple):
        return kind[0], kind[0]
    if kind in (int, float):
        return "3", kind(3)
    return str(tmp_path / key), str(tmp_path / key)


def test_every_subcommand_and_plot_kind_has_a_table():
    names = [name for name, _, _ in _tables()]
    assert names == ["simulate", "estimate", "optimize", "backtest", "plotdata-density",
                     "plotdata-daily", "plotdata-gain-vs-q", "plotdata-gain-vs-k"]


@pytest.mark.parametrize("prefix, rows, row", ROWS)
def test_every_row_is_a_flag(prefix, rows, row, tmp_path):
    raw, value = _sample(row, tmp_path)
    flag = "--" + row[0].replace("_", "-")
    argv = [*prefix, flag] if row[1] is bool else [*prefix, flag, raw]
    assert getattr(cli._build_parser().parse_args(argv), row[0]) == value


@pytest.mark.parametrize("prefix, rows, row", ROWS)
def test_every_row_is_a_config_key(prefix, rows, row, tmp_path, capsys):
    raw, value = _sample(row, tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text(f"{row[0]} = {raw}\n")
    main([*prefix, "--config", str(config)])
    err = capsys.readouterr().err
    assert "unknown config keys" not in err and "config key" not in err
    args = cli._build_parser().parse_args(prefix)
    if row[0] == "kind":
        args.kind = None
    assert cli._resolve(args, cli._load_config(str(config)), rows)[row[0]] == value


@pytest.fixture(scope="module")
def universe(tmp_path_factory):
    out = tmp_path_factory.mktemp("settings") / "universe"
    assert main(["simulate", "--mu", "0.1", "--sigma", "0.2", "--steps", "60",
                 "--count", "2", "--out", str(out)]) == 0
    return out


def _echo(name, universe, tmp_path):
    """Run one JSON-writing subcommand and return its config echo."""
    out = tmp_path / "out"
    argv = {
        "simulate": ["--mu", "0.1", "--sigma", "0.2", "--steps", "5"],
        "estimate": ["--in", str(universe / "series_0000.csv")],
        "optimize": ["--mu", "0.1", "--sigma", "0.2", "--objective", "mse",
                     "--target-fixed", "0.15"],
        "backtest": ["--in", str(universe), "--train-window", "2016-01-01:2016-02-01",
                     "--test-window", "2016-02-02:2016-03-01", "--fixed-k", "1"],
    }[name]
    assert main([name, *argv, "--out", str(out)]) == 0
    if name in ("simulate", "backtest"):
        out = out / ("manifest.json" if name == "simulate" else "report.json")
    return json.loads(out.read_text())["config"]


@pytest.mark.parametrize("name", ["simulate", "estimate", "optimize", "backtest"])
def test_json_echo_has_exactly_the_table_keys(name, universe, tmp_path):
    assert set(_echo(name, universe, tmp_path)) == {row[0] for row in cli.COMMANDS[name][1]}


def test_estimate_and_optimize_echo_every_resolved_setting(universe, tmp_path):
    series = str(universe / "series_0000.csv")
    assert _echo("estimate", universe, tmp_path) == {
        "in": series, "dt": DEFAULT_DT, "train_window": None, "out": str(tmp_path / "out")}
    # the echo holds the target settings as given, not a derived "target" label
    assert _echo("optimize", universe, tmp_path) == {
        "in": None, "mu": 0.1, "sigma": 0.2, "dt": DEFAULT_DT, "train_window": None,
        "horizon": 1.0, "i0": 1.0, "jobs": 1, "table": False, "grid_min": 0.5,
        "grid_max": 5.0, "grid_n": 10, "sls_only": False, "objective": "mse",
        "target_fixed": 0.15, "target_drift": None, "out": str(tmp_path / "out")}


@pytest.mark.parametrize("grid", [("1", "3", "1"), ("1", "1", "2")])
def test_grid_echo_is_the_settings_given(grid, tmp_path):
    # a one-value grid spans only grid_min, and a grid of ones is an SLS grid,
    # but the echo still shows grid_max and sls_only as given
    out = tmp_path / "opt.json"
    assert main(["optimize", "--mu", "0.1", "--sigma", "0.2", "--objective", "mse",
                 "--target-fixed", "0.15", "--grid-min", grid[0], "--grid-max", grid[1],
                 "--grid-n", grid[2], "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert (config["grid_min"], config["grid_max"], config["grid_n"]) == tuple(map(float, grid))
    assert config["sls_only"] is False
