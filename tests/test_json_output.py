"""JSON outputs: streamed bytes, bounded memory while writing, no partial files."""

import builtins
import contextlib
import errno
import io
import json
import math
import multiprocessing
import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsls import cli
from gsls.cli import main

SCALARS = (st.none() | st.booleans() | st.integers() | st.text()
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, 5e-324]))
# non-ASCII text comes from st.text(), in keys and values alike
PAYLOADS = st.dictionaries(st.text(), st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner,
                                                                         max_size=4),
    max_leaves=25), max_size=5)


def _expected(payload) -> str:
    return json.dumps(payload, sort_keys=True, default=str) + "\n"


def _streamed(payload) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._write_json(payload, None)
    return out.getvalue()


def _lazy(value):
    """A copy of value with every list replaced by an iterator over its lazy items."""
    if isinstance(value, list):
        return map(_lazy, value)
    if isinstance(value, dict):
        return {key: _lazy(item) for key, item in value.items()}
    return value


@settings(max_examples=300, deadline=None)
@given(PAYLOADS)
def test_streamed_json_equals_one_json_dumps(payload):
    assert _streamed(payload) == _expected(payload)


@settings(max_examples=300, deadline=None)
@given(PAYLOADS)
def test_streamed_iterators_equal_the_lists_they_yield(payload):
    assert _streamed(_lazy(payload)) == _expected(payload)


def test_a_lazy_iterator_is_written_as_a_list():
    rows = iter([{"é": 1.5, "a": [math.nan, -0.0]}, None, iter(["x", math.inf])])
    payload = {"z": rows, "b": {"c": iter([]), "d": {}}, "a": ["☃", -math.inf]}
    expected = {"z": [{"é": 1.5, "a": [math.nan, -0.0]}, None, ["x", math.inf]],
                "b": {"c": [], "d": {}}, "a": ["☃", -math.inf]}
    assert _streamed(payload) == _expected(expected)


def test_json_files_are_streamed_to_the_same_bytes(tmp_path):
    payload = {"b": iter([{"k": 2.0}, {"k": 0.1}]), "a": {"x": "é"}}
    path = tmp_path / "out.json"
    cli._write_json(payload, str(path))
    assert path.read_text() == _expected({"b": [{"k": 2.0}, {"k": 0.1}], "a": {"x": "é"}})


def test_a_failed_write_leaves_no_file(tmp_path):
    def rows():
        yield {"gains": [1.0] * 1000}
        raise RuntimeError("row failed")

    path = tmp_path / "out.json"
    with pytest.raises(RuntimeError, match="row failed"):
        cli._write_json({"series": rows()}, str(path))
    assert list(tmp_path.iterdir()) == []


STRIPES = [1, 2, 3]
# 0 rows, 1 row, fewer rows than stripes, more, and lazy lists inside rows
ROWS = [[], [{"gains": [0.1, -0.0]}], [{"k": 1}, None],
        [{"gains": [i / 7, math.nan], "symbol": f"s{i}"} for i in range(7)],
        [[[], [1.5, [math.inf]]], {"g": [2.0, "é"]}, [], "x", -1e308]]


@pytest.fixture
def stripes(request, monkeypatch):
    """The number of processes that encode a lazy list, forced to request.param."""
    monkeypatch.setattr(cli, "_cpus", lambda: request.param)
    yield request.param
    _assert_no_children()


def _assert_no_children():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("stripes", STRIPES, indirect=True)
@pytest.mark.parametrize("rows", ROWS)
def test_striped_json_equals_one_json_dumps(tmp_path, stripes, rows):
    payload = {"series": rows, "config": {"out": "é", "n": [3, 4]}, "a": [rows, 1]}
    path = tmp_path / "out.json"
    cli._write_json(_lazy(payload), str(path))
    assert path.read_text() == _expected(payload)
    assert _streamed(_lazy(payload)) == _expected(payload)


@pytest.mark.parametrize("stripes", [1], indirect=True)
def test_one_stripe_forks_nothing(monkeypatch, stripes):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    payload = {"series": [{"gains": [1.0, 2.5]}] * 3}
    assert _streamed(_lazy(payload)) == _expected(payload)


def test_the_stripe_count_is_the_cpus_this_process_may_use(monkeypatch):
    assert cli._cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._cpus() == os.cpu_count()
    monkeypatch.delattr(os, "fork")
    assert cli._cpus() == 1


class _NoText:
    def __str__(self):
        raise RuntimeError("no text")


@pytest.mark.parametrize("stripes", STRIPES, indirect=True)
def test_a_row_that_fails_in_any_stripe_leaves_no_file(tmp_path, stripes):
    # row 1 is a child's at 2 and 3 stripes, this process's at 1
    path = tmp_path / "out.json"
    with pytest.raises(RuntimeError, match="no text"):
        cli._write_json({"series": iter([{"a": 1.0}, {"a": _NoText()}, {"a": 2.0}])}, str(path))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("stripes", [2, 3], indirect=True)
def test_a_child_that_dies_is_a_runtime_error(tmp_path, stripes):
    parent = os.getpid()

    class Dies:
        def __str__(self):
            if os.getpid() == parent:
                raise AssertionError("row 1 is a child's")
            os._exit(3)

    path = tmp_path / "out.json"
    with pytest.raises(ChildProcessError, match="exited with code 3"):
        cli._write_json({"series": iter([1.0, Dies(), 2.0])}, str(path))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("stripes", [2, 3], indirect=True)
@pytest.mark.parametrize("extra", [-2, 2])
def test_stripes_that_see_different_row_counts_write_no_file(tmp_path, stripes, extra):
    parent = os.getpid()

    def rows():
        yield from range(5 + (extra if os.getpid() != parent else 0))

    path = tmp_path / "out.json"
    with pytest.raises(ChildProcessError, match="disagree"):
        cli._write_json({"series": rows()}, str(path))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("stripes", STRIPES, indirect=True)
def test_an_interrupt_while_writing_leaves_no_file(tmp_path, stripes):
    def rows():
        yield from ({"gains": [1.0] * 1000} for _ in range(4))
        raise KeyboardInterrupt

    path = tmp_path / "out.json"
    with pytest.raises(KeyboardInterrupt):
        cli._write_json({"series": rows()}, str(path))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("stripes", STRIPES, indirect=True)
def test_a_full_disk_while_striping_leaves_no_file(tmp_path, monkeypatch, stripes):
    # 50 rows of about 20 kB each overfill every pipe while this process cannot write
    monkeypatch.setattr(cli, "open", lambda path, mode: _FullDisk(builtins.open(path, mode),
                                                                   100_000), raising=False)
    path = tmp_path / "out.json"
    with pytest.raises(OSError, match="No space left on device"):
        cli._write_json({"series": iter([{"gains": [i / 3] * 1000} for i in range(50)])},
                        str(path))
    assert list(tmp_path.iterdir()) == []


LONG_WINDOWS = ["--train-window", "2016-01-01:2016-02-01",
                "--test-window", "2016-02-02:2021-12-31", "--fixed-k", "1,2"]


def _long_universe(tmp_path):
    universe = tmp_path / "universe"
    assert main(["simulate", "--mu", "0.1", "--sigma", "0.2", "--steps", "2000",
                 "--count", "20", "--seed", "3", "--out", str(universe)]) == 0
    return universe


def test_report_json_is_written_in_memory_far_below_its_size(tmp_path, monkeypatch):
    # the report is about 1.6 MB; building it as one string needs more than twice that
    universe = _long_universe(tmp_path)
    out = tmp_path / "sweep"
    peaks = []
    write_json = cli._write_json

    def traced(payload, path):
        tracemalloc.start()
        try:
            write_json(payload, path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_write_json", traced)
    assert main(["backtest", "--in", str(universe), "--out", str(out), *LONG_WINDOWS]) == 0
    size = (out / "report.json").stat().st_size
    doc = json.loads((out / "report.json").read_text())
    assert [len(run["report"]["series"]) for run in doc["strategies"].values()] == [20, 20]
    assert len(doc["strategies"]["sls_k1"]["report"]["series"][0]["gains"]) > 1900
    assert size > 1_000_000
    assert peaks[0] < size / 4


class _FullDisk:
    """A text file whose writes fail with ENOSPC once `room` characters are written."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def write(self, text):
        self.room -= len(text)
        if self.room < 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_a_full_disk_while_writing_report_json_leaves_no_partial_file(tmp_path, monkeypatch,
                                                                      capsys):
    universe = _long_universe(tmp_path)
    out = tmp_path / "sweep"
    monkeypatch.setattr(cli, "open", lambda path, mode: _FullDisk(builtins.open(path, mode),
                                                                   200_000), raising=False)
    assert main(["backtest", "--in", str(universe), "--out", str(out), *LONG_WINDOWS]) == 4
    assert "No space left on device" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == [
        "daily_aggregate_sls_k1.csv", "daily_aggregate_sls_k2.csv", "summary.csv"]
