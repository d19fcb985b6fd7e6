"""The package namespace: one public API, listed once per module."""

import ast
from pathlib import Path

import pytest

import gsls
from gsls import backtest, gbm, optimizer, strategy

MODULES = (backtest, gbm, optimizer, strategy)


def test_package_api_is_the_sorted_union_of_the_module_lists():
    assert gsls.__all__ == sorted(gsls.__all__)
    assert set(gsls.__all__) == {name for module in MODULES for name in module.__all__}
    # no name is exported by two modules
    assert len(gsls.__all__) == sum(len(module.__all__) for module in MODULES)


def test_every_exported_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(gsls, name) is getattr(module, name)


def test_every_source_file_parses_with_the_python_3_10_grammar():
    # the oldest supported Python; this checks its grammar on a newer interpreter
    sources = sorted(Path(gsls.__file__).parent.glob("*.py"))
    assert [path.name for path in sources] == [
        "__init__.py", "__main__.py", "backtest.py", "cli.py", "gbm.py", "optimizer.py",
        "strategy.py"]
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    # the check rejects syntax that 3.10 lacks
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
