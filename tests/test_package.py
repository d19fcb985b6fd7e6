"""The package namespace: one public API, listed once per module."""

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
