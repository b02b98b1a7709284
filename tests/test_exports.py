"""Every public name a stablab module declares in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import stablab

MODULES = sorted(info.name for info in pkgutil.iter_modules(stablab.__path__, "stablab."))


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
