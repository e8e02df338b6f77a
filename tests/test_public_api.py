"""Every exported name resolves: no dangling entries in any ``__all__``."""

import importlib
import pkgutil

import pytest

import lifedual

MODULES = ["lifedual"] + [
    f"lifedual.{info.name}" for info in pkgutil.iter_modules(lifedual.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
