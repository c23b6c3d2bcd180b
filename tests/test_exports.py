import importlib
import pkgutil

import pytest

import swerom

MODULES = ["swerom"] + [f"swerom.{info.name}" for info in pkgutil.iter_modules(swerom.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a deleted function must not stay behind in an __all__ list
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
