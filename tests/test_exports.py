import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import swerom

MODULES = ["swerom"] + [f"swerom.{info.name}" for info in pkgutil.iter_modules(swerom.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a deleted function must not stay behind in an __all__ list
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_exported_functions_and_classes_are_defined_where_listed(name):
    # each public name has one import path: a module lists only what it defines
    module = importlib.import_module(name)
    foreign = {attr: obj.__module__ for attr in getattr(module, "__all__", ())
               if (inspect.isfunction(obj := getattr(module, attr)) or inspect.isclass(obj))
               and obj.__module__ != name}
    assert foreign == {}


def test_importing_one_module_loads_only_what_it_needs():
    # the package root pins the heap and nothing else, so importing the model
    # loads neither the reduced engines nor the benchmark harness
    probe = ("import sys, swerom.model; "
             "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'swerom')))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout.split()
    assert out == ["swerom", "swerom.heap", "swerom.model"]
