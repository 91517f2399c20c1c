"""The package's public surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import pebbling

MODULES = ["pebbling"] + [
    f"pebbling.{info.name}" for info in pkgutil.iter_modules(pebbling.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_an_attribute(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}"
