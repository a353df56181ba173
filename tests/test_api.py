"""Public surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import lyapcert

MODULES = ["lyapcert"] + sorted(
    info.name for info in pkgutil.walk_packages(lyapcert.__path__, "lyapcert.")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes {missing}"
