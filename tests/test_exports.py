"""Every exported name resolves.

A deletion that leaves its name behind in an ``__all__`` list breaks
``from uavlos.<module> import *`` and misleads readers; nothing else in
the suite imports every exported name.
"""

import importlib
import pkgutil

import pytest

import uavlos

MODULES = [uavlos] + [
    importlib.import_module(f"uavlos.{info.name}") for info in pkgutil.iter_modules(uavlos.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []
