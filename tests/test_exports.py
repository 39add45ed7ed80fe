import importlib
import pkgutil

import entroflow

MODULES = ["entroflow"] + [
    f"entroflow.{info.name}" for info in pkgutil.iter_modules(entroflow.__path__)
]


def test_every_exported_name_resolves():
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"{name}.__all__ names missing {attr!r}"


def test_star_import():
    namespace: dict = {}
    exec("from entroflow import *", namespace)
    assert set(entroflow.__all__) <= set(namespace)
