"""The package's public names are exactly its public modules' ``__all__``."""

import importlib

import nbmf

MODULES = [importlib.import_module(f"nbmf.{name}") for name in
           ("binmat", "errors", "evaluate", "io", "solver", "synthetic", "tune")]


def test_package_exports_each_module_all_once():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)
    assert sorted(nbmf.__all__) == sorted([*names, "__version__"])
    for module in MODULES:
        for name in module.__all__:
            assert getattr(nbmf, name) is getattr(module, name), name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from nbmf import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(nbmf.__all__)
