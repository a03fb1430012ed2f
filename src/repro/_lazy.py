"""Package re-exports resolved on first access (PEP 562).

A package ``__init__`` that re-exports names from its modules would import
every one of those modules, and everything they import, as soon as anything
under the package is imported.  :func:`lazy_exports` instead gives the
package a module ``__getattr__`` that imports a name's defining module the
first time the name is read, and stores the value in the package, so every
later read is an ordinary attribute lookup.  ``__dir__`` lists the lazy
names beside the loaded ones, so ``dir()`` and ``from package import *``
(through ``__all__``) see the same surface as an eager package.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Callable, Dict, Iterable, List, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Dict[str, Iterable[str]],
                 submodules: Iterable[str] = ()
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of a lazily re-exporting package.

    *exports* maps a module, relative to *package* (``".kernel"``), to the
    names the package re-exports from it; each *submodules* entry is a
    subpackage or module of *package* that is itself an attribute.
    """
    origin = {name: module for module, names in exports.items()
              for name in names}
    submodules = frozenset(submodules)
    shadowed = {name for name, module in origin.items()
                if module == f".{name}"}
    if shadowed:
        class Package(types.ModuleType):
            def __setattr__(self, name: str, value: object) -> None:
                # The import system binds each loaded submodule as an
                # attribute of its package.  Where the package re-exports
                # a same-named object from that submodule (``kernel`` from
                # ``.kernel``), the object wins, as in an eager
                # ``from .kernel import kernel``.
                if name in shadowed and isinstance(value, types.ModuleType):
                    value = getattr(value, name)
                super().__setattr__(name, value)

        sys.modules[package].__class__ = Package

    def __getattr__(name: str) -> object:
        if name in submodules:
            return importlib.import_module(f"{package}.{name}")
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin)
                      | submodules)

    return __getattr__, __dir__
