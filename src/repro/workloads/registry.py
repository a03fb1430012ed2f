"""Workload registry, mirroring :mod:`repro.backends.registry`.

The registry is what makes the four science kernels a *system* rather than a
kernel collection: the CLI, the sweep harness and the experiments enumerate
and dispatch workloads through it, so adding a workload is one
``register_workload`` call away from every existing entry point.
"""

from __future__ import annotations

import importlib
import threading
from typing import Dict, NamedTuple, Tuple, Union

from ..core.errors import ConfigurationError
from .base import Workload

__all__ = ["register_workload", "get_workload", "list_workloads",
           "unregister_workload"]


class _Builtin(NamedTuple):
    """A built-in workload registered by name; its module is imported, and
    the workload made, on the first :func:`get_workload` that reaches it."""

    name: str
    module: str
    cls: str


_REGISTRY: Dict[str, Union[Workload, _Builtin]] = {}
#: one built-in is made at a time, so concurrent first lookups share it
_LOAD_LOCK = threading.Lock()


def register_workload(workload: Workload, *aliases: str,
                      replace: bool = False) -> Workload:
    """Register a workload under its name and optional aliases.

    Unlike the backend registry, accidental double-registration is an error
    (``replace=True`` opts out, for tests and hot-swapping).
    """
    if not workload.name:
        raise ConfigurationError("workload has no name; set the class's "
                                 "'name' attribute before registering")
    names = [workload.name.lower()] + [a.lower() for a in aliases]
    displaced = {n: _REGISTRY[n] for n in names
                 if n in _REGISTRY and _REGISTRY[n] is not workload}
    if displaced and not replace:
        raise ConfigurationError(
            f"workload name(s) {sorted(displaced)} already registered; pass "
            "replace=True to override"
        )
    # Displacing a workload's canonical name evicts it entirely (aliases
    # must not keep resolving to the displaced instance); displacing only
    # an alias of another workload retargets just that key.
    for name, old in displaced.items():
        if name == old.name.lower():
            for key in [k for k, v in _REGISTRY.items() if v is old]:
                del _REGISTRY[key]
        elif name in _REGISTRY:
            del _REGISTRY[name]
    for name in names:
        _REGISTRY[name] = workload
    return workload


def unregister_workload(name: str) -> None:
    """Remove a workload (and any aliases pointing at it)."""
    workload = _entry(name)
    for key in [k for k, v in _REGISTRY.items() if v is workload]:
        del _REGISTRY[key]


def _entry(name) -> Union[Workload, _Builtin]:
    try:
        return _REGISTRY[str(name).lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload {name!r}; known workloads: "
            f"{sorted({w.name for w in _REGISTRY.values()})}"
        ) from None


def get_workload(name) -> Workload:
    """Look up a workload by name; passes Workload instances through.

    A built-in workload's module is imported on its first lookup.
    """
    if isinstance(name, Workload):
        return name
    entry = _entry(name)
    if not isinstance(entry, _Builtin):
        return entry
    with _LOAD_LOCK:
        entry = _entry(name)
        if isinstance(entry, _Builtin):
            workload = getattr(importlib.import_module(entry.module),
                               entry.cls)()
            for key in [k for k, v in _REGISTRY.items() if v is entry]:
                _REGISTRY[key] = workload
            entry = workload
    return entry


def list_workloads() -> Tuple[str, ...]:
    """Canonical names of registered workloads, sorted."""
    return tuple(sorted({w.name for w in _REGISTRY.values()}))


#: the paper's four workloads, under their names and aliases
for _builtin, _aliases in (
        (_Builtin("stencil", "repro.workloads.stencil", "StencilWorkload"),
         ("laplacian",)),
        (_Builtin("babelstream", "repro.workloads.babelstream",
                  "BabelStreamWorkload"), ("stream",)),
        (_Builtin("minibude", "repro.workloads.minibude",
                  "MiniBudeWorkload"), ("bude",)),
        (_Builtin("hartreefock", "repro.workloads.hartreefock",
                  "HartreeFockWorkload"), ("hf",))):
    for _key in (_builtin.name, *_aliases):
        _REGISTRY[_key] = _builtin
