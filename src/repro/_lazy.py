"""Lazy package namespaces (PEP 562).

A package ``__init__`` names what it exports once, in one table of
submodule → names, and imports a submodule only when one of its names is
first read::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        ".machine": ("GammaMachine",),
        ".plan": ("Query", "RangePredicate"),
    })

``from repro import GammaMachine`` imports ``repro.engine.machine`` and
what it needs, nothing else; ``import repro.sim`` imports no other
subsystem.  A resolved name is stored in the package namespace, so only
its first read goes through ``__getattr__``.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``, whose public
    names are ``table``'s: each relative submodule maps to the names it
    defines."""
    namespace = sys.modules[package].__dict__
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        # ``__import__``, not ``importlib.import_module``: the import
        # statement's machinery, which ``-X importtime`` reports.
        value = getattr(__import__(package + module, fromlist=(name,)), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__, sorted(home)
