"""Lazily resolved package exports (PEP 562).

A package lists its public names by defining module; each name is imported
on first access and then cached in the package namespace, so importing the
package costs nothing beyond the modules a caller actually uses.  A module
whose code moved to one that only some runs load resolves the moved names
the same way.
"""

from __future__ import annotations

import importlib
import sys


def exports(package: str, *groups: tuple[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for ``package``'s namespace.

    Each group pairs a defining module with public names it provides;
    ``__all__`` lists the names in group order.
    """
    source = {name: module for module, names in groups for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *source})

    return list(source), __getattr__, __dir__
