"""Lazy package exports (PEP 562).

A package ``__init__`` lists its public names by defining submodule and
binds the two functions :func:`lazy_exports` returns as its module-level
``__getattr__`` and ``__dir__``::

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".platform": ("Platform",),
        ".simulator": ("DimemasSimulator",),
    })

Importing the package then runs no submodule.  The first access of a name,
by attribute or by ``from package import name``, imports its submodule and
stores the value on the package, so later accesses are plain attribute
reads.  A command therefore loads only the modules whose names it uses.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each submodule, relative to ``package`` (``".spec"``),
    to the names it exports.
    """
    modules: Dict[str, str] = {name: module
                               for module, names in exports.items()
                               for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = modules[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(modules))

    return __getattr__, __dir__
