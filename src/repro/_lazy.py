"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package that re-exports its submodules' public names eagerly makes
every ``import repro.<anything>`` pay for all of them: NumPy and the
whole simulator, for a command that only reads a result store.  A
package built on :func:`lazy_exports` instead names the submodule that
defines each public name and imports it on the first attribute access::

    __getattr__, __dir__ = lazy_exports(globals(), {
        ".engine": ("Engine", "Event"),
        ".rng": ("derive_seed",),
    })

``from repro.sim import Engine``, ``repro.sim.Engine`` and ``from
repro.sim import *`` all work as before; only the import happens later.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Iterable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: dict[str, Any], modules: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """A package's module ``__getattr__`` and ``__dir__``.

    ``namespace`` is the package's ``globals()``; ``modules`` maps each
    defining module, relative to the package, to the public names it
    provides.  A resolved name is stored in ``namespace``, so the hook
    runs once per name.
    """
    package = namespace["__name__"]
    source = {name: module for module, names in modules.items()
              for name in names}

    def __getattr__(name: str) -> Any:
        module = source.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | source.keys())

    return __getattr__, __dir__
