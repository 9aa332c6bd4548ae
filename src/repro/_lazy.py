"""Package exports imported on first access (PEP 562).

A run pays for the layers it uses: a simulator run never touches the
asyncio driver, the race sanitizer, the fault injector or the offline
partitioners, so the package surfaces that re-export them name them in
a table instead of importing them.  The first ``package.Name`` (or
``from package import Name``) imports the defining module and binds the
name on the package, so every later lookup is a plain attribute load.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Mapping


def lazy_exports(package: str,
                 table: Mapping[str, tuple[str, ...]]) -> Callable[[str], Any]:
    """The module ``__getattr__`` of ``package``: ``table`` maps a
    module (relative to ``package``) to the names it defines that the
    package exports."""
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
