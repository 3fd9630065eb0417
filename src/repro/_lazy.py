"""Lazy package exports (PEP 562).

A package ``__init__`` names the submodule that defines each of its
public names; a submodule is imported the first time one of its names is
read, so importing a package costs only the code a program runs::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
        "eco": ("EcoOptimizer", "TunedKernel"),
        "search": ("GuidedSearch", "SearchConfig", "SearchResult"),
    })

The table is the package's public surface: ``__all__`` is its names.

``tests/test_lazy_imports.py`` checks that every package's ``__all__``
resolves and that a plain ``repro tune`` loads none of the optional
features (serve, experiments, baselines, the corpus, the learned ranker,
the C emitter, the process pool).
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, MutableMapping, Sequence, Tuple


def lazy_exports(
    package: str,
    namespace: MutableMapping[str, Any],
    table: Mapping[str, Sequence[str]],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """The ``(__getattr__, __dir__, __all__)`` of ``package``, whose
    ``table`` maps each submodule (relative to the package) to the public
    names it defines; ``namespace`` is the package's ``globals()``."""
    origin: Dict[str, str] = {
        name: f"{package}.{module}" for module, names in table.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        # stored after the import, which binds a same-named submodule
        # (``repro.core.explain``) over the name: the name means the export
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, list(origin)
