"""Every ``repro`` name the examples and the README import resolves.

The examples and the README's Python blocks are not run here (most of
them tune for seconds); this only catches a rename or a removal that
would break them at their first line.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path
from typing import List, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _sources() -> List[Tuple[str, str]]:
    """(label, Python source) of each example and README code block."""
    sources = [(path.name, path.read_text()) for path in sorted((ROOT / "examples").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    sources += [(f"README.md block {i}", block) for i, block in enumerate(blocks)]
    return sources


def _imports(source: str) -> List[Tuple[str, str]]:
    """(module, name) of every ``from repro... import name``; a bare
    ``import repro...`` gives (module, "")."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, "") for alias in node.names if alias.name.split(".")[0] == "repro"]
    return found


SOURCES = _sources()


def test_examples_and_readme_blocks_are_found():
    labels = [label for label, _ in SOURCES]
    assert any(label.endswith(".py") for label in labels)
    assert any(label.startswith("README") for label in labels)


@pytest.mark.parametrize("label, source", SOURCES, ids=[label for label, _ in SOURCES])
def test_every_repro_import_resolves(label, source):
    imports = _imports(source)
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name and not hasattr(module, name):
            importlib.import_module(f"{module_name}.{name}")  # a submodule
