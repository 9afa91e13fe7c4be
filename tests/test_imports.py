"""Every name a library module imports is used.

Names listed in ``__all__``, ``from __future__`` imports and lines marked
``# noqa: F401`` are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "mscv").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("source,unused", [
    ("import os\nimport re\nre.compile('x')\n", ["os (line 1)"]),
    ("from a import (\n    b,\n    c,\n)\nc()\n", ["b (line 2)"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nc\n", []),
    ("from __future__ import annotations\n", []),
    ("from a import b  # noqa: F401\n", []),
    ("from a import b\n__all__ = ['b']\n", []),
])
def test_checker_flags_only_unused_names(source, unused):
    assert unused_imports(source) == unused


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
