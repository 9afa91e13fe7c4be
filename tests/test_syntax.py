"""Every Python file of the project parses under Python 3.10's grammar.

``pyproject.toml`` promises Python 3.10+, but the suite may only ever run
on a newer interpreter.  ``ast.parse(..., feature_version=(3, 10))``
rejects syntax that 3.10 lacks, such as ``except*`` or PEP 695 type
parameters, and the suite's warnings-as-errors turns a deprecated escape
sequence into a failure too.  It checks syntax only: a library call that
is new in 3.11 (``tomllib``, ``datetime.UTC``, ``enum.StrEnum``) or a
behaviour that differs between versions still passes.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


def test_newer_syntax_rejected():
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_310(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
