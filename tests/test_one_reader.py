"""One function in the library opens a path for reading.

``imagekit._read_regular`` decides which paths count as input (regular
files only, opened without blocking) and how much of them is read (at
most their size).  Every decoder goes through it, so this test scans
``src/mscv/*.py`` and fails when any other function calls ``os.open``,
``open(...)`` with a mode that does not write, or
``read_text``/``read_bytes``, and when a function other than the three
decoders calls ``_read_regular``.  The writers' ``open(path, "wb")`` stay
allowed.
"""

import ast
from pathlib import Path

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "mscv").glob("*.py"))


def _reads(call: ast.Call) -> bool:
    f = call.func
    if isinstance(f, ast.Attribute):
        if f.attr in ("read_text", "read_bytes"):
            return True
        return f.attr == "open" and isinstance(f.value, ast.Name) and f.value.id == "os"
    if not (isinstance(f, ast.Name) and f.id == "open"):
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and "w" in str(mode.value))


def _calls_read_regular(call: ast.Call) -> bool:
    f = call.func
    return (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "_read_regular"


def reading_functions(source: str, match=_reads) -> list[str]:
    """Names of the functions (``<module>`` outside any) whose own body
    makes a call that ``match`` accepts (by default, one that opens a path
    for reading), one entry per call, in source order."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and match(child):
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_scanner_sees_each_kind_of_read():
    source = '''
import os
from pathlib import Path
a = Path("x").read_text()
def b(p): return Path(p).read_bytes()
def c(p): return open(p)
def d(p): return open(p, "rb")
def e(p): return open(p, mode="r")
def f(p):
    def g():
        return os.open(p, os.O_RDONLY)
    return g
def h(p, m): return open(p, m)
def w(p):
    with open(p, "wb") as out, open(p, mode="w") as text:
        return out, text
'''
    assert reading_functions(source) == ["<module>", "b", "c", "d", "e", "g", "h"]


def test_read_regular_is_the_only_reader():
    readers = {(path.stem, name) for path in SRC for name in reading_functions(path.read_text())}
    assert readers == {("imagekit", "_read_regular")}


def test_only_the_decoders_call_read_regular():
    callers = {(path.stem, name) for path in SRC
               for name in reading_functions(path.read_text(), _calls_read_regular)}
    assert callers == {("imagekit", "read_image"), ("imagekit", "read_pfm"),
                       ("network", "load_weights")}
