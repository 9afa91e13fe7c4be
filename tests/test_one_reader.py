"""One function in the library opens a path for reading, one for writing.

``imagekit._read_regular`` decides which paths count as input (regular
files only, opened without blocking) and how much of them is read (at
most their size); ``imagekit._write_regular`` decides which count as
output (regular files only, opened without blocking, checked before they
are truncated).  Every decoder reads and every encoder writes through
them, so this test scans ``src/mscv/*.py`` and fails when any other
function opens a path (``open``, ``os.open``, ``read_text``/``read_bytes``
or ``write_text``/``write_bytes``), and when functions other than the
three decoders call ``_read_regular`` or other than the three encoders
call ``_write_regular``.
"""

import ast
from pathlib import Path

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "mscv").glob("*.py"))


def _arg(call: ast.Call, index: int, name: str, default=None):
    if len(call.args) > index:
        return call.args[index]
    return next((k.value for k in call.keywords if k.arg == name), default)


def _access(call: ast.Call) -> tuple[bool, bool]:
    """Whether ``call`` opens a path to read and whether to write; both
    when its mode or flags are not spelled out."""
    f = call.func
    if isinstance(f, ast.Attribute) and f.attr in (
            "read_text", "read_bytes", "write_text", "write_bytes"):
        return f.attr.startswith("read"), f.attr.startswith("write")
    if isinstance(f, ast.Attribute) and f.attr == "open":
        if not (isinstance(f.value, ast.Name) and f.value.id == "os"):
            return False, False
        flags = {n.id if isinstance(n, ast.Name) else n.attr
                 for n in ast.walk(_arg(call, 1, "flags", ast.Name("?")))
                 if isinstance(n, (ast.Name, ast.Attribute))}
        if not all(name == "os" or name.startswith("O_") for name in flags):
            return True, True
        return "O_WRONLY" not in flags, bool(flags & {"O_WRONLY", "O_RDWR"})
    if not (isinstance(f, ast.Name) and f.id == "open"):
        return False, False
    mode = _arg(call, 1, "mode", ast.Constant("r"))
    if not isinstance(mode, ast.Constant):
        return True, True
    writes = any(c in mode.value for c in "wax+")
    return "+" in mode.value or not writes, writes


def _reads(call: ast.Call) -> bool:
    return _access(call)[0]


def _writes(call: ast.Call) -> bool:
    return _access(call)[1]


def _calls(name):
    def match(call: ast.Call) -> bool:
        f = call.func
        return (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name
    return match


def calling_functions(source: str, match) -> list[str]:
    """Names of the functions (``<module>`` outside any) whose own body
    makes a call that ``match`` accepts, one entry per call, in source
    order."""
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


def in_library(match) -> set[tuple[str, str]]:
    """``(module, function)`` for each function in ``src/mscv`` that makes a
    call ``match`` accepts."""
    return {(path.stem, name) for path in SRC
            for name in calling_functions(path.read_text(), match)}


SCANNED = '''
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
def x(p): return open(p, "xb"), open(p, "a")
def y(p): return os.open(p, os.O_WRONLY | os.O_CREAT | os.O_NONBLOCK, 0o666)
def z(p): return os.open(p, os.O_RDWR), open(p, "r+b")
def k(p, flags): return os.open(p, flags)
def t(p): Path(p).write_text("t"); Path(p).write_bytes(b"t")
'''


def test_scanner_sees_each_kind_of_read():
    assert calling_functions(SCANNED, _reads) == [
        "<module>", "b", "c", "d", "e", "g", "h", "z", "z", "k"]


def test_scanner_sees_each_kind_of_write():
    assert calling_functions(SCANNED, _writes) == [
        "h", "w", "w", "x", "x", "y", "z", "z", "k", "t", "t"]


def test_read_regular_is_the_only_reader():
    assert in_library(_reads) == {("imagekit", "_read_regular")}


def test_write_regular_is_the_only_writer():
    assert in_library(_writes) == {("imagekit", "_write_regular")}


def test_only_the_decoders_call_read_regular():
    assert in_library(_calls("_read_regular")) == {
        ("imagekit", "read_image"), ("imagekit", "read_pfm"), ("network", "load_weights")}


def test_only_the_encoders_call_write_regular():
    assert in_library(_calls("_write_regular")) == {
        ("imagekit", "write_pnm"), ("imagekit", "write_pfm"), ("network", "save_weights")}
