"""Every name a library module imports is used, and every private one is too.

Names listed in ``__all__``, ``from __future__`` imports and lines marked
``# noqa: F401`` are exempt from the import check.  A module-level
``_name`` must be referenced somewhere in the library outside its own
definition, so a helper that only tests call cannot stay in ``src/``.

The import boundary is checked in fresh interpreters: ``import mscv.cli``
loads neither the network stack nor ``argparse``, ``mscv infer`` without a
required option fails before it loads the network, ``import mscv.network``
leaves the thread pool to a forward that asks for one, and the package
still hands out ``network``, ``tensorops`` and the network's exports on
first use.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC_ROOT = Path(__file__).resolve().parents[1] / "src"
SRC = sorted((SRC_ROOT / "mscv").glob("*.py"))


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


def _private_defs(stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    else:
        return set()
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Module-level ``_names`` of ``sources`` ({module: source}) that no
    name, attribute or import refers to outside their defining statement."""
    defined, referenced = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = _private_defs(stmt)
            defined += [(name, f"{module} line {stmt.lineno}") for name in own]
            refs = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.alias):
                    refs.add(node.name)
            referenced |= refs - own
    return sorted(f"{name} ({where})" for name, where in defined if name not in referenced)


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


@pytest.mark.parametrize("sources,unused", [
    ({"a": "def _f():\n    pass\n"}, ["_f (a line 1)"]),
    ({"a": "def _f():\n    return _f()\n"}, ["_f (a line 1)"]),
    ({"a": "_X = 1\n_Y: int = 2\nprint(_Y)\n"}, ["_X (a line 1)"]),
    ({"a": "class _C:\n    pass\n", "b": "from a import _C\n"}, []),
    ({"a": "def _f():\n    pass\n", "b": "import a\na._f()\n"}, []),
    ({"a": "def _f():\n    pass\ndef g():\n    return _f\n"}, []),
    ({"a": "def _f():\n    pass\n", "b": "def _f():\n    _f = 1\n"},
     ["_f (a line 1)", "_f (b line 1)"]),
    ({"a": "__all__ = []\n__version__ = '1'\nx = 1\n"}, []),
])
def test_checker_flags_only_unreferenced_privates(sources, unused):
    assert unreferenced_privates(sources) == unused


def test_no_unreferenced_privates():
    assert unreferenced_privates({p.name: p.read_text() for p in SRC}) == []


def fresh_python(*args: str) -> str:
    """Run ``python *args`` with ``src/`` on the path; returns its stdout."""
    path = os.pathsep.join(filter(None, [str(SRC_ROOT), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_network_stack_unloaded():
    out = fresh_python("-c", "import sys, mscv.cli; print(sorted(m for m in "
                       "('mscv.network', 'mscv.tensorops', 'argparse') if m in sys.modules))")
    assert out.strip() == "[]"


def test_infer_missing_option_leaves_network_unloaded():
    out = fresh_python("-c", "import sys\nfrom mscv.cli import main\n"
                       "code = main(['infer', '--left', 'l.ppm', '--right', 'r.ppm', '--out', 'o.pfm'])\n"
                       "print(code, 'mscv.network' in sys.modules)")
    assert out.splitlines()[-1] == "2 False"


def test_network_import_leaves_thread_pool_unloaded():
    out = fresh_python("-c", "import sys, mscv.network; "
                       "print('concurrent.futures' in sys.modules)")
    assert out.strip() == "False"


def test_lazy_export_is_the_network_function():
    out = fresh_python("-c", "import mscv; print(mscv.full_forward is mscv.network.full_forward)")
    assert out.strip() == "True"


def test_tensorops_resolves_from_package():
    out = fresh_python("-c", "import mscv; print(mscv.tensorops.conv2d.__module__)")
    assert out.strip() == "mscv.tensorops"


def test_star_import_binds_every_export():
    out = fresh_python("-c", "import mscv\nfrom mscv import *\n"
                       "print([n for n in mscv.__all__ if n not in globals()])")
    assert out.strip() == "[]"


def test_unknown_attribute_raises_attribute_error():
    out = fresh_python("-c", "import mscv\ntry:\n    mscv.no_such_name\n"
                       "except AttributeError as exc:\n    print(exc)")
    assert out.strip() == "module 'mscv' has no attribute 'no_such_name'"


def test_describe_runs_as_module():
    from mscv.network import describe_architecture

    assert describe_architecture() in fresh_python("-m", "mscv.cli", "describe")
