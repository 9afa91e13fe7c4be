"""perfbench's traced span names still name library functions.

``perfbench/report.py`` lists the spans it reports as ``<module>.<function>``
in ``BUSY`` and ``SELF``; its tracer wraps the public functions of each
``mscv`` module under those names.  A renamed or deleted function would make
its metric read 0 on every traced run without any error, so this test reads
the two lists (without importing perfbench) and resolves every name.
"""

import ast
import importlib
import types
from pathlib import Path

REPORT = Path(__file__).resolve().parents[1] / "perfbench" / "report.py"

# Names the benchmark still lists for functions the library has deleted.
STALE = {
    "tensorops.batchnorm_relu",
    "costvol.hamming_cost_volume",
    "costvol.ad_cost_volume",
    "costvol.assemble_traditional",
    "disparity.wta_disparity",
}


def traced_names() -> list[str]:
    lists = {}
    for node in ast.parse(REPORT.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("BUSY", "SELF"):
                lists[target.id] = ast.literal_eval(node.value)
    return lists["BUSY"] + lists["SELF"]


def resolves(name: str) -> bool:
    module, function = name.split(".")
    obj = getattr(importlib.import_module(f"mscv.{module}"), function, None)
    return (isinstance(obj, types.FunctionType) and obj.__name__ == function
            and obj.__module__ == f"mscv.{module}")


def test_traced_names_resolve():
    names = traced_names()
    assert len(names) > len(STALE)
    assert [n for n in names if n not in STALE and not resolves(n)] == []
