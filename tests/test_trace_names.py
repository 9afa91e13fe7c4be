"""perfbench's traced span names still name library functions.

``perfbench/report.py`` lists the spans it reports as ``<module>.<function>``
in ``BUSY`` and ``SELF``; its tracer wraps the public functions of each
``mscv`` module under those names.  ``PER_LAYER`` adds a few metric names of
its own, such as ``network.load_weights.busy_s``.  A renamed or deleted
function would make its metric read 0 on every traced run without any error,
so this test reads those lists (without importing perfbench) and resolves
every name.
"""

import ast
import importlib
import re
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


def assignments() -> dict[str, ast.expr]:
    """The value of each module-level ``NAME = ...`` in report.py."""
    return {node.targets[0].id: node.value for node in ast.parse(REPORT.read_text()).body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}


def traced_names() -> list[str]:
    values = assignments()
    return ast.literal_eval(values["BUSY"]) + ast.literal_eval(values["SELF"])


def per_layer_names() -> list[str]:
    """The functions that ``PER_LAYER`` names outside ``BUSY`` and ``SELF``:
    each string constant ``<module>.<function>.<busy_s|self_s|calls>``."""
    return [node.value.rsplit(".", 1)[0] for node in ast.walk(assignments()["PER_LAYER"])
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.fullmatch(r"\w+\.\w+\.(busy_s|self_s|calls)", node.value)]


def resolves(name: str) -> bool:
    module, function = name.split(".")
    obj = getattr(importlib.import_module(f"mscv.{module}"), function, None)
    return (isinstance(obj, types.FunctionType) and obj.__name__ == function
            and obj.__module__ == f"mscv.{module}")


def test_traced_names_resolve():
    names = traced_names()
    assert len(names) > len(STALE)
    assert [n for n in names if n not in STALE and not resolves(n)] == []


# ``network.load_weights.busy_s`` (net_kitti set-up) is built in PER_LAYER
# itself, and ``tensorops.conv2d.calls`` counts calls of a traced name.
def test_per_layer_names_resolve():
    names = per_layer_names()
    assert "network.load_weights" in names and "tensorops.conv2d" in names
    assert [n for n in names if not resolves(n)] == []
