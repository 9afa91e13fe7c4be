"""Self-tests for the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import mscv.cli  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import report  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def input_digest(workload_cls, seed: int, workdir: Path) -> str:
    workload = workload_cls()
    workload.generate(seed, workdir, mscv)
    h = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        h.update(path.name.encode() + path.read_bytes())
    for left, right in getattr(workload, "frames", []):
        h.update(inputs.digest(left.data, right.data).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = input_digest(WORKLOADS[name], 7, dirs[0])
    assert input_digest(WORKLOADS[name], 7, dirs[1]) == first
    assert input_digest(WORKLOADS[name], 8, dirs[2]) != first


def test_self_time_on_hand_built_tree():
    rec = tracing.SpanRecorder()
    #  item  [0, 10]
    #    a   [1, 4]     self 4-1 minus child [2, 3] = 2
    #      c [2, 3]
    #    b   [3, 6]     overlaps a: item's children cover [1, 6]
    rec.spans = [
        ["item", -1, 0.0, 10.0],
        ["layer.a", 0, 1.0, 4.0],
        ["layer.c", 1, 2.0, 3.0],
        ["layer.b", 0, 3.0, 6.0],
        ["setup", -1, 10.0, 11.0],
        ["layer.a", 4, 10.0, 10.5],
    ]
    assert rec.self_times() == pytest.approx([5.0, 2.0, 1.0, 3.0, 0.5, 0.5])
    busy, own, calls = rec.totals("item")
    assert dict(busy) == pytest.approx({"layer.a": 3.0, "layer.b": 3.0, "layer.c": 1.0})
    assert dict(own) == pytest.approx({"layer.a": 2.0, "layer.b": 3.0, "layer.c": 1.0})
    assert dict(calls) == {"layer.a": 1, "layer.b": 1, "layer.c": 1}


def test_recorder_nesting_and_counts():
    rec = tracing.SpanRecorder()
    root = rec.begin("item")
    child = rec.begin("layer.x")
    rec.add("layer.bytes", 5)
    rec.end(child)
    rec.end(root)
    assert [s[:2] for s in rec.spans] == [["item", -1], ["layer.x", 0]]
    assert rec.counts[("item", "layer.bytes")] == 5
    with pytest.raises(RuntimeError):
        outer, inner = rec.begin("a"), rec.begin("b")
        rec.end(outer)


def _module_state():
    modules = [mscv] + [getattr(mscv, layer) for layer in tracing.LAYERS]
    return modules, {m.__name__: dict(vars(m)) for m in modules}


def test_wrappers_leave_modules_as_they_were():
    modules, before = _module_state()
    rec = tracing.SpanRecorder()
    hooks = tracing.Tracing(rec, modules)
    try:
        assert mscv.network.conv2d is not before["mscv.network"]["conv2d"]
        assert mscv.network.conv2d is mscv.tensorops.conv2d
        root = rec.begin("item")
        mscv.cli.census_transform(mscv.Image(np.zeros((1, 8, 8))))
        with pytest.raises(ValueError):
            mscv.tensorops.concat_channels([])
        rec.end(root)
    finally:
        hooks.remove()
    _, after = _module_state()
    assert before.keys() == after.keys()
    for name, old in before.items():
        assert old.keys() == after[name].keys(), name
        assert all(old[k] is after[name][k] for k in old), name
    assert [s[0] for s in rec.spans] == ["item", "costvol.census_transform", "tensorops.concat_channels"]
    assert rec.errors == {"tensorops": 1}


def test_mask_oracle_matches_program_on_random_rows():
    rng = np.random.default_rng(3)
    gt = inputs.sparse_ground_truth(rng, h=40, w=300)
    dmap = mscv.DisparityMap(gt)
    flags = mscv.discontinuity_mask(dmap, 3.0).flags
    oracle = np.stack([checks.mask_row_oracle(dmap.values[r], 3.0) for r in range(40)])
    assert (flags == oracle).all()
    assert flags.any()


def test_sparse_ground_truth_shape():
    gt = inputs.sparse_ground_truth(np.random.default_rng(0))
    assert gt.shape == (inputs.HEIGHT, inputs.WIDTH)
    assert 0.25 < (gt == 0).mean() < 0.35
    assert len(np.unique(gt, axis=0)) == inputs.HEIGHT  # no two rows alike
    assert (gt[gt != 0] * 4 == np.round(gt[gt != 0] * 4)).all()


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert report.percentile(values, 0.5) == 50
    assert report.percentile(values, 0.9) == 90
    assert report.percentile([3.0], 0.9) == 3.0


def test_benchmark_json_matches_report_and_limits():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    e2e = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]]
    layer = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert e2e == report.END_TO_END
    assert layer == report.PER_LAYER
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    names = [n for n, _, _ in e2e + layer] + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for _, unit, better in e2e + layer:
        assert UNIT.fullmatch(unit), unit
        assert better in ("higher", "lower")
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert w["why"] == WORKLOADS[w["name"]].why
