"""Span recorder and per-layer wrappers for the traced benchmark run.

Spans are recorded from the benchmark's side: every public function of
an ``mscv`` module is replaced, in each module namespace that holds it,
by a wrapper that opens a span named ``<layer>.<function>``.  Callers
look these names up at call time (``mscv.network.conv2d``,
``mscv.cli.census_transform``, ...), so no file of the program changes.
Removing the wrappers puts every original object back.
"""

from __future__ import annotations

import functools
import os
import time
import types
from collections import defaultdict

LAYERS = ("imagekit", "costvol", "tensorops", "network", "disparity", "metrics", "cli")


class SpanRecorder:
    """In-memory spans: ``[name, parent index, start, end]`` per span.

    Counts are keyed by ``(root name, counter)``, where the root is the
    outermost open span, so set-up work and items stay apart.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order (open: {popped})")

    def add(self, counter: str, value: float) -> None:
        root = self.spans[self._stack[0]][0] if self._stack else "none"
        self.counts[(root, counter)] += value

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[1] == -1 and s[0] == name]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its children cover."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, (_, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append(i)
        out = []
        for i, (_, _, start, end) in enumerate(self.spans):
            covered, cursor = 0.0, start
            for c in sorted(children[i], key=lambda c: self.spans[c][2]):
                lo = max(self.spans[c][2], cursor)
                hi = min(self.spans[c][3], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append((end - start) - covered)
        return out

    def totals(self, root: str) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Summed duration, self time and call count per span name, over
        the spans below roots called ``root``."""
        under = set(self.roots(root))
        in_tree = []
        for i, (_, parent, _, _) in enumerate(self.spans):
            if parent in under:
                under.add(i)
                in_tree.append(i)
        selfs = self.self_times()
        busy, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for i in in_tree:
            name, _, start, end = self.spans[i]
            busy[name] += end - start
            own[name] += selfs[i]
            calls[name] += 1
        return busy, own, calls

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "parent": p, "start": s, "end": e}
                for n, p, s, e in self.spans
            ],
            "counts": [{"root": r, "counter": c, "value": v} for (r, c), v in self.counts.items()],
            "errors": dict(self.errors),
        }


# ---------------------------------------------------------------------------
# Counters taken at layer boundaries from arguments and results
# ---------------------------------------------------------------------------


def _count_conv2d(rec, out, args, kwargs):
    # Computed from shapes: multiply-adds of the im2col GEMM and the
    # float32 column matrix it materialises.
    p = args[1] if len(args) > 1 else kwargs["p"]
    kh, kw = p.kernel
    _, out_h, out_w = out.shape
    k = p.in_channels * kh * kw
    rec.add("tensorops.conv2d.gflop", 2.0 * p.out_channels * k * out_h * out_w / 1e9)
    rec.add("tensorops.conv2d.im2col_mb", 4.0 * k * out_h * out_w / 1e6)


def _count_volume(rec, out, args, kwargs):
    rec.add("costvol.volume_mb", out.costs.nbytes / 1e6)


def _count_read(rec, out, args, kwargs):
    rec.add("imagekit.bytes_read", os.path.getsize(args[0] if args else kwargs["path"]))


def _count_write(rec, out, args, kwargs):
    rec.add("imagekit.bytes_written", os.path.getsize(args[1] if len(args) > 1 else kwargs["path"]))


def _count_mask(rec, out, args, kwargs):
    rec.add("disparity.mask_flagged_px", int(out.flags.sum()))
    rec.add("disparity.mask_px", out.flags.size)


def _count_grad(rec, out, args, kwargs):
    gt = args[1] if len(args) > 1 else kwargs["d_gt"]
    rec.add("disparity.grad_active_px", int((out != 0).sum()))
    rec.add("disparity.grad_valid_px", int(gt.valid.sum()))


def _count_evaluate(rec, out, args, kwargs):
    rec.add("metrics.valid_px", out.valid_count)


COUNTERS = {
    "tensorops.conv2d": _count_conv2d,
    "costvol.hamming_cost_volume": _count_volume,
    "costvol.ad_cost_volume": _count_volume,
    "costvol.assemble_traditional": _count_volume,
    "costvol.correlate_1d": _count_volume,
    "imagekit.read_image": _count_read,
    "imagekit.read_pfm": _count_read,
    "imagekit.write_image": _count_write,
    "imagekit.write_pfm": _count_write,
    "disparity.discontinuity_mask": _count_mask,
    "disparity.loss_grad": _count_grad,
    "metrics.evaluate": _count_evaluate,
}


def _wrap(fn, name: str, rec: SpanRecorder):
    layer = name.split(".", 1)[0]
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        except Exception:
            rec.errors[layer] += 1
            raise
        finally:
            rec.end(index)
        if counter is not None:
            counter(rec, out, args, kwargs)
        return out

    return traced


class Tracing:
    """Installs span wrappers on ``mscv`` modules; ``remove`` undoes it."""

    def __init__(self, rec: SpanRecorder, modules: list[types.ModuleType]):
        self._saved: list[tuple[types.ModuleType, str, object]] = []
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not _is_layer_function(attr, obj):
                    continue
                layer = obj.__module__.split(".", 1)[1]
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = _wrap(obj, f"{layer}.{obj.__name__}", rec)
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def remove(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()


def _is_layer_function(attr: str, obj) -> bool:
    return (
        isinstance(obj, types.FunctionType)
        and not attr.startswith("_")
        and obj.__module__.startswith("mscv.")
        and obj.__module__.split(".", 1)[1] in LAYERS
    )
