import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import mscv.network
from mscv.disparity import discontinuity_mask
from mscv.imagekit import DisparityMap


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def peak_bytes():
    """``peak_bytes(fn)``: the most bytes ``tracemalloc`` sees allocated
    while ``fn()`` runs, above what was allocated when it started."""

    def measure(fn):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    return measure


@pytest.fixture
def kitti_maps():
    """A 376x1240 prediction, sparse ground truth and its discontinuity mask.

    The ground truth holds quarter-pixel values that step by 10 px every
    97 columns (so the mask flags boundaries) and invalid spans of 1-40
    px, about a third of each row.  The prediction adds noise and 10%
    gross outliers, is exact on every 50th column (zero error) and is
    clipped to (0, 192), so it is valid everywhere.  ``map_bytes`` is the
    size of one float64 map (3.73 MB), the unit of the memory budgets.
    """
    rng = np.random.default_rng(2015)
    h, w = 376, 1240
    steps = 20.0 + 10.0 * (np.arange(w) // 97 % 5)
    gt = np.round((steps + rng.normal(0.0, 0.3, (h, w))) * 4.0) / 4.0
    for row in gt:
        x = int(rng.integers(0, 40))
        while x < w:
            gap = int(rng.integers(1, 41))
            row[x : x + gap] = 0.0
            x += gap + int(rng.integers(1, 80))
    pred = gt + rng.normal(0.0, 1.5, (h, w))
    pred[rng.random((h, w)) < 0.1] += 25.0
    pred[:, ::50] = gt[:, ::50]
    pred = np.clip(pred, 0.25, 191.75)
    gt = DisparityMap(gt)
    return SimpleNamespace(pred=DisparityMap(pred), gt=gt, mask=discontinuity_mask(gt, 3.0),
                           map_bytes=h * w * 8)


@pytest.fixture
def layouts():
    """``layouts(x)``: the (C, H, W) samples ``x`` as a channel-interleaved
    view (as callers holding (H, W, C) pixels pass), a C-contiguous copy
    (the layout ``read_image`` returns) and a Fortran-ordered copy."""

    def make(x):
        x = np.asarray(x)
        return [
            np.ascontiguousarray(x.transpose(1, 2, 0)).transpose(2, 0, 1),
            np.ascontiguousarray(x),
            np.asfortranarray(x),
        ]

    return make


@pytest.fixture
def forward_probe(monkeypatch):
    """Records what the forward pass computes, without changing it.

    ``layers`` gets ``(name, in_channels, out_channels)`` for every
    ``network._layer`` call, with ``in_channels`` summed over a conv's or
    deconv's inputs and None for the two fused layers, whose inputs are
    the cost stream (``trad.red0``) and the feature maps it correlates
    (``corr.reduce``); ``refined`` gets the features that reach
    ``network.disparity_head``, one entry per forward pass.
    """
    probe = SimpleNamespace(layers=[], refined=[])
    layer, head = mscv.network._layer, mscv.network.disparity_head
    fused = {l.name for l in mscv.network.architecture() if l.op in ("trad", "corr")}

    def record_layer(store, name, *xs):
        y = layer(store, name, *xs)
        in_c = None if name in fused else sum(x.shape[0] for x in xs)
        probe.layers.append((name, in_c, y.shape[0]))
        return y

    def record_head(refined, dims, store):
        probe.refined.append(refined)
        return head(refined, dims, store)

    monkeypatch.setattr(mscv.network, "_layer", record_layer)
    monkeypatch.setattr(mscv.network, "disparity_head", record_head)
    return probe
