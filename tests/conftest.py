import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import mscv.network


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
def layouts():
    """``layouts(x)``: the (C, H, W) samples ``x`` as a channel-interleaved
    view (the layout ``read_image`` returns), a C-contiguous copy and a
    Fortran-ordered copy."""

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
    ``network._layer`` call, and ``refined`` the features that reach
    ``network.disparity_head``, one entry per forward pass.
    """
    probe = SimpleNamespace(layers=[], refined=[])
    layer, head = mscv.network._layer, mscv.network.disparity_head

    def record_layer(store, name, x):
        y = layer(store, name, x)
        probe.layers.append((name, x.shape[0], y.shape[0]))
        return y

    def record_head(refined, dims, store):
        probe.refined.append(refined)
        return head(refined, dims, store)

    monkeypatch.setattr(mscv.network, "_layer", record_layer)
    monkeypatch.setattr(mscv.network, "disparity_head", record_head)
    return probe
