"""Construction of matching-cost and correlation cost volumes.

Three traditional half-resolution float64 costs (census/Hamming on Y,
absolute difference on U and V) come from one front end,
``traditional_costs``, shared by the classical matcher and the network.
Disparity shifts only along x, so the costs are per row: the front end
streams them by bands of ``_BAND_ROWS`` rows and, within a band, one
disparity plane at a time, so no consumer holds a volume.  The network
folds their normalized per-disparity interleave (the paper's
288-channel volume) into its first 1x1 reduction
(``network.reduce_traditional``).  Two correlation volumes come from CNN
feature maps at 1/2 and 1/4 resolution, in the features' dtype.

Every plane is computed along contiguous flat runs: the (H, W) rows are
read as one run of H·W pixels, so shifting by d pairs pixel i with
pixel i - d, which is (y, x - d) for x >= d.  The d leading columns of
each row, where that partner would lie in the row above, are then
overwritten with the fill cost.  A strided 2-D shift costs several times
more per pixel than the same ufunc on contiguous data.

Volume layout is (depth, height, width): depth indexes disparity
candidates.  Matching costs are lower-is-better, correlations
higher-is-better.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from mscv.imagekit import Image, mean_pool_2x, rgb_to_yuv

CENSUS_WINDOW = 5
CENSUS_BITS = CENSUS_WINDOW * CENSUS_WINDOW - 1  # center-vs-center bit omitted
_BAND_ROWS = 16  # half-scale rows per traditional cost band


@dataclass
class CostVolume:
    """3-D cost grid, one plane per disparity: costs is a (depth, H, W) array."""

    costs: np.ndarray

    def __post_init__(self):
        if self.costs.ndim != 3:
            raise ValueError("cost volume must be (D, H, W)")


def census_transform(plane: Image) -> np.ndarray:
    """Per-pixel 24-bit census descriptors of a single-channel plane.

    Returns a uint32 (H, W) array.  Bit b is set iff the neighbor at
    rank b (row-major over the 5x5 window, center skipped, MSB first) is
    strictly darker than the center pixel.  Border pixels use clamped
    (edge-replicated) neighbor indices, so every pixel gets a full
    descriptor.
    """
    if plane.channels != 1:
        raise ValueError("census_transform requires a single-channel image")
    data = plane.data[0]
    h, w = data.shape
    r = CENSUS_WINDOW // 2
    padded = np.pad(data, r, mode="edge")
    desc = np.zeros((h, w), dtype=np.uint32)
    bit = CENSUS_BITS - 1  # MSB first in row-major window order
    for di in range(-r, r + 1):
        for dj in range(-r, r + 1):
            if di == 0 and dj == 0:
                continue
            neigh = padded[r + di : r + di + h, r + dj : r + dj + w]
            desc |= (data > neigh).astype(np.uint32) << np.uint32(bit)
            bit -= 1
    return desc


def _planes(left, right, max_d, fill, cost, plane):
    """Write the costs of each disparity d < max_d into ``plane(d)``; yield d.

    ``left``/``right`` share a shape ending in (H, W) and ``plane(d)`` is
    a C-contiguous (H, W) array.  Both inputs are flattened to runs of
    n = H·W pixels (a copy only if they are not contiguous) and
    ``cost(l[..., d:], r[..., :n - d], out)`` writes the flat plane from
    index d on.  Columns with x - d < 0 have no partner in their row and
    get ``fill`` afterwards.  A plane that is not contiguous raises
    instead of being written through a copy.
    """
    h, w = left.shape[-2:]
    n = h * w
    l = left.reshape(*left.shape[:-2], n)
    r = right.reshape(*right.shape[:-2], n)
    for d in range(max_d):
        p = plane(d)
        if d < w:
            cost(l[..., d:], r[..., : n - d], np.reshape(p, -1, copy=False)[d:])
        p[:, :d] = fill
        yield d


def _shifted(left, right, max_d, fill, cost, dtype=np.float64) -> np.ndarray:
    """(max_d, H, W) ``dtype`` volume of ``_planes``' costs."""
    costs = np.empty((max_d, *left.shape[-2:]), dtype=dtype)
    for _ in _planes(left, right, max_d, fill, cost, costs.__getitem__):
        pass
    return costs


def _hamming(l, r, out):
    np.bitwise_count(np.bitwise_xor(l, r), out=out)


def _absdiff(l, r, out):
    np.abs(np.subtract(l, r, out=out), out=out)


def hamming_cost_volume(
    left: np.ndarray, right: np.ndarray, max_d: int = 96
) -> CostVolume:
    """Per-disparity Hamming distance between census descriptor arrays.

    cost(d, y, x) = popcount(left(y, x) ^ right(y, x - d)); columns with
    x - d < 0 get the maximum cost (24).
    """
    if left.shape != right.shape:
        raise ValueError("census plane dimensions differ")
    if max_d < 1:
        raise ValueError("max_d must be >= 1")
    return CostVolume(_shifted(left, right, max_d, CENSUS_BITS, _hamming))


def ad_cost_volume(left: Image, right: Image, max_d: int = 96) -> CostVolume:
    """Absolute-difference costs for a chroma plane pair in [-0.5, 0.5].

    Out-of-range columns get the maximum cost (1.0).
    """
    if left.data.shape != right.data.shape:
        raise ValueError("image dimensions differ")
    if left.channels != 1:
        raise ValueError("ad_cost_volume takes single-channel planes")
    return CostVolume(_shifted(left.data[0], right.data[0], max_d, 1.0, _absdiff))


def traditional_costs(
    left: Image, right: Image, max_d: int
) -> tuple[Image, Iterator[tuple[int, Callable[[], Iterator[np.ndarray]]]]]:
    """Half-scale census and chroma-AD costs for an even-sized RGB pair.

    Both images are mean-pooled 2x and converted to YUV once, and the
    census descriptors of Y are computed on the whole plane (the window
    reaches into neighbor rows).  Returns ``(left_half, bands)``, the
    pooled RGB left image and an iterator yielding ``(y0, planes)`` for
    each band of ``_BAND_ROWS`` rows from row ``y0`` (the last may be
    shorter).  Each call of ``planes()`` streams the band's costs one
    disparity at a time, d = 0..max_d-1, as a float64 (3, rows, W) array:
    Hamming costs on Y, absolute differences on U and V.  It is one
    buffer, rewritten for every plane, so a consumer uses (and may
    overwrite) each plane before it asks for the next.
    """
    left_half = mean_pool_2x(left)
    lyuv = rgb_to_yuv(left_half).data
    ryuv = rgb_to_yuv(mean_pool_2x(right)).data
    pairs = (
        (census_transform(Image(lyuv[:1])), census_transform(Image(ryuv[:1])),
         CENSUS_BITS, _hamming),
        (lyuv[1], ryuv[1], 1.0, _absdiff),
        (lyuv[2], ryuv[2], 1.0, _absdiff),
    )
    h, w = left_half.height, left_half.width
    flat = np.empty(3 * min(h, _BAND_ROWS) * w)  # flat: a band's prefix is contiguous

    def planes(y0):
        rows = slice(y0, y0 + _BAND_ROWS)
        out = flat[: 3 * (min(h, y0 + _BAND_ROWS) - y0) * w].reshape(3, -1, w)
        streams = [
            _planes(l[rows], r[rows], max_d, fill, cost, lambda d, o=o: o)
            for (l, r, fill, cost), o in zip(pairs, out)
        ]
        for _ in zip(*streams):
            yield out

    bands = (
        (y0, functools.partial(planes, y0)) for y0 in range(0, h, _BAND_ROWS)
    )
    return left_half, bands


def correlate_1d(f_left: np.ndarray, f_right: np.ndarray, max_d: int) -> CostVolume:
    """Channel-normalized inner product at horizontal offsets 0..max_d-1.

    C(d, y, x) = <f_l(y, x), f_r(y, x - d)> / N with N the channel
    count; out-of-range columns are filled with 0.  Computed in the
    features' float dtype, float32 at least: float32 network features
    give a float32 volume.
    """
    if f_left.shape != f_right.shape:
        raise ValueError("feature tensor shapes differ")
    if f_left.ndim != 3:
        raise ValueError("feature tensors must be (C, H, W)")
    n = f_left.shape[0]
    dtype = np.result_type(f_left.dtype, f_right.dtype, np.float32)
    costs = _shifted(
        f_left.astype(dtype, copy=False), f_right.astype(dtype, copy=False),
        max_d, 0.0, lambda l, r, out: np.divide(np.einsum("cp,cp->p", l, r), n, out=out),
        dtype,
    )
    return CostVolume(costs)

