"""Construction of matching-cost and correlation cost volumes.

Three traditional half-resolution float64 costs (census/Hamming on Y,
absolute difference on U and V) over the ``DEPTH`` = MAX_DISPARITY / 2
half-scale candidates come from one front end, ``traditional_costs``,
shared by the classical matcher and the network: it takes any same-size
RGB pair and is the one place where a pair goes to half scale.
Disparity shifts only along x, so the costs are per row: the front end
streams them by bands of ``_BAND_ROWS`` rows and, within a band, one
disparity plane at a time, so no consumer holds a volume.  The network
folds their normalized per-disparity interleave (the paper's 288-channel
volume) into the lowering of its first 1x1 conv, ``trad.red0``.
Correlations of CNN feature maps at 1/2 and 1/4 resolution run as blocked
GEMMs in the features' dtype (``_correlate``, also ``corr.reduce``'s lowering).

The stream reads each band's (rows, W) pixels once as a flat run of
n = rows·W, so shifting by d pairs pixel i with pixel i - d, which is
(y, x - d) for x >= d.  For d < W it writes a plane with four ufunc
calls along those runs: XOR and popcount of the census descriptors, and
the difference and its absolute value of U and V at once.  One write
then overwrites the d leading columns of every row, whose partner would
lie in the row above, with the fill costs ``_FILL``; for d >= W the
whole plane is fill.  A strided 2-D shift costs several times more per
pixel than the same ufunc on contiguous data.

Volume layout is (depth, height, width): depth indexes disparity
candidates.  Matching costs are lower-is-better, correlations
higher-is-better.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from mscv.imagekit import MAX_DISPARITY, Image, mean_pool_2x, pad_reflect, rgb_to_yuv

DEPTH = MAX_DISPARITY // 2  # half-scale disparity candidates
CENSUS_WINDOW = 5
CENSUS_BITS = CENSUS_WINDOW * CENSUS_WINDOW - 1  # center-vs-center bit omitted
_BAND_ROWS = 16  # half-scale rows per traditional cost band
_CORR_COLS = 32  # correlation block width: 37-48 ms at 192x624x96, 45-65 at 16-64
# Costs of columns x < d, which have no partner: census maximum, AD 1.
# A module constant: one built per call moved the heap and peak RSS.
_FILL = np.array([CENSUS_BITS, 1.0, 1.0]).reshape(3, 1, 1)


@dataclass
class CostVolume:
    """Correlation volume of ``correlate_1d``: a (depth, H, W) ``costs`` array."""

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
    cmp = np.empty((h, w), dtype=bool)
    for di in range(-r, r + 1):  # row-major window order: MSB first
        for dj in range(-r, r + 1):
            if di == 0 and dj == 0:
                continue
            desc <<= 1
            desc |= np.greater(data, padded[r + di : r + di + h, r + dj : r + dj + w], out=cmp)
    return desc


def traditional_costs(
    left: Image, right: Image
) -> tuple[Image, Iterator[tuple[int, int, np.ndarray]]]:
    """Half-scale census and chroma-AD costs for a same-size RGB pair.

    Both images are reflect-padded to even dims (``pad_reflect(·, 2)``, a
    no-op on an even pair), mean-pooled 2x and converted to YUV once, and the
    census descriptors of Y are computed on the whole plane (the window
    reaches into neighbor rows).  Returns ``(left_half, costs)``, the
    pooled RGB left image and a generator yielding ``(y0, d, planes)``
    band by band, all ``DEPTH`` candidates d = 0..DEPTH-1 within each band
    of ``_BAND_ROWS`` rows from row ``y0`` (the last may be shorter); a
    plane with d >= W holds only fill costs.  ``planes`` is the band's
    float64 (3, rows, W) costs at disparity d: Hamming costs on Y,
    absolute differences on U and V.  It is one buffer, rewritten for
    every plane, so a consumer uses (and may overwrite) each plane before
    it asks for the next.  Each plane is computed once.
    """
    if left.data.shape != right.data.shape:
        raise ValueError("stereo pair dimensions differ")
    if left.channels != 3:
        raise ValueError(f"stereo matching expects an RGB pair, got {left.channels} channel(s)")
    left_half = mean_pool_2x(pad_reflect(left, 2))
    lyuv = rgb_to_yuv(left_half).data
    ryuv = rgb_to_yuv(mean_pool_2x(pad_reflect(right, 2))).data
    # Flat runs: a band's rows are one contiguous slice of each.
    lc = census_transform(Image(lyuv[:1])).reshape(-1)
    rc = census_transform(Image(ryuv[:1])).reshape(-1)
    luv, ruv = lyuv[1:].reshape(2, -1), ryuv[1:].reshape(2, -1)
    h, w = left_half.height, left_half.width

    def costs():
        flat = np.empty(3 * min(h, _BAND_ROWS) * w)  # flat: a band's prefix is contiguous
        for y0 in range(0, h, _BAND_ROWS):
            run = slice(y0 * w, min(h, y0 + _BAND_ROWS) * w)
            n = run.stop - run.start
            runs = flat[: 3 * n].reshape(3, n)
            out = runs.reshape(3, -1, w)
            l, r, lu, ru = lc[run], rc[run], luv[:, run], ruv[:, run]
            for d in range(DEPTH):
                if d < w:
                    np.bitwise_count(np.bitwise_xor(l[d:], r[: n - d]), out=runs[0, d:])
                    uv = runs[1:, d:]
                    np.abs(np.subtract(lu[:, d:], ru[:, : n - d], out=uv), out=uv)
                out[:, :, :d] = _FILL
                yield y0, d, out

    return left_half, costs()


def correlate_1d(f_left: np.ndarray, f_right: np.ndarray, max_d: int) -> CostVolume:
    """Channel-normalized inner product at horizontal offsets 0..max_d-1.

    C(d, y, x) = <f_l(y, x), f_r(y, x - d)> / N with N the channel count,
    exactly 0 where x - d < 0; in the features' float dtype, float32 at
    least.
    """
    return CostVolume(_correlate(f_left, f_right, max_d, np.eye(max_d)))


def _correlate(f_left, f_right, max_d, weights):
    """Σ_d weights[:, d]·C(d), C of ``correlate_1d`` never built: per block of
    ``_CORR_COLS`` output columns, a batched GEMM pairs left and right pixels
    (x < 0: zeros no earlier block wrote), a strided view reads C off its
    diagonals, and a GEMM with the weights reversed and divided by N projects them."""
    if f_left.shape != f_right.shape or f_left.ndim != 3:
        raise ValueError(f"feature shapes {f_left.shape}, {f_right.shape}: need one (C, H, W)")
    n, h, w = f_left.shape
    dtype = np.result_type(f_left.dtype, f_right.dtype, np.float32)
    lt = np.ascontiguousarray(f_left, dtype=dtype).transpose(1, 2, 0)  # (H, W, N)
    rt = np.ascontiguousarray(f_right, dtype=dtype).transpose(1, 0, 2)  # (H, N, W)
    wr = np.ascontiguousarray(weights[:, ::-1], dtype=dtype) / n
    out = np.empty((len(wr), h, w), dtype=dtype)
    pairs = np.zeros((h, _CORR_COLS, _CORR_COLS + max_d - 1), dtype=dtype)
    diagonals = pairs.strides[0], pairs.strides[1] + pairs.strides[2], pairs.strides[2]
    for x0 in range(0, w, _CORR_COLS):
        b, lead = min(_CORR_COLS, w - x0), max(max_d - 1 - x0, 0)  # lead: x < 0, shrinking
        block = pairs[:, :b, : b + max_d - 1]
        np.matmul(lt[:, x0 : x0 + b], rt[:, :, x0 + lead + 1 - max_d : x0 + b],
                  out=block[:, :, lead:])
        vol = np.lib.stride_tricks.as_strided(block, (h, b, max_d), diagonals, writeable=False)
        np.matmul(wr, vol.transpose(0, 2, 1), out=out[:, :, x0 : x0 + b].transpose(1, 0, 2))
    return out
