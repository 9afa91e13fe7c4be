"""Construction of matching-cost and correlation cost volumes.

Three traditional half-resolution float64 costs (census/Hamming on Y,
absolute difference on U and V) over the ``DEPTH`` = MAX_DISPARITY / 2
half-scale candidates come from one front end, ``traditional_costs``,
shared by the classical matcher and the network.
Disparity shifts only along x, so the costs are per row: the front end
streams them by bands of ``_BAND_ROWS`` rows and, within a band, one
disparity plane at a time, so no consumer holds a volume.  The network
folds their normalized per-disparity interleave (the paper's 288-channel
volume) into the lowering of its first 1x1 conv, ``trad.red0``.
Correlations of CNN feature maps at 1/2 and 1/4 resolution run as blocked
GEMMs in the features' dtype (``_correlate``, also ``corr.reduce``'s lowering).

The stream writes each disparity plane with one routine, ``_plane``,
along contiguous flat runs: it reads the (H, W) rows once as a run of
H·W pixels, so shifting by d pairs pixel i with pixel i - d,
which is (y, x - d) for x >= d.  The d leading columns of each row,
where that partner would lie in the row above, are then overwritten
with the fill cost.  A strided 2-D shift costs several times more per
pixel than the same ufunc on contiguous data.

Volume layout is (depth, height, width): depth indexes disparity
candidates.  Matching costs are lower-is-better, correlations
higher-is-better.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from mscv.imagekit import MAX_DISPARITY, Image, mean_pool_2x, rgb_to_yuv

DEPTH = MAX_DISPARITY // 2  # half-scale disparity candidates
CENSUS_WINDOW = 5
CENSUS_BITS = CENSUS_WINDOW * CENSUS_WINDOW - 1  # center-vs-center bit omitted
_BAND_ROWS = 16  # half-scale rows per traditional cost band
_CORR_COLS = 32  # correlation block width: 37-48 ms at 192x624x96, 45-65 at 16-64


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
    bit = CENSUS_BITS - 1  # MSB first in row-major window order
    for di in range(-r, r + 1):
        for dj in range(-r, r + 1):
            if di == 0 and dj == 0:
                continue
            neigh = padded[r + di : r + di + h, r + dj : r + dj + w]
            desc |= (data > neigh).astype(np.uint32) << np.uint32(bit)
            bit -= 1
    return desc


def _plane(left, right, d, fill, cost, out):
    """Write the costs of disparity d into the C-contiguous (H, W) ``out``.

    ``left``/``right`` are flat 1-D runs of n = H·W pixels and
    ``cost(left[d:], right[:n - d], run)`` writes ``run``, the flattened
    ``out`` from index d on.  Columns with x - d < 0 have no partner in
    their row and get ``fill`` afterwards.  An ``out`` that is not
    contiguous raises instead of being written through a copy.
    """
    n = len(left)
    if d < out.shape[1]:
        cost(left[d:], right[: n - d], np.reshape(out, -1, copy=False)[d:])
    out[:, :d] = fill


def _hamming(l, r, out):
    np.bitwise_count(np.bitwise_xor(l, r), out=out)


def _absdiff(l, r, out):
    np.abs(np.subtract(l, r, out=out), out=out)


def traditional_costs(
    left: Image, right: Image
) -> tuple[Image, Iterator[tuple[int, int, np.ndarray]]]:
    """Half-scale census and chroma-AD costs for an even-sized RGB pair.

    Both images are mean-pooled 2x and converted to YUV once, and the
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
    left_half = mean_pool_2x(left)
    lyuv = rgb_to_yuv(left_half).data
    ryuv = rgb_to_yuv(mean_pool_2x(right)).data
    pairs = (  # flat runs: a band's rows are one contiguous slice
        (census_transform(Image(lyuv[:1])).reshape(-1),
         census_transform(Image(ryuv[:1])).reshape(-1), CENSUS_BITS, _hamming),
        (lyuv[1].reshape(-1), ryuv[1].reshape(-1), 1.0, _absdiff),
        (lyuv[2].reshape(-1), ryuv[2].reshape(-1), 1.0, _absdiff),
    )
    h, w = left_half.height, left_half.width

    def costs():
        flat = np.empty(3 * min(h, _BAND_ROWS) * w)  # flat: a band's prefix is contiguous
        for y0 in range(0, h, _BAND_ROWS):
            run = slice(y0 * w, min(h, y0 + _BAND_ROWS) * w)
            out = flat[: 3 * (run.stop - run.start)].reshape(3, -1, w)
            for d in range(DEPTH):
                for (l, r, fill, cost), o in zip(pairs, out):
                    _plane(l[run], r[run], d, fill, cost, o)
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
