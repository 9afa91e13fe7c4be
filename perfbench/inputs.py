"""Seeded input generation for the benchmark workloads.

Everything here is plain NumPy and independent of ``mscv``: the program
under test only ever sees the arrays and files produced by these
functions.  The same seed always gives byte-identical inputs.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

HEIGHT, WIDTH = 376, 1240  # KITTI 2015 frame size
REGIONS_PER_ROW = 24
MAX_DISPARITY = 192


def disparity_field(rng: np.random.Generator, h: int, w: int, dmax: float,
                    step: float, regions: int = REGIONS_PER_ROW) -> np.ndarray:
    """Piecewise-constant disparity with ``regions`` segments per row.

    Rows come in bands that share segment values (objects span several
    rows), but every row gets its own jittered segment boundaries, so no
    two rows are the same.  Values are multiples of ``step`` in
    ``[step, dmax)``; a power-of-two ``step`` keeps them exact in float32.
    """
    field = np.empty((h, w), dtype=np.float64)
    xs = np.arange(w)
    row = 0
    while row < h:
        band = min(int(rng.integers(8, 48)), h - row)
        cuts = np.sort(rng.choice(np.arange(8, w - 8), regions - 1, replace=False))
        levels = rng.integers(1, int(dmax / step), regions) * step
        for y in range(row, row + band):
            jittered = np.sort(cuts + rng.integers(-3, 4, cuts.size))
            field[y] = levels[np.searchsorted(jittered, xs, side="right")]
        row += band
    return field


def stereo_pair(rng: np.random.Generator, h: int = HEIGHT, w: int = WIDTH):
    """Random-texture stereo pair with exact integer ground truth.

    Returns ``(left, right, gt, valid)``: uint8 (h, w, 3) images, the
    float64 disparity and its validity mask.  The left image samples the
    right one at ``x - d(x)`` per row; a left pixel is valid when its
    source lies inside the image and is not occluded.
    """
    d = disparity_field(rng, h, w, dmax=128, step=1.0).astype(np.int64)
    right = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    xs = np.arange(w)[None, :]
    src = xs - d
    in_range = src >= 0
    rows = np.broadcast_to(np.arange(h)[:, None], (h, w))
    left = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    left[in_range] = right[rows[in_range], src[in_range]]
    warped = src.astype(np.float64)
    before = np.concatenate(
        [np.full((h, 1), -np.inf), np.maximum.accumulate(warped, axis=1)[:, :-1]],
        axis=1,
    )
    valid = in_range & (warped > before) & (d > 0) & (d < MAX_DISPARITY)
    return left, right, np.where(valid, d, 0).astype(np.float64), valid


def sparse_ground_truth(rng: np.random.Generator, h: int = HEIGHT, w: int = WIDTH,
                        invalid_share: float = 0.3) -> np.ndarray:
    """Quarter-pixel disparity with about ``invalid_share`` invalid pixels.

    Invalid pixels hold 0, the value a PFM round trip gives them.  They
    come in spans (1-40 px), like missing LiDAR returns, so the share
    holds per row on average.
    """
    field = disparity_field(rng, h, w, dmax=MAX_DISPARITY, step=0.25)
    mean_gap = 20.5  # mean of integers(1, 41)
    mean_run = mean_gap * (1.0 - invalid_share) / invalid_share
    for y in range(h):
        x = int(rng.integers(0, int(mean_run)))
        while x < w:
            gap = int(rng.integers(1, 41))
            field[y, x : x + gap] = 0.0
            x += gap + int(rng.geometric(1.0 / mean_run))
    return field


def perturbed_prediction(rng: np.random.Generator, gt: np.ndarray) -> np.ndarray:
    """A network-like prediction: small noise plus 10% gross outliers."""
    pred = gt + rng.normal(0.0, 1.5, gt.shape)
    outliers = rng.random(gt.shape) < 0.1
    pred[outliers] += rng.uniform(5.0, 40.0, int(outliers.sum()))
    pred[gt == 0] = rng.uniform(1.0, 100.0, int((gt == 0).sum()))
    return np.clip(np.round(pred * 4.0) / 4.0, 0.25, MAX_DISPARITY - 0.25)


def write_ppm(rgb: np.ndarray, path: Path) -> None:
    """Binary P6 file at maxval 255 from a uint8 (h, w, 3) array."""
    h, w, _ = rgb.shape
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(np.ascontiguousarray(rgb, dtype=np.uint8).tobytes())


def write_pfm(values: np.ndarray, path: Path) -> None:
    """Grayscale little-endian PFM, rows stored bottom to top."""
    h, w = values.shape
    with open(path, "wb") as f:
        f.write(b"Pf\n%d %d\n-1.0\n" % (w, h))
        f.write(np.flipud(values).astype("<f4").tobytes())


def digest(*arrays: np.ndarray) -> str:
    """SHA-256 over the raw bytes of the given arrays, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()
