"""Independent output checks used to count wrong results as failed items."""

from __future__ import annotations

import numpy as np

LOSS_LOW, LOSS_HIGH = 1.0, 192.0**0.125


def occluded_runs(d_row: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Warped coordinates ``x - d`` and the maximal runs lying strictly
    below their running maximum, as inclusive ``(start, end)`` pairs."""
    y = np.arange(d_row.size) - np.asarray(d_row, dtype=np.float64)
    below = y < np.maximum.accumulate(y)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], below.astype(np.int8), [0]))))
    return y, list(zip(edges[0::2].tolist(), (edges[1::2] - 1).tolist()))


def mask_row_oracle(d_row: np.ndarray, epsilon: float) -> np.ndarray:
    """Discontinuity flags of one row by run enumeration.

    Every occluded run [s, e] flags its boundary pixels s-1, s, e and
    e+1.  A run whose successor pixel recovers by more than ``epsilon``,
    or that ends the row, gives up its trailing pair e, e+1.
    """
    y, runs = occluded_runs(d_row)
    n = y.size
    flagged, dropped = set(), set()
    for s, e in runs:
        flagged.update(x for x in (s - 1, s, e, e + 1) if 0 <= x < n)
        if e + 1 >= n or y[e + 1] - y[e] > epsilon:
            dropped.update(x for x in (e, e + 1) if x < n)
    out = np.zeros(n, dtype=np.uint8)
    out[sorted(flagged - dropped)] = 1
    return out
