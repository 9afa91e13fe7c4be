"""Brute-force reference implementations used by the tests.

Each oracle evaluates its definition directly (explicit loops, direct
index arithmetic) and stays independent of the vectorized code paths it
checks.
"""

import numpy as np


def census_oracle(plane: np.ndarray, window: int = 5) -> np.ndarray:
    """Double-loop census: bit 1 iff center > neighbor, clamped borders.

    Bits are concatenated row-major over the window with the center
    skipped, most significant first.
    """
    h, w = plane.shape
    r = window // 2
    # Python lists and clamp tables: scalar ndarray reads and per-neighbor
    # min/max calls dominate the run time otherwise.
    rows = np.asarray(plane).tolist()
    clamp_u = {k: min(max(k, 0), h - 1) for k in range(-r, h + r)}
    clamp_v = {k: min(max(k, 0), w - 1) for k in range(-r, w + r)}
    out = np.zeros((h, w), dtype=np.uint32)
    for u in range(h):
        for v in range(w):
            center = rows[u][v]
            bits = 0
            for i in range(-r, r + 1):
                row = rows[clamp_u[u + i]]
                for j in range(-r, r + 1):
                    if i == 0 and j == 0:
                        continue
                    bits = (bits << 1) | (center > row[clamp_v[v + j]])
            out[u, v] = bits
    return out


def hamming_volume_oracle(left: np.ndarray, right: np.ndarray, max_d: int,
                          bits: int = 24) -> np.ndarray:
    """Per-pixel popcount of descriptor XOR; fill = max cost."""
    h, w = left.shape
    out = np.full((max_d, h, w), float(bits))
    for d in range(max_d):
        for y in range(h):
            for x in range(w):
                if x - d >= 0:
                    out[d, y, x] = bin(int(left[y, x]) ^ int(right[y, x - d])).count("1")
    return out


def ad_volume_oracle(left: np.ndarray, right: np.ndarray, max_d: int) -> np.ndarray:
    h, w = left.shape
    out = np.ones((max_d, h, w))
    for d in range(max_d):
        for y in range(h):
            for x in range(w):
                if x - d >= 0:
                    out[d, y, x] = abs(left[y, x] - right[y, x - d])
    return out


def correlation_oracle(fl: np.ndarray, fr: np.ndarray, max_d: int) -> np.ndarray:
    """Triple-loop channel-normalized inner product, fill = 0."""
    n, h, w = fl.shape
    out = np.zeros((max_d, h, w))
    for d in range(max_d):
        for y in range(h):
            for x in range(w):
                if x - d >= 0:
                    out[d, y, x] = float(np.dot(fl[:, y, x], fr[:, y, x - d])) / n
    return out


def conv2d_oracle(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                  stride: int = 1, padding: str = "same") -> np.ndarray:
    """Quadruple-loop cross-correlation with bottom/right-heavy padding."""
    o, i, kh, kw = weights.shape
    _, h, w = x.shape
    if padding == "same":
        out_h = -(-h // stride)
        out_w = -(-w // stride)
        pad_h = max((out_h - 1) * stride + kh - h, 0)
        pad_w = max((out_w - 1) * stride + kw - w, 0)
        xp = np.zeros((i, h + pad_h, w + pad_w))
        xp[:, pad_h // 2 : pad_h // 2 + h, pad_w // 2 : pad_w // 2 + w] = x
    else:
        xp = np.asarray(x, dtype=np.float64)
        out_h = (h - kh) // stride + 1
        out_w = (w - kw) // stride + 1
    out = np.zeros((o, out_h, out_w))
    for oc in range(o):
        for oy in range(out_h):
            for ox in range(out_w):
                acc = 0.0
                for ic in range(i):
                    for ky in range(kh):
                        for kx in range(kw):
                            acc += weights[oc, ic, ky, kx] * xp[
                                ic, oy * stride + ky, ox * stride + kx
                            ]
                out[oc, oy, ox] = acc + bias[oc]
    return out


def deconv_oracle(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Loop 2x2 stride-2 transposed convolution in float64.

    out[o, 2y+u, 2x+v] = bias[o] + sum_i weights[o, i, u, v] * x[i, y, x].
    """
    o, i, _, _ = weights.shape
    _, h, w = x.shape
    out = np.zeros((o, 2 * h, 2 * w))
    for oc in range(o):
        for y in range(h):
            for xx in range(w):
                for u in range(2):
                    for v in range(2):
                        acc = float(bias[oc])
                        for ic in range(i):
                            acc += float(weights[oc, ic, u, v]) * float(x[ic, y, xx])
                        out[oc, 2 * y + u, 2 * xx + v] = acc
    return out


def bilinear_oracle(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Scalar half-pixel-center bilinear interpolation with edge clamp."""
    c, h, w = x.shape
    out = np.zeros((c, out_h, out_w))
    for oy in range(out_h):
        sy = (oy + 0.5) * h / out_h - 0.5
        y0 = min(max(int(np.floor(sy)), 0), h - 1)
        y1 = min(y0 + 1, h - 1)
        fy = min(max(sy - y0, 0.0), 1.0)
        for ox in range(out_w):
            sx = (ox + 0.5) * w / out_w - 0.5
            x0 = min(max(int(np.floor(sx)), 0), w - 1)
            x1 = min(x0 + 1, w - 1)
            fx = min(max(sx - x0, 0.0), 1.0)
            for ch in range(c):
                top = x[ch, y0, x0] * (1 - fx) + x[ch, y0, x1] * fx
                bot = x[ch, y1, x0] * (1 - fx) + x[ch, y1, x1] * fx
                out[ch, oy, ox] = top * (1 - fy) + bot * fy
    return out


def mask_oracle(d_row: np.ndarray, epsilon: float) -> np.ndarray:
    """Run-enumeration discontinuity mask for one row.

    Marks leading and trailing boundary pairs of every maximal
    non-monotone run, then clears the trailing pair of runs whose
    successor jumps by more than epsilon (or that reach the row end).
    """
    d_row = np.asarray(d_row, dtype=np.float64)
    n = d_row.size
    y = np.arange(n) - d_row
    below = np.zeros(n, dtype=bool)
    peak = y[0]
    for x in range(n):
        peak = max(peak, y[x])
        below[x] = y[x] < peak
    runs = []
    x = 0
    while x < n:
        if below[x]:
            end = x
            while end + 1 < n and below[end + 1]:
                end += 1
            runs.append((x, end))
            x = end + 1
        else:
            x += 1
    out = np.zeros(n, dtype=np.uint8)
    for start, end in runs:
        out[start - 1] = 1
        out[start] = 1
        out[end] = 1
        if end + 1 < n:
            out[end + 1] = 1
    for start, end in runs:
        if end + 1 >= n or y[end + 1] - y[end] > epsilon:
            out[end] = 0
            if end + 1 < n:
                out[end + 1] = 0
    return out
