"""Minimal deterministic convolution engine (inference only).

Tensors are numpy float32 arrays of shape (channels, height, width).
Every op but ``relu``, which works in place, is a pure function;
repeated evaluation is bit-identical.
No autodiff: the network is forward-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_BAND_PIXELS = 1024  # conv2d band size, measured: the buffer stays near L2 size


@dataclass
class ConvParams:
    """Weights and bias for one convolution layer.

    weights: (out_channels, in_channels, kernel_h, kernel_w)
    bias: (out_channels,)
    """

    weights: np.ndarray
    bias: np.ndarray
    stride: int = 1

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float32)
        self.bias = np.asarray(self.bias, dtype=np.float32)
        if self.weights.ndim != 4:
            raise ValueError("conv weights must be (O, I, kh, kw)")
        if self.bias.shape != (self.weights.shape[0],):
            raise ValueError("bias length must equal out_channels")

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel(self) -> tuple[int, int]:
        return self.weights.shape[2], self.weights.shape[3]


def conv2d(x: np.ndarray | list[np.ndarray], p: ConvParams) -> np.ndarray:
    """Cross-correlation convolution plus bias.

    ``x`` is one (C, H, W) tensor or a list of tensors that share (H, W),
    read as their channel concatenation without building it.  Zero-pads
    so output dims are ceil(in / stride); extra padding goes to the
    bottom/right.

    Banded im2col: each band of output rows (``_BAND_PIXELS`` pixels, at
    least one row) copies each input's windows into its channels of one
    (I, kh, kw, rows, out_w) buffer for one GEMM, (O, I*kh*kw) @
    (I*kh*kw, rows*out_w).  A C-contiguous float32 input that needs no
    padding is not copied.
    """
    xs = [x] if isinstance(x, np.ndarray) else x
    if not xs or any(t.ndim != 3 for t in xs):
        raise ValueError("input must be (C, H, W)")
    h, w = xs[0].shape[1:]
    if any(t.shape[1:] != (h, w) for t in xs):
        raise ValueError(f"inputs differ in (H, W): {[t.shape[1:] for t in xs]}")
    in_c = sum(t.shape[0] for t in xs)
    if in_c != p.in_channels:
        raise ValueError(f"channel mismatch: input {in_c}, params {p.in_channels}")
    if p.stride not in (1, 2):
        raise ValueError("stride must be 1 or 2")
    kh, kw = p.kernel
    s = p.stride
    out_h = -(-h // s)
    out_w = -(-w // s)
    pad_h = max((out_h - 1) * s + kh - h, 0)
    pad_w = max((out_w - 1) * s + kw - w, 0)
    pads = ((0, 0), (pad_h // 2, pad_h - pad_h // 2), (pad_w // 2, pad_w - pad_w // 2))
    views = []
    for t in xs:
        if pad_h or pad_w:
            t = np.pad(t, pads)
        t = np.ascontiguousarray(t, dtype=np.float32)
        windows = np.lib.stride_tricks.sliding_window_view(t, (kh, kw), axis=(1, 2))
        views.append(windows[:, ::s, ::s][:, :out_h, :out_w].transpose(0, 3, 4, 1, 2))
    # One flat buffer per call (convs run concurrently under threads > 1);
    # a prefix of it keeps the short last band contiguous.
    k = in_c * kh * kw
    rows = min(max(_BAND_PIXELS // out_w, 1), out_h)
    buf = np.empty(k * rows * out_w, dtype=np.float32)
    w2 = p.weights.reshape(p.out_channels, k)
    out = np.empty((p.out_channels, out_h * out_w), dtype=np.float32)
    for y in range(0, out_h, rows):
        n = min(rows, out_h - y)
        cols = buf[: k * n * out_w].reshape(in_c, kh, kw, n, out_w)
        np.concatenate([v[:, :, :, y : y + n] for v in views], out=cols)
        np.matmul(w2, cols.reshape(k, -1), out=out[:, y * out_w : (y + n) * out_w])
    out += p.bias[:, None]
    return out.reshape(p.out_channels, out_h, out_w)


def deconv2d_s2(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """Transposed convolution, 2x2 kernel, stride 2: doubles H and W.

    Adjoint of the stride-2 valid 2x2 convolution with transposed
    channel axes.  Runs as one GEMM: the four taps of every output
    channel form a (O*4, I) matrix that multiplies the (I, H*W) input.
    Each tap's (H, W) result is then copied, row by row, to every other
    pixel of every other output row.
    """
    kh, kw = p.kernel
    if (kh, kw) != (2, 2) or p.stride != 2:
        raise ValueError("deconv2d_s2 requires a 2x2 kernel with stride 2")
    if x.shape[0] != p.in_channels:
        raise ValueError(
            f"channel mismatch: input {x.shape[0]}, params {p.in_channels}"
        )
    _, h, w = x.shape
    o, i = p.out_channels, p.in_channels
    # Non-overlapping taps, out[o, 2y+u, 2x+v] = sum_i w[o, i, u, v] * x[i, y, x]:
    # (O*4, I) @ (I, H*W) gives (O, u, v, H, W), copied per tap in W-long runs.
    taps = p.weights.transpose(0, 2, 3, 1).reshape(o * 4, i)
    flat = (taps @ x.astype(np.float32, copy=False).reshape(i, h * w)).reshape(o, 2, 2, h, w)
    out = np.empty((o, h, 2, w, 2), dtype=np.float32)
    for u, v in np.ndindex(2, 2):
        out[:, :, u, :, v] = flat[:, u, v]
    out += p.bias[:, None, None, None, None]
    return out.reshape(o, 2 * h, 2 * w)


def relu(x: np.ndarray) -> np.ndarray:
    """ReLU in place: ``np.maximum(x, 0, out=x)``; returns ``x``."""
    return np.maximum(x, 0, out=x)


def bilinear_resize(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resampling with half-pixel centers and edge clamping."""
    if out_h < 1 or out_w < 1:
        raise ValueError("output dims must be >= 1")
    _, h, w = x.shape
    src_y = (np.arange(out_h) + 0.5) * h / out_h - 0.5
    src_x = (np.arange(out_w) + 0.5) * w / out_w - 0.5
    y0 = np.clip(np.floor(src_y).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(src_x).astype(int), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(src_y - y0, 0.0, 1.0).astype(np.float32)[None, :, None]
    wx = np.clip(src_x - x0, 0.0, 1.0).astype(np.float32)[None, None, :]
    # Separable: along W once per source row, then along H; C-ordered output.
    rows = np.take(x, x0, axis=2) * (1 - wx) + np.take(x, x1, axis=2) * wx
    top, bot = np.take(rows, y0, axis=1), np.take(rows, y1, axis=1)
    return (top * (1 - wy) + bot * wy).astype(np.float32, copy=False)


def concat_channels(xs: list[np.ndarray]) -> np.ndarray:
    """Stack tensors along the channel axis; ValueError if none or (H, W) differ."""
    return np.concatenate(xs, axis=0)
