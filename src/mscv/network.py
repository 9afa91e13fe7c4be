"""Forward pass of the stereo network.

Pipeline: Unet feature extractor -> float32 1D correlations at 1/2 and
1/4 resolution (DEPTH and DEPTH // 2 candidates), the first reduced to 32
channels as it is computed; the census/U/V traditional volumes reduced
to 32 channels, with the normalized 3·DEPTH-channel interleave folded
into the first 1x1 conv; a guide encoder turning the traditional volume
into features at 1/2, 1/4, 1/8 and 1/16 scale (LEVELS stride-2 steps);
two cascade hourglass networks fusing everything; a 1x1 head regressing
disparity, bilinearly upsampled to full resolution.  All volumes span the
one disparity range that ``costvol.DEPTH`` (MAX_DISPARITY / 2) states.

All parameters live in a store, a plain ``dict`` of named float32 arrays,
serialized as the "MSCV1" binary container.  Every layer runs through
``_layer``, which raises ``WeightError`` on a missing parameter, checks
its weights against the architecture table and reads its stride, batch
norm, lowering (conv, deconv, or the fused trad.red0 and corr.reduce)
and ReLU there.  Batch norm (Unet layers only) is a per-channel affine map at
inference, folded into the weights and bias.  Blocks pass float32 arrays.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from mscv.costvol import DEPTH, _correlate, correlate_1d, traditional_costs
from mscv.imagekit import DisparityMap, Image, _read_regular, _write_regular, pad_reflect
from mscv.tensorops import (
    ConvParams,
    bilinear_resize,
    conv2d,
    deconv2d_s2,
    relu,
)

MAGIC = b"MSCV1"
BN_EPS = 1e-5
LEVELS = 3  # stride-2 steps from 1/2 to 1/16 scale
# Hourglass levels per stage: stage 1 runs 1/4 -> 1/16, stage 2 1/2 -> 1/16.
_STAGE_LEVELS = {1: LEVELS - 1, 2: LEVELS}


class WeightError(ValueError):
    """Raised on a malformed weight container or a mis-shaped parameter."""


# ---------------------------------------------------------------------------
# Architecture table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerDef:
    name: str
    out_c: int
    in_c: int
    kh: int
    kw: int
    stride: int = 1
    bn: bool = False
    op: str = "conv"  # lowering: "conv", "deconv", "trad" (trad.red0), "corr" (corr.reduce)
    act: bool = True


def _unet_layers() -> list[LayerDef]:
    # Encoder: 3x3 conv then 2x2 stride-2 conv per scale, channels
    # doubling from base 16; decoder: 2x2 deconv, skip concat, 1x1 conv
    # halving the concat, 3x3 conv.  BN+ReLU on every layer.
    return [
        LayerDef("unet.enc0", 16, 3, 3, 3, bn=True),
        LayerDef("unet.down1", 32, 16, 2, 2, stride=2, bn=True),
        LayerDef("unet.enc1", 32, 32, 3, 3, bn=True),
        LayerDef("unet.down2", 64, 32, 2, 2, stride=2, bn=True),
        LayerDef("unet.enc2", 64, 64, 3, 3, bn=True),
        LayerDef("unet.down3", 128, 64, 2, 2, stride=2, bn=True),
        LayerDef("unet.enc3", 128, 128, 3, 3, bn=True),
        LayerDef("unet.up2.deconv", 64, 128, 2, 2, stride=2, bn=True, op="deconv"),
        LayerDef("unet.up2.fuse", 64, 128, 1, 1, bn=True),
        LayerDef("unet.up2.harvest", 32, 64, 3, 3, bn=True),
        LayerDef("unet.up1.deconv", 32, 32, 2, 2, stride=2, bn=True, op="deconv"),
        LayerDef("unet.up1.fuse", 32, 64, 1, 1, bn=True),
        LayerDef("unet.up1.harvest", 32, 32, 3, 3, bn=True),
    ]


def _trad_layers() -> list[LayerDef]:
    # 1x1 reduction chain 3·DEPTH-144-72-36-32, then left image concat (+3)
    # and three 3x3 harvesting convs back down to 32 channels.
    return [
        LayerDef("trad.red0", 144, 3 * DEPTH, 1, 1, op="trad"),
        LayerDef("trad.red1", 72, 144, 1, 1),
        LayerDef("trad.red2", 36, 72, 1, 1),
        LayerDef("trad.red3", 32, 36, 1, 1),
        LayerDef("trad.harvest0", 32, 35, 3, 3),
        LayerDef("trad.harvest1", 32, 32, 3, 3),
        LayerDef("trad.harvest2", 32, 32, 3, 3),
    ]


def _guide_layers() -> list[LayerDef]:
    layers = [LayerDef("guide.s0", 32, 32, 3, 3)]
    for i in range(1, LEVELS + 1):
        layers.append(LayerDef(f"guide.d{i}.a", 32, 32, 3, 3, stride=2))
        layers.append(LayerDef(f"guide.d{i}.b", 32, 32, 3, 3))
    return layers


def _hourglass_layers(stage: int) -> list[LayerDef]:
    # Stage 1 takes the quarter-scale correlation volume; the decoder
    # mirrors the encoder depth.
    in_c = DEPTH // 2 if stage == 1 else 32
    downs = _STAGE_LEVELS[stage]
    pre = f"hg{stage}"
    layers = [LayerDef(f"{pre}.entry", 32, in_c, 3, 3)]
    for i in range(downs):
        layers += [
            LayerDef(f"{pre}.down{i}.c1", 32, 32, 3, 3, stride=2),
            LayerDef(f"{pre}.down{i}.c2", 32, 32, 3, 3, act=False),
            LayerDef(f"{pre}.down{i}.sc", 32, 32, 1, 1, stride=2, act=False),
            LayerDef(f"{pre}.res{i}.c1", 32, 32, 3, 3),
            LayerDef(f"{pre}.res{i}.c2", 32, 32, 3, 3, act=False),
        ]
    layers.append(LayerDef(f"{pre}.bottleneck", 32, 64, 1, 1))
    for i in range(downs):
        layers += [
            LayerDef(f"{pre}.up{i}.deconv", 32, 32, 2, 2, stride=2, op="deconv"),
            LayerDef(f"{pre}.up{i}.fuse", 32, 64, 1, 1),
            LayerDef(f"{pre}.up{i}.conv", 32, 32, 3, 3),
        ]
    return layers


def architecture() -> list[LayerDef]:
    """Every convolution layer of the network, in forward order."""
    return (
        _unet_layers()
        + _trad_layers()
        + [LayerDef("corr.reduce", 32, DEPTH, 1, 1, op="corr")]
        + _guide_layers()
        + _hourglass_layers(1)
        + [
            LayerDef("casc.up", 32, 32, 2, 2, stride=2, op="deconv"),
            LayerDef("casc.fuse", 32, 96, 1, 1),
        ]
        + _hourglass_layers(2)
        + [LayerDef("head.conv", 1, 32, 1, 1, act=False)]
    )


_LAYERS = {l.name: l for l in architecture()}


def _params(l: LayerDef) -> dict[str, tuple[int, ...]]:
    """Layer ``l``'s parameter suffixes and shapes, in container order."""
    params = {"w": (l.out_c, l.in_c, l.kh, l.kw), "b": (l.out_c,)}
    if l.bn:
        params.update((f"bn.{k}", (l.out_c,)) for k in ("gamma", "beta", "mean", "var"))
    return params


def architecture_manifest() -> list[tuple[str, tuple[int, ...]]]:
    """Expected (parameter name, shape) pairs for the whole network."""
    return [(f"{l.name}.{k}", shape) for l in architecture() for k, shape in _params(l).items()]


def _param(store, name, shape):
    if name not in store:
        raise WeightError(f"missing parameter {name!r}")
    arr = store[name]
    if arr.shape != shape:
        raise WeightError(f"parameter {name!r} has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise WeightError(f"parameter {name!r} is not finite")
    if name.endswith(".bn.var") and (arr < 0).any():
        raise WeightError(f"parameter {name!r} has a negative variance")
    return arr


def validate_store(store: dict) -> None:
    """Check the store holds exactly the architecture's parameters, well shaped and valued."""
    expected = dict(architecture_manifest())
    for name, shape in expected.items():
        _param(store, name, shape)
    for name in store:
        if name not in expected:
            raise WeightError(f"parameter {name!r} is not in the architecture")


def describe_architecture() -> str:
    """Human-readable table of layer parameters and counts."""
    lines = [f"{'parameter':<28} {'shape':<20} {'count':>9}"]
    total = 0
    for name, shape in architecture_manifest():
        count = int(np.prod(shape))
        total += count
        lines.append(f"{name:<28} {str(shape):<20} {count:>9}")
    lines.append(f"{'total':<28} {'':<20} {total:>9}")
    return "\n".join(lines)


def init_weights(seed: int) -> dict[str, np.ndarray]:
    """Deterministic fan-in-scaled uniform initialization.

    BN running statistics start at mean 0 / variance 1; gamma and beta
    get a small random perturbation around 1 and 0.
    """
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    store = {}
    for l in architecture():
        bound = float(np.sqrt(1.0 / (l.in_c * l.kh * l.kw)))
        # (low, high) in _params order: w, b, then BN gamma, beta, mean and
        # var; an empty range is a constant and draws nothing.
        ranges = [(-bound, bound)] * 2 + [(0.9, 1.1), (-0.1, 0.1), (0.0, 0.0), (1.0, 1.0)]
        for (key, shape), (lo, hi) in zip(_params(l).items(), ranges):
            value = rng.uniform(lo, hi, shape) if lo < hi else np.full(shape, lo)
            store[f"{l.name}.{key}"] = value.astype(np.float32)
    return store


# ---------------------------------------------------------------------------
# MSCV1 weight container
# ---------------------------------------------------------------------------
# magic "MSCV1" | uint32 entry count | per entry:
#   uint16 name length | name (utf-8) | uint8 rank | rank * uint32 dims |
#   little-endian float32 payload


def save_weights(store: dict, path) -> None:
    chunks = [MAGIC, struct.pack("<I", len(store))]
    for name, arr in store.items():
        encoded = name.encode("utf-8")
        chunks += [struct.pack(f"<H{len(encoded)}sB{arr.ndim}I", len(encoded), encoded,
                               arr.ndim, *arr.shape), np.ascontiguousarray(arr, dtype="<f4")]
    _write_regular(path, *chunks)


def load_weights(path) -> dict[str, np.ndarray]:
    """Read an MSCV1 container; ``WeightError`` if malformed, ``OSError`` if not a regular file."""
    buf = memoryview(_read_regular(path))

    def take(n, what):
        # Sizes come from the file: check them against the bytes left
        # before taking them, so no short slice or huge array is built.
        nonlocal buf
        if n > len(buf):
            raise WeightError(f"truncated {what}")
        out, buf = buf[:n], buf[n:]
        return out

    magic = bytes(take(len(MAGIC), "magic"))
    if magic != MAGIC:
        raise WeightError(f"bad magic {magic!r}")
    (count,) = struct.unpack("<I", take(4, "entry count"))
    store = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        raw = bytes(take(name_len, "parameter name"))
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise WeightError(f"parameter name {raw!r} is not UTF-8") from None
        if name in store:
            raise WeightError(f"repeated parameter {name!r}")
        (rank,) = struct.unpack("<B", take(1, f"rank of {name!r}"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"dims of {name!r}"))
        payload = take(4 * math.prod(dims), f"payload for parameter {name!r}")
        try:
            store[name] = np.frombuffer(payload, dtype="<f4").reshape(dims)
        except ValueError as exc:  # more dims, or more elements, than NumPy allows
            raise WeightError(f"bad shape {dims} for {name!r}: {exc}") from None
    if buf:
        raise WeightError(f"{len(buf)} bytes after the last entry")
    return store


# ---------------------------------------------------------------------------
# Layer application helpers
# ---------------------------------------------------------------------------


def _layer(store, name, *xs):
    """Apply architecture layer ``name`` as its table entry says.

    Every parameter must have its ``_params`` shape and finite values, and
    no variance may be negative.  Several inputs ``xs`` are read as their
    channel concatenation (``conv2d`` copies each into its rows of the band
    buffer); ``trad.red0`` reads ``traditional_costs``' cost stream and
    left image, ``corr.reduce`` the two feature maps.

    Batch norm is folded into the weights and bias in float64:
    s = gamma / sqrt(var + eps) scales the output axis (axis 0 for conv
    and deconv alike), and the bias becomes (b - mean)·s + beta.
    """
    l = _LAYERS[name]
    w, b, *bn = [_param(store, f"{name}.{k}", shape) for k, shape in _params(l).items()]
    if bn:
        gamma, beta, mean, var = np.array(bn, dtype=np.float64)
        s = gamma / np.sqrt(var + BN_EPS)
        w, b = w * s[:, None, None, None], (b - mean) * s + beta
    p = ConvParams(w, b, l.stride)
    # Names looked up at call time: a wrapper put on this module's names sees every call.
    if l.op == "deconv":
        y = deconv2d_s2(*xs, p)
    elif l.op == "trad":
        y = _reduce_stream(*xs, p)
    elif l.op == "corr":
        y = _correlate(*xs, l.in_c, p.weights.reshape(l.out_c, l.in_c))
        y += p.bias[:, None, None]
    else:
        y = conv2d(list(xs), p)
    return relu(y) if l.act else y


def _reduce_stream(costs, left_half, p):
    """``trad.red0`` on the ``(y0, d, planes)`` stream of ``traditional_costs``.

    ``trad.red0`` is a 1x1 conv over the paper's 3·DEPTH-channel volume
    [C(d), U(d), V(d)] normalized by its mean μ and std σ (+1e-8).  The
    interleave only permutes red0's input columns and the normalization is
    affine, so red0 runs per band as one float32 K = 3·DEPTH GEMM, with
    its columns permuted once into [C | U | V] order, on the costs
    centered at the mean μ̃ of the first plane (band 0, d = 0).  Each
    plane is centered in float64, its Σ(x-μ̃) and Σ(x-μ̃)² are added in
    float64 (shifted data: Chan, Golub & LeVeque 1983), and it is cast
    into a float32 (3, DEPTH, rows·W) band buffer, multiplied at d =
    DEPTH-1.  Then (μ-μ̃)·W·1 is subtracted and the output scaled by
    1/(σ+1e-8).  As |μ̃-μ| <= σ·√(N/n₁) (Cauchy-Schwarz, n₁ = 3·rows·W of
    the N values), the float32 centering error stays within
    ε₃₂·(|x-μ| + √(DEPTH·bands)·σ) for any input; a constant volume stays exact.
    """
    wmat = p.weights.reshape(p.out_channels, 3 * DEPTH)
    wcuv = wmat.reshape(-1, DEPTH, 3).transpose(0, 2, 1).reshape(-1, 3 * DEPTH)
    h, w = left_half.height, left_half.width
    x = np.empty((p.out_channels, h * w), dtype=np.float32)
    sums, squares = 0.0, 0.0
    for y0, d, plane in costs:
        if y0 == d == 0:  # the first plane; band 0 is the largest
            flat = np.empty(DEPTH * plane.size, dtype=np.float32)
            shift = plane.mean()
        if d == 0:  # a band's prefix of flat is contiguous
            band = flat[: DEPTH * plane.size].reshape(3, DEPTH, -1)
        plane -= shift
        sums += plane.sum()
        squares += np.vdot(plane, plane)
        band[:, d] = plane.reshape(3, -1)
        if d == DEPTH - 1:
            cols = band.shape[2]
            np.matmul(wcuv, band.reshape(3 * DEPTH, cols), out=x[:, y0 * w : y0 * w + cols])
    n = 3 * DEPTH * h * w
    offset = sums / n  # μ - μ̃
    sigma = np.sqrt(max(squares / n - offset * offset, 0.0))
    x -= (offset * wmat.sum(axis=1, dtype=np.float64)).astype(np.float32)[:, None]
    x *= np.float32(1.0 / (sigma + 1e-8))
    x += p.bias[:, None]
    return x.reshape(p.out_channels, h, w)


# ---------------------------------------------------------------------------
# Network blocks
# ---------------------------------------------------------------------------


def unet_features(image: Image, store: dict) -> tuple[np.ndarray, np.ndarray]:
    """Encoder-decoder features at 1/2 and 1/4 scale, 32 channels each.

    Input dims must be divisible by 16 (pad first).
    """
    h, w = image.height, image.width
    if h % 16 or w % 16:
        raise ValueError(f"dims must divide 16, got {h}x{w}")
    layer = lambda name, *xs: _layer(store, f"unet.{name}", *xs)
    # Nested calls, del and reassignment free each activation at its last use.
    s_half = layer("enc1", layer("down1", layer("enc0", image.data.astype(np.float32))))
    s_quarter = layer("enc2", layer("down2", s_half))
    u2 = layer("up2.deconv", layer("enc3", layer("down3", s_quarter)))
    x = layer("up2.fuse", u2, s_quarter)
    del u2, s_quarter
    f_quarter = layer("up2.harvest", x)
    x = layer("up1.fuse", layer("up1.deconv", f_quarter), s_half)
    del s_half
    return layer("up1.harvest", x), f_quarter


def reduce_traditional(left: Image, right: Image, store: dict) -> np.ndarray:
    """Reduce the census, U and V DEPTH-deep costs to 32 float32 channels.

    Takes the 16-padded RGB pair: ``trad.red0`` on the streamed costs,
    1x1 convs 144-72-36-32, then three 3x3 harvesting convs, the first
    also reading the half-resolution left image.
    """
    left_half, costs = traditional_costs(left, right)
    x = _layer(store, "trad.red0", costs, left_half)
    for i in range(1, 4):
        x = _layer(store, f"trad.red{i}", x)
    x = _layer(store, "trad.harvest0", x, left_half.data)
    return _layer(store, "trad.harvest2", _layer(store, "trad.harvest1", x))


def reduce_correlation(f_left: np.ndarray, f_right: np.ndarray, store: dict) -> np.ndarray:
    """``corr.reduce`` on the half-scale features' DEPTH-deep correlation, never built."""
    return _layer(store, "corr.reduce", f_left, f_right)


def guide_encoder(trad32: np.ndarray, store: dict) -> list[np.ndarray]:
    """Guides at 1/2, 1/4, 1/8 and 1/16 scale, in that order.

    One stride-1 block on the 32-channel half-scale traditional volume,
    then LEVELS down blocks (stride-2 conv + stride-1 conv).
    """
    guides = [_layer(store, "guide.s0", trad32)]
    for i in range(1, LEVELS + 1):
        g = _layer(store, f"guide.d{i}.a", guides[-1])
        guides.append(_layer(store, f"guide.d{i}.b", g))
    return guides


def _residual(store, prefix, x):
    # Two convs plus a shortcut: the strided 1x1 projection where the
    # table lists one (down blocks), else the identity.
    y = _layer(store, f"{prefix}.c2", _layer(store, f"{prefix}.c1", x))
    sc = f"{prefix}.sc"
    return relu(y + (_layer(store, sc, x) if sc in _LAYERS else x))


def hourglass_forward(
    x: np.ndarray, guides: list[np.ndarray], store: dict, stage: int
) -> np.ndarray:
    """One hourglass: residual encoder to 1/16, guided decoder back up.

    ``guides`` run from the input's scale down to 1/16, one more than the
    stage's levels.  Stage 1 takes the 1/4-scale correlation volume and
    returns 1/4-scale features; stage 2 takes the fused 1/2-scale input
    and returns 1/2-scale features, 32 channels each.
    """
    if stage not in _STAGE_LEVELS:
        raise ValueError("stage must be 1 or 2")
    levels = _STAGE_LEVELS[stage]
    if len(guides) != levels + 1:
        raise ValueError(
            f"hourglass stage {stage} takes {levels + 1} guides, got {len(guides)}"
        )
    pre = f"hg{stage}"
    y = _layer(store, f"{pre}.entry", x)
    for i in range(levels):
        y = _residual(store, f"{pre}.down{i}", y)
        y = _residual(store, f"{pre}.res{i}", y)
    y = _layer(store, f"{pre}.bottleneck", y, guides[-1])
    for i in range(levels):
        y = _layer(store, f"{pre}.up{i}.deconv", y)
        y = _layer(store, f"{pre}.up{i}.fuse", y, guides[-2 - i])
        y = _layer(store, f"{pre}.up{i}.conv", y)
    return y


def cascade_forward(
    trad32: np.ndarray,
    corr32_half: np.ndarray,
    corr_quarter: np.ndarray,
    guides: list[np.ndarray],
    store: dict,
) -> np.ndarray:
    """Two chained hourglasses with intermediate fusion.

    Stage 1 takes the 1/4-scale correlation volume and the guides from
    1/4 down; its upsampled output is fused (concat + 1x1 conv) with both
    1/2-scale 32-channel volumes to feed stage 2, which takes every guide.
    """
    x = _layer(store, "casc.up", hourglass_forward(corr_quarter, guides[1:], store, 1))
    x = _layer(store, "casc.fuse", x, corr32_half, trad32)
    return hourglass_forward(x, guides, store, 2)


def disparity_head(
    refined: np.ndarray, original_dims: tuple[int, int], store: dict
) -> DisparityMap:
    """1x1 regression head, bilinear upsample to full res, float32 clamp, crop."""
    d = _layer(store, "head.conv", refined)
    full = bilinear_resize(d, 2 * d.shape[1], 2 * d.shape[2])
    h, w = original_dims
    values = np.maximum(full, 0.0, out=full)[0, :h, :w]
    return DisparityMap(values, valid=np.ones_like(values, dtype=bool))


def full_forward(
    left: Image,
    right: Image,
    store: dict,
    threads: int = 1,
) -> DisparityMap:
    """Whole pipeline: stereo RGB pair to full-resolution disparity map.

    Deterministic: output is bit-identical across runs and across
    ``threads`` settings (parallelism only splits independent branches).
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if left.data.shape != right.data.shape:
        raise ValueError("stereo pair dimensions differ")
    left_p, right_p = pad_reflect(left, 16), pad_reflect(right, 16)
    branches = [(reduce_traditional, (left_p, right_p, store)),
                (unet_features, (left_p, store)), (unet_features, (right_p, store))]
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # only a pooled forward loads it
        with ThreadPoolExecutor(max_workers=min(threads, 3)) as pool:
            results = [f.result() for f in [pool.submit(fn, *args) for fn, args in branches]]
    else:
        results = [fn(*args) for fn, args in branches]
    trad32, (fl_half, fl_quarter), (fr_half, fr_quarter) = results
    del branches, results, left_p, right_p  # the padded pair dies with the list
    corr32 = reduce_correlation(fl_half, fr_half, store)
    corr_quarter = correlate_1d(fl_quarter, fr_quarter, DEPTH // 2).costs
    del fl_half, fl_quarter, fr_half, fr_quarter
    guides = guide_encoder(trad32, store)
    refined = cascade_forward(trad32, corr32, corr_quarter, guides, store)
    return disparity_head(refined, (left.height, left.width), store)
