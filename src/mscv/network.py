"""Forward pass of the stereo network.

Pipeline: Unet feature extractor -> float32 1D correlation volumes at
1/2 and 1/4 resolution; the census/U/V traditional volumes reduced to
32 channels, with the normalized 288-channel interleave folded into the
first 1x1 conv; a guide encoder turning the traditional volume into
features at 1/2, 1/4, 1/8 and 1/16 scale; two cascade hourglass
networks fusing everything; a 1x1 head regressing disparity, bilinearly
upsampled to full resolution.

All parameters live in a WeightStore serialized as the "MSCV1" binary
container.  The architecture table decides each layer's stride, batch
norm, deconvolution and ReLU.  Only the Unet layers use batch norm; at
inference it is a per-channel affine map, folded into the conv weights
and bias when the layer is applied.  Blocks pass plain float32 arrays.
"""

from __future__ import annotations

import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from mscv.costvol import correlate_1d, traditional_costs
from mscv.imagekit import DisparityMap, Image, crop, pad_reflect
from mscv.tensorops import (
    ConvParams,
    bilinear_resize,
    concat_channels,
    conv2d,
    deconv2d_s2,
    relu,
)

MAGIC = b"MSCV1"
BN_EPS = 1e-5


class WeightError(ValueError):
    """Raised on a malformed weight container or a mis-shaped parameter."""


@dataclass
class WeightStore:
    """Named parameter arrays, insertion-ordered."""

    entries: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def manifest(self) -> list[tuple[str, tuple[int, ...]]]:
        return [(name, arr.shape) for name, arr in self.entries.items()]

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.entries[name]
        except KeyError:
            raise WeightError(f"missing parameter {name!r}") from None

    def param_count(self) -> int:
        return sum(arr.size for arr in self.entries.values())


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
    deconv: bool = False
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
        LayerDef("unet.up2.deconv", 64, 128, 2, 2, stride=2, bn=True, deconv=True),
        LayerDef("unet.up2.fuse", 64, 128, 1, 1, bn=True),
        LayerDef("unet.up2.harvest", 32, 64, 3, 3, bn=True),
        LayerDef("unet.up1.deconv", 32, 32, 2, 2, stride=2, bn=True, deconv=True),
        LayerDef("unet.up1.fuse", 32, 64, 1, 1, bn=True),
        LayerDef("unet.up1.harvest", 32, 32, 3, 3, bn=True),
    ]


def _trad_layers() -> list[LayerDef]:
    # 1x1 reduction chain 288-144-72-36-32, then left image concat (+3)
    # and three 3x3 harvesting convs back down to 32 channels.
    return [
        LayerDef("trad.red0", 144, 288, 1, 1),
        LayerDef("trad.red1", 72, 144, 1, 1),
        LayerDef("trad.red2", 36, 72, 1, 1),
        LayerDef("trad.red3", 32, 36, 1, 1),
        LayerDef("trad.harvest0", 32, 35, 3, 3),
        LayerDef("trad.harvest1", 32, 32, 3, 3),
        LayerDef("trad.harvest2", 32, 32, 3, 3),
    ]


def _guide_layers() -> list[LayerDef]:
    layers = [LayerDef("guide.s0", 32, 32, 3, 3)]
    for i in (1, 2, 3):
        layers.append(LayerDef(f"guide.d{i}.a", 32, 32, 3, 3, stride=2))
        layers.append(LayerDef(f"guide.d{i}.b", 32, 32, 3, 3))
    return layers


def _hourglass_layers(stage: int) -> list[LayerDef]:
    # Stage 1 runs 1/4 -> 1/16 (2 down levels); stage 2 runs 1/2 -> 1/16
    # (3 down levels).  Decoder mirrors the encoder depth.
    in_c = 48 if stage == 1 else 32
    downs = 2 if stage == 1 else 3
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
            LayerDef(f"{pre}.up{i}.deconv", 32, 32, 2, 2, stride=2, deconv=True),
            LayerDef(f"{pre}.up{i}.fuse", 32, 64, 1, 1),
            LayerDef(f"{pre}.up{i}.conv", 32, 32, 3, 3),
        ]
    return layers


def architecture() -> list[LayerDef]:
    """Every convolution layer of the network, in forward order."""
    return (
        _unet_layers()
        + _trad_layers()
        + [LayerDef("corr.reduce", 32, 96, 1, 1)]
        + _guide_layers()
        + _hourglass_layers(1)
        + [
            LayerDef("casc.up", 32, 32, 2, 2, stride=2, deconv=True),
            LayerDef("casc.fuse", 32, 96, 1, 1),
        ]
        + _hourglass_layers(2)
        + [LayerDef("head.conv", 1, 32, 1, 1, act=False)]
    )


_LAYERS = {l.name: l for l in architecture()}


def architecture_manifest() -> list[tuple[str, tuple[int, ...]]]:
    """Expected (parameter name, shape) pairs for the whole network."""
    manifest = []
    for l in architecture():
        manifest.append((f"{l.name}.w", (l.out_c, l.in_c, l.kh, l.kw)))
        manifest.append((f"{l.name}.b", (l.out_c,)))
        if l.bn:
            for p in ("gamma", "beta", "mean", "var"):
                manifest.append((f"{l.name}.bn.{p}", (l.out_c,)))
    return manifest


def validate_store(store: WeightStore) -> None:
    """Check every architecture parameter exists with the right shape."""
    for name, shape in architecture_manifest():
        arr = store[name]
        if arr.shape != shape:
            raise WeightError(
                f"parameter {name!r} has shape {arr.shape}, expected {shape}"
            )


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


def init_weights(seed: int) -> WeightStore:
    """Deterministic fan-in-scaled uniform initialization.

    BN running statistics start at mean 0 / variance 1; gamma and beta
    get a small random perturbation around 1 and 0.
    """
    rng = np.random.default_rng(seed)
    store = WeightStore()
    for l in architecture():
        bound = float(np.sqrt(1.0 / (l.in_c * l.kh * l.kw)))
        params = {
            "w": rng.uniform(-bound, bound, (l.out_c, l.in_c, l.kh, l.kw)),
            "b": rng.uniform(-bound, bound, l.out_c),
        }
        if l.bn:
            params["bn.gamma"] = rng.uniform(0.9, 1.1, l.out_c)
            params["bn.beta"] = rng.uniform(-0.1, 0.1, l.out_c)
            params["bn.mean"] = np.zeros(l.out_c)
            params["bn.var"] = np.ones(l.out_c)
        for key, value in params.items():
            store.entries[f"{l.name}.{key}"] = value.astype(np.float32)
    return store


# ---------------------------------------------------------------------------
# MSCV1 weight container
# ---------------------------------------------------------------------------
# magic "MSCV1" | uint32 entry count | per entry:
#   uint16 name length | name (utf-8) | uint8 rank | rank * uint32 dims |
#   little-endian float32 payload


def save_weights(store: WeightStore, path) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(store.entries)))
        for name, arr in store.entries.items():
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_weights(path) -> WeightStore:
    """Read an MSCV1 container; a malformed file raises ``WeightError``."""
    with open(path, "rb") as f:
        left = os.fstat(f.fileno()).st_size

        def take(n, what):
            # Sizes come from the file: check them against the bytes left
            # before reading, so no short read or huge allocation happens.
            nonlocal left
            if n > left:
                raise WeightError(f"truncated {what}")
            left -= n
            return f.read(n)

        magic = take(len(MAGIC), "magic")
        if magic != MAGIC:
            raise WeightError(f"bad magic {magic!r}")
        (count,) = struct.unpack("<I", take(4, "entry count"))
        store = WeightStore()
        for _ in range(count):
            (name_len,) = struct.unpack("<H", take(2, "name length"))
            raw = take(name_len, "parameter name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise WeightError(f"parameter name {raw!r} is not UTF-8") from None
            if name in store.entries:
                raise WeightError(f"repeated parameter {name!r}")
            (rank,) = struct.unpack("<B", take(1, f"rank of {name!r}"))
            dims = struct.unpack(f"<{rank}I", take(4 * rank, f"dims of {name!r}"))
            payload = take(4 * math.prod(dims), f"payload for parameter {name!r}")
            try:
                store.entries[name] = np.frombuffer(payload, dtype="<f4").reshape(dims)
            except ValueError as exc:  # more dims, or more elements, than NumPy allows
                raise WeightError(f"bad shape {dims} for {name!r}: {exc}") from None
        if left:
            raise WeightError(f"{left} bytes after the last entry")
    return store


# ---------------------------------------------------------------------------
# Layer application helpers
# ---------------------------------------------------------------------------


def _layer(store, name, x):
    """Apply architecture layer ``name`` to ``x`` as its table entry says.

    Batch norm is folded into the weights and bias in float64:
    s = gamma / sqrt(var + eps) scales the output axis (axis 0 for conv
    and deconv alike), and the bias becomes (b - mean)·s + beta.
    """
    l = _LAYERS[name]
    w, b = store[f"{name}.w"], store[f"{name}.b"]
    if l.bn:
        bn = lambda k: store[f"{name}.bn.{k}"].astype(np.float64)
        s = bn("gamma") / np.sqrt(bn("var") + BN_EPS)
        w, b = w * s[:, None, None, None], (b - bn("mean")) * s + bn("beta")
    p = ConvParams(w, b, l.stride)
    y = deconv2d_s2(x, p) if l.deconv else conv2d(x, p)
    return relu(y) if l.act else y


# ---------------------------------------------------------------------------
# Network blocks
# ---------------------------------------------------------------------------


def unet_features(image: Image, store: WeightStore) -> tuple[np.ndarray, np.ndarray]:
    """Encoder-decoder features at 1/2 and 1/4 scale, 32 channels each.

    Input dims must be divisible by 16 (pad first).
    """
    h, w = image.height, image.width
    if h % 16 or w % 16:
        raise ValueError(f"dims must divide 16, got {h}x{w}")
    layer = lambda name, x: _layer(store, f"unet.{name}", x)
    # Nested calls, del and reassignment free each activation at its last use.
    s_half = layer("enc1", layer("down1", layer("enc0", image.data.astype(np.float32))))
    s_quarter = layer("enc2", layer("down2", s_half))
    u2 = layer("up2.deconv", layer("enc3", layer("down3", s_quarter)))
    x = concat_channels([u2, s_quarter])
    del u2, s_quarter
    x = layer("up2.fuse", x)
    f_quarter = layer("up2.harvest", x)
    x = concat_channels([layer("up1.deconv", f_quarter), s_half])
    del s_half
    x = layer("up1.fuse", x)
    return layer("up1.harvest", x), f_quarter


def reduce_traditional(
    bands: Iterable[tuple[int, Callable[[], Iterator[np.ndarray]]]],
    left_half: Image, store: WeightStore,
) -> np.ndarray:
    """Reduce the census, U and V 96-deep costs to 32 float32 channels.

    The costs arrive from ``costvol.traditional_costs`` as row bands
    ``(y0, planes)``, each streaming one (3, rows, W) plane [C(d), U(d),
    V(d)] per disparity d.  ``trad.red0`` is a 1x1 conv over the paper's
    288-channel volume [C(d), U(d), V(d)] normalized by its mean μ and
    std σ (+1e-8).  The interleave only permutes red0's input columns and
    the normalization is affine, so red0 runs per band as one float32
    GEMM per cost (``W[:, k::3]``) on the costs centered at the first
    band's mean μ̃ (taken in a pass of its own over that band's planes).
    Each plane is centered in float64, its Σ(x-μ̃) and Σ(x-μ̃)² are
    added in float64 (shifted data: Chan, Golub & LeVeque 1983), and it
    is cast into one float32 (3, 96, rows·W) band buffer.  Then (μ-μ̃)·W·1
    is subtracted and the output scaled by 1/(σ+1e-8).  As |μ̃-μ| <=
    σ·√(N/n₁) (Cauchy-Schwarz, n₁ of the N values in the first band), the
    float32 centering error stays within ε₃₂·(|x-μ| + √bands·σ) for any
    input, and a constant volume stays exact.  Then 1x1 convs
    144-72-36-32, concat of the half-resolution left image, three 3x3
    harvesting convs.
    """
    h, w = left_half.height, left_half.width
    p = ConvParams(store["trad.red0.w"], store["trad.red0.b"])
    if p.weights.shape[1:] != (288, 1, 1):
        raise WeightError(f"parameter 'trad.red0.w' has shape {p.weights.shape}")
    wmat = p.weights.reshape(p.out_channels, 288)
    x = np.empty((p.out_channels, h * w), dtype=np.float32)
    flat = np.empty(0, dtype=np.float32)  # flat: a band's prefix is contiguous
    shift, rows, sums, squares = None, 0, 0.0, 0.0
    for y0, planes in bands:
        if shift is None:  # a band's planes all have one size
            shift = np.mean([plane.mean() for plane in planes()])
        d = -1
        for d, plane in enumerate(planes()):
            if d == 0:
                n = plane.shape[1]
                if flat.size < 288 * n * w:
                    flat = np.empty(288 * n * w, dtype=np.float32)
                band = flat[: 288 * n * w].reshape(3, 96, n * w)
            if y0 != rows or d >= 96 or plane.shape != (3, n, w) or rows + n > h:
                raise ValueError(f"band at row {y0} does not fit 96-deep {h}x{w} costs")
            plane -= shift
            sums += plane.sum()
            squares += np.vdot(plane, plane)
            band[:, d] = plane.reshape(3, n * w)
        if d != 95:
            raise ValueError(f"band at row {y0} has {d + 1} planes, not 96")
        rows += n
        xs = x[:, y0 * w : rows * w]
        np.matmul(wmat[:, 0::3], band[0], out=xs)
        xs += wmat[:, 1::3] @ band[1]
        xs += wmat[:, 2::3] @ band[2]
    if rows != h:
        raise ValueError(f"bands cover {rows} of {h} rows")
    # Loop names would keep the band buffer, red0's output (through xs)
    # and the front end's arrays (through the last stream) alive.
    del flat, band, xs, plane, planes
    n = 288 * h * w
    offset = sums / n  # μ - μ̃
    sigma = np.sqrt(max(squares / n - offset * offset, 0.0))
    x -= (offset * wmat.sum(axis=1, dtype=np.float64)).astype(np.float32)[:, None]
    x *= np.float32(1.0 / (sigma + 1e-8))
    x += p.bias[:, None]
    x = relu(x.reshape(p.out_channels, h, w))
    for i in range(1, 4):
        x = _layer(store, f"trad.red{i}", x)
    x = concat_channels([x, left_half.data.astype(np.float32)])
    for i in range(3):
        x = _layer(store, f"trad.harvest{i}", x)
    return x


def reduce_correlation(corr96: np.ndarray, store: WeightStore) -> np.ndarray:
    """1x1 conv collapsing the 96-candidate correlation volume to 32."""
    return _layer(store, "corr.reduce", corr96)


@dataclass
class GuideSet:
    """Guide features at 1/2, 1/4, 1/8 and 1/16 of full resolution."""

    half: np.ndarray
    quarter: np.ndarray
    eighth: np.ndarray
    sixteenth: np.ndarray


def guide_encoder(trad32: np.ndarray, store: WeightStore) -> GuideSet:
    """Multi-scale guides from the 32-channel half-scale traditional volume.

    One stride-1 block at 1/2, then three down blocks (stride-2 conv +
    stride-1 conv) reaching 1/16.
    """
    guides = [_layer(store, "guide.s0", trad32)]
    for i in (1, 2, 3):
        g = _layer(store, f"guide.d{i}.a", guides[-1])
        guides.append(_layer(store, f"guide.d{i}.b", g))
    return GuideSet(*guides)


def _residual(store, prefix, x):
    # Two convs plus a shortcut: the strided 1x1 projection where the
    # table lists one (down blocks), else the identity.
    y = _layer(store, f"{prefix}.c2", _layer(store, f"{prefix}.c1", x))
    sc = f"{prefix}.sc"
    return relu(y + (_layer(store, sc, x) if sc in _LAYERS else x))


def hourglass_forward(
    x: np.ndarray, guides: GuideSet, store: WeightStore, stage: int
) -> np.ndarray:
    """One hourglass: residual encoder to 1/16, guided decoder back up.

    Stage 1 takes the 1/4-scale correlation volume (48 channels) and
    returns 1/4-scale features; stage 2 takes the fused 1/2-scale input
    and returns 1/2-scale features, 32 channels each.
    """
    if stage not in (1, 2):
        raise ValueError("stage must be 1 or 2")
    downs = 2 if stage == 1 else 3
    pre = f"hg{stage}"
    y = _layer(store, f"{pre}.entry", x)
    for i in range(downs):
        y = _residual(store, f"{pre}.down{i}", y)
        y = _residual(store, f"{pre}.res{i}", y)

    def fuse(name, scale, y, g):
        if g.shape[1:] != y.shape[1:]:
            raise ValueError(
                f"guide scale mismatch at {scale}: {g.shape[1:]} vs {y.shape[1:]}"
            )
        return _layer(store, name, concat_channels([y, g]))

    y = fuse(f"{pre}.bottleneck", "bottleneck", y, guides.sixteenth)
    ups = (("eighth", guides.eighth), ("quarter", guides.quarter), ("half", guides.half))
    for i, (scale, g) in enumerate(ups[:downs]):
        y = _layer(store, f"{pre}.up{i}.deconv", y)
        y = _layer(store, f"{pre}.up{i}.conv", fuse(f"{pre}.up{i}.fuse", scale, y, g))
    return y


def cascade_forward(
    trad32: np.ndarray,
    corr32_half: np.ndarray,
    corr48_quarter: np.ndarray,
    guides: GuideSet,
    store: WeightStore,
) -> np.ndarray:
    """Two chained hourglasses with intermediate fusion.

    Stage 1 consumes the 1/4-scale 48-channel correlation volume; its
    upsampled output is fused (concat + 1x1 conv) with both 1/2-scale
    32-channel volumes to feed stage 2.
    """
    u = _layer(store, "casc.up", hourglass_forward(corr48_quarter, guides, store, 1))
    stage2_in = _layer(store, "casc.fuse", concat_channels([u, corr32_half, trad32]))
    del u
    return hourglass_forward(stage2_in, guides, store, 2)


def disparity_head(
    refined: np.ndarray, original_dims: tuple[int, int], store: WeightStore
) -> DisparityMap:
    """1x1 regression head, bilinear upsample to full res, crop, clamp."""
    d = _layer(store, "head.conv", refined)
    full = bilinear_resize(d, 2 * d.shape[1], 2 * d.shape[2])
    cropped = crop(full[0], original_dims)
    values = np.maximum(cropped.astype(np.float64), 0.0)
    return DisparityMap(values, valid=np.ones_like(values, dtype=bool))


def full_forward(
    left: Image,
    right: Image,
    store: WeightStore,
    threads: int = 1,
) -> DisparityMap:
    """Whole pipeline: stereo RGB pair to full-resolution disparity map.

    Deterministic: output is bit-identical across runs and across
    ``threads`` settings (parallelism only splits independent branches).
    """
    if left.data.shape != right.data.shape:
        raise ValueError("stereo pair dimensions differ")
    if left.channels != 3:
        raise ValueError("full_forward expects RGB input")
    validate_store(store)
    left_p, orig = pad_reflect(left, 16)
    right_p, _ = pad_reflect(right, 16)

    def trad_branch():
        left_half, bands = traditional_costs(left_p, right_p, 96)
        return reduce_traditional(bands, left_half, store)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=min(threads, 3)) as pool:
            fut_trad = pool.submit(trad_branch)
            fut_l = pool.submit(unet_features, left_p, store)
            fut_r = pool.submit(unet_features, right_p, store)
            trad32 = fut_trad.result()
            fl_half, fl_quarter = fut_l.result()
            fr_half, fr_quarter = fut_r.result()
    else:
        trad32 = trad_branch()
        fl_half, fl_quarter = unet_features(left_p, store)
        fr_half, fr_quarter = unet_features(right_p, store)

    corr32 = reduce_correlation(correlate_1d(fl_half, fr_half, 96, "half").costs, store)
    corr48 = correlate_1d(fl_quarter, fr_quarter, 48, "quarter").costs
    del left_p, right_p, fl_half, fl_quarter, fr_half, fr_quarter
    guides = guide_encoder(trad32, store)
    refined = cascade_forward(trad32, corr32, corr48, guides, store)
    return disparity_head(refined, orig, store)
