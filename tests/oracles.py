"""Brute-force reference implementations used by the tests.

Each oracle evaluates its definition directly (explicit loops, direct
index arithmetic) and stays independent of the vectorized code paths it
checks.  The whole-network reference ``forward_oracle`` restates the
forward pass in float64 on top of vectorized float64 helpers, each of
which the tests check against the loop oracles here.
"""

import math

import numpy as np

from mscv.costvol import CENSUS_BITS, CostVolume, census_transform
from mscv.imagekit import (
    DisparityMap,
    Image,
    mean_pool_2x,
    pad_reflect,
    rgb_to_yuv,
)


def census_oracle(plane: np.ndarray) -> np.ndarray:
    """Double-loop 5x5 census: bit 1 iff center > neighbor, clamped borders.

    Bits are concatenated row-major over the window with the center
    skipped, most significant first.
    """
    h, w = plane.shape
    r = 2
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
                  stride: int = 1) -> np.ndarray:
    """Quadruple-loop cross-correlation with bottom/right-heavy "same" padding."""
    o, i, kh, kw = weights.shape
    _, h, w = x.shape
    out_h = -(-h // stride)
    out_w = -(-w // stride)
    pad_h = max((out_h - 1) * stride + kh - h, 0)
    pad_w = max((out_w - 1) * stride + kw - w, 0)
    xp = np.zeros((i, h + pad_h, w + pad_w))
    xp[:, pad_h // 2 : pad_h // 2 + h, pad_w // 2 : pad_w // 2 + w] = x
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


def pnm_header_oracle(buf: bytes):
    """Byte-by-byte reader of a binary PGM/PPM header.

    The magic "P5" or "P6"; three times a gap, a non-empty run of the
    six ASCII whitespace bytes and '#' comments (each running to the
    next CR, LF or the end of the file), and a run of ASCII digits;
    then one whitespace byte.  Returns ``((channels, width, height,
    maxval), payload offset)``, or ``(None, offset)`` of the first byte
    that breaks the grammar (``len(buf)`` when the bytes end first).
    """
    whitespace, digits = b" \t\n\v\f\r", b"0123456789"
    if buf[:2] not in (b"P5", b"P6"):
        return None, 0
    pos = 2
    numbers = []
    for _ in range(3):
        start = pos
        while pos < len(buf) and (buf[pos] in whitespace or buf[pos] == ord("#")):
            if buf[pos] == ord("#"):
                while pos < len(buf) and buf[pos] not in b"\r\n":
                    pos += 1
            else:
                pos += 1
        if pos == start:
            return None, pos
        start = pos
        while pos < len(buf) and buf[pos] in digits:
            pos += 1
        if pos == start:
            return None, pos
        numbers.append(int(buf[start:pos]))
    if pos == len(buf) or buf[pos] not in whitespace:
        return None, pos
    channels = 3 if buf[1] == ord("6") else 1
    return (channels, *numbers), pos + 1


def pfm_header_oracle(buf: bytes):
    """Byte-by-byte reader of a grayscale PFM header.

    Three lines, each read as a binary ``readline(128)`` reads one: byte
    by byte through the first LF, at most 128 bytes, and a 128-byte line
    that does not end in LF is rejected.  The stripped first line is
    "Pf"; the second splits into two runs of ASCII digits, both nonzero;
    the third holds no '_' and ``float()`` reads it as a finite nonzero
    scale; then 4 * width * height payload bytes follow.  Returns
    ``((width, height, little_endian), payload offset)``, or None when
    the file is rejected.
    """
    pos = 0
    lines = []
    for _ in range(3):
        line = b""
        while pos < len(buf) and len(line) < 128 and not line.endswith(b"\n"):
            line += buf[pos:pos + 1]
            pos += 1
        if len(line) == 128 and not line.endswith(b"\n"):
            return None
        lines.append(line)
    magic, dims, scale_line = lines
    if magic.strip() != b"Pf":
        return None
    dims = dims.split()
    if len(dims) != 2 or not all(d.isdigit() for d in dims):
        return None
    width, height = int(dims[0]), int(dims[1])
    if width == 0 or height == 0 or b"_" in scale_line:
        return None
    try:
        scale = float(scale_line)
    except ValueError:
        return None
    if scale == 0 or not math.isfinite(scale):
        return None
    if len(buf) - pos < 4 * width * height:
        return None
    return (width, height, scale < 0), pos


def mscv1_oracle(buf: bytes):
    """Byte-by-byte reader of an MSCV1 weight container.

    The magic "MSCV1"; an entry count; per entry a name length, that many
    bytes of UTF-8 name, a rank, rank dims and 4 payload bytes per
    element, each element a float32; no byte after the last entry.  The
    count and dims take 4 bytes, the name length 2 and the rank 1, all
    integers and floats little-endian.  A name may not repeat, and a shape
    must be one NumPy holds: at most 64 dims, and 4 bytes times the
    product of the nonzero dims below 2**63.  Returns the ``(name, shape,
    bits)`` entries, ``bits`` the list of each element's float32 bit
    pattern, or None when the container is rejected.
    """
    if buf[:5] != b"MSCV1":
        return None
    pos = 5

    def uint(size):
        """The next ``size`` bytes as a little-endian integer; None past the end."""
        nonlocal pos
        if len(buf) - pos < size:
            return None
        value = 0
        for i in range(size):
            value |= buf[pos + i] << (8 * i)
        pos += size
        return value

    count = uint(4)
    if count is None:
        return None
    entries = []
    for _ in range(count):
        length = uint(2)
        if length is None or len(buf) - pos < length:
            return None
        try:
            name = buf[pos:pos + length].decode("utf-8")
        except UnicodeDecodeError:
            return None
        pos += length
        rank = uint(1)
        if rank is None or name in [entry[0] for entry in entries]:
            return None
        shape = tuple(uint(4) for _ in range(rank))
        if None in shape or len(buf) - pos < 4 * math.prod(shape):
            return None
        bits = [uint(4) for _ in range(math.prod(shape))]
        if rank > 64 or 4 * math.prod(d for d in shape if d) >= 2**63:
            return None
        entries.append((name, shape, bits))
    if pos != len(buf):
        return None
    return entries


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


def loss_reference(d_hat, d_gt, flags, tau, lam):
    """Mean, per-pixel loss and gradient as plain whole-array expressions.

    With w = |d_hat - d_gt| * (1 - lam * mask) and u = max(tau, w): the
    loss is u ** (1/8) on valid ground-truth pixels and 0 elsewhere, its
    mean runs over the valid pixels, and the gradient is (1/8) *
    u ** (-7/8) * (1 - lam * mask) * sign(d_hat - d_gt) where the pixel
    is valid and w > tau, +0.0 elsewhere.
    """
    valid = d_gt.valid
    diff = d_hat.values - d_gt.values
    factor = 1.0 - lam * flags
    weighted = np.abs(diff) * factor
    u = np.maximum(tau, weighted)
    loss = np.where(valid, u ** 0.125, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        grad = 0.125 * u ** -0.875 * factor * np.sign(diff)
    grad = np.where(valid & (weighted > tau), grad, 0.0)
    return float(loss[valid].mean()), loss, grad


def assemble_traditional(c1, c2, c3) -> np.ndarray:
    """Interleave three 96-deep volumes per disparity and normalize.

    Channel layout is [C1(d), C2(d), C3(d)] for d = 0..95 (288 channels
    total).  Normalization subtracts the global mean and divides by the
    global standard deviation (epsilon 1e-8 guards zero variance).  This
    is the paper's 288-channel volume, which the network folds into its
    first 1x1 reduction instead of building it.
    """
    vols = (c1, c2, c3)
    for v in vols:
        if v.costs.shape[0] != 96:
            raise ValueError(f"expected depth 96, got {v.costs.shape[0]}")
    _, h, w = c1.costs.shape
    stacked = np.empty((288, h, w), dtype=np.float64)
    stacked[0::3] = c1.costs
    stacked[1::3] = c2.costs
    stacked[2::3] = c3.costs
    mean = stacked.mean()
    std = stacked.std()
    stacked -= mean
    stacked /= std + 1e-8
    return stacked


def traditional_volumes(left, right, max_d):
    """Whole-plane census and chroma-AD volumes in float64, without row
    bands or flat runs.

    Pools both images 2x, converts to YUV and takes ``census_transform``
    of Y, then sets out[d, :, d:] = cost(l[:, d:], r[:, :w - d]) per
    disparity: the Hamming distance on Y, the absolute difference on U
    and V.  Columns x < d keep the fill cost, 24 or 1.0.  Returns
    ``(census, ad_u, ad_v, left_half)``.
    """
    left_half = mean_pool_2x(left)
    lyuv = rgb_to_yuv(left_half).data
    ryuv = rgb_to_yuv(mean_pool_2x(right)).data
    census = lambda yuv: census_transform(Image(yuv[:1]))
    _, h, w = lyuv.shape

    def volume(l, r, fill, cost):
        out = np.full((max_d, h, w), float(fill))
        for d in range(min(max_d, w)):
            out[d, :, d:] = cost(l[:, d:], r[:, : w - d])
        return CostVolume(out)

    hamming = lambda a, b: np.bitwise_count(a ^ b)
    absdiff = lambda a, b: np.abs(a - b)
    return (
        volume(census(lyuv), census(ryuv), CENSUS_BITS, hamming),
        volume(lyuv[1], ryuv[1], 1.0, absdiff),
        volume(lyuv[2], ryuv[2], 1.0, absdiff),
        left_half,
    )


def traditional_match_reference(left, right, max_disp):
    """``cli.traditional_match`` on whole volumes: normalized census plus
    U and V costs, one ``np.argmin`` (ties to the smaller disparity),
    nearest-neighbor upsampling."""
    left_p, right_p = pad_reflect(left, 2), pad_reflect(right, 2)
    census, ad_u, ad_v, _ = traditional_volumes(left_p, right_p, max(1, max_disp // 2))
    combined = census.costs / CENSUS_BITS + ad_u.costs + ad_v.costs
    half = 2.0 * np.argmin(combined, axis=0)  # half-scale candidates count 2 px
    full = np.repeat(np.repeat(half, 2, axis=0), 2, axis=1)[: left.height, : left.width]
    return DisparityMap(full, valid=np.ones_like(full, dtype=bool))


def conv2d_f64(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
               stride: int = 1) -> np.ndarray:
    """"Same"-padded cross-correlation in float64, one kernel tap at a time."""
    o, i, kh, kw = weights.shape
    _, h, w = x.shape
    out_h, out_w = -(-h // stride), -(-w // stride)
    pad_h = max((out_h - 1) * stride + kh - h, 0)
    pad_w = max((out_w - 1) * stride + kw - w, 0)
    xp = np.pad(np.asarray(x, dtype=np.float64), (
        (0, 0), (pad_h // 2, pad_h - pad_h // 2), (pad_w // 2, pad_w - pad_w // 2)
    ))
    out = np.zeros((o, out_h, out_w))
    for ky in range(kh):
        for kx in range(kw):
            taps = xp[:, ky : ky + stride * out_h : stride, kx : kx + stride * out_w : stride]
            out += np.tensordot(np.asarray(weights[:, :, ky, kx], np.float64), taps, axes=1)
    return out + np.asarray(bias, np.float64)[:, None, None]


def deconv_f64(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """2x2 stride-2 transposed convolution in float64, one tap at a time."""
    o = weights.shape[0]
    _, h, w = x.shape
    out = np.empty((o, 2 * h, 2 * w))
    for u in range(2):
        for v in range(2):
            out[:, u::2, v::2] = np.tensordot(
                np.asarray(weights[:, :, u, v], np.float64), x, axes=1
            )
    return out + np.asarray(bias, np.float64)[:, None, None]


def correlation_f64(fl: np.ndarray, fr: np.ndarray, max_d: int) -> np.ndarray:
    """Channel-normalized inner product per disparity in float64, fill = 0."""
    fl, fr = np.asarray(fl, np.float64), np.asarray(fr, np.float64)
    n, h, w = fl.shape
    out = np.zeros((max_d, h, w))
    for d in range(min(max_d, w)):
        out[d, :, d:] = (fl[:, :, d:] * fr[:, :, : w - d]).sum(axis=0) / n
    return out


def forward_oracle(left, right, store):
    """Float64 restatement of ``mscv.network.full_forward``.

    Same topology and padding; every layer runs on the float64 helpers
    above with the float32 weights widened, and the traditional branch
    builds the normalized 288-channel volume with ``assemble_traditional``.
    The census/AD volumes come whole from ``traditional_volumes``, so no
    cost loop is shared; padding, cropping, pooling, YUV conversion and
    the census transform (checked against ``census_oracle``) come from
    the package.
    Returns ``(refined, disparity)``: the 32-channel half-scale features
    that enter the head, and the clamped full-resolution disparity map.
    """
    param = lambda key: np.asarray(store[key], dtype=np.float64)

    def finish(name, y, bn, act):
        if bn:
            g = lambda k: param(f"{name}.bn.{k}")[:, None, None]
            y = g("gamma") * (y - g("mean")) / np.sqrt(g("var") + 1e-5) + g("beta")
        return np.maximum(y, 0.0) if bn or act else y

    def conv(name, x, stride=1, bn=False, act=True):
        return finish(name, conv2d_f64(x, param(f"{name}.w"), param(f"{name}.b"), stride), bn, act)

    def deconv(name, x, bn=False):
        return finish(name, deconv_f64(x, param(f"{name}.w"), param(f"{name}.b")), bn, True)

    def unet(x):
        s_full = conv("unet.enc0", x, bn=True)
        s_half = conv("unet.enc1", conv("unet.down1", s_full, 2, bn=True), bn=True)
        s_quarter = conv("unet.enc2", conv("unet.down2", s_half, 2, bn=True), bn=True)
        bottom = conv("unet.enc3", conv("unet.down3", s_quarter, 2, bn=True), bn=True)
        u2 = deconv("unet.up2.deconv", bottom, bn=True)
        u2 = conv("unet.up2.fuse", np.concatenate([u2, s_quarter]), bn=True)
        f_quarter = conv("unet.up2.harvest", u2, bn=True)
        u1 = deconv("unet.up1.deconv", f_quarter, bn=True)
        u1 = conv("unet.up1.fuse", np.concatenate([u1, s_half]), bn=True)
        return conv("unet.up1.harvest", u1, bn=True), f_quarter

    def hourglass(x, stage, guides):
        downs = 2 if stage == 1 else 3
        y = conv(f"hg{stage}.entry", x)
        for i in range(downs):
            pre = f"hg{stage}.down{i}"
            z = conv(f"{pre}.c2", conv(f"{pre}.c1", y, 2), act=False)
            y = np.maximum(z + conv(f"{pre}.sc", y, 2, act=False), 0.0)
            pre = f"hg{stage}.res{i}"
            z = conv(f"{pre}.c2", conv(f"{pre}.c1", y), act=False)
            y = np.maximum(z + y, 0.0)
        y = conv(f"hg{stage}.bottleneck", np.concatenate([y, guides[-1]]))
        for i in range(downs):
            y = deconv(f"hg{stage}.up{i}.deconv", y)
            y = conv(f"hg{stage}.up{i}.fuse", np.concatenate([y, guides[-2 - i]]))
            y = conv(f"hg{stage}.up{i}.conv", y)
        return y

    left_p, right_p = pad_reflect(left, 16), pad_reflect(right, 16)
    census, ad_u, ad_v, left_half = traditional_volumes(left_p, right_p, 96)
    x = assemble_traditional(census, ad_u, ad_v)
    for i in range(4):
        x = conv(f"trad.red{i}", x)
    x = np.concatenate([x, left_half.data])
    for i in range(3):
        x = conv(f"trad.harvest{i}", x)
    trad32 = x
    fl_half, fl_quarter = unet(left_p.data)
    fr_half, fr_quarter = unet(right_p.data)
    corr32 = conv("corr.reduce", correlation_f64(fl_half, fr_half, 96))
    corr48 = correlation_f64(fl_quarter, fr_quarter, 48)
    guides = [conv("guide.s0", trad32)]  # 1/2, 1/4, 1/8, 1/16
    for i in (1, 2, 3):
        guides.append(conv(f"guide.d{i}.b", conv(f"guide.d{i}.a", guides[-1], 2)))
    h1 = hourglass(corr48, 1, guides)
    fused = np.concatenate([deconv("casc.up", h1), corr32, trad32])
    refined = hourglass(conv("casc.fuse", fused), 2, guides)
    d = conv("head.conv", refined, act=False)
    full = bilinear_oracle(d, 2 * d.shape[1], 2 * d.shape[2])
    return refined, np.maximum(full[0, : left.height, : left.width], 0.0)
