"""Image and disparity-map I/O, colorspace conversion, resolution helpers.

Images are stored planar (channel, row, column) with samples in [0, 1].
Disparity maps carry full-resolution pixel units plus a per-pixel
validity flag.  A map built without a flag, as from a file or ground
truth, counts its pixels with 0 < d < MAX_DISPARITY as valid; the
matchers pass their own.

Supported containers: binary PPM (P6) / PGM (P5) at maxval 255, and
grayscale PFM ("Pf", little-endian on write, rows bottom-to-top).

A PPM/PGM header is the magic "P6" or "P5"; then three times a gap and
a number of ASCII digits (width, height, maxval); then exactly one
whitespace byte, after which the payload starts.  A gap is a non-empty
run of whitespace and '#' comments, each comment running to the next
CR, LF or the end of the file.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

MAX_DISPARITY = 192


class FormatError(ValueError):
    """Raised on malformed image or disparity files."""


@dataclass
class Image:
    """Planar raster, shape (channels, height, width), samples in [0, 1]."""

    data: np.ndarray  # float64, (C, H, W)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3 or self.data.shape[0] not in (1, 3):
            raise ValueError(f"image must be (1|3, H, W), got {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("image samples must be finite")

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


@dataclass
class DisparityMap:
    """Dense disparity field in full-resolution pixel units.

    ``valid`` marks pixels carrying a usable disparity; invalid pixels
    hold value 0.
    """

    values: np.ndarray  # float64, (H, W)
    valid: np.ndarray = field(default=None)  # bool, (H, W)

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 2:
            raise ValueError("disparity values must be 2-D")
        if self.valid is None:
            self.valid = (values > 0) & (values < MAX_DISPARITY)  # NaN, +-inf fail too
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.valid.shape != values.shape:
            raise ValueError("validity mask shape mismatch")
        # One C-ordered float64 copy, +0.0 where invalid (np.where keeps a
        # Fortran input's order); complex or object values fail the cast.
        self.values = np.where(self.valid, values, np.float64(0)).astype(
            np.float64, order="C", casting="same_kind", copy=False)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


# ---------------------------------------------------------------------------
# PPM / PGM codec
# ---------------------------------------------------------------------------


# The module docstring's header grammar, each piece inside the optional
# group of the piece before, so after the magic the match always succeeds
# and never backtracks: m.end() is the first byte that breaks the grammar.
# Groups 1-4 are width, height, maxval and the closing whitespace byte.
# Nothing else is captured: each capture set before a gap is saved once
# per comment in that gap.
_PNM_HEADER = re.compile(
    rb"P[56](?:%(gap)s(?:(\d+)(?:%(gap)s(?:(\d+)(?:%(gap)s(?:(\d+)(\s)?)?)?)?)?)?)?"
    % {b"gap": rb"(?=[\s#])\s*(?:#[^\r\n]*\s*)*"})


def read_image(path) -> Image:
    """Read a binary PPM (P6) or PGM (P5) file with maxval 255."""
    with open(path, "rb") as f:
        buf = f.read()
    m = _PNM_HEADER.match(buf)
    if m is None:
        raise FormatError(f"bad magic {buf[:2]!r} at byte 0")
    pos = m.end()
    if m[4] is None:
        if pos == len(buf):
            raise FormatError(f"unexpected end of header at byte {pos}")
        what = "no whitespace after magic" if pos == 2 else "header number is not decimal"
        raise FormatError(f"{what} at byte {pos}: {buf[pos:pos + 1]!r}")
    channels = 3 if buf[1] == ord("6") else 1
    try:
        width, height, maxval = map(int, m.group(1, 2, 3))
    except ValueError as exc:  # more digits than int() converts
        raise FormatError(f"bad header number: {exc}") from exc
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval} (only 255) at byte {m.end(3)}")
    if width <= 0 or height <= 0:
        raise FormatError(f"bad dimensions {width}x{height}")
    need = width * height * channels
    got = min(need, len(buf) - pos)
    if got != need:
        raise FormatError(
            f"truncated payload at byte {pos + got}: expected {need} bytes, got {got}"
        )
    raw = np.frombuffer(buf, np.uint8, count=need, offset=pos).reshape(height, width, channels)
    # One pass from the file bytes into a planar float64 array.
    return Image(np.divide(raw.transpose(2, 0, 1), 255.0, out=np.empty((channels, height, width))))


def write_image(image: Image, path) -> None:
    """Write PPM (3-channel) or PGM (1-channel) at maxval 255.

    Exact inverse of :func:`read_image` for files produced by it.
    """
    quant = np.rint(image.data * 255.0)
    quant = np.clip(quant, 0, 255).astype(np.uint8)
    write_pnm(quant.transpose(1, 2, 0), path)


def write_pnm(pixels: np.ndarray, path) -> None:
    """Write a uint8 (H, W, C) array as PPM (C = 3) or PGM (C = 1)."""
    height, width, channels = pixels.shape
    magic = b"P6" if channels == 3 else b"P5"
    with open(path, "wb") as f:
        f.write(b"%s\n%d %d\n255\n" % (magic, width, height))
        f.write(np.ascontiguousarray(pixels))


# ---------------------------------------------------------------------------
# PFM codec (grayscale only)
# ---------------------------------------------------------------------------


_PFM_LINE_BYTES = 128  # longest PFM header line read, newline included


def _read_pfm_line(f, what: str) -> bytes:
    line = f.readline(_PFM_LINE_BYTES)
    if len(line) == _PFM_LINE_BYTES and not line.endswith(b"\n"):
        raise FormatError(f"{what} line longer than {_PFM_LINE_BYTES} bytes")
    return line


def read_pfm(path) -> DisparityMap:
    """Read a grayscale PFM disparity file.

    Non-finite or out-of-range samples are marked invalid.
    """
    with open(path, "rb") as f:
        magic = _read_pfm_line(f, "magic").strip()
        if magic == b"PF":
            raise FormatError("color PFM not supported")
        if magic != b"Pf":
            raise FormatError(f"bad magic {magic!r}")
        dims = _read_pfm_line(f, "dimensions").split()
        if len(dims) != 2 or not all(d.isdigit() for d in dims):
            raise FormatError(f"bad dimensions line {b' '.join(dims)!r}")
        width, height = int(dims[0]), int(dims[1])
        if width < 1 or height < 1:
            raise FormatError(f"dimensions must be positive, got {width}x{height}")
        line = _read_pfm_line(f, "scale")
        if b"_" in line:  # float() reads it as digit grouping
            raise FormatError(f"bad scale line {line!r}: '_' is not allowed")
        try:
            scale = float(line)
        except ValueError as exc:
            raise FormatError(f"bad scale line: {exc}") from exc
        if scale == 0 or not math.isfinite(scale):
            raise FormatError(f"scale must be finite and nonzero, got {scale}")
        endian = "<f4" if scale < 0 else ">f4"
        if 4 * width * height > os.fstat(f.fileno()).st_size - f.tell():
            raise FormatError("truncated PFM payload")
        payload = f.read(4 * width * height)
    rows = np.frombuffer(payload, dtype=endian).reshape(height, width)
    return DisparityMap(np.flipud(rows))  # stored bottom-to-top


def write_pfm(dmap: DisparityMap, path) -> None:
    """Write a grayscale little-endian PFM (scale -1.0), bottom-up rows."""
    with open(path, "wb") as f:
        f.write(b"Pf\n%d %d\n-1.0\n" % (dmap.width, dmap.height))
        f.write(np.flipud(dmap.values).astype("<f4"))


# ---------------------------------------------------------------------------
# Colorspace
# ---------------------------------------------------------------------------

# BT.601 full-range, chroma centered at 0 so U/V live in [-0.5, 0.5].
_RGB_TO_YUV = np.array(
    [
        [0.299, 0.587, 0.114],
        [-0.168736, -0.331264, 0.5],
        [0.5, -0.418688, -0.081312],
    ]
)


def rgb_to_yuv(image: Image) -> Image:
    """Convert 3-channel RGB in [0,1] to YUV (BT.601 full-range).

    Y stays in [0,1]; U and V are zero-centered in [-0.5, 0.5].
    """
    if image.channels != 3:
        raise ValueError("rgb_to_yuv requires a 3-channel image")
    flat = image.data.reshape(3, -1)
    yuv = _RGB_TO_YUV @ flat
    return Image(yuv.reshape(image.data.shape))


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------


def mean_pool_2x(image: Image) -> Image:
    """Halve resolution by averaging disjoint 2x2 blocks.

    Each block sums as ((x00 + x01) + x10) + x11 and then divides by 4,
    whatever the memory layout of ``image.data``, so equal pixels pool to
    equal bits.  It is the order in which NumPy's ``mean`` summed
    channel-interleaved (H, W, C) arrays seen as (C, H, W), the layout
    :func:`read_image` once returned, so images read from files pool as
    they always did.  Dimensions must be even; pad with
    :func:`pad_reflect` first.
    """
    x = image.data
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"mean_pool_2x needs even dims, got {h}x{w}")
    out = np.add(x[:, 0::2, 0::2], x[:, 0::2, 1::2], out=np.empty((c, h // 2, w // 2)))
    out += x[:, 1::2, 0::2]
    out += x[:, 1::2, 1::2]
    out /= 4
    return Image(out)


def pad_reflect(image: Image, multiple: int) -> tuple[Image, tuple[int, int]]:
    """Reflect-pad right/bottom so dims divide ``multiple``.

    Returns the padded image and the original (height, width) for
    cropping network outputs back.
    """
    if multiple < 1:
        raise ValueError("multiple must be >= 1")
    h, w = image.height, image.width
    ph = (-h) % multiple
    pw = (-w) % multiple
    if ph == 0 and pw == 0:
        return image, (h, w)
    padded = np.pad(image.data, ((0, 0), (0, ph), (0, pw)), mode="reflect")
    return Image(padded), (h, w)
