"""Damaged files: each decoder raises only its documented error, and the
command that reads the file exits with status 2.  Hand-built PPM/PGM
headers: the decoder and a byte-by-byte oracle agree."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mscv.cli import main
from mscv.imagekit import (
    DisparityMap,
    FormatError,
    Image,
    read_image,
    read_pfm,
    write_image,
    write_pfm,
)
from mscv.network import WeightError, WeightStore, load_weights, save_weights
from oracles import pnm_header_oracle

FUZZ = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def damaged(draw, valid: bytes) -> bytes:
    """``valid`` after one to three truncations, byte flips or extensions."""
    buf = bytearray(valid)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "flip", "extend"]))
        if kind == "truncate":
            del buf[draw(st.integers(0, len(buf))):]
        elif kind == "flip" and buf:
            buf[draw(st.integers(0, len(buf) - 1))] ^= draw(st.integers(1, 255))
        else:
            buf += draw(st.binary(min_size=1, max_size=16))
    return bytes(buf)


def check(path, decode, error, argv, capsys):
    """Decode ``path``; on rejection, the CLI run ``argv`` exits 2."""
    try:
        decode(path)
    except error:
        capsys.readouterr()
        assert main(argv) == 2
        assert "Traceback" not in capsys.readouterr().err


def _image(channels=3):
    pixels = np.random.default_rng(0).integers(0, 256, (channels, 3, 4))
    return Image(pixels / 255.0)


@given(data=st.data())
@FUZZ
def test_pnm_decoder(tmp_path, capsys, data):
    good = tmp_path / "good.ppm"
    write_image(_image(), good)
    gray = tmp_path / "good.pgm"
    write_image(_image(channels=1), gray)
    valid = data.draw(st.sampled_from([good, gray])).read_bytes()
    path = tmp_path / "bad.pnm"
    path.write_bytes(data.draw(damaged(valid)))
    check(path, read_image, FormatError, [
        "trad-match", "--left", str(path), "--right", str(good),
        "--out", str(tmp_path / "d.pfm"),
    ], capsys)


@given(data=st.data())
@FUZZ
def test_pfm_decoder(tmp_path, capsys, data):
    good = tmp_path / "good.pfm"
    values = np.arange(12, dtype=np.float64).reshape(3, 4)
    write_pfm(DisparityMap(values), good)
    path = tmp_path / "bad.pfm"
    path.write_bytes(data.draw(damaged(good.read_bytes())))
    check(path, read_pfm, FormatError, [
        "mask", "--gt", str(path), "--out", str(tmp_path / "m.pgm"),
    ], capsys)


@given(data=st.data())
@FUZZ
def test_mscv1_decoder(tmp_path, capsys, data):
    good = tmp_path / "good.mscv1"
    # A rank-2, a rank-1 and a rank-0 entry.
    save_weights(WeightStore({
        "a.w": np.ones((2, 3), np.float32),
        "b": np.arange(2, dtype=np.float32),
        "s": np.full((), 5.0, np.float32),
    }), good)
    image = tmp_path / "img.ppm"
    write_image(_image(), image)
    path = tmp_path / "bad.mscv1"
    path.write_bytes(data.draw(damaged(good.read_bytes())))
    check(path, load_weights, WeightError, [
        "infer", "--left", str(image), "--right", str(image),
        "--weights", str(path), "--out", str(tmp_path / "d.pfm"),
    ], capsys)


def often(common, *rare):
    """``common`` in about three of four draws, else one of ``rare``."""
    return st.sampled_from([common] * 3 * len(rare) + list(rare))


@st.composite
def pnm_gap(draw) -> bytes:
    """None, one or two runs of whitespace and '#' comments."""
    run = st.one_of(
        st.text(" \t\n\v\f\r", min_size=1, max_size=3),
        st.builds("#{}{}".format, st.text("c1 #\t\v", max_size=3), often("\n", "\r", "")),
    )
    return "".join(draw(run) for _ in range(draw(often(1, 0, 2)))).encode()


@st.composite
def pnm_number(draw, values) -> bytes:
    """A decimal number, maybe with leading zeros and a sign, an '_' or a
    non-ASCII digit inside."""
    digits = "0" * draw(st.integers(0, 2)) + str(draw(values))
    cut = draw(st.integers(0, len(digits)))
    spoil = draw(often("", "+", "-", "_", "\u0662", "\uff12"))
    return (digits[:cut] + spoil + digits[cut:]).encode()


@given(data=st.data())
@FUZZ
def test_pnm_header_matches_oracle(tmp_path, data):
    draw = data.draw
    buf = draw(often(b"P5", b"P6", b"P4", b"P"))
    for values in (often(2, 1, 3, 0), often(2, 1, 3, 0), often(255, 254, 2550)):
        buf += draw(pnm_gap()) + draw(pnm_number(values))
    buf += draw(st.sampled_from([b" ", b"\n", b"\r", b"\t", b"\v", b"\f", b"", b"\r\n", b"#c\n"]))
    buf += draw(st.binary(min_size=27, max_size=27))  # a 3x3 PPM's payload
    buf = buf[:draw(st.integers(0, len(buf)))] if draw(often(False, True)) else buf
    path = tmp_path / "h.pnm"
    path.write_bytes(buf)
    header, pos = pnm_header_oracle(buf)
    if header is None:
        with pytest.raises(FormatError, match=rf"at byte {pos}\b"):
            read_image(path)
        return
    channels, width, height, maxval = header
    need = channels * width * height
    if maxval != 255 or need == 0 or len(buf) - pos < need:
        with pytest.raises(FormatError):
            read_image(path)
        return
    raw = np.frombuffer(buf, np.uint8, count=need, offset=pos).reshape(height, width, channels)
    assert read_image(path).data.tobytes() == (raw.transpose(2, 0, 1) / 255.0).tobytes()
