"""Damaged files: each decoder raises only its documented error, and the
command that reads the file exits with status 2."""

import numpy as np
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
