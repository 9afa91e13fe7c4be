"""Damaged files: each decoder raises only its documented error, and the
command that reads the file exits with status 2.  Hand-built PPM/PGM and
PFM headers and MSCV1 containers: each decoder and a byte-by-byte oracle
agree.  Generated RGB pairs: the census/AD cost stream and the
brute-force census, Hamming and AD oracles agree plane for plane."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mscv.cli import main
from mscv.costvol import _BAND_ROWS, DEPTH, traditional_costs
from mscv.imagekit import (
    DisparityMap,
    FormatError,
    Image,
    mean_pool_2x,
    read_image,
    read_pfm,
    rgb_to_yuv,
    write_image,
    write_pfm,
)
from mscv.network import WeightError, load_weights, save_weights
from oracles import (
    ad_volume_oracle,
    census_oracle,
    hamming_volume_oracle,
    mscv1_oracle,
    pfm_header_oracle,
    pnm_header_oracle,
)

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
    save_weights({
        "a.w": np.ones((2, 3), np.float32),
        "b": np.arange(2, dtype=np.float32),
        "s": np.full((), 5.0, np.float32),
    }, good)
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


def mostly(common, *rare):
    """``common`` in about nine of ten draws, else one of ``rare``."""
    return st.sampled_from([common] * 9 * len(rare) + list(rare))


@st.composite
def pfm_line(draw, tokens) -> bytes:
    """A token between blank runs, then an LF, CR LF, CR or no ending;
    now and then padded to 127, 128 or 129 bytes, ending included."""
    blanks = often(b"", b" ", b"\t", b"\v\f", b"\r")
    body = draw(blanks) + draw(tokens) + draw(blanks)
    end = draw(mostly(b"\n", b"\r\n", b"\r", b""))
    size = draw(often(None, 127, 128, 129))
    if size:
        body = body.ljust(size - len(end)) if draw(st.booleans()) else body.rjust(size - len(end))
    return body + end


@st.composite
def pfm_dims(draw) -> bytes:
    """Width and height, now and then one or three numbers, and now and
    then one of them drawn as a PNM header number (sign, '_', ...)."""
    values = often(2, 1, 3, 0)
    numbers = [b"%d" % draw(values) for _ in range(draw(mostly(2, 1, 3)))]
    if draw(often(False, True)):
        numbers[draw(st.integers(0, len(numbers) - 1))] = draw(pnm_number(values))
    return draw(often(b" ", b"\t", b"  ", b"\v")).join(numbers)


# Scale lines float() reads as finite and nonzero, in other spellings than
# "-1.0", and scale lines the reader must reject: zeros, non-finite values,
# values that round to 0 or inf, '_' (float() reads "1_0" as 10) and words
# float() rejects.
PFM_SCALES = [b"1.0", b"-1", b"1e0", b"-2.5E+1", b".5", b"+1"]
PFM_BAD_SCALES = [b"-0.0", b"0", b"nan", b"-inf", b"Infinity", b"1e400", b"-1e-400",
                  b"-1_0", b"1_0", b"x", b""]


@given(data=st.data())
@settings(FUZZ, max_examples=400)
def test_pfm_header_matches_oracle(tmp_path, data):
    draw = data.draw
    buf = draw(pfm_line(mostly(b"Pf", b"PF", b"P5", b"Pf2", b"")))
    buf += draw(pfm_line(pfm_dims()))
    scales = often(b"-1.0", *PFM_SCALES), st.sampled_from(PFM_BAD_SCALES)
    buf += draw(pfm_line(st.one_of(*scales)))
    # A 3x3 map's payload and more, or cut to the exact size of a smaller
    # map, or to one byte short of 3x3.
    payload = draw(st.binary(min_size=37, max_size=40))
    buf += payload[:draw(st.sampled_from([40, 4, 8, 12, 16, 24, 36, 35]))]
    buf = buf[:draw(st.integers(0, len(buf)))] if draw(mostly(False, True)) else buf
    path = tmp_path / "h.pfm"
    path.write_bytes(buf)
    header = pfm_header_oracle(buf)
    if header is None:
        with pytest.raises(FormatError):
            read_pfm(path)
        return
    (width, height, little), pos = header
    rows = np.frombuffer(buf, "<f4" if little else ">f4", width * height, pos)
    want, got = DisparityMap(rows.reshape(height, width)[::-1]), read_pfm(path)
    assert got.values.tobytes() == want.values.tobytes()
    np.testing.assert_array_equal(got.valid, want.valid)


# Names, each valid one drawn twice as often as each invalid one, so that
# they repeat across a container's entries: plain, empty, a UTF-8 "é",
# then two byte strings that are not UTF-8 (a lone 0xff, and a cut
# two-byte sequence).
MSCV1_NAMES = [b"w", b"b.w", b"", "\u00e9".encode()] * 2 + [b"\xff", b"a\xc3"]
# Dims besides 1: 2 most often, 3 and 0; 2**30 and 2**31, whose products
# with a 0 dim straddle NumPy's 2**63-byte bound; and the largest uint32.
MSCV1_DIMS = often(2, 3, 0, 2**30, 2**31, 2**32 - 1)


@st.composite
def mscv1_entry(draw) -> bytes:
    """An entry of rank 0-4, 64 or 65, with up to four dims other than 1
    and, now and then, a payload a byte or an element short or long."""
    name = draw(st.sampled_from(MSCV1_NAMES))
    rank = draw(st.sampled_from([0, 1, 2, 3, 4, 64, 65]))
    dims = [1] * rank
    for _ in range(draw(st.integers(0, min(rank, 4)))):
        dims[draw(st.integers(0, rank - 1))] = draw(MSCV1_DIMS)
    size = 4 * math.prod(dims)
    size = size if size <= 400 else draw(st.integers(0, 64))
    size = max(0, size + draw(mostly(0, -4, -1, 1, 4)))
    return (len(name).to_bytes(2, "little") + name + rank.to_bytes(1, "little")
            + b"".join(d.to_bytes(4, "little") for d in dims)
            + draw(st.binary(min_size=size, max_size=size)))


@given(data=st.data())
@settings(FUZZ, max_examples=300)
def test_mscv1_matches_oracle(tmp_path, data):
    draw = data.draw
    entries = [draw(mscv1_entry()) for _ in range(draw(st.integers(0, 3)))]
    count = (len(entries) + draw(mostly(0, -1, 1))) % 2**32  # -1 is 2**32 - 1
    buf = draw(mostly(b"MSCV1", b"MSCV", b"MSCV2")) + count.to_bytes(4, "little")
    buf += b"".join(entries) + draw(mostly(b"", b"\0", b"tail"))
    buf = buf[:draw(st.integers(0, len(buf)))] if draw(mostly(False, True)) else buf
    path = tmp_path / "w.mscv1"
    path.write_bytes(buf)
    want = mscv1_oracle(buf)
    if want is None:
        with pytest.raises(WeightError):
            load_weights(path)
        return
    got = [(name, arr.shape, arr.astype("<f4").view("<u4").ravel().tolist())
           for name, arr in load_weights(path).items()]
    assert got == want


@given(data=st.data())
@settings(FUZZ, max_examples=200)
def test_traditional_costs_match_oracles(layouts, data):
    # The stream branches at d < W: half-scale widths around DEPTH, and 1
    # row or 1 column, where a flat-run shift must not reach the row above.
    # Wide pairs keep few rows for the oracles' sake; narrow ones span two
    # bands.  Few grey levels give the census equal neighbours.
    draw = data.draw
    w = draw(st.sampled_from([1, 2, 3, 8, DEPTH - 1, DEPTH, DEPTH + 1]))
    h = draw(st.integers(1, 3 if w >= DEPTH - 1 else _BAND_ROWS + 3))
    levels = draw(st.sampled_from([2, 3, 256]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left, right = rng.integers(0, levels, (2, 3, 2 * h, 2 * w)) / (levels - 1)
    ly, ry = (rgb_to_yuv(mean_pool_2x(Image(x))).data for x in (left, right))
    expected = np.stack([
        hamming_volume_oracle(census_oracle(ly[0]), census_oracle(ry[0]), DEPTH),
        ad_volume_oracle(ly[1], ry[1], DEPTH),
        ad_volume_oracle(ly[2], ry[2], DEPTH),
    ])
    l, r = (draw(st.sampled_from(layouts(x))) for x in (left, right))
    order = []
    for y0, d, planes in traditional_costs(Image(l), Image(r))[1]:
        order.append((y0, d))
        np.testing.assert_array_equal(planes, expected[:, d, y0 : y0 + _BAND_ROWS])
        planes.fill(np.nan)  # a consumer may overwrite each plane
    assert order == [(y0, d) for y0 in range(0, h, _BAND_ROWS) for d in range(DEPTH)]
