"""Codec round-trips, colorspace math, pooling and padding."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mscv.imagekit import (
    DisparityMap,
    FormatError,
    Image,
    mean_pool_2x,
    pad_reflect,
    read_image,
    read_pfm,
    rgb_to_yuv,
    write_image,
    write_pfm,
    write_pnm,
)
from mscv.network import save_weights


def random_image(rng, channels=3, h=7, w=9):
    return Image(rng.random((channels, h, w)))


class TestPnmCodec:
    def test_ppm_round_trip_byte_identical(self, tmp_path, rng):
        # Quantized source so the file is exactly representable.
        data = rng.integers(0, 256, (3, 5, 6)).astype(np.float64) / 255.0
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        write_image(Image(data), p1)
        write_image(read_image(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_pgm_round_trip_byte_identical(self, tmp_path, rng):
        data = rng.integers(0, 256, (1, 4, 3)).astype(np.float64) / 255.0
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_image(Image(data), p1)
        write_image(read_image(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_1x1_pgm_maxval_normalization(self, tmp_path):
        path = tmp_path / "one.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\xff")
        img = read_image(path)
        assert img.channels == 1 and img.height == 1 and img.width == 1
        assert img.data[0, 0, 0] == 1.0

    def test_2x1_ppm_hand_decoded_planar(self, tmp_path):
        # Pixels (0,0,0) and (255,0,0): red channel [0,1], rest zero.
        path = tmp_path / "two.ppm"
        path.write_bytes(b"P6\n2 1\n255\n" + bytes([0, 0, 0, 255, 0, 0]))
        img = read_image(path)
        assert img.data.shape == (3, 1, 2)
        np.testing.assert_array_equal(img.data.ravel(), [0, 1, 0, 0, 0, 0])

    @pytest.mark.parametrize("channels,magic", [(3, b"P6"), (1, b"P5")], ids=["P6", "P5"])
    def test_write_pnm_hand_assembled(self, tmp_path, channels, magic):
        # A 3-wide, 2-high raster: header, then the samples row by row,
        # the channels of each pixel together.
        samples = bytes(range(7, 7 + 2 * 3 * channels))
        write_pnm(np.frombuffer(samples, np.uint8).reshape(2, 3, channels), tmp_path / "a")
        assert (tmp_path / "a").read_bytes() == magic + b"\n3 2\n255\n" + samples

    @pytest.mark.parametrize("channels", [3, 1], ids=["P6", "P5"])
    def test_decodes_planar_bit_identical(self, tmp_path, rng, channels):
        # A comment in the header moves the payload off any alignment.
        raw = rng.integers(0, 256, (5, 7, channels), dtype=np.uint8)
        path = tmp_path / "img.pnm"
        magic = b"P6" if channels == 3 else b"P5"
        path.write_bytes(magic + b" # c\n7 5\n255\n" + raw.tobytes())
        data = read_image(path).data
        assert data.shape == (channels, 5, 7) and data.flags.c_contiguous
        assert data.tobytes() == (raw.astype(np.float64).transpose(2, 0, 1) / 255.0).tobytes()

    def test_kitti_sized_read_peak_memory(self, tmp_path, rng, peak_bytes):
        # The file bytes (1/8 image), the float64 image and its finiteness
        # mask (1/8).  Converting to float64 and then dividing into a
        # second image, as a two-step decode does, peaks at 2.25 images.
        path = tmp_path / "kitti.ppm"
        path.write_bytes(b"P6\n1240 376\n255\n" + rng.bytes(3 * 376 * 1240))
        image_bytes = 3 * 376 * 1240 * 8
        peak = peak_bytes(lambda: read_image(path))
        assert peak <= 1.5 * image_bytes, f"peak {peak / image_bytes:.2f} images"

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"P7\n1 1\n255\n\x00")
        with pytest.raises(FormatError, match="byte 0"):
            read_image(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(FormatError, match="truncated"):
            read_image(path)

    def test_non_255_maxval_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FormatError, match="maxval"):
            read_image(path)

    @pytest.mark.parametrize("start,fill", [(b"P6", b" "), (b"P6\n#", b"x")],
                             ids=["blanks", "comment"])
    def test_megabytes_of_header_padding_fail_fast(self, tmp_path, start, fill):
        # 20 MB of whitespace or of one comment, and no token after it.
        path = tmp_path / "padded.ppm"
        path.write_bytes(start + fill * 20_000_000)
        began = time.process_time()
        with pytest.raises(FormatError, match=f"end of header at byte {len(start) + 20_000_000}"):
            read_image(path)
        assert time.process_time() - began < 0.5

    def test_carriage_return_ends_comment(self, tmp_path):
        # Netpbm ends a comment at the next CR or LF.
        path = tmp_path / "cr.pgm"
        path.write_bytes(b"P5\r# c\r2 1\r255\r" + bytes([0, 255]))
        np.testing.assert_array_equal(read_image(path).data.ravel(), [0.0, 1.0])

    @pytest.mark.parametrize("header", [b"P5 +2 1 255 ", b"P5 1_0 1 255 ", b"P5 2 1 2_55 "],
                             ids=["plus", "width-underscore", "maxval-underscore"])
    def test_header_numbers_are_plain_decimal(self, tmp_path, header):
        path = tmp_path / "n.pgm"
        path.write_bytes(header + b"\x00" * 10)
        with pytest.raises(FormatError, match="is not decimal"):
            read_image(path)

    @pytest.mark.parametrize("data,error", [
        (b"P52 1 255\n" + bytes(2), r"at byte 2\b"),
        (b"P63 1 255\n" + bytes(9), r"at byte 2\b"),
        (b"P5 2 1 255", r"^unexpected end of header at byte 10$"),
        (b"P5 2#c\n1 255\n\x00\xff", None),
        (b"P5#c\n2 1 255\n\x00\xff", None),
        (b"P5 " + b"1" * 5000 + b" 1 255\n\x00", "bad header number"),
    ], ids=["P5-no-gap", "P6-no-gap", "maxval-at-eof", "comment-after-number",
            "comment-after-magic", "five-thousand-digit-width"])
    def test_header_grammar(self, tmp_path, data, error):
        # Whitespace must follow the magic, exactly one whitespace byte
        # follows maxval, and a comment may stand wherever whitespace may.
        path = tmp_path / "g.pgm"
        path.write_bytes(data)
        if error is None:
            np.testing.assert_array_equal(read_image(path).data.ravel(), [0.0, 1.0])
        else:
            with pytest.raises(FormatError, match=error):
                read_image(path)

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_device_rejected_at_once(self):
        # Only regular files are read: a device is rejected before any byte.
        began = time.perf_counter()
        with pytest.raises(OSError, match=r"^/dev/zero: not a regular file$"):
            read_image("/dev/zero")
        assert time.perf_counter() - began < 0.5

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_regular_file_through_fd_path_decodes(self, tmp_path, rng):
        # As /dev/stdin does when redirected from a file.
        write_image(random_image(rng), tmp_path / "a.ppm")
        with open(tmp_path / "a.ppm", "rb") as f:
            np.testing.assert_array_equal(
                read_image(f"/dev/fd/{f.fileno()}").data, read_image(tmp_path / "a.ppm").data)


class TestPfmCodec:
    def test_round_trip_bit_identical(self, tmp_path, rng):
        values = (rng.random((6, 5)) * 190 + 0.5).astype(np.float32).astype(np.float64)
        p1, p2 = tmp_path / "a.pfm", tmp_path / "b.pfm"
        write_pfm(DisparityMap(values), p1)
        write_pfm(read_pfm(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_infinite_sample_marked_invalid(self, tmp_path):
        path = tmp_path / "inf.pfm"
        payload = np.array([[np.inf, 5.0]], dtype="<f4").tobytes()
        path.write_bytes(b"Pf\n2 1\n-1.0\n" + payload)
        dmap = read_pfm(path)
        assert not dmap.valid[0, 0] and dmap.values[0, 0] == 0.0
        assert dmap.valid[0, 1] and dmap.values[0, 1] == 5.0

    def test_hand_assembled_2x2_payload(self, tmp_path):
        # Bottom-up storage: file rows are (3,4) then (1,2).
        path = tmp_path / "hand.pfm"
        payload = np.array([3, 4, 1, 2], dtype="<f4").tobytes()
        assert len(payload) == 16
        path.write_bytes(b"Pf\n2 2\n-1.0\n" + payload)
        dmap = read_pfm(path)
        np.testing.assert_array_equal(dmap.values, [[1, 2], [3, 4]])

    def test_write_pfm_hand_assembled(self, tmp_path):
        # Header, then little-endian float32 rows, the bottom row first.
        write_pfm(DisparityMap(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.5]])), tmp_path / "a")
        rows = np.array([4.0, 5.0, 6.5, 1.0, 2.0, 3.0], dtype="<f4").tobytes()
        assert (tmp_path / "a").read_bytes() == b"Pf\n3 2\n-1.0\n" + rows

    def test_color_pfm_rejected(self, tmp_path):
        path = tmp_path / "c.pfm"
        path.write_bytes(b"PF\n1 1\n-1.0\n" + b"\x00" * 12)
        with pytest.raises(FormatError, match="color"):
            read_pfm(path)

    def test_zero_scale_rejected(self, tmp_path):
        path = tmp_path / "s.pfm"
        path.write_bytes(b"Pf\n1 1\n0.0\n" + b"\x00" * 4)
        with pytest.raises(FormatError, match="scale"):
            read_pfm(path)

    @pytest.mark.parametrize("scale", [b"nan", b"inf", b"-inf"])
    def test_non_finite_scale_rejected(self, tmp_path, scale):
        path = tmp_path / "s.pfm"
        path.write_bytes(b"Pf\n1 1\n" + scale + b"\n" + b"\x00" * 4)
        with pytest.raises(FormatError, match="scale"):
            read_pfm(path)

    @pytest.mark.parametrize("dims", [b"1.5 1", b"1 x", b"0x1 1", b"-2 1", b"+2 1"])
    def test_non_integer_dims_rejected(self, tmp_path, dims):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n" + dims + b"\n-1.0\n" + b"\x00" * 8)
        with pytest.raises(FormatError, match="dimensions"):
            read_pfm(path)

    @pytest.mark.parametrize("dims", [b"0 1", b"1 0", b"00 00"])
    def test_non_positive_dims_rejected(self, tmp_path, dims):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n" + dims + b"\n-1.0\n" + b"\x00" * 8)
        with pytest.raises(FormatError, match="positive"):
            read_pfm(path)

    @pytest.mark.parametrize("dims", [b"2 2", b"100000 100000"])
    def test_payload_beyond_file_rejected(self, tmp_path, dims):
        # Checked against the file length before reading: a huge header
        # never reaches an allocation of 4*w*h bytes.
        path = tmp_path / "t.pfm"
        path.write_bytes(b"Pf\n" + dims + b"\n-1.0\n" + b"\x00" * 12)
        with pytest.raises(FormatError, match="truncated"):
            read_pfm(path)

    @pytest.mark.parametrize("header", [b"x" * 20_000_000, b"Pf\n" + b"1" * 20_000_000],
                             ids=["magic", "dimensions"])
    def test_megabyte_header_line_fails_fast(self, tmp_path, header):
        # One 20 MB header line without a newline: rejected at the line
        # bound, with a message that does not quote it.
        path = tmp_path / "long.pfm"
        path.write_bytes(header)
        began = time.process_time()
        with pytest.raises(FormatError, match="line longer than") as info:
            read_pfm(path)
        assert time.process_time() - began < 0.5
        assert len(str(info.value)) < 200

    def test_long_scale_line_message_said_once(self, tmp_path):
        path = tmp_path / "scale.pfm"
        path.write_bytes(b"Pf\n1 1\n" + b"1" * 20_000_000)
        with pytest.raises(FormatError) as info:
            read_pfm(path)
        assert str(info.value) == "scale line longer than 128 bytes"
        path.write_bytes(b"Pf\n1 1\nx\n" + b"\x00" * 4)  # float() fails
        with pytest.raises(FormatError, match="^bad scale line: could not convert"):
            read_pfm(path)
        path.write_bytes(b"Pf\n1 1\n-1_0\n" + b"\x00" * 4)  # float() reads -10.0
        with pytest.raises(FormatError, match="^bad scale line b'-1_0"):
            read_pfm(path)

    def test_five_thousand_digit_width_rejected(self, tmp_path):
        path = tmp_path / "w.pfm"
        path.write_bytes(b"Pf\n" + b"1" * 5000 + b" 1\n-1.0\n" + b"\x00" * 4)
        with pytest.raises(FormatError):
            read_pfm(path)

    def test_hundred_byte_header_lines_accepted(self, tmp_path):
        path = tmp_path / "pad.pfm"
        lines = [b"Pf", b"2 1", b"-1.0"]
        path.write_bytes(b"".join(l.ljust(99) + b"\n" for l in lines)
                         + np.array([1.0, 2.0], dtype="<f4").tobytes())
        np.testing.assert_array_equal(read_pfm(path).values, [[1.0, 2.0]])

    def test_big_endian_scale(self, tmp_path):
        path = tmp_path / "be.pfm"
        path.write_bytes(b"Pf\n1 1\n1.0\n" + np.array([7.0], dtype=">f4").tobytes())
        assert read_pfm(path).values[0, 0] == 7.0

    def test_kitti_sized_read_peak_memory(self, tmp_path, kitti_maps, peak_bytes):
        # The float32 payload (half a map), the validity mask and the
        # float64 values.  Converting to float64 first and zero-filling
        # into a second map peaks at 2.6 maps.
        path = tmp_path / "gt.pfm"
        write_pfm(kitti_maps.gt, path)
        peak = peak_bytes(lambda: read_pfm(path))
        assert peak <= 1.7 * kitti_maps.map_bytes, f"peak {peak / kitti_maps.map_bytes:.2f} maps"


# Calls the writer named by argv[1] with a small value on the path argv[2].
WRITER_CHILD = ("import sys\n"
                "import numpy as np\n"
                "from mscv.imagekit import DisparityMap, write_pfm, write_pnm\n"
                "from mscv.network import save_weights\n"
                "value = {'write_pnm': np.zeros((2, 3, 1), np.uint8),\n"
                "         'write_pfm': DisparityMap(np.ones((2, 3))), 'save_weights': {}}\n"
                "globals()[sys.argv[1]](value[sys.argv[1]], sys.argv[2])")
# For each encoder, a value that encodes to a long file and one to a short.
LONG_SHORT = {
    write_pnm: (np.full((9, 8, 3), 200, np.uint8), np.ones((1, 2, 1), np.uint8)),
    write_pfm: (DisparityMap(np.full((9, 8), 5.0)), DisparityMap(np.full((1, 2), 7.0))),
    save_weights: ({"a": np.ones((9, 8), np.float32)}, {}),
}
# Calls the reader named by argv[1] on the path argv[2].
READER_CHILD = ("import importlib, sys\n"
                "module, name = sys.argv[1].rsplit('.', 1)\n"
                "getattr(importlib.import_module(module), name)(sys.argv[2])")
NO_MKFIFO = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")


class TestRegularFilesOnly:
    # Each read runs in a child process that is killed after 5 s, so a
    # reader that blocks on the FIFO fails the test instead of stalling.
    @pytest.mark.parametrize("kind", [pytest.param("fifo", marks=NO_MKFIFO), "directory"])
    @pytest.mark.parametrize("reader", [
        "mscv.imagekit.read_image", "mscv.imagekit.read_pfm", "mscv.network.load_weights"])
    def test_rejected_at_once(self, tmp_path, reader, kind):
        path = tmp_path / kind
        if kind == "fifo":
            os.mkfifo(path)
        else:
            path.mkdir()
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", READER_CHILD, reader, str(path)],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=5)
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1] == f"OSError: {path}: not a regular file"

    # Each write runs in a child process that is killed after 5 s, so a
    # writer that blocks on the FIFO fails the test instead of stalling.
    @pytest.mark.parametrize("kind", [
        pytest.param("fifo", marks=NO_MKFIFO), pytest.param("read fifo", marks=NO_MKFIFO),
        "directory", pytest.param("device", marks=pytest.mark.skipif(
            not os.path.exists("/dev/null"), reason="no /dev/null"))])
    @pytest.mark.parametrize("writer", ["write_pnm", "write_pfm", "save_weights"])
    def test_writer_rejects_at_once(self, tmp_path, writer, kind):
        path = "/dev/null" if kind == "device" else tmp_path / kind
        if kind == "directory":
            path.mkdir()
        elif kind != "device":
            os.mkfifo(path)
        # "read fifo" is held open by a reader, so opening it to write succeeds.
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK) if kind == "read fifo" else None
        src = str(Path(__file__).resolve().parents[1] / "src")
        try:
            proc = subprocess.run([sys.executable, "-c", WRITER_CHILD, writer, str(path)],
                                  env=dict(os.environ, PYTHONPATH=src),
                                  capture_output=True, text=True, timeout=5)
            assert fd is None or os.read(fd, 1) == b""
        finally:
            if fd is not None:
                os.close(fd)
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1] == f"OSError: {path}: not a regular file"

    @pytest.mark.parametrize("encoder", LONG_SHORT, ids=lambda encoder: encoder.__name__)
    def test_short_file_over_long_leaves_new_bytes(self, tmp_path, encoder):
        long, short = LONG_SHORT[encoder]
        encoder(short, tmp_path / "fresh")
        encoder(long, tmp_path / "over")
        encoder(short, tmp_path / "over")
        assert (tmp_path / "over").read_bytes() == (tmp_path / "fresh").read_bytes()


class TestDisparityMap:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_unusable_values_invalid_and_positive_zero(self, dtype):
        raw = np.array([[np.nan, np.inf, -np.inf, 0.0, -0.0, -3.0],
                        [192.0, 250.0, 0.25, 191.75, 5.0, 1e-3]], dtype=dtype)
        before = raw.tobytes()
        dmap = DisparityMap(raw)
        np.testing.assert_array_equal(dmap.valid, [[False] * 6, [False, False] + [True] * 4])
        assert dmap.values.dtype == np.float64
        np.testing.assert_array_equal(dmap.values[~dmap.valid], 0.0)
        assert not np.signbit(dmap.values).any()
        np.testing.assert_array_equal(dmap.values[dmap.valid], raw[dmap.valid])
        assert raw.tobytes() == before

    def test_integer_values_converted(self):
        dmap = DisparityMap(np.array([[0, 5, 192, -1]]))
        assert dmap.values.dtype == np.float64
        np.testing.assert_array_equal(dmap.values, [[0.0, 5.0, 0.0, 0.0]])
        np.testing.assert_array_equal(dmap.valid, [[False, True, False, False]])

    # Float32 with every kind of unusable value, int64, a read-only
    # broadcast view, and the narrow integer maps a matcher passes with its
    # own all-true mask: each gives its own float64 map, +0.0 wherever
    # invalid and the exact input value wherever valid.
    @pytest.mark.parametrize("raw,valid", [
        (np.array([[np.nan, np.inf, -np.inf, -2.5, 192.0, 1e9],
                   [0.5, 191.5, -0.0, 3.25, 7.0, 1e-30]], dtype=np.float32), None),
        (np.array([[-7, 0, 3, 191], [192, 500, 1, 2]], dtype=np.int64), None),
        (np.broadcast_to(np.array([0.0, 4.5, 200.0], dtype=np.float32), (3, 3)), None),
        (np.array([[0, 255, 2], [4, 6, 128]], dtype=np.uint8), np.ones((2, 3), dtype=bool)),
        (np.array([[0, 510, 300], [4, 6, 256]], dtype=np.uint16), np.ones((2, 3), dtype=bool)),
        (np.array([[np.nan, 1.5], [-3.0, 250.0]]),
         np.array([[False, True], [False, True]])),
        (np.asfortranarray(np.arange(-3.0, 297.0, 25.0, dtype=np.float32).reshape(3, 4)), None),
    ], ids=["float32", "int64", "read_only_broadcast", "uint8_all_valid",
            "uint16_all_valid", "float64_given_mask", "float32_fortran"])
    def test_contract(self, raw, valid):
        dmap = DisparityMap(raw, valid=valid)
        want_valid = (raw > 0) & (raw < 192) if valid is None else valid
        np.testing.assert_array_equal(dmap.valid, want_valid)
        assert dmap.values.dtype == np.float64 and dmap.values.shape == raw.shape
        assert dmap.values.flags.c_contiguous  # write_pfm hands its rows to f.write
        assert np.array_equal(dmap.values[~dmap.valid], np.zeros((~dmap.valid).sum()))
        assert not np.signbit(dmap.values[~dmap.valid]).any()
        np.testing.assert_array_equal(dmap.values[dmap.valid], raw[dmap.valid])
        before = dmap.values.copy()
        (raw if raw.flags.writeable else raw.base)[...] = 17  # base: what the view reads
        assert (raw == 17).all()
        assert dmap.values.tobytes() == before.tobytes()

    @pytest.mark.parametrize("raw", [np.array([[1.0 + 2.0j]]), np.array([[1.5]], dtype=object)],
                             ids=["complex", "object"])
    def test_values_without_float64_cast_rejected(self, raw):
        with pytest.raises(TypeError, match="float64"):
            DisparityMap(raw)


class TestColorspace:
    def test_white_maps_to_achromatic_axis(self):
        img = Image(np.ones((3, 1, 1)))
        yuv = rgb_to_yuv(img)
        np.testing.assert_allclose(yuv.data.ravel(), [1, 0, 0], atol=1e-12)

    def test_black_maps_to_zero(self):
        yuv = rgb_to_yuv(Image(np.zeros((3, 2, 2))))
        np.testing.assert_array_equal(yuv.data, 0.0)

    def test_red_matches_matrix_oracle(self):
        # Independent 3x3 product with BT.601 full-range coefficients.
        m = np.array(
            [
                [0.299, 0.587, 0.114],
                [-0.168736, -0.331264, 0.5],
                [0.5, -0.418688, -0.081312],
            ]
        )
        expected = m @ np.array([1.0, 0.0, 0.0])
        yuv = rgb_to_yuv(Image(np.array([1.0, 0.0, 0.0]).reshape(3, 1, 1)))
        np.testing.assert_allclose(yuv.data.ravel(), expected, atol=1e-12)

    def test_single_channel_rejected(self):
        with pytest.raises(ValueError):
            rgb_to_yuv(Image(np.zeros((1, 2, 2))))


class TestMeanPool:
    def test_constant_image(self):
        pooled = mean_pool_2x(Image(np.full((3, 4, 6), 0.3)))
        assert pooled.data.shape == (3, 2, 3)
        np.testing.assert_allclose(pooled.data, 0.3)

    def test_single_block(self):
        img = Image(np.array([[0.0, 0.0], [1.0, 1.0]]).reshape(1, 2, 2))
        assert mean_pool_2x(img).data[0, 0, 0] == 0.5

    def test_against_block_mean_oracle(self, rng):
        img = random_image(rng, channels=1, h=4, w=4)
        pooled = mean_pool_2x(img)
        for by in range(2):
            for bx in range(2):
                block = img.data[0, 2 * by : 2 * by + 2, 2 * bx : 2 * bx + 2]
                assert abs(pooled.data[0, by, bx] - block.mean()) < 1e-12

    def test_fixed_summation_order_for_every_layout(self, rng, layouts):
        x = rng.random((3, 6, 10))
        a, b = x[:, 0::2, 0::2], x[:, 0::2, 1::2]
        c, d = x[:, 1::2, 0::2], x[:, 1::2, 1::2]
        want = (((a + b) + c) + d) / 4
        for data in layouts(x):
            assert mean_pool_2x(Image(data)).data.tobytes() == want.tobytes()

    def test_global_mean_preserved(self, rng):
        img = random_image(rng, h=8, w=10)
        assert abs(mean_pool_2x(img).data.mean() - img.data.mean()) < 1e-9

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError):
            mean_pool_2x(Image(np.zeros((1, 3, 4))))


class TestPadReflect:
    def test_kitti_dims_to_multiple_16(self, rng):
        img = Image(rng.random((3, 376, 1240)))
        padded = pad_reflect(img, 16)
        assert (padded.height, padded.width) == (384, 1248)

    def test_already_multiple_unchanged(self, rng):
        img = random_image(rng, h=16, w=32)
        assert pad_reflect(img, 16) is img

    def test_3x3_to_multiple_4(self):
        data = np.arange(9, dtype=np.float64).reshape(1, 3, 3)
        padded = pad_reflect(Image(data), 4)
        # Reflection about the edge: new row/col mirror index 1.
        expected = np.array(
            [
                [0, 1, 2, 1],
                [3, 4, 5, 4],
                [6, 7, 8, 7],
                [3, 4, 5, 4],
            ],
            dtype=np.float64,
        )
        np.testing.assert_array_equal(padded.data[0], expected)

    def test_pad_then_crop_is_identity(self, rng):
        img = random_image(rng, h=5, w=7)
        padded = pad_reflect(img, 4)
        np.testing.assert_array_equal(padded.data[..., :5, :7], img.data)

    def test_bad_multiple_rejected(self, rng):
        with pytest.raises(ValueError):
            pad_reflect(random_image(rng), 0)
