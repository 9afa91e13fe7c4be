"""Codec round-trips, colorspace math, pooling and padding."""

import time

import numpy as np
import pytest

from mscv.imagekit import (
    DisparityMap,
    FormatError,
    Image,
    crop,
    mean_pool_2x,
    pad_reflect,
    read_image,
    read_pfm,
    rgb_to_yuv,
    write_image,
    write_pfm,
)


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
        padded, dims = pad_reflect(img, 16)
        assert (padded.height, padded.width) == (384, 1248)
        assert dims == (376, 1240)

    def test_already_multiple_unchanged(self, rng):
        img = random_image(rng, h=16, w=32)
        padded, dims = pad_reflect(img, 16)
        assert padded.data is img.data
        assert dims == (16, 32)

    def test_3x3_to_multiple_4(self):
        data = np.arange(9, dtype=np.float64).reshape(1, 3, 3)
        padded, _ = pad_reflect(Image(data), 4)
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
        padded, dims = pad_reflect(img, 4)
        np.testing.assert_array_equal(crop(padded.data, dims), img.data)

    def test_bad_multiple_rejected(self, rng):
        with pytest.raises(ValueError):
            pad_reflect(random_image(rng), 0)
