"""Convolution engine vs brute-force oracles and algebraic identities."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscv.tensorops import (
    _BAND_PIXELS,
    ConvParams,
    bilinear_resize,
    concat_channels,
    conv2d,
    deconv2d_s2,
)

from oracles import bilinear_oracle, conv2d_f64, conv2d_oracle, deconv_oracle


def random_params(rng, o, i, k, stride=1):
    return ConvParams(
        rng.standard_normal((o, i, k, k)).astype(np.float32),
        rng.standard_normal(o).astype(np.float32),
        stride=stride,
    )


class TestConv2d:
    def test_1x1_identity_kernel(self, rng):
        x = rng.random((3, 5, 7)).astype(np.float32)
        p = ConvParams(np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1), np.zeros(3))
        np.testing.assert_allclose(conv2d(x, p), x, atol=1e-7)

    def test_1x1_equals_per_pixel_matmul(self, rng):
        x = rng.standard_normal((4, 3, 5)).astype(np.float32)
        p = random_params(rng, 6, 4, 1)
        out = conv2d(x, p)
        m = p.weights.reshape(6, 4).astype(np.float64)
        expected = (m @ x.reshape(4, -1)).reshape(6, 3, 5) + p.bias[:, None, None]
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_stride2_matches_quadruple_loop(self, rng):
        x = rng.standard_normal((3, 5, 5)).astype(np.float32)
        p = random_params(rng, 2, 3, 3, stride=2)
        expected = conv2d_oracle(
            x.astype(np.float64), p.weights.astype(np.float64),
            p.bias.astype(np.float64), stride=2,
        )
        np.testing.assert_allclose(conv2d(x, p), expected, atol=1e-5)

    def test_linearity_in_input(self, rng):
        x = rng.standard_normal((2, 6, 6)).astype(np.float32)
        y = rng.standard_normal((2, 6, 6)).astype(np.float32)
        p = ConvParams(rng.standard_normal((3, 2, 3, 3)), np.zeros(3))
        lhs = conv2d(2.0 * x + 3.0 * y, p)
        rhs = 2.0 * conv2d(x, p) + 3.0 * conv2d(y, p)
        np.testing.assert_allclose(lhs, rhs, atol=1e-4)

    @settings(max_examples=25, deadline=None)
    @given(
        h=st.integers(1, 12), w=st.integers(1, 12),
        stride=st.sampled_from([1, 2]), k=st.sampled_from([1, 2, 3]),
    )
    def test_same_padding_shape_law(self, h, w, stride, k):
        x = np.zeros((2, h, w), dtype=np.float32)
        p = ConvParams(np.zeros((4, 2, k, k)), np.zeros(4), stride=stride)
        out = conv2d(x, p)
        assert out.shape == (4, -(-h // stride), -(-w // stride))

    def test_channel_mismatch_rejected(self, rng):
        p = random_params(rng, 2, 3, 3)
        with pytest.raises(ValueError):
            conv2d(rng.random((4, 5, 5)).astype(np.float32), p)

    def test_deterministic(self, rng):
        x = rng.standard_normal((3, 8, 8)).astype(np.float32)
        p = random_params(rng, 4, 3, 3)
        a, b = conv2d(x, p), conv2d(x, p)
        assert (a == b).all()


# The five kernel classes of the network's architecture: (k, stride).
KERNEL_CLASSES = [(3, 1), (3, 2), (2, 2), (1, 1), (1, 2)]


class TestConv2dBands:
    """Frames whose output spans several bands of ``_BAND_PIXELS`` pixels."""

    @pytest.mark.parametrize("k,stride", KERNEL_CLASSES)
    @pytest.mark.parametrize("out_h,out_w", [
        (3 * (_BAND_PIXELS // 100) - 3, 100),  # two full bands, a short third
        (3, _BAND_PIXELS + 13),                # wider than a band: one row each
    ], ids=["short_last_band", "row_per_band"])
    def test_matches_f64_reference(self, rng, k, stride, out_h, out_w):
        x = rng.standard_normal((3, out_h * stride, out_w * stride)).astype(np.float32)
        p = random_params(rng, 4, 3, k, stride=stride)
        out = conv2d(x, p)
        assert out.shape == (4, out_h, out_w) and out.dtype == np.float32
        np.testing.assert_allclose(
            out, conv2d_f64(x, p.weights, p.bias, stride), rtol=0, atol=1e-5
        )

    @pytest.mark.parametrize("in_c,k,stride", [(144, 1, 1), (144, 1, 2), (32, 2, 2)])
    def test_unpadded_input_is_not_copied(self, rng, peak_bytes, in_c, k, stride):
        # Network-sized layers that need no padding; the input copy alone
        # (at least 15 MB here) would exceed the bound.
        x = rng.standard_normal((in_c, 192, 624), dtype=np.float32)
        p = random_params(rng, 32, in_c, k, stride=stride)
        out_w = 624 // stride
        out_bytes = 4 * p.out_channels * (192 // stride) * out_w
        band_bytes = 4 * in_c * k * k * (_BAND_PIXELS // out_w) * out_w
        assert peak_bytes(lambda: conv2d(x, p)) <= out_bytes + band_bytes + 2**20

    def test_inputs_are_not_concatenated(self, rng, peak_bytes):
        # A 64+32-channel fuse layer: the concatenated input alone (46 MB)
        # would exceed the bound.
        xs = [rng.standard_normal((c, 192, 624), dtype=np.float32) for c in (64, 32)]
        p = random_params(rng, 32, 96, 1)
        out_bytes = 4 * p.out_channels * 192 * 624
        band_bytes = 4 * 96 * (_BAND_PIXELS // 624) * 624
        assert peak_bytes(lambda: conv2d(xs, p)) <= out_bytes + band_bytes + 2**20

    def test_concurrent_calls_match_serial(self, rng):
        x = rng.standard_normal((16, 64, 200)).astype(np.float32)
        p = random_params(rng, 16, 16, 3)
        serial = conv2d(x, p)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(conv2d, x, p) for _ in range(32)]
                outs = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(o, serial) for o in outs)


class TestConv2dMultiInput:
    """A list of inputs is convolved as their channel concatenation."""

    @pytest.mark.parametrize("k,stride", KERNEL_CLASSES)
    @pytest.mark.parametrize("channels", [(2, 3), (4, 1, 2)])
    @pytest.mark.parametrize("last_dtype", [np.float32, np.float64])
    def test_matches_concatenated_input(self, rng, k, stride, channels, last_dtype):
        # 45x99 spans several bands with a short last one at either stride,
        # and its odd sizes make the 3x3 and 2x2 kernels pad.
        xs = [rng.standard_normal((c, 45, 99)).astype(np.float32) for c in channels]
        xs[-1] = xs[-1].astype(last_dtype)
        p = random_params(rng, 4, sum(channels), k, stride=stride)
        assert conv2d(xs, p).tobytes() == conv2d(np.concatenate(xs), p).tobytes()

    def test_mismatched_inputs_rejected(self, rng):
        p = random_params(rng, 2, 5, 3)
        with pytest.raises(ValueError, match="differ in"):
            conv2d([rng.random((2, 5, 5)), rng.random((3, 5, 6))], p)
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d([rng.random((2, 5, 5)), rng.random((2, 5, 5))], p)


class TestDeconv2dS2:
    def test_single_tap_spread(self):
        p = ConvParams(np.ones((1, 1, 2, 2), dtype=np.float32), np.zeros(1), stride=2)
        out = deconv2d_s2(np.ones((1, 1, 1), dtype=np.float32), p)
        np.testing.assert_array_equal(out, np.ones((1, 2, 2)))

    def test_doubles_dims(self, rng):
        x = rng.random((3, 4, 7)).astype(np.float32)
        p = random_params(rng, 5, 3, 2, stride=2)
        assert deconv2d_s2(x, p).shape == (5, 8, 14)

    @pytest.mark.parametrize(
        "in_c, out_c, h, w",
        [(3, 5, 4, 7), (6, 2, 5, 3), (4, 3, 1, 1), (1, 1, 2, 2)],
        ids=["in_lt_out", "in_gt_out_tall", "1x1_spatial", "single_channel"],
    )
    def test_matches_loop_oracle(self, rng, in_c, out_c, h, w):
        x = rng.standard_normal((in_c, h, w)).astype(np.float32)
        p = random_params(rng, out_c, in_c, 2, stride=2)
        out = deconv2d_s2(x, p)
        assert out.dtype == np.float32
        expected = deconv_oracle(x, p.weights, p.bias)
        np.testing.assert_allclose(out, expected, atol=1e-5)

    def test_asymmetric_taps_land_in_place(self, rng):
        # Distinct taps per (u, v): a swapped u/v interleave would move them.
        w = np.zeros((2, 3, 2, 2), dtype=np.float32)
        w[..., 0, 1] = rng.standard_normal((2, 3))
        w[..., 1, 0] = 5.0 * rng.standard_normal((2, 3)) + 1.0
        assert (w[..., 0, 1] != w[..., 1, 0]).all()
        p = ConvParams(w, np.array([0.5, -1.0], dtype=np.float32), stride=2)
        x = rng.standard_normal((3, 3, 4)).astype(np.float32)
        out = deconv2d_s2(x, p)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, deconv_oracle(x, w, p.bias), atol=1e-5)

    def test_adjoint_of_stride2_conv(self, rng):
        # <conv(x), z> == <x, deconv(z)> with transposed channel axes.
        w = rng.standard_normal((4, 3, 2, 2)).astype(np.float32)
        conv_p = ConvParams(w, np.zeros(4), stride=2)
        deconv_p = ConvParams(w.transpose(1, 0, 2, 3), np.zeros(3), stride=2)
        x = rng.standard_normal((3, 6, 8)).astype(np.float32)
        z = rng.standard_normal((4, 3, 4)).astype(np.float32)
        lhs = float((conv2d(x, conv_p) * z).sum())
        rhs = float((x * deconv2d_s2(z, deconv_p)).sum())
        assert abs(lhs - rhs) < 1e-4 * max(1.0, abs(lhs))

    def test_wrong_kernel_rejected(self, rng):
        p = random_params(rng, 2, 2, 3, stride=2)
        with pytest.raises(ValueError):
            deconv2d_s2(rng.random((2, 3, 3)).astype(np.float32), p)

    def test_peak_memory_twice_output(self, rng, peak_bytes):
        # unet.up1.deconv's shape: the GEMM result and the interleaved
        # output may coexist, but the bias adds in place.
        x = rng.standard_normal((32, 96, 312), dtype=np.float32)
        p = random_params(rng, 32, 32, 2, stride=2)
        out_bytes = 4 * 32 * 192 * 624
        assert peak_bytes(lambda: deconv2d_s2(x, p)) <= 2 * out_bytes + 2**20


class TestBilinearResize:
    def test_constant_any_size(self):
        x = np.full((2, 3, 4), 0.7, dtype=np.float32)
        out = bilinear_resize(x, 7, 5)
        np.testing.assert_allclose(out, 0.7, atol=1e-6)

    def test_2x_upsample_of_two_pixel_row(self):
        x = np.array([[[0.0, 1.0]]], dtype=np.float32)
        out = bilinear_resize(x, 1, 4)
        np.testing.assert_allclose(out[0, 0], [0.0, 0.25, 0.75, 1.0], atol=1e-6)

    def test_identity_at_same_dims(self, rng):
        x = rng.random((3, 5, 6)).astype(np.float32)
        np.testing.assert_array_equal(bilinear_resize(x, 5, 6), x)

    def test_matches_scalar_oracle(self, rng):
        x = rng.random((2, 4, 5)).astype(np.float32)
        out = bilinear_resize(x, 7, 9)
        np.testing.assert_allclose(out, bilinear_oracle(x, 7, 9), atol=1e-5)

    def test_bad_dims_rejected(self, rng):
        with pytest.raises(ValueError):
            bilinear_resize(rng.random((1, 2, 2)), 0, 3)


class TestConcatChannels:
    def test_single_input_identity(self, rng):
        x = rng.random((3, 2, 2))
        np.testing.assert_array_equal(concat_channels([x]), x)

    def test_channel_count_sums(self, rng):
        xs = [rng.random((c, 4, 5)) for c in (1, 3, 2)]
        assert concat_channels(xs).shape == (6, 4, 5)

    def test_entry_lookup_offsets(self, rng):
        a, b = rng.random((2, 3, 3)), rng.random((4, 3, 3))
        out = concat_channels([a, b])
        np.testing.assert_array_equal(out[:2], a)
        np.testing.assert_array_equal(out[2:], b)

    def test_spatial_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            concat_channels([rng.random((1, 2, 2)), rng.random((1, 2, 3))])
