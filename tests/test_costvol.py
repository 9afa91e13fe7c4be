"""Cost-volume construction against brute-force oracles."""

import numpy as np
import pytest

from mscv.costvol import (
    _BAND_ROWS,
    _CORR_COLS,
    CENSUS_BITS,
    DEPTH,
    CostVolume,
    census_transform,
    correlate_1d,
    traditional_costs,
)
from mscv.imagekit import Image, mean_pool_2x, pad_reflect, rgb_to_yuv

from oracles import (
    ad_volume_oracle,
    assemble_traditional,
    census_oracle,
    correlation_oracle,
    hamming_volume_oracle,
)


def plane(data):
    return Image(np.asarray(data, dtype=np.float64)[None])


def half_yuv(x):
    return rgb_to_yuv(mean_pool_2x(Image(x))).data


def stream_volumes(left, right):
    """The planes ``traditional_costs`` streams for an RGB pair, gathered
    into (3, DEPTH, H, W) half-scale volumes: Hamming on Y, AD on U and V.
    Every plane is overwritten as a consumer may before the next is read."""
    left_half, costs = traditional_costs(Image(left), Image(right))
    vol = np.empty((3, DEPTH, left_half.height, left_half.width))
    for y0, d, p in costs:
        vol[:, d, y0 : y0 + p.shape[1]] = p
        p.fill(np.nan)
    return vol


# Full-resolution (H, W) of RGB pairs checked against the oracles: every
# half-scale width is below DEPTH, so the planes from d = W on are all
# fill; 34 rows make a full band and a short one; 1-row and 1-column
# half-scale planes: costs shifted along flat runs must not pair x < d
# with the row above.
ORACLE_SHAPES = [(32, 32), (34, 10), (2, 24), (18, 2)]


def oracle_pairs(rng, layouts):
    """Per shape of ``ORACLE_SHAPES``: a random RGB pair's half-scale YUV
    planes and the pair in every memory layout of ``layouts``."""
    for hw in ORACLE_SHAPES:
        left, right = rng.random((2, 3, *hw))
        yield half_yuv(left), half_yuv(right), zip(layouts(left), layouts(right))


class TestCensusTransform:
    def test_constant_image_all_zero(self):
        desc = census_transform(plane(np.full((8, 8), 0.5)))
        np.testing.assert_array_equal(desc, 0)

    def test_unique_maximum_descriptor_all_ones(self, rng):
        data = rng.random((9, 9)) * 0.5
        data[4, 4] = 1.0  # interior unique maximum
        desc = census_transform(plane(data))
        assert desc[4, 4] == (1 << 24) - 1

    def test_matches_brute_force_on_random_planes(self, rng):
        for _ in range(20):
            data = rng.random((16, 16))
            desc = census_transform(plane(data))
            np.testing.assert_array_equal(desc, census_oracle(data))

    def test_monotone_remap_invariance(self, rng):
        data = rng.random((12, 10))
        before = census_transform(plane(data))
        after = census_transform(plane(np.exp(3 * data)))
        np.testing.assert_array_equal(before, after)

    def test_multichannel_rejected(self, rng):
        with pytest.raises(ValueError):
            census_transform(Image(rng.random((3, 4, 4))))


class TestHammingVolume:
    def test_identical_planes_zero_at_d0(self, rng):
        img = rng.random((3, 16, 16))
        np.testing.assert_array_equal(stream_volumes(img, img)[0, 0], 0.0)

    def test_synthetic_shift_argmin(self, rng):
        # A 2k px full-resolution shift is a k px half-scale one.
        right = rng.random((3, 24, 48))
        k = 5
        left = np.empty_like(right)
        left[:, :, 2 * k :] = right[:, :, : -2 * k]
        left[:, :, : 2 * k] = right[:, :, : 2 * k]
        best = np.argmin(stream_volumes(left, right)[0], axis=0)
        interior = best[3:-3, k + 3 : -3]
        assert (interior == k).mean() > 0.9

    def test_matches_brute_force(self, rng, layouts):
        for lyuv, ryuv, inputs in oracle_pairs(rng, layouts):
            expected = hamming_volume_oracle(census_oracle(lyuv[0]), census_oracle(ryuv[0]), DEPTH)
            for l, r in inputs:
                np.testing.assert_array_equal(stream_volumes(l, r)[0], expected)

    def test_costs_bounded_and_integer(self, rng):
        vol = stream_volumes(rng.random((3, 20, 20)), rng.random((3, 20, 20)))[0]
        assert vol.min() >= 0 and vol.max() <= CENSUS_BITS
        np.testing.assert_array_equal(vol, np.rint(vol))


class TestAdVolume:
    def test_identical_planes_zero_at_d0(self, rng):
        img = rng.random((3, 12, 12))
        np.testing.assert_array_equal(stream_volumes(img, img)[1:, 0], 0.0)

    def test_range_extremes(self):
        # U is 0.5 on blue and -0.5 on yellow, V 0.5 on red and -0.5 on cyan.
        solid = lambda rgb: np.broadcast_to(np.array(rgb, float)[:, None, None], (3, 8, 12))
        for channel, left, right in ((1, (0, 0, 1), (1, 1, 0)), (2, (1, 0, 0), (0, 1, 1))):
            vol = stream_volumes(solid(left), solid(right))
            np.testing.assert_array_equal(vol[channel], 1.0)

    def test_matches_brute_force(self, rng, layouts):
        for lyuv, ryuv, inputs in oracle_pairs(rng, layouts):
            expected = [ad_volume_oracle(lyuv[c], ryuv[c], DEPTH) for c in (1, 2)]
            for l, r in inputs:
                vol = stream_volumes(l, r)
                np.testing.assert_array_equal(vol[1], expected[0])
                np.testing.assert_array_equal(vol[2], expected[1])


class TestTraditionalCosts:
    def test_matches_oracles_on_pooled_yuv(self, rng, layouts):
        # 20 half-scale rows: a full band of _BAND_ROWS and a short one;
        # 14 half-scale columns, so planes 14..DEPTH-1 are all fill.
        # Every memory layout of the same pixels gives the same costs.  A
        # consumer may overwrite each plane: the next one is still right.
        left = Image(rng.random((3, 40, 28)))
        right = Image(rng.random((3, 40, 28)))
        lyuv = rgb_to_yuv(mean_pool_2x(left)).data
        ryuv = rgb_to_yuv(mean_pool_2x(right)).data
        inputs = zip(layouts(left.data), layouts(right.data))
        for l, r in inputs:
            left_half, costs = traditional_costs(Image(l), Image(r))
            order, planes = [], []
            for y0, d, p in costs:
                order.append((y0, d))
                planes.append(p.copy())
                p.fill(np.nan)
            assert order == [(y0, d) for y0 in (0, _BAND_ROWS) for d in range(DEPTH)]
            assert [p.shape for p in planes] == (
                [(3, _BAND_ROWS, 14)] * DEPTH + [(3, 20 - _BAND_ROWS, 14)] * DEPTH
            )
            # (3, DEPTH, rows, W) per band, joined along the rows.
            vols = np.concatenate(
                [np.stack(planes[:DEPTH], axis=1), np.stack(planes[DEPTH:], axis=1)],
                axis=2,
            )
            np.testing.assert_array_equal(
                vols[0],
                hamming_volume_oracle(
                    census_oracle(lyuv[0]), census_oracle(ryuv[0]), DEPTH
                ),
            )
            np.testing.assert_array_equal(vols[1], ad_volume_oracle(lyuv[1], ryuv[1], DEPTH))
            np.testing.assert_array_equal(vols[2], ad_volume_oracle(lyuv[2], ryuv[2], DEPTH))
            np.testing.assert_array_equal(left_half.data, mean_pool_2x(left).data)

    def test_band_stream_repeats_byte_identical(self, rng):
        # Two streams of one pair are byte-identical, plane for plane, even
        # when the consumer of the first overwrites each plane in place.
        left = Image(rng.random((3, 40, 28)))
        right = Image(rng.random((3, 40, 28)))
        first = []
        for y0, d, p in traditional_costs(left, right)[1]:
            first.append((y0, d, p.shape, p.tobytes()))
            p.fill(np.nan)
        again = [(y0, d, p.shape, p.tobytes())
                 for y0, d, p in traditional_costs(left, right)[1]]
        assert again == first
        assert len(first) == 2 * DEPTH

    # An odd-sized pair streams the planes, and pools the left image, of its
    # pad_reflect(·, 2) pair: the front end pads it to even itself.
    @pytest.mark.parametrize("hw", [(33, 27), (34, 27), (33, 28), (1, 1)],
                             ids=lambda hw: f"{hw[0]}x{hw[1]}")
    def test_odd_pair_streams_its_padded_pair(self, rng, hw):
        left, right = Image(rng.random((3, *hw))), Image(rng.random((3, *hw)))

        def stream(l, r):
            left_half, costs = traditional_costs(l, r)
            return left_half.data.tobytes(), [(y0, d, p.tobytes()) for y0, d, p in costs]

        assert stream(left, right) == stream(pad_reflect(left, 2), pad_reflect(right, 2))

    # Equal pixel counts (8x16 and 16x8) would pair unrelated pixels along
    # the flat runs; unequal ones would fail inside NumPy; 8x15 pads to 8x16.
    @pytest.mark.parametrize("right_hw", [(16, 8), (8, 20), (10, 16), (8, 15)],
                             ids=lambda hw: f"{hw[0]}x{hw[1]}")
    def test_mismatched_pair_rejected(self, rng, right_hw):
        left = Image(rng.random((3, 8, 16)))
        right = Image(rng.random((3, *right_hw)))
        with pytest.raises(ValueError, match="stereo pair dimensions differ"):
            traditional_costs(left, right)

    def test_grey_pair_rejected(self, rng):
        img = Image(rng.random((1, 8, 16)))  # Image holds 1 or 3 channels
        with pytest.raises(ValueError, match=r"expects an RGB pair, got 1 channel\(s\)"):
            traditional_costs(img, img)


class TestAssembleTraditional:
    @staticmethod
    def volumes(rng, h=6, w=8):
        mk = lambda: CostVolume(rng.random((96, h, w)))
        return mk(), mk(), mk()

    def test_interleaved_layout(self, rng):
        c1, c2, c3 = self.volumes(rng)
        out = assemble_traditional(c1, c2, c3)
        stacked = np.empty_like(out)
        stacked[0::3], stacked[1::3], stacked[2::3] = c1.costs, c2.costs, c3.costs
        mean, std = stacked.mean(), stacked.std()
        np.testing.assert_allclose(out[0], (c1.costs[0] - mean) / (std + 1e-8))
        np.testing.assert_allclose(out[287], (c3.costs[95] - mean) / (std + 1e-8))

    def test_normalization_statistics(self, rng):
        out = assemble_traditional(*self.volumes(rng))
        assert abs(out.mean()) < 1e-6
        assert abs(out.var() - 1.0) < 1e-5

    def test_zero_variance_guard(self):
        const = lambda: CostVolume(np.full((96, 4, 4), 7.0))
        out = assemble_traditional(const(), const(), const())
        np.testing.assert_array_equal(out, 0.0)

    def test_wrong_depth_rejected(self, rng):
        bad = CostVolume(rng.random((95, 4, 4)))
        c1, c2, _ = self.volumes(rng, 4, 4)
        with pytest.raises(ValueError):
            assemble_traditional(c1, c2, bad)


class TestCorrelate1d:
    def test_self_correlation_at_d0(self, rng):
        f = rng.random((6, 4, 5))
        vol = correlate_1d(f, f, max_d=3)
        np.testing.assert_allclose(
            vol.costs[0], (f * f).sum(axis=0) / f.shape[0], atol=1e-12
        )

    def test_synthetic_shift_argmax(self, rng):
        # Distinct per-column features so the shift is unambiguous.
        w = 16
        fr = np.zeros((w, 3, w))
        fr[np.arange(w), :, np.arange(w)] = 1.0
        k = 4
        fl = np.zeros_like(fr)
        fl[:, :, k:] = fr[:, :, :-k]
        vol = correlate_1d(fl, fr, max_d=8)
        best = np.argmax(vol.costs, axis=0)
        np.testing.assert_array_equal(best[:, k:], k)

    def test_matches_triple_loop_oracle(self, rng):
        # 9 > width; then a transposed view, 1 row and 1 column; then widths
        # the block width does not divide, with max_d = 1, max_d reaching
        # into the second block, and max_d > width (three blocks of zeros).
        feats = lambda *shape: rng.standard_normal(shape)
        pairs = [(feats(4, 5, 6), feats(4, 5, 6), max_d) for max_d in (4, 9)]
        pairs.append((feats(4, 6, 5).transpose(0, 2, 1), feats(4, 6, 5).transpose(0, 2, 1), 4))
        pairs += [(feats(4, 1, 7), feats(4, 1, 7), 4), (feats(4, 5, 1), feats(4, 5, 1), 3)]
        w = 2 * _CORR_COLS + 5
        pairs += [(feats(3, 2, w), feats(3, 2, w), max_d)
                  for max_d in (1, _CORR_COLS + 7, w + _CORR_COLS)]
        for fl, fr, max_d in pairs:
            vol = correlate_1d(fl, fr, max_d=max_d)
            np.testing.assert_allclose(
                vol.costs, correlation_oracle(fl, fr, max_d), atol=1e-6
            )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_out_of_range_exactly_zero(self, rng, dtype):
        # Columns x < d have no partner: exactly 0.0, also where the zero
        # run spans whole blocks; every in-range value here is nonzero.
        w, max_d = 2 * _CORR_COLS + 5, _CORR_COLS + 40
        fl = (100.0 + rng.random((5, 3, w))).astype(dtype)
        fr = (100.0 + rng.random((5, 3, w))).astype(dtype)
        costs = correlate_1d(fl, fr, max_d).costs
        assert costs.dtype == dtype
        x = np.arange(w)
        out_of_range = x[None, None, :] < np.arange(max_d)[:, None, None]
        np.testing.assert_array_equal(costs[np.broadcast_to(out_of_range, costs.shape)], 0.0)
        assert (costs[np.broadcast_to(~out_of_range, costs.shape)] != 0).all()

    def test_peak_memory_output_plus_one_block(self, peak_bytes):
        # Only the (H, B, B+D-1) product block is allocated besides the
        # volume: a whole-feature transposed or padded copy (2.5 MB
        # here) fails.
        fl, fr = np.random.default_rng(3).standard_normal((2, 32, 48, 400), dtype=np.float32)
        out_bytes = 4 * 96 * 48 * 400
        block_bytes = 4 * 48 * _CORR_COLS * (_CORR_COLS + 95)
        peak = peak_bytes(lambda: correlate_1d(fl, fr, 96))
        assert peak <= out_bytes + block_bytes + 2**18

    def test_bilinear_in_left_argument(self, rng):
        fl = rng.standard_normal((3, 4, 5))
        fr = rng.standard_normal((3, 4, 5))
        a = correlate_1d(2.5 * fl, fr, max_d=3)
        b = correlate_1d(fl, fr, max_d=3)
        np.testing.assert_allclose(a.costs, 2.5 * b.costs, atol=1e-12)

    def test_row_permutation_equivariance(self, rng):
        fl = rng.standard_normal((3, 6, 5))
        fr = rng.standard_normal((3, 6, 5))
        perm = np.random.default_rng(0).permutation(6)
        direct = correlate_1d(fl[:, perm], fr[:, perm], max_d=3)
        permuted = correlate_1d(fl, fr, max_d=3).costs[:, perm]
        np.testing.assert_array_equal(direct.costs, permuted)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            correlate_1d(
                rng.random((3, 4, 5)), rng.random((3, 4, 6)), max_d=2
            )
