"""Cost-volume construction against brute-force oracles."""

import itertools

import numpy as np
import pytest

from mscv.costvol import (
    _BAND_ROWS,
    _CORR_COLS,
    CENSUS_BITS,
    CostVolume,
    _absdiff,
    _hamming,
    _plane,
    census_transform,
    correlate_1d,
    traditional_costs,
)
from mscv.imagekit import Image, mean_pool_2x, rgb_to_yuv

from oracles import (
    ad_volume_oracle,
    assemble_traditional,
    census_oracle,
    correlation_oracle,
    hamming_volume_oracle,
)


def plane(data):
    return Image(np.asarray(data, dtype=np.float64)[None])


# The per-disparity planes that traditional_costs streams, gathered into
# (max_d, H, W) volumes.  Flattening copies a transposed view.
def plane_volume(left, right, max_d, fill, cost):
    vol = np.empty((max_d, *left.shape))
    for d in range(max_d):
        _plane(left.reshape(-1), right.reshape(-1), d, fill, cost, vol[d])
    return vol


def hamming_volume(left, right, max_d):
    return plane_volume(left, right, max_d, CENSUS_BITS, _hamming)


def ad_volume(left, right, max_d):
    return plane_volume(left, right, max_d, 1.0, _absdiff)


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
        c = census_transform(plane(rng.random((8, 8))))
        vol = hamming_volume(c, c, max_d=4)
        np.testing.assert_array_equal(vol[0], 0.0)

    def test_synthetic_shift_argmin(self, rng):
        data = rng.random((12, 24))
        k = 5
        right = data
        left = np.empty_like(data)
        left[:, k:] = data[:, :-k]
        left[:, :k] = data[:, :k]
        vol = hamming_volume(
            census_transform(plane(left)), census_transform(plane(right)), max_d=8
        )
        best = np.argmin(vol, axis=0)
        interior = best[3:-3, k + 3 : -3]
        assert (interior == k).mean() > 0.9

    def test_matches_brute_force(self, rng):
        # max_d > width: every column is out of range beyond d = width - 1.
        # A transposed view, a 1-row and a 1-column plane: costs shifted
        # along flat runs must not pair x < d with the row above.
        census = lambda h, w: census_transform(plane(rng.random((h, w))))
        pairs = [(census(16, w), census(16, w), max_d) for w, max_d in ((16, 8), (5, 9))]
        pairs.append((census(12, 16).T, census(12, 16).T, 8))
        pairs += [(census(1, 12), census(1, 12), 5), (census(9, 1), census(9, 1), 3)]
        for l, r, max_d in pairs:
            vol = hamming_volume(l, r, max_d=max_d)
            np.testing.assert_array_equal(vol, hamming_volume_oracle(l, r, max_d))

    def test_costs_bounded_and_integer(self, rng):
        l = census_transform(plane(rng.random((10, 10))))
        r = census_transform(plane(rng.random((10, 10))))
        vol = hamming_volume(l, r, max_d=6)
        assert vol.min() >= 0 and vol.max() <= 24
        np.testing.assert_array_equal(vol, np.rint(vol))


class TestAdVolume:
    def test_identical_planes_zero_at_d0(self, rng):
        img = rng.random((6, 6)) - 0.5
        vol = ad_volume(img, img, max_d=3)
        np.testing.assert_array_equal(vol[0], 0.0)

    def test_range_extremes(self):
        vol = ad_volume(np.full((4, 6), 0.5), np.full((4, 6), -0.5), max_d=3)
        np.testing.assert_array_equal(vol, 1.0)

    def test_matches_brute_force(self, rng):
        # As for Hamming: max_d > width, a transposed view, 1 row, 1 column.
        chroma = lambda h, w: rng.random((h, w)) - 0.5
        pairs = [(chroma(16, w), chroma(16, w), max_d) for w, max_d in ((16, 8), (5, 9))]
        pairs.append((chroma(12, 16).T, chroma(12, 16).T, 8))
        pairs += [(chroma(1, 12), chroma(1, 12), 5), (chroma(9, 1), chroma(9, 1), 3)]
        for l, r, max_d in pairs:
            vol = ad_volume(l, r, max_d=max_d)
            np.testing.assert_array_equal(vol, ad_volume_oracle(l, r, max_d))

    def test_non_contiguous_plane_rejected(self, rng):
        # Writing a flat run into a strided plane would fill a copy.
        l = rng.random(24)
        out = np.empty((6, 4)).T
        for d in (0, 1):
            with pytest.raises(ValueError):
                _plane(l, l, d, 1.0, _absdiff, out)


class TestTraditionalCosts:
    def test_matches_oracles_on_pooled_yuv(self, rng, layouts):
        # 20 half-scale rows: a full band of _BAND_ROWS and a short one;
        # 14 half-scale columns, so at max_d 20 planes 14..19 are all fill.
        # Every memory layout of the same pixels gives the same costs.  A
        # consumer may overwrite each plane: the next one is still right.
        left = Image(rng.random((3, 40, 28)))
        right = Image(rng.random((3, 40, 28)))
        lyuv = rgb_to_yuv(mean_pool_2x(left)).data
        ryuv = rgb_to_yuv(mean_pool_2x(right)).data
        inputs = zip(layouts(left.data), layouts(right.data))
        for (l, r), max_d in itertools.product(inputs, (8, 20)):
            left_half, costs = traditional_costs(Image(l), Image(r), max_d)
            order, planes = [], []
            for y0, d, p in costs:
                order.append((y0, d))
                planes.append(p.copy())
                p.fill(np.nan)
            assert order == [(y0, d) for y0 in (0, _BAND_ROWS) for d in range(max_d)]
            assert [p.shape for p in planes] == (
                [(3, _BAND_ROWS, 14)] * max_d + [(3, 20 - _BAND_ROWS, 14)] * max_d
            )
            # (3, max_d, rows, W) per band, joined along the rows.
            vols = np.concatenate(
                [np.stack(planes[:max_d], axis=1), np.stack(planes[max_d:], axis=1)],
                axis=2,
            )
            np.testing.assert_array_equal(
                vols[0],
                hamming_volume_oracle(
                    census_oracle(lyuv[0]), census_oracle(ryuv[0]), max_d
                ),
            )
            np.testing.assert_array_equal(vols[1], ad_volume_oracle(lyuv[1], ryuv[1], max_d))
            np.testing.assert_array_equal(vols[2], ad_volume_oracle(lyuv[2], ryuv[2], max_d))
            np.testing.assert_array_equal(left_half.data, mean_pool_2x(left).data)

    def test_band_stream_repeats_byte_identical(self, rng):
        # Two streams of one pair are byte-identical, plane for plane, even
        # when the consumer of the first overwrites each plane in place.
        left = Image(rng.random((3, 40, 28)))
        right = Image(rng.random((3, 40, 28)))
        first = []
        for y0, d, p in traditional_costs(left, right, 20)[1]:
            first.append((y0, d, p.shape, p.tobytes()))
            p.fill(np.nan)
        again = [(y0, d, p.shape, p.tobytes())
                 for y0, d, p in traditional_costs(left, right, 20)[1]]
        assert again == first
        assert len(first) == 2 * 20

    # Equal pixel counts (8x16 and 16x8) would pair unrelated pixels along
    # the flat runs; unequal ones would fail inside NumPy.
    @pytest.mark.parametrize("right_hw", [(16, 8), (8, 20), (10, 16)],
                             ids=lambda hw: f"{hw[0]}x{hw[1]}")
    def test_mismatched_pair_rejected(self, rng, right_hw):
        left = Image(rng.random((3, 8, 16)))
        right = Image(rng.random((3, *right_hw)))
        with pytest.raises(ValueError, match="stereo pair dimensions differ"):
            traditional_costs(left, right, 4)

    def test_no_candidate_rejected(self, rng):
        img = Image(rng.random((3, 8, 16)))
        with pytest.raises(ValueError, match="max_d"):
            traditional_costs(img, img, 0)

    def test_grey_pair_rejected(self, rng):
        img = Image(rng.random((1, 8, 16)))  # Image holds 1 or 3 channels
        with pytest.raises(ValueError, match=r"expects an RGB pair, got 1 channel\(s\)"):
            traditional_costs(img, img, 4)


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
