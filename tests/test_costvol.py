"""Cost-volume construction against brute-force oracles."""

import itertools

import numpy as np
import pytest

from mscv.costvol import (
    _BAND_ROWS,
    CostVolume,
    _absdiff,
    _planes,
    ad_cost_volume,
    census_transform,
    correlate_1d,
    hamming_cost_volume,
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
        vol = hamming_cost_volume(c, c, max_d=4)
        np.testing.assert_array_equal(vol.costs[0], 0.0)

    def test_synthetic_shift_argmin(self, rng):
        data = rng.random((12, 24))
        k = 5
        right = data
        left = np.empty_like(data)
        left[:, k:] = data[:, :-k]
        left[:, :k] = data[:, :k]
        vol = hamming_cost_volume(
            census_transform(plane(left)), census_transform(plane(right)), max_d=8
        )
        best = np.argmin(vol.costs, axis=0)
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
            vol = hamming_cost_volume(l, r, max_d=max_d)
            np.testing.assert_array_equal(vol.costs, hamming_volume_oracle(l, r, max_d))

    def test_costs_bounded_and_integer(self, rng):
        l = census_transform(plane(rng.random((10, 10))))
        r = census_transform(plane(rng.random((10, 10))))
        vol = hamming_cost_volume(l, r, max_d=6)
        assert vol.costs.min() >= 0 and vol.costs.max() <= 24
        np.testing.assert_array_equal(vol.costs, np.rint(vol.costs))

    def test_dim_mismatch_rejected(self, rng):
        a = census_transform(plane(rng.random((4, 4))))
        b = census_transform(plane(rng.random((4, 5))))
        with pytest.raises(ValueError):
            hamming_cost_volume(a, b, max_d=2)


class TestAdVolume:
    def test_identical_planes_zero_at_d0(self, rng):
        img = plane(rng.random((6, 6)) - 0.5)
        vol = ad_cost_volume(img, img, max_d=3)
        np.testing.assert_array_equal(vol.costs[0], 0.0)

    def test_range_extremes(self):
        left = plane(np.full((4, 6), 0.5))
        right = plane(np.full((4, 6), -0.5))
        vol = ad_cost_volume(left, right, max_d=3)
        np.testing.assert_array_equal(vol.costs, 1.0)

    def test_matches_brute_force(self, rng):
        # As for Hamming: max_d > width, a transposed view, 1 row, 1 column.
        chroma = lambda h, w: rng.random((h, w)) - 0.5
        pairs = [(chroma(16, w), chroma(16, w), max_d) for w, max_d in ((16, 8), (5, 9))]
        pairs.append((chroma(12, 16).T, chroma(12, 16).T, 8))
        pairs += [(chroma(1, 12), chroma(1, 12), 5), (chroma(9, 1), chroma(9, 1), 3)]
        for l, r, max_d in pairs:
            vol = ad_cost_volume(plane(l), plane(r), max_d=max_d)
            np.testing.assert_array_equal(vol.costs, ad_volume_oracle(l, r, max_d))

    def test_non_contiguous_plane_rejected(self, rng):
        # Writing a flat run into a strided plane would fill a copy.
        l = rng.random((4, 6))
        out = np.empty((6, 4)).T
        with pytest.raises(ValueError):
            list(_planes(l, l, 2, 1.0, _absdiff, lambda d: out))


class TestTraditionalCosts:
    def test_matches_oracles_on_pooled_yuv(self, rng, layouts):
        # 20 half-scale rows: a full band of _BAND_ROWS and a short one;
        # 14 half-scale columns, so at max_d 20 planes 14..19 are all fill.
        # Every memory layout of the same pixels gives the same costs.
        left = Image(rng.random((3, 40, 28)))
        right = Image(rng.random((3, 40, 28)))
        lyuv = rgb_to_yuv(mean_pool_2x(left)).data
        ryuv = rgb_to_yuv(mean_pool_2x(right)).data
        inputs = zip(layouts(left.data), layouts(right.data))
        for (l, r), max_d in itertools.product(inputs, (8, 20)):
            left_half, bands = traditional_costs(Image(l), Image(r), max_d)
            y0s, planes = zip(*bands)
            assert y0s == (0, _BAND_ROWS)
            # (3, max_d, rows, W) per band; the stream reuses one buffer.
            vols = np.concatenate(
                [np.stack([p.copy() for p in band()], axis=1) for band in planes],
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
        # 9 > width; then a transposed view, 1 row and 1 column.
        feats = lambda *shape: rng.standard_normal(shape)
        pairs = [(feats(4, 5, 6), feats(4, 5, 6), max_d) for max_d in (4, 9)]
        pairs.append((feats(4, 6, 5).transpose(0, 2, 1), feats(4, 6, 5).transpose(0, 2, 1), 4))
        pairs += [(feats(4, 1, 7), feats(4, 1, 7), 4), (feats(4, 5, 1), feats(4, 5, 1), 3)]
        for fl, fr, max_d in pairs:
            vol = correlate_1d(fl, fr, max_d=max_d)
            np.testing.assert_allclose(
                vol.costs, correlation_oracle(fl, fr, max_d), atol=1e-6
            )

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
