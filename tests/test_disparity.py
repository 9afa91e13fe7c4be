"""Discontinuity mask, loss and gradient."""

import warnings

import numpy as np
import pytest

from mscv.disparity import (
    LossParams,
    discontinuity_mask,
    loss_eval,
    loss_grad,
)
from mscv.imagekit import DisparityMap

from oracles import loss_reference, mask_oracle


def dmap_from_rows(rows, valid=None):
    values = np.asarray(rows, dtype=np.float64)
    if valid is None:
        valid = np.ones_like(values, dtype=bool)
    return DisparityMap(values, valid=valid)


def row_to_ymap(y_row):
    """Disparity row whose warped sequence equals the given Y values."""
    y_row = np.asarray(y_row, dtype=np.float64)
    return np.arange(y_row.size) - y_row


class TestDiscontinuityMask:
    def test_strictly_increasing_all_zero(self):
        dmap = dmap_from_rows([np.full(10, 2.0)])
        mask = discontinuity_mask(dmap, 3.0)
        assert mask.flags.dtype == np.uint8
        np.testing.assert_array_equal(mask.flags, 0)

    def test_worked_pattern_large_gap(self):
        # Y = [1,2,3,9,4,5,6,10,11], eps=3: recovery jump 10-6=4 > eps,
        # only the leading pair stays.
        dmap = dmap_from_rows([row_to_ymap([1, 2, 3, 9, 4, 5, 6, 10, 11])])
        mask = discontinuity_mask(dmap, 3.0)
        np.testing.assert_array_equal(mask.flags[0], [0, 0, 0, 1, 1, 0, 0, 0, 0])

    def test_worked_pattern_small_gap(self):
        # Y = [1,2,3,9,4,5,6,7,11], eps=5: jump 11-7=4 <= eps, both pairs.
        dmap = dmap_from_rows([row_to_ymap([1, 2, 3, 9, 4, 5, 6, 7, 11])])
        mask = discontinuity_mask(dmap, 5.0)
        np.testing.assert_array_equal(mask.flags[0], [0, 0, 0, 1, 1, 0, 0, 1, 1])

    def test_matches_run_enumeration_oracle(self, rng):
        for _ in range(300):
            d = np.round(rng.random(64) * 3, 2)
            jumps = rng.integers(0, 64, size=3)
            for j in jumps:
                d[j:] += rng.integers(0, 8)  # injected dips in Y
            dmap = dmap_from_rows([d])
            eps = float(rng.random() * 5)
            got = discontinuity_mask(dmap, eps).flags[0]
            np.testing.assert_array_equal(got, mask_oracle(d, eps))

    def test_even_flags_for_interior_runs(self, rng):
        # Dips of length >= 2 away from the row end flag 2 or 4 pixels.
        y = np.arange(32, dtype=np.float64)
        y[10:13] -= 5.0  # dip of length 3 recovering at x=13
        dmap = dmap_from_rows([row_to_ymap(y)])
        for eps, expected in ((10.0, 4), (0.5, 2)):
            flags = discontinuity_mask(dmap, eps).flags[0]
            assert flags.sum() == expected
            assert flags.sum() % 2 == 0

    def test_negative_epsilon_rejected(self):
        for epsilon in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="epsilon"):
                discontinuity_mask(dmap_from_rows([np.zeros(4)]), epsilon)


class TestDiscontinuityMaskMultiRow:
    """Whole maps equal the per-row oracle: no row leaks into the next."""

    @staticmethod
    def assert_rows_match(d, eps):
        got = discontinuity_mask(dmap_from_rows(d), eps).flags
        expected = np.stack([mask_oracle(row, eps) for row in d])
        np.testing.assert_array_equal(got, expected)

    def test_crafted_rows(self):
        y = np.array([
            [0, 1, 2, 3, 8, 2],  # run reaches the last column
            [3, 4, 5, 6, 7, 9],  # lower running maximum than the row above
            [5, 2, 3, 4, 8, 10],  # successor jump 8 - 4 = 4
            [6, 1, 7, 8, 9, 10],  # one-pixel run, successor jump 6
            [4, 4, 4, 4, 4, 3],  # ties are not below; run reaches the end
            [0, 1, 2, 3, 4, 5],
        ], dtype=np.float64)
        d = np.arange(y.shape[1]) - y
        for eps in (0.0, 1.0, 4.0, 6.0):  # 4 and 6 equal a jump exactly
            self.assert_rows_match(d, eps)
        flags = discontinuity_mask(dmap_from_rows(d), 4.0).flags
        np.testing.assert_array_equal(flags[0], [0, 0, 0, 0, 1, 0])
        np.testing.assert_array_equal(flags[1], 0)
        np.testing.assert_array_equal(flags[2], [1, 1, 0, 1, 1, 0])

    def test_widths_one_and_two(self):
        for y in ([[5], [3], [4]], [[5, 3], [3, 5], [4, 4], [9, 0]]):
            d = np.arange(len(y[0])) - np.asarray(y, dtype=np.float64)
            for eps in (0.0, 2.0, 3.0):
                self.assert_rows_match(d, eps)

    def test_random_small_maps(self, rng):
        for _ in range(500):
            h, w = int(rng.integers(2, 6)), int(rng.integers(1, 13))
            y = rng.integers(0, 8, size=(h, w)).astype(np.float64)
            d = np.arange(w) - y
            self.assert_rows_match(d, float(rng.choice([0.0, 1.0, 2.0, 2.5])))


def zero_mask(shape):
    from mscv.disparity import DiscontinuityMask

    return DiscontinuityMask(np.zeros(shape, dtype=np.uint8))


def ones_mask(shape):
    from mscv.disparity import DiscontinuityMask

    return DiscontinuityMask(np.ones(shape, dtype=np.uint8))


class TestLossParams:
    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")],
                             ids=["negative", "nan", "inf"])
    @pytest.mark.parametrize("field", ["tau", "lam"])
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(ValueError):
            LossParams(**{field: value})


class TestLossEval:
    def test_equal_maps_clamp_floor(self, rng):
        values = rng.random((4, 5)) * 100 + 1
        gt = DisparityMap(values.copy())
        pred = DisparityMap(values.copy(), valid=np.ones_like(values, dtype=bool))
        mean, per_pixel = loss_eval(pred, gt, zero_mask(values.shape))
        assert mean == 1.0
        np.testing.assert_array_equal(per_pixel[gt.valid], 1.0)

    def test_max_error_value(self):
        # |error| = 192 with an unmasked pixel: loss = 192 ** (1/8).
        gt = DisparityMap(np.full((1, 1), 100.0))
        pred = DisparityMap(np.full((1, 1), 292.0),
                            valid=np.ones((1, 1), dtype=bool))
        mean, _ = loss_eval(pred, gt, zero_mask((1, 1)))
        assert abs(mean - 192.0 ** 0.125) < 1e-12

    def test_masked_error_clamps_to_floor(self):
        gt = DisparityMap(np.full((1, 1), 10.0))
        pred = DisparityMap(np.full((1, 1), 12.0), valid=np.ones((1, 1), dtype=bool))
        mean, _ = loss_eval(pred, gt, ones_mask((1, 1)), LossParams(tau=1.0, lam=0.5))
        assert mean == 1.0  # max(1, 2 * 0.5) ** (1/8)

    def test_range_bounds(self, rng):
        gt_vals = rng.random((8, 8)) * 190 + 0.5
        pred_vals = np.clip(gt_vals + rng.standard_normal((8, 8)) * 50, 0, 191)
        gt = DisparityMap(gt_vals)
        pred = DisparityMap(pred_vals, valid=np.ones_like(pred_vals, dtype=bool))
        flags = (rng.random((8, 8)) > 0.5).astype(np.uint8)
        from mscv.disparity import DiscontinuityMask

        mean, per_pixel = loss_eval(pred, gt, DiscontinuityMask(flags))
        assert 1.0 <= mean <= 192.0 ** 0.125
        assert per_pixel[gt.valid].min() >= 1.0
        assert per_pixel[gt.valid].max() <= 192.0 ** 0.125

    def test_lambda_zero_ignores_mask(self, rng):
        gt = DisparityMap(rng.random((5, 5)) * 100 + 1)
        pred = DisparityMap(gt.values + rng.standard_normal((5, 5)) * 10,
                            valid=np.ones((5, 5), dtype=bool))
        p = LossParams(tau=1.0, lam=0.0)
        m0, pp0 = loss_eval(pred, gt, zero_mask((5, 5)), p)
        m1, pp1 = loss_eval(pred, gt, ones_mask((5, 5)), p)
        assert m0 == m1
        np.testing.assert_array_equal(pp0, pp1)

    def test_invalid_pixels_excluded(self):
        gt = DisparityMap(np.array([[10.0, 0.0]]))  # second pixel invalid
        pred = DisparityMap(np.array([[10.0, 99.0]]),
                            valid=np.ones((1, 2), dtype=bool))
        mean, per_pixel = loss_eval(pred, gt, zero_mask((1, 2)))
        assert mean == 1.0
        assert per_pixel[0, 1] == 0.0

    def test_no_valid_pixels_raises(self):
        gt = DisparityMap(np.zeros((2, 2)))
        pred = DisparityMap(np.zeros((2, 2)), valid=np.ones((2, 2), dtype=bool))
        with pytest.raises(ValueError, match="valid"):
            loss_eval(pred, gt, zero_mask((2, 2)))


class TestLossGrad:
    def test_clamped_pixel_zero_gradient(self):
        gt = DisparityMap(np.full((1, 1), 50.0))
        pred = DisparityMap(np.full((1, 1), 50.5), valid=np.ones((1, 1), dtype=bool))
        grad = loss_grad(pred, gt, zero_mask((1, 1)))
        assert grad[0, 0] == 0.0

    def test_matches_finite_differences(self, rng):
        h = 1e-4
        gt_vals = rng.random((10, 10)) * 150 + 20
        pred_vals = gt_vals + rng.uniform(2, 30, (10, 10)) * rng.choice(
            [-1, 1], (10, 10)
        )
        gt = DisparityMap(gt_vals)
        flags = (rng.random((10, 10)) > 0.5).astype(np.uint8)
        from mscv.disparity import DiscontinuityMask

        mask = DiscontinuityMask(flags)
        valid = np.ones_like(pred_vals, dtype=bool)
        grad = loss_grad(DisparityMap(pred_vals, valid=valid), gt, mask)
        _, up = loss_eval(DisparityMap(pred_vals + h, valid=valid), gt, mask)
        _, dn = loss_eval(DisparityMap(pred_vals - h, valid=valid), gt, mask)
        fd = (up - dn) / (2 * h)
        sel = gt.valid & (np.abs(grad) > 0)
        np.testing.assert_allclose(grad[sel], fd[sel], rtol=1e-4)

    def test_tau_zero_exact_zero_without_warnings(self):
        from mscv.disparity import DiscontinuityMask

        gt = DisparityMap(np.array([[10.0, 20.0, 30.0, 40.0]]))
        pred = DisparityMap(np.array([[10.0, 24.0, 26.0, 40.0]]),
                            valid=np.ones((1, 4), dtype=bool))
        mask = DiscontinuityMask(np.array([[0, 0, 1, 1]], dtype=np.uint8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grad = loss_grad(pred, gt, mask, LossParams(tau=0.0, lam=0.5))
        for x in (0, 3):  # zero error, unmasked and masked
            assert grad[0, x] == 0.0 and not np.signbit(grad[0, x])
        assert grad[0, 1] == 0.125 * 4.0 ** -0.875
        assert grad[0, 2] == -(0.125 * 2.0 ** -0.875 * 0.5)

    def test_sign_flips_across_ground_truth(self):
        gt = DisparityMap(np.full((1, 2), 50.0))
        pred = DisparityMap(np.array([[60.0, 40.0]]),
                            valid=np.ones((1, 2), dtype=bool))
        grad = loss_grad(pred, gt, zero_mask((1, 2)))
        assert grad[0, 0] > 0 > grad[0, 1]
        assert grad[0, 0] == -grad[0, 1]


class TestKittiSizedLoss:
    """The loss path on a 376x1240 sparse ground truth (``kitti_maps``)."""

    @pytest.mark.parametrize("tau,lam", [(1.0, 0.5), (0.0, 0.5), (2.0, 1.0), (1.0, 0.0)])
    def test_bit_identical_to_reference(self, kitti_maps, tau, lam):
        m = kitti_maps
        p = LossParams(tau=tau, lam=lam)
        want_mean, want_loss, want_grad = loss_reference(m.pred, m.gt, m.mask.flags, tau, lam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, per_pixel = loss_eval(m.pred, m.gt, m.mask, p)
            grad = loss_grad(m.pred, m.gt, m.mask, p)
        assert mean == want_mean
        np.testing.assert_array_equal(per_pixel, want_loss)
        np.testing.assert_array_equal(grad, want_grad)
        np.testing.assert_array_equal(np.signbit(per_pixel), np.signbit(want_loss))
        np.testing.assert_array_equal(np.signbit(grad), np.signbit(want_grad))

    # Peak bytes above the inputs, in float64 maps: the result map, the
    # (1 - lambda * mask) factor map and bool masks.  Building a map per
    # intermediate, as a loss-term tuple plus np.where copies does, peaks
    # at 4.0 maps in loss_eval and 6.1 in loss_grad.
    @pytest.mark.parametrize("fn,maps", [(loss_eval, 2.1), (loss_grad, 2.4)],
                             ids=["loss_eval", "loss_grad"])
    def test_peak_memory(self, kitti_maps, peak_bytes, fn, maps):
        m = kitti_maps
        peak = peak_bytes(lambda: fn(m.pred, m.gt, m.mask))
        assert peak <= maps * m.map_bytes, f"peak {peak / m.map_bytes:.2f} maps"

    @pytest.mark.parametrize("fn", [loss_eval, loss_grad, lambda pred, gt, mask:
                                    discontinuity_mask(gt, 3.0)],
                             ids=["loss_eval", "loss_grad", "discontinuity_mask"])
    def test_inputs_left_unchanged(self, kitti_maps, fn):
        m = kitti_maps
        arrays = (m.pred.values, m.pred.valid, m.gt.values, m.gt.valid, m.mask.flags)
        before = [a.tobytes() for a in arrays]
        fn(m.pred, m.gt, m.mask)
        assert [a.tobytes() for a in arrays] == before
