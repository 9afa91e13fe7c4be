"""The evaluation report: EPE, outlier rates, D1 components, identities."""

import numpy as np
import pytest

from mscv.imagekit import DisparityMap
from mscv.metrics import evaluate


def maps_with_errors(errors, gt_value=50.0):
    errors = np.asarray(errors, dtype=np.float64)
    gt = DisparityMap(np.full(errors.shape, gt_value))
    pred = DisparityMap(gt.values + errors,
                        valid=np.ones(errors.shape, dtype=bool))
    return pred, gt


def d1_parts(pred, gt, fg, kitti_rule=False):
    r = evaluate(pred, gt, fg, kitti_rule=kitti_rule)
    return r.d1_bg, r.d1_fg, r.d1_all


class TestEpe:
    def test_exact_prediction(self):
        pred, gt = maps_with_errors(np.zeros((3, 3)))
        assert evaluate(pred, gt).epe == 0.0

    def test_uniform_error(self):
        pred, gt = maps_with_errors(np.full((4, 4), 2.0))
        assert evaluate(pred, gt).epe == 2.0

    def test_hand_mean(self):
        pred, gt = maps_with_errors(np.array([[0.0, 1.0], [2.0, 5.0]]))
        assert evaluate(pred, gt).epe == 2.0

    def test_no_valid_pixels_raises(self):
        gt = DisparityMap(np.zeros((2, 2)))
        pred = DisparityMap(np.zeros((2, 2)), valid=np.ones((2, 2), dtype=bool))
        with pytest.raises(ValueError, match="no valid"):
            evaluate(pred, gt)

    def test_size_mismatch_raises(self):
        pred, _ = maps_with_errors(np.zeros((2, 3)))
        _, gt = maps_with_errors(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="dimensions differ"):
            evaluate(pred, gt)

    def test_fg_mask_size_mismatch_raises(self):
        pred, gt = maps_with_errors(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="foreground mask"):
            evaluate(pred, gt, np.zeros((2, 3), dtype=bool))


class TestOutlierRate:
    def test_all_exact(self):
        pred, gt = maps_with_errors(np.zeros((3, 3)))
        r = evaluate(pred, gt)
        assert r.outlier_3px == r.outlier_5px == 0.0

    def test_hand_count(self):
        pred, gt = maps_with_errors(np.array([[0.0, 1.0], [2.0, 5.0]]))
        r = evaluate(pred, gt)
        assert r.outlier_3px == 25.0
        assert r.outlier_5px == 0.0  # 5 px is not above 5 px

    def test_strict_inequality_at_boundary(self):
        pred, gt = maps_with_errors(np.full((2, 2), 3.0))
        assert evaluate(pred, gt).outlier_3px == 0.0
        pred, gt = maps_with_errors(np.full((2, 2), 5.0))
        r = evaluate(pred, gt)
        assert r.outlier_3px == 100.0 and r.outlier_5px == 0.0


class TestD1Metrics:
    def test_no_foreground(self):
        pred, gt = maps_with_errors(np.array([[0.0, 4.0], [0.0, 0.0]]))
        d1_bg, d1_fg, d1_all = d1_parts(pred, gt, np.zeros((2, 2), dtype=bool))
        assert d1_fg is None
        assert d1_bg == d1_all == 25.0
        assert evaluate(pred, gt).d1_fg is None  # default: no foreground

    def test_no_background(self):
        pred, gt = maps_with_errors(np.array([[0.0, 4.0], [0.0, 0.0]]))
        d1_bg, d1_fg, d1_all = d1_parts(pred, gt, np.ones((2, 2), dtype=bool))
        assert d1_bg is None
        assert d1_fg == d1_all == 25.0

    def test_hand_2x2_with_one_fg_outlier(self):
        pred, gt = maps_with_errors(np.array([[0.0, 0.0], [0.0, 7.0]]))
        fg = np.zeros((2, 2), dtype=bool)
        fg[1, 1] = True
        d1_bg, d1_fg, d1_all = d1_parts(pred, gt, fg)
        assert d1_fg == 100.0
        assert d1_bg == 0.0
        assert d1_all == 25.0

    def test_exact_prediction_all_zero(self, rng):
        pred, gt = maps_with_errors(np.zeros((4, 4)))
        fg = rng.random((4, 4)) > 0.5
        d1_bg, d1_fg, d1_all = d1_parts(pred, gt, fg)
        assert d1_all == 0.0 and d1_bg == 0.0 and d1_fg == 0.0

    def test_weighted_identity(self, rng):
        for _ in range(20):
            errors = rng.random((8, 8)) * 8
            pred, gt = maps_with_errors(errors)
            fg = rng.random((8, 8)) > 0.4
            d1_bg, d1_fg, d1_all = d1_parts(pred, gt, fg)
            n = gt.valid.sum()
            n_fg = (gt.valid & fg).sum()
            n_bg = n - n_fg
            lhs = d1_all * n
            rhs = (d1_bg or 0.0) * n_bg + (d1_fg or 0.0) * n_fg
            assert abs(lhs - rhs) < 1e-9 * max(1.0, lhs)

    def test_kitti_joint_rule(self):
        # 4 px error at gt 100: > 3 px but not > 5% of gt -> not an
        # outlier under the joint rule; 6 px at gt 100 is both.
        no_fg = np.zeros((1, 2), dtype=bool)
        pred, gt = maps_with_errors([[4.0, 6.0]], gt_value=100.0)
        _, _, literal = d1_parts(pred, gt, no_fg)
        _, _, joint = d1_parts(pred, gt, no_fg, kitti_rule=True)
        assert literal == 100.0 and joint == 50.0
        # The joint rule changes D1 only: EPE and 3/5 px rates stay literal.
        a, b = evaluate(pred, gt), evaluate(pred, gt, kitti_rule=True)
        assert (a.epe, a.outlier_3px, a.outlier_5px) == (b.epe, b.outlier_3px, b.outlier_5px)


class TestPermutationInvariance:
    def test_joint_pixel_permutation(self, rng):
        errors = rng.random(36) * 10
        pred, gt = maps_with_errors(errors.reshape(6, 6))
        fg = (rng.random(36) > 0.5).reshape(6, 6)
        r1 = evaluate(pred, gt, fg)
        perm = np.random.default_rng(1).permutation(36)
        pred2 = DisparityMap(pred.values.ravel()[perm].reshape(6, 6),
                             valid=np.ones((6, 6), dtype=bool))
        gt2 = DisparityMap(gt.values.ravel()[perm].reshape(6, 6))
        fg2 = fg.ravel()[perm].reshape(6, 6)
        r2 = evaluate(pred2, gt2, fg2)
        assert r1 == r2


class TestReportFormats:
    def test_text_and_keyvalue_emission(self, rng):
        pred, gt = maps_with_errors(rng.random((4, 4)) * 6)
        report = evaluate(pred, gt)
        text = report.as_text()
        assert "EPE" in text and "D1-all" in text
        kv = dict(line.split("=") for line in report.as_keyvalues().splitlines())
        assert float(kv["epe"]) == pytest.approx(report.epe, abs=1e-6)
        assert int(kv["valid_count"]) == 16
