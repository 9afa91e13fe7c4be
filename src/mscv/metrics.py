"""Disparity evaluation metrics: EPE, outlier rates, D1 components.

D1 follows the literal "> 3 pixels" rule by default; pass
``kitti_rule=True`` for the joint criterion (error > 3 px and > 5% of
ground truth).  Metrics over empty regions are reported as None.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mscv.imagekit import DisparityMap

D1_THRESHOLD_PX = 3.0
D1_RELATIVE = 0.05


@dataclass
class EvalReport:
    epe: float
    outlier_3px: float
    outlier_5px: float
    d1_bg: float | None
    d1_fg: float | None
    d1_all: float
    valid_count: int

    def as_text(self) -> str:
        rows = [
            ("EPE [px]", f"{self.epe:.4f}"),
            ("> 3px [%]", f"{self.outlier_3px:.4f}"),
            ("> 5px [%]", f"{self.outlier_5px:.4f}"),
            ("D1-bg [%]", "n/a" if self.d1_bg is None else f"{self.d1_bg:.4f}"),
            ("D1-fg [%]", "n/a" if self.d1_fg is None else f"{self.d1_fg:.4f}"),
            ("D1-all [%]", f"{self.d1_all:.4f}"),
            ("valid px", str(self.valid_count)),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)

    def as_keyvalues(self) -> str:
        fmt = lambda v: "nan" if v is None else f"{v:.6f}"
        return "\n".join(
            [
                f"epe={self.epe:.6f}",
                f"outlier_3px={self.outlier_3px:.6f}",
                f"outlier_5px={self.outlier_5px:.6f}",
                f"d1_bg={fmt(self.d1_bg)}",
                f"d1_fg={fmt(self.d1_fg)}",
                f"d1_all={self.d1_all:.6f}",
                f"valid_count={self.valid_count}",
            ]
        )


def _errors(pred: DisparityMap, gt: DisparityMap) -> tuple[np.ndarray, np.ndarray]:
    if pred.values.shape != gt.values.shape:
        raise ValueError("disparity map dimensions differ")
    if not gt.valid.any():
        raise ValueError("no valid ground-truth pixels")
    return np.abs(pred.values - gt.values), gt.valid


def epe(pred: DisparityMap, gt: DisparityMap) -> float:
    """Mean absolute disparity error over valid ground-truth pixels."""
    err, valid = _errors(pred, gt)
    return float(err[valid].mean())


def outlier_rate(pred: DisparityMap, gt: DisparityMap, threshold_px: float) -> float:
    """Percentage of valid pixels with error strictly above the threshold."""
    if threshold_px <= 0:
        raise ValueError("threshold must be > 0")
    err, valid = _errors(pred, gt)
    return float(100.0 * (err[valid] > threshold_px).mean())


def _d1_outliers(err, gt_values, kitti_rule):
    out = err > D1_THRESHOLD_PX
    if kitti_rule:
        out &= err > D1_RELATIVE * np.abs(gt_values)
    return out


def _d1_rates(err, valid, gt_values, fg_mask, kitti_rule):
    fg_mask = np.asarray(fg_mask, dtype=bool)
    if fg_mask.shape != err.shape:
        raise ValueError("foreground mask dimensions differ")
    out = _d1_outliers(err, gt_values, kitti_rule)

    def rate(sel):
        if not sel.any():
            return None
        return float(100.0 * out[sel].mean())

    return rate(valid & ~fg_mask), rate(valid & fg_mask), rate(valid)


def d1_metrics(
    pred: DisparityMap,
    gt: DisparityMap,
    fg_mask: np.ndarray,
    kitti_rule: bool = False,
) -> tuple[float | None, float | None, float]:
    """(d1_bg, d1_fg, d1_all) outlier percentages.

    ``fg_mask`` flags foreground pixels.  An empty region's component
    is None; d1_all is always computed.
    """
    err, valid = _errors(pred, gt)
    return _d1_rates(err, valid, gt.values, fg_mask, kitti_rule)


def evaluate(
    pred: DisparityMap,
    gt: DisparityMap,
    fg_mask: np.ndarray | None = None,
    kitti_rule: bool = False,
) -> EvalReport:
    """Full report: EPE, 3/5-px outlier rates, D1 components."""
    err, valid = _errors(pred, gt)
    if fg_mask is None:
        fg_mask = np.zeros_like(valid)
    d1_bg, d1_fg, d1_all = _d1_rates(err, valid, gt.values, fg_mask, kitti_rule)
    err_valid = err[valid]
    return EvalReport(
        epe=float(err_valid.mean()),
        outlier_3px=float(100.0 * (err_valid > 3.0).mean()),
        outlier_5px=float(100.0 * (err_valid > 5.0).mean()),
        d1_bg=d1_bg,
        d1_fg=d1_fg,
        d1_all=d1_all,
        valid_count=err_valid.size,
    )
