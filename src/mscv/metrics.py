"""KITTI-style evaluation report: EPE, outlier rates, D1 components.

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


def evaluate(
    pred: DisparityMap,
    gt: DisparityMap,
    fg_mask: np.ndarray | None = None,
    kitti_rule: bool = False,
) -> EvalReport:
    """Full report: EPE, 3/5-px outlier rates, D1 components.

    ``fg_mask`` flags foreground pixels (default: none).  Outliers lie
    strictly above a threshold.  An empty region's D1 component is None;
    d1_all is always computed.
    """
    if pred.values.shape != gt.values.shape:
        raise ValueError("disparity map dimensions differ")
    valid = gt.valid
    if not valid.any():
        raise ValueError("no valid ground-truth pixels")
    fg_mask = np.zeros_like(valid) if fg_mask is None else np.asarray(fg_mask, dtype=bool)
    if fg_mask.shape != valid.shape:
        raise ValueError("foreground mask dimensions differ")
    err = np.abs(pred.values - gt.values)
    d1_out = err > D1_THRESHOLD_PX
    if kitti_rule:
        d1_out &= err > D1_RELATIVE * np.abs(gt.values)

    def d1_rate(sel):
        return float(100.0 * d1_out[sel].mean()) if sel.any() else None

    err_valid = err[valid]
    return EvalReport(
        epe=float(err_valid.mean()),
        outlier_3px=float(100.0 * (err_valid > 3.0).mean()),
        outlier_5px=float(100.0 * (err_valid > 5.0).mean()),
        d1_bg=d1_rate(valid & ~fg_mask),
        d1_fg=d1_rate(valid & fg_mask),
        d1_all=d1_rate(valid),
        valid_count=err_valid.size,
    )
