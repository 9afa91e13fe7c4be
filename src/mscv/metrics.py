"""KITTI-style evaluation report: EPE, outlier rates, D1 components.

D1 follows the literal "> 3 pixels" rule by default; pass
``kitti_rule=True`` for the joint criterion (error > 3 px and > 5% of
ground truth).  Metrics over empty regions are reported as None.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from mscv.imagekit import DisparityMap

D1_THRESHOLD_PX = 3.0
D1_RELATIVE = 0.05
# as_text's label of each EvalReport field, in field order
_LABELS = ("EPE [px]", "> 3px [%]", "> 5px [%]", "D1-bg [%]", "D1-fg [%]", "D1-all [%]",
           "valid px")


@dataclass
class EvalReport:
    epe: float
    outlier_3px: float
    outlier_5px: float
    d1_bg: float | None
    d1_fg: float | None
    d1_all: float
    valid_count: int

    def _rows(self, decimals: int, missing: str) -> list[tuple[str, str, str]]:
        """(label, field name, formatted value) per field, in field order."""
        rows = []
        for label, f in zip(_LABELS, fields(self)):
            v = getattr(self, f.name)
            if f.name != "valid_count":  # the one integer field
                v = missing if v is None else f"{v:.{decimals}f}"
            rows.append((label, f.name, str(v)))
        return rows

    def as_text(self) -> str:
        rows = self._rows(4, "n/a")
        width = max(len(label) for label, _, _ in rows)
        return "\n".join(f"{label:<{width}}  {v}" for label, _, v in rows)

    def as_keyvalues(self) -> str:
        return "\n".join(f"{name}={v}" for _, name, v in self._rows(6, "nan"))


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
