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
    err = np.subtract(pred.values, gt.values)
    np.abs(err, out=err)
    d1_out = err > D1_THRESHOLD_PX
    if kitti_rule:  # compared only where the 3 px rule already holds
        d1_out[d1_out] = err[d1_out] > D1_RELATIVE * np.abs(gt.values[d1_out])

    def rate(hits, sel):  # counts, as a bool array's mean is exactly count / n
        n = np.count_nonzero(sel)
        return float(100.0 * (np.count_nonzero(hits & sel) / n)) if n else None

    err_valid = err[valid]
    return EvalReport(
        epe=float(err_valid.mean()),
        outlier_3px=rate(err > 3.0, valid),
        outlier_5px=rate(err > 5.0, valid),
        d1_bg=rate(d1_out, valid & ~fg_mask),
        d1_fg=rate(d1_out, valid & fg_mask),
        d1_all=rate(d1_out, valid),
        valid_count=err_valid.size,
    )
