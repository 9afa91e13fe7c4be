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
    if fg_mask is not None:
        fg_mask = np.asarray(fg_mask, dtype=bool)
        if fg_mask.shape != valid.shape:
            raise ValueError("foreground mask dimensions differ")
    err = np.subtract(pred.values, gt.values)
    np.abs(err, out=err)
    if kitti_rule:  # > 5% of ground truth as well; rel is freed before the 3 px test
        rel = np.abs(gt.values)
        rel *= D1_RELATIVE
        d1_out = err > rel
        del rel
        d1_out &= err > D1_THRESHOLD_PX
    else:
        d1_out = err > D1_THRESHOLD_PX
    d1_out &= valid
    err_valid = err[valid]
    n = err_valid.size

    def rate(hits, total):  # counts, as a bool array's mean is exactly count / n
        return float(100.0 * (hits / total)) if total else None

    d1_hits = np.count_nonzero(d1_out)
    d1_bg = d1_all = rate(d1_hits, n)
    d1_fg = None
    if fg_mask is not None:  # background counts are the valid ones minus foreground's
        fg_hits, fg_n = np.count_nonzero(d1_out & fg_mask), np.count_nonzero(valid & fg_mask)
        d1_bg, d1_fg = rate(d1_hits - fg_hits, n - fg_n), rate(fg_hits, fg_n)
    return EvalReport(
        epe=float(err_valid.mean()),
        # D1_THRESHOLD_PX is 3 px, so the literal D1 rule is the 3 px rate.
        outlier_3px=rate(np.count_nonzero(err_valid > 3.0), n) if kitti_rule else d1_all,
        outlier_5px=rate(np.count_nonzero(err_valid > 5.0), n),
        d1_bg=d1_bg,
        d1_fg=d1_fg,
        d1_all=d1_all,
        valid_count=n,
    )
