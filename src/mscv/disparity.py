"""Disparity extraction, discontinuity masking, and the training loss.

The discontinuity mask flags boundary pixels of non-monotone runs in
the warped coordinate sequence Y(x) = x - d(x).  Per row: take the
running maximum of Y, mark pixels strictly below it, then mark run
boundaries by differencing the mark sequence against its one-pixel
shifts.  A run whose successor recovers by more than epsilon (or that
reaches the row end) keeps only its leading boundary pair.

The loss per valid pixel is max(tau, |d_gt - d_hat| * (1 - lambda *
mask)) ** (1/8); with tau = 1 and disparities below 192 it lies in
[1, 192 ** 0.125].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mscv.costvol import CostVolume
from mscv.imagekit import DisparityMap

LOSS_EXPONENT = 0.125


@dataclass
class LossParams:
    tau: float = 1.0
    lam: float = 0.5

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must be in [0, 1]")


@dataclass
class DiscontinuityMask:
    """Per-pixel 0/1 flags marking disparity-discontinuity boundaries."""

    flags: np.ndarray  # uint8, (H, W)

    @property
    def height(self) -> int:
        return self.flags.shape[0]

    @property
    def width(self) -> int:
        return self.flags.shape[1]


_SCALE_FACTOR = {"half": 2, "quarter": 4}


def wta_disparity(vol: CostVolume, objective: str = "minimize") -> DisparityMap:
    """Winner-take-all disparity, scaled to full-resolution pixel units.

    Ties break toward the smaller disparity candidate.  Map dimensions
    stay at the volume's scale; values are multiplied by the scale
    factor (2 at half, 4 at quarter).
    """
    if objective == "minimize":
        best = np.argmin(vol.costs, axis=0)
    elif objective == "maximize":
        best = np.argmax(vol.costs, axis=0)
    else:
        raise ValueError(f"unknown objective {objective!r}")
    values = best.astype(np.float64) * _SCALE_FACTOR[vol.scale]
    return DisparityMap(values, valid=np.ones_like(values, dtype=bool))


def warp_row(d_row: np.ndarray) -> np.ndarray:
    """Warped target coordinates Y(x) = x - d(x) for one row."""
    d_row = np.asarray(d_row, dtype=np.float64)
    return np.arange(d_row.size) - d_row


def _mask_row(d_row: np.ndarray, epsilon: float) -> np.ndarray:
    y = warp_row(d_row)
    n = y.size
    y_max = np.maximum.accumulate(y)
    m = (y_max - y > 0).astype(np.int8)
    right = np.concatenate(([0], m[:-1]))  # m shifted right by one
    left = np.concatenate((m[1:], [0]))  # m shifted left by one
    out = np.clip(np.abs(right - m) + np.abs(left - m), 0, 1).astype(np.uint8)
    # Epsilon rule: a run whose successor jumps by more than epsilon
    # (or that has no successor) keeps only the leading boundary pair.
    x = 0
    while x < n:
        if m[x]:
            end = x
            while end + 1 < n and m[end + 1]:
                end += 1
            k = end + 1
            if k >= n or y[k] - y[end] > epsilon:
                out[end] = 0
                if k < n:
                    out[k] = 0
            x = k + 1
        else:
            x += 1
    return out


def discontinuity_mask(d_map: DisparityMap, epsilon: float = 3.0) -> DiscontinuityMask:
    """Flag disparity-discontinuity boundary pixels, row by row."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    flags = np.zeros((d_map.height, d_map.width), dtype=np.uint8)
    for row in range(d_map.height):
        flags[row] = _mask_row(d_map.values[row], epsilon)
    return DiscontinuityMask(flags)


def _loss_terms(d_hat, d_gt, mask, p):
    if d_hat.values.shape != d_gt.values.shape:
        raise ValueError("disparity map dimensions differ")
    if mask.flags.shape != d_gt.values.shape:
        raise ValueError("mask dimensions differ")
    valid = d_gt.valid
    if not valid.any():
        raise ValueError("no valid ground-truth pixels")
    err = np.abs(d_gt.values - d_hat.values)
    weighted = err * (1.0 - p.lam * mask.flags)
    clamped = np.maximum(p.tau, weighted)
    return valid, weighted, clamped


def loss_eval(
    d_hat: DisparityMap,
    d_gt: DisparityMap,
    mask: DiscontinuityMask,
    p: LossParams = LossParams(),
) -> tuple[float, np.ndarray]:
    """Mean and per-pixel loss over valid ground-truth pixels.

    Per pixel: max(tau, |d_gt - d_hat| * (1 - lambda * mask)) ** (1/8).
    Invalid pixels carry 0 in the per-pixel map and are excluded from
    the mean.
    """
    valid, _, clamped = _loss_terms(d_hat, d_gt, mask, p)
    per_pixel = np.where(valid, clamped**LOSS_EXPONENT, 0.0)
    mean = float(per_pixel[valid].mean())
    return mean, per_pixel


def loss_grad(
    d_hat: DisparityMap,
    d_gt: DisparityMap,
    mask: DiscontinuityMask,
    p: LossParams = LossParams(),
) -> np.ndarray:
    """Analytic per-pixel derivative of the loss wrt the prediction.

    Zero where the clamp at tau is active or the pixel is invalid;
    elsewhere (1/8) * u^(-7/8) * (1 - lambda*mask) * sign(d_hat - d_gt)
    with u the clamped argument.
    """
    valid, weighted, clamped = _loss_terms(d_hat, d_gt, mask, p)
    active = valid & (weighted > p.tau)
    grad = np.zeros_like(d_hat.values)
    sign = np.sign(d_hat.values - d_gt.values)
    factor = 1.0 - p.lam * mask.flags
    grad[active] = (
        LOSS_EXPONENT
        * clamped[active] ** (LOSS_EXPONENT - 1.0)
        * factor[active]
        * sign[active]
    )
    return grad
