"""Warped coordinates, discontinuity masking, and the training loss.

The discontinuity mask flags boundary pixels of non-monotone runs in
the warped coordinates Y(x) = x - d(x) of each row.  The whole map is
processed at once, every step along axis 1 so that rows never mix:
mark pixels strictly below the running maximum of their row, then flag
run boundaries by comparing the marks with their left and right
neighbours (unmarked beyond each row end).  A run whose successor
recovers by more than epsilon (or that reaches the row end) keeps only
its leading boundary pair.

The loss per valid pixel is max(tau, |d_gt - d_hat| * (1 - lambda *
mask)) ** (1/8); with tau = 1 and disparities below 192 it lies in
[1, 192 ** 0.125].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mscv.imagekit import DisparityMap

LOSS_EXPONENT = 0.125


@dataclass
class LossParams:
    tau: float = 1.0
    lam: float = 0.5

    def __post_init__(self):
        if not self.tau >= 0:
            raise ValueError("tau must be >= 0")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must be in [0, 1]")


@dataclass
class DiscontinuityMask:
    """Per-pixel 0/1 flags marking disparity-discontinuity boundaries."""

    flags: np.ndarray  # uint8, (H, W)


def warp_row(d: np.ndarray) -> np.ndarray:
    """Warped target coordinates Y(x) = x - d(x), x counted along the last axis.

    Takes one row or a whole (H, W) map.
    """
    d = np.asarray(d, dtype=np.float64)
    return np.arange(d.shape[-1]) - d


def discontinuity_mask(d_map: DisparityMap, epsilon: float = 3.0) -> DiscontinuityMask:
    """Flag disparity-discontinuity boundary pixels of the whole map at once."""
    if not epsilon >= 0:
        raise ValueError("epsilon must be >= 0")
    y = warp_row(d_map.values)
    below = y < np.maximum.accumulate(y, axis=1)
    edge = np.zeros((below.shape[0], 1), dtype=bool)
    left = np.hstack((edge, below[:, :-1]))
    right = np.hstack((below[:, 1:], edge))
    flags = (below ^ left) | (below ^ right)
    # Epsilon rule: a run that reaches the row end, or whose successor
    # jumps by more than epsilon, keeps only its leading boundary pair.
    flags[:, -1:] &= ~below[:, -1:]
    rows, ends = np.nonzero(below[:, :-1] & ~below[:, 1:])
    far = y[rows, ends + 1] - y[rows, ends] > epsilon
    rows, ends = rows[far], ends[far]
    flags[rows, ends] = False
    flags[rows, ends + 1] = False
    return DiscontinuityMask(flags.astype(np.uint8))


def _loss_terms(d_hat, d_gt, mask, p):
    if d_hat.values.shape != d_gt.values.shape:
        raise ValueError("disparity map dimensions differ")
    if mask.flags.shape != d_gt.values.shape:
        raise ValueError("mask dimensions differ")
    valid = d_gt.valid
    if not valid.any():
        raise ValueError("no valid ground-truth pixels")
    diff = d_hat.values - d_gt.values
    factor = 1.0 - p.lam * mask.flags
    weighted = np.abs(diff)
    weighted *= factor
    clamped = np.maximum(p.tau, weighted)
    return valid, diff, factor, weighted, clamped


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
    valid, _, _, _, clamped = _loss_terms(d_hat, d_gt, mask, p)
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
    valid, diff, factor, weighted, clamped = _loss_terms(d_hat, d_gt, mask, p)
    active = valid & (weighted > p.tau)
    sign = np.sign(diff, out=diff)
    # Inactive pixels may hold u = 0 (tau = 0, zero error): their inf/nan
    # is discarded by the where, so its warnings are silenced.
    with np.errstate(divide="ignore", invalid="ignore"):
        grad = LOSS_EXPONENT * clamped ** (LOSS_EXPONENT - 1.0) * factor * sign
    return np.where(active, grad, 0.0)
