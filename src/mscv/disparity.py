"""Discontinuity masking and the training loss.

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
        if not 0.0 <= self.tau < np.inf:
            raise ValueError("tau must be >= 0 and finite")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must be in [0, 1]")


@dataclass
class DiscontinuityMask:
    """Per-pixel 0/1 flags marking disparity-discontinuity boundaries."""

    flags: np.ndarray  # uint8, (H, W)


def discontinuity_mask(d_map: DisparityMap, epsilon: float = 3.0) -> DiscontinuityMask:
    """Flag disparity-discontinuity boundary pixels of the whole map at once."""
    if not epsilon >= 0:
        raise ValueError("epsilon must be >= 0")
    y = np.arange(d_map.width) - d_map.values  # warped coordinates Y(x) = x - d(x)
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
    return DiscontinuityMask(flags.view(np.uint8))


def _weighted_error(d_hat, d_gt, mask, p):
    """|d_hat - d_gt| * factor and factor = 1 - lambda * mask, two new maps."""
    if d_hat.values.shape != d_gt.values.shape:
        raise ValueError("disparity map dimensions differ")
    if mask.flags.shape != d_gt.values.shape:
        raise ValueError("mask dimensions differ")
    if not d_gt.valid.any():
        raise ValueError("no valid ground-truth pixels")
    weighted = np.subtract(d_hat.values, d_gt.values)
    np.abs(weighted, out=weighted)
    factor = np.multiply(p.lam, mask.flags, dtype=np.float64)
    np.subtract(1.0, factor, out=factor)
    weighted *= factor
    return weighted, factor


def loss_eval(
    d_hat: DisparityMap,
    d_gt: DisparityMap,
    mask: DiscontinuityMask,
    p: LossParams = LossParams(),
) -> tuple[float, np.ndarray]:
    """Mean and per-pixel loss over valid ground-truth pixels.

    Per pixel: max(tau, |d_gt - d_hat| * (1 - lambda * mask)) ** (1/8).
    Invalid pixels carry 0 in the per-pixel map where the prediction is
    finite (non-finite values give NaN there) and are excluded from the
    mean.
    """
    per_pixel = _weighted_error(d_hat, d_gt, mask, p)[0]
    np.maximum(p.tau, per_pixel, out=per_pixel)
    np.power(per_pixel, LOSS_EXPONENT, out=per_pixel)
    per_pixel *= d_gt.valid  # >= 0, so finite invalid pixels become +0.0
    return float(per_pixel[d_gt.valid].mean()), per_pixel


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
    grad, factor = _weighted_error(d_hat, d_gt, mask, p)
    active = (grad > p.tau) & d_gt.valid
    # Active pixels have u = weighted > tau >= 0 and pass the clamp unchanged;
    # its floor at the least positive double keeps the others finite (u = 0
    # gives inf), so * active zeroes them, and + 0.0 turns -0.0 into +0.0.
    np.maximum(max(p.tau, np.nextafter(0.0, 1.0)), grad, out=grad)
    np.power(grad, LOSS_EXPONENT - 1.0, out=grad)
    grad *= LOSS_EXPONENT
    grad *= factor
    np.copysign(grad, np.subtract(d_hat.values, d_gt.values, out=factor), out=grad)
    grad *= active
    grad += 0.0
    return grad
