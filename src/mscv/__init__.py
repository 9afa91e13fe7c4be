"""Stereo matching with multi-scale cost volumes.

Combines traditional matching costs (census transform + absolute
difference) with CNN correlation features, aggregates them through a
guided cascade hourglass network, and evaluates disparity maps with
KITTI-style metrics.  Pure numpy, CPU only, inference only.

The network stack (``network`` and the ``tensorops`` engine under it)
loads on first use, as ``mscv.network`` or one of its exported names,
so commands that need no network start without it.
"""

import importlib

from mscv.imagekit import (
    DisparityMap,
    Image,
    MAX_DISPARITY,
    mean_pool_2x,
    pad_reflect,
    read_image,
    read_pfm,
    rgb_to_yuv,
    write_image,
    write_pfm,
)
from mscv.costvol import (
    CostVolume,
    census_transform,
    correlate_1d,
    traditional_costs,
)
from mscv.disparity import (
    DiscontinuityMask,
    LossParams,
    discontinuity_mask,
    loss_eval,
    loss_grad,
)
from mscv.metrics import EvalReport, evaluate

_NETWORK_NAMES = ("describe_architecture", "full_forward", "init_weights", "load_weights",
                  "save_weights")


def __getattr__(name):
    if name in ("network", "tensorops"):
        return importlib.import_module(f"mscv.{name}")
    if name in _NETWORK_NAMES:
        return getattr(importlib.import_module("mscv.network"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CostVolume",
    "DiscontinuityMask",
    "DisparityMap",
    "EvalReport",
    "Image",
    "LossParams",
    "MAX_DISPARITY",
    "census_transform",
    "correlate_1d",
    "describe_architecture",
    "discontinuity_mask",
    "evaluate",
    "full_forward",
    "init_weights",
    "load_weights",
    "loss_eval",
    "loss_grad",
    "mean_pool_2x",
    "pad_reflect",
    "read_image",
    "read_pfm",
    "rgb_to_yuv",
    "save_weights",
    "traditional_costs",
    "write_image",
    "write_pfm",
]

__version__ = "0.1.0"
