"""Stereo matching with multi-scale cost volumes.

Combines traditional matching costs (census transform + absolute
difference) with CNN correlation features, aggregates them through a
guided cascade hourglass network, and evaluates disparity maps with
KITTI-style metrics.  Pure numpy, CPU only, inference only.
"""

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
    yuv_to_rgb,
)
from mscv.costvol import (
    CostVolume,
    ad_cost_volume,
    census_transform,
    correlate_1d,
    hamming_cost_volume,
    traditional_costs,
)
from mscv.disparity import (
    DiscontinuityMask,
    LossParams,
    discontinuity_mask,
    loss_eval,
    loss_grad,
    warp_row,
    wta_disparity,
)
from mscv.metrics import EvalReport, d1_metrics, epe, evaluate, outlier_rate
from mscv.network import (
    WeightStore,
    describe_architecture,
    full_forward,
    init_weights,
    load_weights,
    save_weights,
)

__all__ = [
    "CostVolume",
    "DiscontinuityMask",
    "DisparityMap",
    "EvalReport",
    "Image",
    "LossParams",
    "MAX_DISPARITY",
    "WeightStore",
    "ad_cost_volume",
    "census_transform",
    "correlate_1d",
    "d1_metrics",
    "describe_architecture",
    "discontinuity_mask",
    "epe",
    "evaluate",
    "full_forward",
    "hamming_cost_volume",
    "init_weights",
    "load_weights",
    "loss_eval",
    "loss_grad",
    "mean_pool_2x",
    "outlier_rate",
    "pad_reflect",
    "read_image",
    "read_pfm",
    "rgb_to_yuv",
    "save_weights",
    "traditional_costs",
    "warp_row",
    "write_image",
    "write_pfm",
    "wta_disparity",
    "yuv_to_rgb",
]

__version__ = "0.1.0"
