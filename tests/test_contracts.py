"""Each library value check raises ``ValueError`` with its own message.

These are the checks that guard the public types and kernels against a
direct caller; the pipeline itself never trips them, so no other test
reaches them.
"""

import re

import numpy as np
import pytest

from mscv.costvol import CostVolume
from mscv.disparity import DiscontinuityMask, loss_eval
from mscv.imagekit import DisparityMap, Image
from mscv.network import hourglass_forward
from mscv.tensorops import ConvParams, conv2d, deconv2d_s2

MAP = DisparityMap(np.full((4, 6), 2.0))
CONV = ConvParams(np.zeros((2, 3, 3, 3)), np.zeros(2))

CASES = {
    "image-shape": (lambda: Image(np.zeros((2, 4, 6))),
                    "image must be (1|3, H, W), got (2, 4, 6)"),
    "image-nan": (lambda: Image(np.full((1, 4, 6), np.nan)), "image samples must be finite"),
    "map-3d": (lambda: DisparityMap(np.zeros((1, 4, 6))), "disparity values must be 2-D"),
    "map-valid-shape": (lambda: DisparityMap(np.zeros((4, 6)), valid=np.ones((4, 5), bool)),
                        "validity mask shape mismatch"),
    "loss-mask-shape": (lambda: loss_eval(MAP, MAP, DiscontinuityMask(np.zeros((4, 5), np.uint8))),
                        "mask dimensions differ"),
    "cost-volume-rank": (lambda: CostVolume(np.zeros((4, 6))), "cost volume must be (D, H, W)"),
    "hourglass-stage": (lambda: hourglass_forward(np.zeros((32, 4, 4)), [], {}, 3),
                        "stage must be 1 or 2"),
    "conv-weights-3d": (lambda: ConvParams(np.zeros((2, 3, 3)), np.zeros(2)),
                        "conv weights must be (O, I, kh, kw)"),
    "conv-bias-short": (lambda: ConvParams(np.zeros((2, 3, 3, 3)), np.zeros(1)),
                        "bias length must equal out_channels"),
    "conv2d-2d-input": (lambda: conv2d(np.zeros((4, 6)), CONV), "input must be (C, H, W)"),
    "conv2d-stride-3": (lambda: conv2d(np.zeros((3, 4, 6)),
                                       ConvParams(CONV.weights, CONV.bias, 3)),
                        "stride must be 1 or 2"),
    "deconv-channels": (lambda: deconv2d_s2(np.zeros((3, 4, 6)),
                                            ConvParams(np.zeros((2, 4, 2, 2)), np.zeros(2), 2)),
                        "channel mismatch: input 3, params 4"),
}


@pytest.mark.parametrize("call,message", CASES.values(), ids=CASES.keys())
def test_check_raises_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
