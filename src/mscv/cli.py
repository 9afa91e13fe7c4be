"""Command-line entry point and synthetic stereo-pair generation.

Commands: synth | trad-match | infer | mask | loss | eval | init-weights |
describe.  Each command's options are its handler's parameters: one
without a default is a required path option, and any other keeps the
parameter's default.  Status lines (``config:``, ``wrote ...``, ``error:``)
go to stderr and results to stdout, so an output may be ``/dev/stdout``.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import numpy as np

from mscv.costvol import CENSUS_BITS, traditional_costs
# Unused here: perfbench/test_perfbench.py looks up mscv.cli.census_transform.
from mscv.costvol import census_transform  # noqa: F401
from mscv.disparity import (
    DiscontinuityMask,
    LossParams,
    discontinuity_mask,
    loss_eval,
)
from mscv.imagekit import (
    MAX_DISPARITY,
    DisparityMap,
    Image,
    read_image,
    read_pfm,
    write_image,
    write_pfm,
    write_pnm,
)
from mscv.metrics import evaluate


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def parse_plan(plan: str, width: int) -> list[tuple[int, int, int]]:
    """Parse "x0:x1:d,..." (or a single "d" covering the full width)."""
    plan = plan.strip()
    listed = ":" in plan
    regions = []
    for part in plan.split(",") if listed else [plan]:
        try:
            x0, x1, d = map(int, part.split(":") if listed else (0, width, part))
        except ValueError:  # not an integer, or not three of them
            want = "x0:x1:d" if listed else "d"
            raise ValueError(f"bad plan region {part!r} (want {want})") from None
        regions.append((x0, x1, d))
    cursor = 0
    for x0, x1, _ in regions:
        if x0 != cursor or x1 <= x0:
            raise ValueError("plan regions must tile [0, width) in order")
        cursor = x1
    if cursor != width:
        raise ValueError(f"plan covers [0, {cursor}), image width is {width}")
    return regions


def generate_synthetic_pair(
    seed: int, width: int, height: int, plan: list[tuple[int, int, int]]
) -> tuple[Image, Image, DisparityMap]:
    """Random-texture stereo pair with exact piecewise-constant disparity.

    The right image is an iid random field; the left image samples it
    at x - d(x).  Out-of-range and occluded left pixels hold 0 in the
    ground truth, so ``DisparityMap``'s validity rule marks them invalid.
    """
    if seed < 0:
        raise ValueError("seed must be >= 0")
    for x0, x1, d in plan:
        if d < 0 or d >= MAX_DISPARITY:
            raise ValueError(f"region disparity {d} outside [0, {MAX_DISPARITY})")
        if d >= x1 - x0:
            raise ValueError(f"region disparity {d} >= region extent {x1 - x0}")
    rng = np.random.default_rng(seed)
    right = rng.random((3, height, width))
    d_of_x = np.zeros(width, dtype=np.int64)
    for x0, x1, d in plan:
        d_of_x[x0:x1] = d
    xs = np.arange(width)
    src = xs - d_of_x
    in_range = src >= 0
    left = np.empty_like(right)
    left[:, :, in_range] = right[:, :, src[in_range]]
    # Out-of-range columns get fresh noise so they stay textured.
    left[:, :, ~in_range] = rng.random((3, height, int((~in_range).sum())))
    # A left pixel is occluded when its warped coordinate does not
    # exceed every coordinate to its left.
    y = xs.astype(np.float64) - d_of_x
    running = np.concatenate(([-np.inf], np.maximum.accumulate(y)[:-1]))
    visible = in_range & (y > running)
    gt = DisparityMap(np.broadcast_to(np.where(visible, d_of_x, 0), (height, width)))
    return Image(left), Image(right), gt


# ---------------------------------------------------------------------------
# Pipeline pieces shared by commands
# ---------------------------------------------------------------------------


def traditional_match(left: Image, right: Image) -> DisparityMap:
    """Census + chroma-AD WTA baseline at half resolution.

    Census alone produces zero-cost collisions wherever two window
    centers are both local extrema, so the chroma AD costs are summed
    in (census normalized to [0,1]) to disambiguate.  The winner is kept
    as a running minimum over the cost planes of each row band; the
    strict ``<`` leaves ties with the smaller disparity, as ``np.argmin``
    does.  The candidates are costvol's ``DEPTH`` half-scale disparities,
    so the argmin map is uint8; since d exceeds every earlier candidate,
    the running maximum of ``better * d`` puts d exactly where plane d
    won.  On a pair narrower than DEPTH half-scale columns W, planes with
    d >= W hold only the maximum cost (1 + 1 + 1), which never wins.
    Output values are in full-resolution pixel units (uint8, at most
    190); nearest-neighbor upsampling back to the input dimensions.
    """
    left_half, costs = traditional_costs(left, right)
    w = left_half.width
    half = np.zeros((left_half.height, w), dtype=np.uint8)
    for y0, d, (c, u, v) in costs:
        c /= CENSUS_BITS  # the stream lets its consumer overwrite a plane
        c += u
        c += v
        if d == 0:
            best, better = c.copy(), np.empty(c.shape, dtype=bool)
            step = np.empty(c.shape, dtype=half.dtype)
            arg = half[y0 : y0 + len(c)]
            continue
        np.less(c, best, out=better)
        np.minimum(best, c, out=best)
        np.maximum(arg, np.multiply(better, d, out=step, dtype=step.dtype), out=arg)
    # One write upsamples; half-scale candidates count 2 full-resolution
    # pixels, at most 2 * (DEPTH - 1) = 190.  DisparityMap widens them.
    full = np.empty((len(half), 2, w, 2), dtype=np.uint8)
    np.multiply(half[:, None, :, None], 2, out=full, dtype=full.dtype)
    values = full.reshape(2 * len(half), 2 * w)[: left.height, : left.width]
    return DisparityMap(values, valid=np.ones_like(values, dtype=bool))


def disparity_to_pgm(dmap: DisparityMap, path) -> None:
    """8-bit visualization: disparity / MAX_DISPARITY, invalid = 0."""
    vis = np.rint(np.clip(dmap.values / MAX_DISPARITY, 0, 1) * 255)  # invalid pixels hold 0
    write_pnm(vis.astype(np.uint8)[:, :, None], path)


def mask_to_pgm(mask: DiscontinuityMask, path) -> None:
    """Write a 0/255 PGM of the discontinuity flags."""
    write_pnm(np.where(mask.flags, np.uint8(255), np.uint8(0))[:, :, None], path)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _cmd_synth(out: str, seed: int = 0, width: int = 512, height: int = 256,
               plan: str = "8") -> None:
    if width < 1 or height < 1:
        raise ValueError("width and height must be >= 1")
    left, right, gt = generate_synthetic_pair(seed, width, height, parse_plan(plan, width))
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    write_image(left, out / "left.ppm")
    write_image(right, out / "right.ppm")
    write_pfm(gt, out / "gt.pfm")
    print(f"wrote {out}/left.ppm {out}/right.ppm {out}/gt.pfm", file=sys.stderr)


def _cmd_trad_match(left: str, right: str, out: str) -> None:
    dmap = traditional_match(read_image(left), read_image(right))
    write_pfm(dmap, out)
    vis_path = out + ".pgm"
    disparity_to_pgm(dmap, vis_path)
    print(f"wrote {out} and {vis_path}", file=sys.stderr)


def _cmd_infer(left: str, right: str, weights: str, out: str, threads: int = 1) -> None:
    from mscv.network import full_forward, load_weights, validate_store
    left_img = read_image(left)
    right_img = read_image(right)
    store = load_weights(weights)
    validate_store(store)
    dmap = full_forward(left_img, right_img, store, threads=threads)
    write_pfm(dmap, out)
    print(f"wrote {out}", file=sys.stderr)


def _cmd_mask(gt: str, out: str, epsilon: float = 3.0) -> None:
    mask = discontinuity_mask(read_pfm(gt), epsilon)
    mask_to_pgm(mask, out)
    print(f"wrote {out} ({int(mask.flags.sum())} flagged pixels)", file=sys.stderr)


def _cmd_loss(pred: str, gt: str, epsilon: float = 3.0, tau: float = 1.0,
              lam: float = 0.5) -> None:
    pred_map = read_pfm(pred)
    gt_map = read_pfm(gt)
    mask = discontinuity_mask(gt_map, epsilon)
    mean, _ = loss_eval(pred_map, gt_map, mask, LossParams(tau=tau, lam=lam))
    print(f"loss={mean:.6f}")


def _cmd_eval(pred: str, gt: str, kitti_rule: bool = False) -> None:
    report = evaluate(read_pfm(pred), read_pfm(gt), kitti_rule=kitti_rule)
    print(report.as_text())
    print(report.as_keyvalues())


def _cmd_init_weights(out: str, seed: int = 0) -> None:
    from mscv.network import init_weights, save_weights
    store = init_weights(seed)
    save_weights(store, out)
    print(f"wrote {out} ({sum(a.size for a in store.values())} parameters)", file=sys.stderr)


def _cmd_describe() -> None:
    from mscv.network import describe_architecture
    print(describe_architecture())


# Each command's handler.  Its parameters are the command's options, in the
# order ``--help`` lists them.
_HANDLERS = {
    "synth": _cmd_synth,
    "trad-match": _cmd_trad_match,
    "infer": _cmd_infer,
    "mask": _cmd_mask,
    "loss": _cmd_loss,
    "eval": _cmd_eval,
    "init-weights": _cmd_init_weights,
    "describe": _cmd_describe,
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser():
    """The argparse parser: a subparser per command with one ``--option`` per
    parameter of its handler (``--lambda`` sets ``lam``).  A parameter without
    a default is a required path, a ``bool`` default is a switch, and any
    other is typed and defaulted as its default."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="mscv", description="Multi-scale cost-volume stereo matching."
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, handler in _HANDLERS.items():
        sub = commands.add_parser(command)
        for name, param in inspect.signature(handler).parameters.items():
            default = param.default
            kind = ({"type": str, "required": True} if default is param.empty else
                    {"action": "store_true"} if isinstance(default, bool) else
                    {"type": type(default), "default": default})
            option = "lambda" if name == "lam" else name.replace("_", "-")
            sub.add_argument(f"--{option}", dest=name, **kind)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command (``argv`` defaults to ``sys.argv[1:]``) after printing
    its options to stderr as ``config: <command> name=value ...``; returns
    the exit status (argparse's 2 on bad usage)."""
    try:
        args = vars(build_parser().parse_args(argv))
        command = args.pop("command")
        print("config:", command, *(f"{k}={v!r}" for k, v in args.items()), file=sys.stderr)
        _HANDLERS[command](**args)
        return 0
    except SystemExit as exc:  # argparse --help / bad usage
        return int(exc.code or 0)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
