"""Command-line entry point and synthetic stereo-pair generation.

Commands: synth | trad-match | infer | mask | loss | eval | init-weights |
describe.  Each command takes only the ``--option``s its handler reads;
a path option is required, and any other keeps its ``RunConfig`` default.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
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
    pad_reflect,
    read_image,
    read_pfm,
    write_image,
    write_pfm,
    write_pnm,
)
from mscv.metrics import evaluate


class ConfigError(ValueError):
    """Raised on an invalid run configuration."""


@dataclass
class RunConfig:
    command: str
    left: str | None = None
    right: str | None = None
    gt: str | None = None
    pred: str | None = None
    weights: str | None = None
    out: str | None = None
    epsilon: float = 3.0
    tau: float = 1.0
    lam: float = 0.5
    seed: int = 0
    threads: int = 1
    width: int = 512
    height: int = 256
    plan: str = "8"
    kitti_rule: bool = False

    def __post_init__(self):
        if self.command not in _HANDLERS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.width < 1 or self.height < 1:
            raise ConfigError("width and height must be >= 1")


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
            raise ConfigError(f"bad plan region {part!r} (want {want})") from None
        regions.append((x0, x1, d))
    cursor = 0
    for x0, x1, _ in regions:
        if x0 != cursor or x1 <= x0:
            raise ConfigError("plan regions must tile [0, width) in order")
        cursor = x1
    if cursor != width:
        raise ConfigError(f"plan covers [0, {cursor}), image width is {width}")
    return regions


def generate_synthetic_pair(
    seed: int, width: int, height: int, plan: list[tuple[int, int, int]]
) -> tuple[Image, Image, DisparityMap]:
    """Random-texture stereo pair with exact piecewise-constant disparity.

    The right image is an iid random field; the left image samples it
    at x - d(x).  Out-of-range and occluded left pixels hold 0 in the
    ground truth, so ``DisparityMap``'s validity rule marks them invalid.
    """
    for x0, x1, d in plan:
        if d < 0 or d >= MAX_DISPARITY:
            raise ConfigError(f"region disparity {d} outside [0, {MAX_DISPARITY})")
        if d >= x1 - x0:
            raise ConfigError(f"region disparity {d} >= region extent {x1 - x0}")
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
    if left.data.shape != right.data.shape:  # padding could make them agree
        raise ValueError("stereo pair dimensions differ")
    left_p, orig = pad_reflect(left, 2)
    right_p, _ = pad_reflect(right, 2)
    left_half, costs = traditional_costs(left_p, right_p)
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
    values = full.reshape(2 * len(half), 2 * w)[: orig[0], : orig[1]]
    return DisparityMap(values, valid=np.ones_like(values, dtype=bool))


def disparity_to_pgm(dmap: DisparityMap, path) -> None:
    """8-bit visualization: disparity / MAX_DISPARITY, invalid = 0."""
    vis = np.clip(dmap.values / MAX_DISPARITY, 0.0, 1.0)  # invalid pixels hold 0
    write_image(Image(vis[None]), path)


def mask_to_pgm(mask: DiscontinuityMask, path) -> None:
    """Write a 0/255 PGM of the discontinuity flags."""
    write_pnm(np.where(mask.flags, np.uint8(255), np.uint8(0))[:, :, None], path)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _cmd_synth(cfg: RunConfig) -> None:
    plan = parse_plan(cfg.plan, cfg.width)
    left, right, gt = generate_synthetic_pair(cfg.seed, cfg.width, cfg.height, plan)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    write_image(left, out / "left.ppm")
    write_image(right, out / "right.ppm")
    write_pfm(gt, out / "gt.pfm")
    print(f"wrote {out}/left.ppm {out}/right.ppm {out}/gt.pfm")


def _cmd_trad_match(cfg: RunConfig) -> None:
    left = read_image(cfg.left)
    right = read_image(cfg.right)
    dmap = traditional_match(left, right)
    write_pfm(dmap, cfg.out)
    vis_path = str(cfg.out) + ".pgm"
    disparity_to_pgm(dmap, vis_path)
    print(f"wrote {cfg.out} and {vis_path}")


def _cmd_infer(cfg: RunConfig) -> None:
    from mscv.network import full_forward, load_weights, validate_store
    left = read_image(cfg.left)
    right = read_image(cfg.right)
    store = load_weights(cfg.weights)
    validate_store(store)
    dmap = full_forward(left, right, store, threads=cfg.threads)
    write_pfm(dmap, cfg.out)
    print(f"wrote {cfg.out}")


def _cmd_mask(cfg: RunConfig) -> None:
    dmap = read_pfm(cfg.gt)
    mask = discontinuity_mask(dmap, cfg.epsilon)
    mask_to_pgm(mask, cfg.out)
    print(f"wrote {cfg.out} ({int(mask.flags.sum())} flagged pixels)")


def _cmd_loss(cfg: RunConfig) -> None:
    pred = read_pfm(cfg.pred)
    gt = read_pfm(cfg.gt)
    mask = discontinuity_mask(gt, cfg.epsilon)
    params = LossParams(tau=cfg.tau, lam=cfg.lam)
    mean, _ = loss_eval(pred, gt, mask, params)
    print(f"loss={mean:.6f}")


def _cmd_eval(cfg: RunConfig) -> None:
    pred = read_pfm(cfg.pred)
    gt = read_pfm(cfg.gt)
    report = evaluate(pred, gt, kitti_rule=cfg.kitti_rule)
    print(report.as_text())
    print(report.as_keyvalues())


def _cmd_init_weights(cfg: RunConfig) -> None:
    from mscv.network import init_weights, save_weights
    store = init_weights(cfg.seed)
    save_weights(store, cfg.out)
    print(f"wrote {cfg.out} ({store.param_count()} parameters)")


def _cmd_describe(cfg: RunConfig) -> None:
    from mscv.network import describe_architecture
    print(describe_architecture())


# Each command's handler and the options it takes, which are exactly the
# ``RunConfig`` fields the handler reads, in the order ``--help`` lists them.
_HANDLERS = {
    "synth": (_cmd_synth, ("out", "seed", "width", "height", "plan")),
    "trad-match": (_cmd_trad_match, ("left", "right", "out")),
    "infer": (_cmd_infer, ("left", "right", "weights", "out", "threads")),
    "mask": (_cmd_mask, ("gt", "out", "epsilon")),
    "loss": (_cmd_loss, ("pred", "gt", "epsilon", "tau", "lam")),
    "eval": (_cmd_eval, ("pred", "gt", "kitti_rule")),
    "init-weights": (_cmd_init_weights, ("out", "seed")),
    "describe": (_cmd_describe, ()),
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

_OPTION_NAMES = {"lam": "lambda"}  # fields whose option is not the field name
_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def _option(name: str) -> str:
    return _OPTION_NAMES.get(name, name).replace("_", "-")


def build_parser():
    """The argparse parser: a subparser per command taking its ``_HANDLERS``
    options, typed and defaulted as the field; a path (None default) is required."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="mscv", description="Multi-scale cost-volume stereo matching."
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (_, names) in _HANDLERS.items():
        sub = commands.add_parser(command)
        for name in names:
            default = _DEFAULTS[name]
            kind = ({"action": "store_true"} if isinstance(default, bool) else
                    {"type": str, "required": True} if default is None else {"type": type(default)})
            sub.add_argument(f"--{_option(name)}", dest=name, default=default, **kind)
    return parser


def config_from_args(argv: list[str]) -> RunConfig:
    """The RunConfig that the command line ``argv`` states."""
    return RunConfig(**vars(build_parser().parse_args(argv)))


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns the exit status (argparse's 2 on bad usage)."""
    try:
        cfg = config_from_args(argv if argv is not None else sys.argv[1:])
        print(f"config: {cfg}")
        _HANDLERS[cfg.command][0](cfg)
        return 0
    except SystemExit as exc:  # argparse --help / bad usage
        return int(exc.code or 0)
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
