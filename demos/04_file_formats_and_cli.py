"""Round-trip the on-disk formats and drive the command-line interface.

Writes a PPM stereo pair and a PFM ground-truth map, then invokes the
`mscv` CLI the way a shell user would: synthesize, match, mask, and
evaluate.

Run:  python3 demos/04_file_formats_and_cli.py
"""

import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from mscv.imagekit import DisparityMap, Image, read_pfm, write_image, write_pfm


def run(*args):
    cmd = [sys.executable, "-m", "mscv.cli", *map(str, args)]
    print("$ mscv", " ".join(map(str, args)))
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    # Status lines (config:, wrote ...) go to stderr, results to stdout.
    print((out.stderr + out.stdout).rstrip(), "\n")


def main():
    with tempfile.TemporaryDirectory(prefix="mscv-demo-") as name:
        walkthrough(Path(name))


def walkthrough(tmp):
    rng = np.random.default_rng(3)

    # PFM round trip is bit-exact for float32 payloads.
    gt = DisparityMap(rng.random((60, 80)).astype(np.float32) * 100 + 1)
    write_pfm(gt, tmp / "gt.pfm")
    back = read_pfm(tmp / "gt.pfm")
    print("pfm round trip exact:", bool((back.values == gt.values).all()))

    img = Image(rng.integers(0, 256, (3, 60, 80)) / 255.0)
    write_image(img, tmp / "probe.ppm")
    print("wrote", tmp / "probe.ppm", "\n")

    pair = tmp / "pair"
    run("synth", "--seed", 5, "--width", 256, "--height", 128,
        "--plan", "0:128:8,128:256:20", "--out", pair)
    run("trad-match", "--left", pair / "left.ppm", "--right", pair / "right.ppm",
        "--out", pair / "pred.pfm")
    run("mask", "--gt", pair / "pred.pfm", "--epsilon", 3.0,
        "--out", pair / "mask.pgm")
    run("eval", "--pred", pair / "pred.pfm", "--gt", pair / "gt.pfm")


if __name__ == "__main__":
    main()
