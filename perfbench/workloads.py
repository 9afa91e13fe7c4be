"""The three benchmark workloads.

Each workload is a closed loop with one client: the next item starts
when the previous one returns.  ``generate`` builds every input from the
seed before anything is timed; ``setup`` loads what the items need and
is what ``setup_s`` measures (its ``setup_snippet`` repeats it in a
fresh interpreter); ``item(key)`` is the timed unit of work.  The runner calls
``item`` on ``warmup_keys`` before timing, on ``timed_key(0)``,
``timed_key(1)``, ... while timing, and on ``finish_keys`` after it;
``check`` runs on every result outside the timer and returns a problem
description or None.  ``probe`` names the host-speed probe that scales
the workload's item times (see ``hostspeed``).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks
import inputs

HERE = Path(__file__).resolve().parent
EXPECTED_D1 = HERE / "expected_d1.json"


class NetKitti:
    """The paper's main path: the multi-scale cost-volume network.

    Each timed item is a distinct 376x1240 frame.  A 96x320 frame warms
    every code path up (a full-size warm-up would cost a whole item and
    showed no first-call penalty) and runs again after the timed phase,
    where it must give a bit-identical output.  So determinism is checked
    without a frame repeating inside the timed phase, where a result
    cache would look like a speed-up.
    """

    name = "net_kitti"
    why = "full_forward(threads=1) on 376x1240 pairs: tensorops conv2d dominates, costvol is a small share"
    probe = "memory"
    FRAMES = 4  # frame 0 (small) warms up and is repeated; 1.. are timed

    def generate(self, seed: int, workdir: Path, mscv) -> None:
        rng = np.random.default_rng([seed, 1])
        self.frames = []
        for i in range(self.FRAMES):
            left, right, _, _ = inputs.stereo_pair(rng, *((96, 320) if i == 0 else ()))
            self.frames.append(
                (mscv.imagekit.Image(left.transpose(2, 0, 1) / 255.0),
                 mscv.imagekit.Image(right.transpose(2, 0, 1) / 255.0))
            )
        self.weights_path = workdir / "weights.mscv1"
        mscv.network.save_weights(mscv.network.init_weights(seed), self.weights_path)
        self.digests: dict[int, str] = {}
        self.warmup_keys, self.finish_keys = [0], [0]

    def setup_snippet(self) -> str:
        return (
            f"store = mscv.network.load_weights({str(self.weights_path)!r})\n"
            "mscv.network.validate_store(store)\n"
        )

    def setup(self, mscv) -> None:
        self.mscv = mscv
        self.store = mscv.network.load_weights(self.weights_path)
        mscv.network.validate_store(self.store)

    def item(self, frame: int):
        left, right = self.frames[frame]
        return frame, self.mscv.network.full_forward(left, right, self.store, threads=1)

    def timed_key(self, k: int) -> int:
        return 1 + k % (self.FRAMES - 1)

    def check(self, result) -> str | None:
        frame, dmap = result
        shape = self.frames[frame][0].data.shape[1:]
        if dmap.values.shape != shape:
            return f"frame {frame}: output shape {dmap.values.shape}, input {shape}"
        if not np.isfinite(dmap.values).all():
            return f"frame {frame}: non-finite disparity"
        d = inputs.digest(dmap.values, dmap.valid)
        first = self.digests.setdefault(frame, d)
        if d != first:
            return f"frame {frame}: output digest {d[:12]} differs from {first[:12]}"
        return None

    def extras(self) -> dict:
        return {}


class ClassicFiles:
    """File-to-file classical matching: ``mscv trad-match`` + ``mscv eval``.

    Pairs come from a fixed library of 64; the seed picks which 24 are
    timed, in which order, and a 33rd for warm-up.  The D1-all of every
    library pair is recorded in ``expected_d1.json`` and each item must
    reproduce it exactly.
    """

    name = "classic_files"
    why = "read_image x2, traditional_match, PFM write/read, evaluate: costvol census/AD and imagekit codecs dominate; no conv"
    probe = "memory"
    LIBRARY, POOL = 64, 32

    def generate(self, seed: int, workdir: Path, mscv) -> None:
        order = np.random.default_rng([seed, 2]).permutation(self.LIBRARY)
        self.pool = [int(i) for i in order[: self.POOL]]
        self.warm = int(order[self.POOL])
        self.files, self.valid_px = {}, {}
        for lib in self.pool + [self.warm]:
            self.files[lib], self.valid_px[lib] = write_library_pair(lib, workdir)
        self.pred_path = workdir / "pred.pfm"
        self.expected = json.loads(EXPECTED_D1.read_text())["d1_all"]
        self.d1_all_pct = None
        # The first traditional_match call costs about twice a steady one.
        self.warmup_keys, self.finish_keys = [self.warm, self.warm], []

    def setup_snippet(self) -> str:
        return ""

    def setup(self, mscv) -> None:
        self.mscv = mscv

    def item(self, lib: int):
        m = self.mscv
        left_path, right_path, gt_path = self.files[lib]
        left = m.imagekit.read_image(left_path)
        right = m.imagekit.read_image(right_path)
        pred = m.cli.traditional_match(left, right)
        m.imagekit.write_pfm(pred, self.pred_path)
        report = m.metrics.evaluate(
            m.imagekit.read_pfm(self.pred_path), m.imagekit.read_pfm(gt_path)
        )
        return lib, report

    def timed_key(self, k: int) -> int:
        return self.pool[k % self.POOL]

    def check(self, result) -> str | None:
        lib, report = result
        if report.valid_count != self.valid_px[lib]:
            return f"pair {lib}: valid_px {report.valid_count} != {self.valid_px[lib]}"
        if report.d1_all != self.expected[lib]:
            return f"pair {lib}: d1_all {report.d1_all!r} != recorded {self.expected[lib]!r}"
        if lib == self.warm:
            self.d1_all_pct = report.d1_all
        return None

    def extras(self) -> dict:
        # D1-all of the seed's warm-up pair: deterministic per seed.
        return {"d1_all_pct": self.d1_all_pct}


def write_library_pair(lib: int, workdir: Path) -> tuple[tuple[Path, Path, Path], int]:
    """Write library pair ``lib`` as PPM/PPM/PFM; return paths and valid px."""
    left, right, gt, valid = inputs.stereo_pair(np.random.default_rng([2102_01940, lib]))
    paths = (workdir / f"left-{lib}.ppm", workdir / f"right-{lib}.ppm", workdir / f"gt-{lib}.pfm")
    inputs.write_ppm(left, paths[0])
    inputs.write_ppm(right, paths[1])
    inputs.write_pfm(gt, paths[2])
    return paths, int(valid.sum())


class LossMasks:
    """Training-target preparation on sparse, row-varying ground truth.

    Each item: read GT and prediction PFMs, discontinuity mask, mask
    written as PGM, loss, loss gradient, evaluation.  Every ground truth
    in the pool is distinct and so is every row within it, so neither a
    row cache nor a map cache gets hits at the seed's speed.
    """

    name = "loss_masks"
    why = "read_pfm, discontinuity_mask, mask PGM, loss_eval, loss_grad, evaluate: disparity and metrics dominate; no costvol"
    probe = "python"
    POOL = 64
    CHECK_ROWS = 12
    EPSILON = 3.0

    def generate(self, seed: int, workdir: Path, mscv) -> None:
        rng = np.random.default_rng([seed, 3])
        self.items = []
        for i in range(self.POOL + 1):  # the last one is for warm-up
            gt = inputs.sparse_ground_truth(rng)
            pred = inputs.perturbed_prediction(rng, gt)
            gt_path, pred_path = workdir / f"gt-{i}.pfm", workdir / f"pred-{i}.pfm"
            inputs.write_pfm(gt, gt_path)
            inputs.write_pfm(pred, pred_path)
            rows = np.sort(rng.choice(inputs.HEIGHT, self.CHECK_ROWS, replace=False))
            expected = np.stack([checks.mask_row_oracle(gt[r], self.EPSILON) for r in rows])
            self.items.append((gt_path, pred_path, rows, expected, int((gt != 0).sum())))
        self.mask_path = workdir / "mask.pgm"
        self.mask_bytes = len(b"P5\n%d %d\n255\n" % (inputs.WIDTH, inputs.HEIGHT)) + inputs.HEIGHT * inputs.WIDTH
        self.warmup_keys, self.finish_keys = [self.POOL, self.POOL], []

    def setup_snippet(self) -> str:
        return ""

    def setup(self, mscv) -> None:
        self.mscv = mscv
        self.params = mscv.disparity.LossParams()

    def item(self, i: int):
        m = self.mscv
        gt_path, pred_path = self.items[i][:2]
        gt = m.imagekit.read_pfm(gt_path)
        pred = m.imagekit.read_pfm(pred_path)
        mask = m.disparity.discontinuity_mask(gt, self.EPSILON)
        m.cli.mask_to_pgm(mask, self.mask_path)
        loss, _ = m.disparity.loss_eval(pred, gt, mask, self.params)
        grad = m.disparity.loss_grad(pred, gt, mask, self.params)
        report = m.metrics.evaluate(pred, gt)
        return i, mask, loss, grad, report

    def timed_key(self, k: int) -> int:
        return k % self.POOL

    def check(self, result) -> str | None:
        i, mask, loss, grad, report = result
        _, _, rows, expected, valid_px = self.items[i]
        bad = np.flatnonzero((mask.flags[rows] != expected).any(axis=1))
        if bad.size:
            return f"gt {i}: mask differs from run enumeration on rows {rows[bad].tolist()}"
        if not checks.LOSS_LOW <= loss <= checks.LOSS_HIGH:
            return f"gt {i}: loss {loss!r} outside [1, 192**0.125]"
        if not np.isfinite(grad).all():
            return f"gt {i}: non-finite loss gradient"
        if report.valid_count != valid_px:
            return f"gt {i}: valid_px {report.valid_count} != {valid_px}"
        mask_size = self.mask_path.stat().st_size
        if mask_size != self.mask_bytes:
            return f"gt {i}: mask PGM has {mask_size} bytes, expected {self.mask_bytes}"
        return None

    def extras(self) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (NetKitti, ClassicFiles, LossMasks)}
