"""Synthetic data generation and the command-line surface."""

import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mscv.cli import (
    ConfigError,
    RunConfig,
    config_from_args,
    generate_synthetic_pair,
    main,
    mask_to_pgm,
    parse_plan,
    traditional_match,
)
from mscv.disparity import DiscontinuityMask
from mscv.imagekit import Image, read_image, read_pfm, write_image
from mscv.metrics import evaluate
from mscv.network import WeightStore, init_weights, save_weights

from oracles import traditional_match_reference


class TestPlanParsing:
    def test_single_disparity_covers_width(self):
        assert parse_plan("8", 100) == [(0, 100, 8)]

    def test_region_list(self):
        assert parse_plan("0:40:4,40:100:16", 100) == [(0, 40, 4), (40, 100, 16)]

    def test_gap_rejected(self):
        with pytest.raises(ConfigError):
            parse_plan("0:40:4,50:100:16", 100)

    def test_short_coverage_rejected(self):
        with pytest.raises(ConfigError):
            parse_plan("0:40:4", 100)

    @pytest.mark.parametrize("plan,message", [
        ("0:32:5,32:64:x", "bad plan region '32:64:x' (want x0:x1:d)"),
        ("0:32:5,32:64", "bad plan region '32:64' (want x0:x1:d)"),
        ("x", "bad plan region 'x' (want d)"),
    ])
    def test_bad_region_named(self, tmp_path, capsys, plan, message):
        assert main(["synth", "--out", str(tmp_path), "--width", "64", "--plan", plan]) == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"
        assert not list(tmp_path.iterdir())


class TestGenerateSyntheticPair:
    def test_zero_disparity_plan(self):
        left, right, gt = generate_synthetic_pair(3, 64, 16, [(0, 64, 0)])
        np.testing.assert_array_equal(left.data, right.data)
        np.testing.assert_array_equal(gt.values, 0.0)

    def test_constant_plan_shift_construction(self):
        d = 8
        left, right, gt = generate_synthetic_pair(5, 64, 16, [(0, 64, d)])
        np.testing.assert_array_equal(gt.values[:, d:], d)
        np.testing.assert_array_equal(
            left.data[:, :, d:], right.data[:, :, : 64 - d]
        )
        assert not gt.valid[:, :d].any()  # out of range on the left edge

    def test_occlusion_at_disparity_increase(self):
        # d jumps 0 -> 8 at x=32: warped coords drop, pixels occluded.
        _, _, gt = generate_synthetic_pair(1, 64, 4, [(0, 32, 0), (32, 64, 8)])
        assert not gt.valid[:, 32:40].any()
        assert gt.valid[:, 40:].all()

    def test_deterministic_per_seed(self):
        a = generate_synthetic_pair(9, 32, 8, [(0, 32, 4)])
        b = generate_synthetic_pair(9, 32, 8, [(0, 32, 4)])
        for x, y in zip(a[:2], b[:2]):
            np.testing.assert_array_equal(x.data, y.data)
        np.testing.assert_array_equal(a[2].values, b[2].values)

    def test_disparity_beyond_max_disparity_invalid(self):
        # d = 250 is a legal plan under max_disp 400 but no valid disparity.
        _, _, gt = generate_synthetic_pair(4, 600, 4, [(0, 300, 250), (300, 600, 20)], 400)
        assert not gt.valid[:, :300].any()
        np.testing.assert_array_equal(gt.values[:, :300], 0.0)
        assert gt.valid[:, 300:].all()
        np.testing.assert_array_equal(gt.values[:, 300:], 20.0)

    def test_infeasible_plan_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic_pair(0, 64, 8, [(0, 64, 200)])
        with pytest.raises(ConfigError):
            generate_synthetic_pair(0, 64, 8, [(0, 32, 40), (32, 64, 0)])


# Option names that are not the field name with "_" turned into "-".
OPTIONS = {"lam": "lambda"}
# A non-default value per setting, as written on the command line.
SAMPLES = {
    "left": "l.ppm", "right": "r.ppm", "gt": "gt.pfm", "pred": "p.pfm",
    "weights": "w.mscv1", "out": "o.pfm", "max_disp": "64", "epsilon": "2.5",
    "tau": "0.5", "lam": "0.25", "seed": "7", "threads": "2", "width": "33",
    "height": "17", "plan": "0:8:2,8:33:4", "kitti_rule": "yes",
}
SETTINGS = [f.name for f in fields(RunConfig) if f.name != "command"]


def option(name):
    return OPTIONS.get(name, name).replace("_", "-")


def run_module(*args, **env):
    """``python -m mscv.cli *args`` with ``src/`` on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **env)
    return subprocess.run([sys.executable, "-m", "mscv.cli", *args],
                          env=env, capture_output=True, text=True, timeout=120)


class TestConfigResolution:
    @pytest.mark.parametrize("name", SETTINGS)
    def test_config_keys_match_flag(self, tmp_path, name):
        # The option name and the field name both work as config keys.
        value = SAMPLES[name]
        flag = [f"--{option(name)}"] + ([] if name == "kitti_rule" else [value])
        want = config_from_args(["describe", *flag])
        assert want != config_from_args(["describe"])
        for key in (option(name), name):
            cfile = tmp_path / "run.cfg"
            cfile.write_text(f"{key} = {value}\n")
            assert config_from_args(["describe", "--config", str(cfile)]) == want

    def test_help_lists_one_option_per_field(self):
        proc = run_module("--help")
        assert proc.returncode == 0, proc.stderr
        listed = re.findall(r"^  (--[\w-]+)", proc.stdout, re.MULTILINE)
        assert listed == ["--config"] + [f"--{option(n)}" for n in SETTINGS]

    def test_defaults(self):
        cfg = config_from_args(["describe"])
        assert cfg.max_disp == 192 and cfg.tau == 1.0 and cfg.lam == 0.5
        assert cfg.epsilon == 3.0 and cfg.threads == 1

    def test_flag_overrides_config_file(self, tmp_path):
        cfile = tmp_path / "run.cfg"
        cfile.write_text("epsilon = 7\nseed = 4\n# comment\n")
        cfg = config_from_args(
            ["describe", "--config", str(cfile), "--epsilon", "2.5"]
        )
        assert cfg.epsilon == 2.5  # flag wins
        assert cfg.seed == 4  # config file beats default

    def test_bad_config_line_rejected(self, tmp_path):
        cfile = tmp_path / "bad.cfg"
        cfile.write_text("epsilon 7\n")
        with pytest.raises(ConfigError):
            config_from_args(["describe", "--config", str(cfile)])

    @pytest.mark.parametrize("key", ["epsilonn", "command", "config"])
    def test_unknown_config_key_rejected(self, tmp_path, capsys, key):
        cfile = tmp_path / "bad.cfg"
        cfile.write_text(f"# run\nseed = 4\n{key} = 9\n")
        with pytest.raises(ConfigError, match=f"bad.cfg:3: unknown key '{key}'"):
            config_from_args(["describe", "--config", str(cfile)])
        assert main(["describe", "--config", str(cfile)]) == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "kitti_rule = on", "seed = x", "max-disp = x", "lambda = x", "kitti-rule = 2",
    ])
    def test_bad_config_value_rejected(self, tmp_path, capsys, line):
        cfile = tmp_path / "bad.cfg"
        cfile.write_text(f"# run\nepsilon = 2\n{line}\n")
        key = line.split()[0]
        with pytest.raises(ConfigError, match=f"bad.cfg:3: bad {key} value"):
            config_from_args(["describe", "--config", str(cfile)])
        assert main(["describe", "--config", str(cfile)]) == 2
        assert f"bad {key} value" in capsys.readouterr().err

    @pytest.mark.parametrize("value,want", [
        ("1", True), ("TRUE", True), ("Yes", True),
        ("0", False), ("False", False), ("NO", False),
    ])
    def test_kitti_rule_words(self, tmp_path, value, want):
        cfile = tmp_path / "run.cfg"
        cfile.write_text(f"kitti_rule = {value}\n")
        assert config_from_args(["describe", "--config", str(cfile)]).kitti_rule is want

    @pytest.mark.parametrize("flag", ["--width", "--height"])
    def test_nonpositive_size_rejected(self, tmp_path, capsys, flag):
        for value in ("0", "-3"):
            assert main(["synth", "--out", str(tmp_path), flag, value]) == 2
            assert "width and height must be >= 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestDispatch:
    def test_synth_trad_match_eval_chain(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main([
            "synth", "--out", str(out), "--seed", "2",
            "--width", "128", "--height", "32", "--plan", "8",
        ]) == 0
        pfm = tmp_path / "pred.pfm"
        assert main([
            "trad-match", "--left", str(out / "left.ppm"),
            "--right", str(out / "right.ppm"), "--out", str(pfm),
        ]) == 0
        assert pfm.exists() and (tmp_path / "pred.pfm.pgm").exists()
        # Constant-disparity plan: zero error on non-occluded interior.
        pred = read_pfm(pfm)
        gt = read_pfm(out / "gt.pfm")
        interior = np.zeros_like(gt.valid)
        interior[6:-6, 30:-6] = True
        gt_interior = read_pfm(out / "gt.pfm")
        gt_interior.valid &= interior
        assert evaluate(pred, gt_interior).epe == 0.0
        assert main([
            "eval", "--pred", str(pfm), "--gt", str(out / "gt.pfm"),
        ]) == 0
        assert "epe=" in capsys.readouterr().out

    def test_infer_output_dims(self, tmp_path, rng):
        out = tmp_path / "data"
        main(["synth", "--out", str(out), "--width", "64", "--height", "24"])
        wpath = tmp_path / "w.bin"
        assert main(["init-weights", "--out", str(wpath), "--seed", "1"]) == 0
        dpath = tmp_path / "d.pfm"
        assert main([
            "infer", "--left", str(out / "left.ppm"),
            "--right", str(out / "right.ppm"),
            "--weights", str(wpath), "--out", str(dpath),
        ]) == 0
        dmap = read_pfm(dpath)
        assert (dmap.height, dmap.width) == (24, 64)

    def test_mask_and_loss_commands(self, tmp_path, capsys):
        out = tmp_path / "data"
        main(["synth", "--out", str(out), "--width", "96", "--height", "16",
              "--plan", "0:48:0,48:96:8"])
        mpath = tmp_path / "m.pgm"
        assert main(["mask", "--gt", str(out / "gt.pfm"),
                     "--out", str(mpath)]) == 0
        img = read_image(mpath)
        assert set(np.unique(img.data)) <= {0.0, 1.0}
        assert main(["loss", "--pred", str(out / "gt.pfm"),
                     "--gt", str(out / "gt.pfm")]) == 0
        assert "loss=1.000000" in capsys.readouterr().out

    def test_nan_parameter_exits_2(self, tmp_path, capsys):
        main(["synth", "--out", str(tmp_path), "--width", "32", "--height", "8"])
        gt, mask = str(tmp_path / "gt.pfm"), tmp_path / "m.pgm"
        assert main(["loss", "--pred", gt, "--gt", gt, "--tau", "nan"]) == 2
        assert "tau must be >= 0" in capsys.readouterr().err
        assert main(["loss", "--pred", gt, "--gt", gt, "--tau", "inf"]) == 2
        captured = capsys.readouterr()
        assert "tau must be >= 0 and finite" in captured.err and "loss=" not in captured.out
        assert main(["mask", "--gt", gt, "--out", str(mask), "--epsilon", "nan"]) == 2
        assert "epsilon must be >= 0" in capsys.readouterr().err
        assert not mask.exists()

    def test_mask_pgm_bytes_match_write_image(self, tmp_path, rng):
        flags = (rng.random((37, 53)) > 0.7).astype(np.uint8)
        new, old = tmp_path / "new.pgm", tmp_path / "old.pgm"
        mask_to_pgm(DiscontinuityMask(flags), new)
        write_image(Image(flags.astype(np.float64)[None]), old)
        assert new.read_bytes() == old.read_bytes()

    def test_unknown_command_nonzero_exit(self, capsys):
        assert main(["frobnicate"]) != 0

    def test_missing_file_nonzero_exit(self, capsys):
        assert main(["eval", "--pred", "/nonexistent.pfm",
                     "--gt", "/nonexistent.pfm"]) == 2
        assert "error:" in capsys.readouterr().err

    # 8x16 against 16x8 has equal pixel counts; 8x15 pads to 8x16 first.
    @pytest.mark.parametrize("right_hw", [(16, 8), (8, 20), (8, 15)],
                             ids=lambda hw: f"{hw[0]}x{hw[1]}")
    def test_trad_match_mismatched_pair_exits_2(self, tmp_path, capsys, rng, right_hw):
        left, right, out = tmp_path / "l.ppm", tmp_path / "r.ppm", tmp_path / "o.pfm"
        write_image(Image(rng.random((3, 8, 16))), left)
        write_image(Image(rng.random((3, *right_hw))), right)
        assert main(["trad-match", "--left", str(left), "--right", str(right),
                     "--out", str(out)]) == 2
        assert "stereo pair dimensions differ" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["trad-match"], ["infer"], ["infer", "--threads", "2"]],
                             ids=["trad-match", "infer", "infer-threads-2"])
    def test_grey_pair_exits_2(self, tmp_path, capsys, rng, command):
        left, right, out = tmp_path / "l.pgm", tmp_path / "r.pgm", tmp_path / "o.pfm"
        write_image(Image(rng.random((1, 16, 32))), left)
        write_image(Image(rng.random((1, 16, 32))), right)
        weights = tmp_path / "w.bin"
        save_weights(init_weights(1), weights)
        assert main([*command, "--left", str(left), "--right", str(right),
                     "--weights", str(weights), "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == (
            "error: stereo matching expects an RGB pair, got 1 channel(s)")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["l.pgm", "r.pgm", "w.bin"]

    def test_malformed_input_no_crash(self, tmp_path, capsys):
        bad = tmp_path / "bad.pfm"
        bad.write_bytes(b"garbage")
        assert main(["mask", "--gt", str(bad), "--out",
                     str(tmp_path / "m.pgm")]) == 2

    def test_megabyte_pfm_header_line_exits_2_briefly(self, tmp_path, capsys):
        bad = tmp_path / "long.pfm"
        bad.write_bytes(b"x" * 20_000_000)
        assert main(["mask", "--gt", str(bad), "--out", str(tmp_path / "m.pgm")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err) < 200

    def test_unallocatable_size_exits_2(self, tmp_path, capsys):
        # 10^6 x 10^6 RGB is 21.8 TiB: refused at once, never overcommitted.
        assert main(["synth", "--out", str(tmp_path / "d"),
                     "--width", "1000000", "--height", "1000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_infer_with_malformed_weights_exits_2(self, tmp_path, capsys):
        out = tmp_path / "data"
        main(["synth", "--out", str(out), "--width", "32", "--height", "16"])
        good = tmp_path / "w.bin"
        assert main(["init-weights", "--out", str(good), "--seed", "1"]) == 0
        huge = (b"MSCV1" + (1).to_bytes(4, "little") + (1).to_bytes(2, "little")
                + b"k" + (2).to_bytes(1, "little") + (100000).to_bytes(4, "little") * 2)
        raw = good.read_bytes()
        tiny = tmp_path / "tiny.bin"
        save_weights(WeightStore({"a": np.float32([1.0])}), tiny)
        entry = tiny.read_bytes()[9:]  # after the magic and the entry count
        repeated = b"MSCV1" + (2).to_bytes(4, "little") + entry * 2
        for i, content in enumerate([raw[:5], raw[:7], raw[:12], raw[:-1], huge,
                                     raw + b"garbage", repeated]):
            bad = tmp_path / f"bad{i}.bin"
            bad.write_bytes(content)
            assert main([
                "infer", "--left", str(out / "left.ppm"),
                "--right", str(out / "right.ppm"),
                "--weights", str(bad), "--out", str(tmp_path / "d.pfm"),
            ]) == 2
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name,value,error", [
        ("unet.enc0.bn.var", -1.0, "has a negative variance"),
        ("head.conv.w", np.nan, "is not finite"),
    ], ids=["negative-variance", "nan-weight"])
    def test_infer_with_bad_weight_values_exits_2(self, tmp_path, capsys, name, value, error):
        main(["synth", "--out", str(tmp_path), "--width", "64", "--height", "32"])
        store = init_weights(1)
        store[name] = store[name].copy()
        store[name].flat[0] = value
        weights, out = tmp_path / "w.bin", tmp_path / "d.pfm"
        save_weights(store, weights)
        assert main(["infer", "--left", str(tmp_path / "left.ppm"),
                     "--right", str(tmp_path / "right.ppm"),
                     "--weights", str(weights), "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == f"error: parameter {name!r} {error}"
        assert not out.exists()

    def test_infer_with_foreign_parameter_exits_2(self, tmp_path, capsys):
        # A weight file from a deeper network: its extra layers must not be dropped silently.
        main(["synth", "--out", str(tmp_path), "--width", "64", "--height", "32"])
        store = init_weights(0)
        store["hg1.down2.c1.w"] = np.zeros((32, 32, 3, 3), dtype=np.float32)
        store["guide.d4.a.w"] = np.zeros((32, 32, 3, 3), dtype=np.float32)
        weights, out = tmp_path / "w.bin", tmp_path / "d.pfm"
        save_weights(store, weights)
        assert main(["infer", "--left", str(tmp_path / "left.ppm"),
                     "--right", str(tmp_path / "right.ppm"),
                     "--weights", str(weights), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip()
        assert err == "error: parameter 'hg1.down2.c1.w' is not in the architecture"
        assert not out.exists()

    def test_describe_emits_table(self, capsys):
        assert main(["describe"]) == 0
        out = capsys.readouterr().out
        assert "head.conv.w" in out and "total" in out

    def test_module_run_ignores_log_variable(self):
        # No environment variable steers the CLI: a stray MSCV_LOG value
        # must not turn into a traceback.
        proc = run_module("describe", MSCV_LOG="verbose")
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "head.conv.w" in proc.stdout

    def test_trad_match_deterministic(self, rng):
        from mscv.imagekit import Image

        left = Image(rng.random((3, 24, 48)))
        right = Image(rng.random((3, 24, 48)))
        a = traditional_match(left, right)
        b = traditional_match(left, right)
        np.testing.assert_array_equal(a.values, b.values)


# tracemalloc peak of traditional_match on a 376x1240 pair at max_disp 192:
# 11.54 MB measured with a uint8 argmin map (11.96 MB with a float64 one,
# 63.8 MB while each band was built as float64 96-deep volumes); one
# float64 96-deep band volume (7.6 MB) more fails.
TRADITIONAL_MATCH_PEAK_MB = 11.8


class TestTraditionalMatchBands:
    # Half-scale heights around the band size and with a short last band;
    # max_disp 192 asks for 96 half-scale candidates on 12 columns.
    @pytest.mark.parametrize("max_disp", [16, 192])
    @pytest.mark.parametrize("half_h", [1, 15, 16, 17, 40])
    def test_equals_whole_volume_reference(self, rng, half_h, max_disp):
        from mscv.imagekit import Image

        left = Image(rng.random((3, 2 * half_h, 23)))
        right = Image(rng.random((3, 2 * half_h, 23)))
        got = traditional_match(left, right, max_disp)
        want = traditional_match_reference(left, right, max_disp)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.valid, want.valid)

    # Exact ties between candidates: constant images tie every d <= x at
    # cost 0; a texture of period 8 px ties d = 0, 4, 8, ... at half scale
    # when the shift (16 px) is a multiple of the period, and d = 2, 6, ...
    # when it is 4 px.  The running minimum must keep the smallest d.
    @pytest.mark.parametrize("max_disp", [16, 192])
    @pytest.mark.parametrize("case", ["constant", "period8_shift16", "period8_shift4"])
    def test_exact_ties_equal_argmin_reference(self, rng, case, max_disp):
        from mscv.imagekit import Image

        if case == "constant":
            left = right = Image(np.full((3, 34, 40), 0.25))
        else:
            shift = int(case.rsplit("shift", 1)[1])
            right = Image(np.tile(rng.random((3, 34, 8)), (1, 1, 5)))
            left = Image(np.roll(right.data, shift, axis=2))
        got = traditional_match(left, right, max_disp)
        want = traditional_match_reference(left, right, max_disp)
        assert np.array_equal(got.values, want.values)
        if case != "period8_shift4":
            assert (got.values == 0).all()

    # 150 and 256 half-scale candidates: the argmin map is uint8, but the
    # doubled full-resolution values pass 255.
    @pytest.mark.parametrize("max_disp,shift", [(300, 280), (512, 500)])
    def test_129_to_256_candidates_equal_reference(self, rng, max_disp, shift):
        left = Image(rng.random((3, 16, 600)))
        right = Image(np.roll(left.data, -shift, axis=2))  # disparity `shift` from x = shift
        got = traditional_match(left, right, max_disp)
        want = traditional_match_reference(left, right, max_disp)
        assert np.array_equal(got.values, want.values)
        assert got.values.dtype == np.float64
        assert got.values.max() >= shift > 255

    def test_more_than_256_candidates_equal_reference(self, rng):
        # 300 half-scale candidates: the argmin map needs 16-bit indices.
        left = Image(rng.random((3, 16, 600)))
        right = Image(np.roll(left.data, -540, axis=2))  # disparity 540 from x = 540
        got = traditional_match(left, right, 600)
        want = traditional_match_reference(left, right, 600)
        assert np.array_equal(got.values, want.values)
        assert got.values.max() > 2 * 255

    # Odd widths are padded to even first; W is the padded half width.
    @pytest.mark.parametrize("width", [60, 59])
    def test_candidates_stop_at_half_scale_width(self, rng, width):
        left = Image(rng.random((3, 40, width)))
        right = Image(rng.random((3, 40, width)))
        at_2w = traditional_match(left, right, 60)
        np.testing.assert_array_equal(traditional_match(left, right, 10**9).values, at_2w.values)

    def test_map_independent_of_memory_layout(self, layouts):
        # Four gray levels make exact cost ties common, so the rounding of
        # the pooled values picks the winner; on this pair a summation
        # order that follows the memory layout moves it.
        left, right = np.random.default_rng(171).integers(0, 4, (2, 3, 4, 8)) / 3
        maps = [
            traditional_match(Image(l), Image(r)).values
            for l, r in zip(layouts(left), layouts(right))
        ]
        assert maps[0].tobytes() == maps[1].tobytes() == maps[2].tobytes()

    def test_peak_memory_on_kitti_sized_pair(self, rng, peak_bytes):
        from mscv.imagekit import Image

        left = Image(rng.random((3, 376, 1240)))
        right = Image(rng.random((3, 376, 1240)))
        peak = peak_bytes(lambda: traditional_match(left, right, 192))
        assert peak <= TRADITIONAL_MATCH_PEAK_MB * 1e6, f"peak {peak / 1e6:.1f} MB"
