"""Synthetic data generation and the command-line surface."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscv.cli import (
    _HANDLERS,
    build_parser,
    disparity_to_pgm,
    generate_synthetic_pair,
    main,
    mask_to_pgm,
    parse_plan,
    traditional_match,
)
from mscv.costvol import _BAND_ROWS, DEPTH
from mscv.disparity import DiscontinuityMask
from mscv.imagekit import (
    MAX_DISPARITY, DisparityMap, Image, read_image, read_pfm, write_image, write_pfm,
)
from mscv.metrics import evaluate
from mscv.network import init_weights, save_weights

from oracles import traditional_match_reference


class TestPlanParsing:
    def test_single_disparity_covers_width(self):
        assert parse_plan("8", 100) == [(0, 100, 8)]

    def test_region_list(self):
        assert parse_plan("0:40:4,40:100:16", 100) == [(0, 40, 4), (40, 100, 16)]

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match=r"^plan regions must tile \[0, width\) in order$"):
            parse_plan("0:40:4,50:100:16", 100)

    def test_short_coverage_rejected(self):
        with pytest.raises(ValueError, match=r"^plan covers \[0, 40\), image width is 100$"):
            parse_plan("0:40:4", 100)

    @pytest.mark.parametrize("plan,message", [
        ("0:32:5,32:64:x", "bad plan region '32:64:x' (want x0:x1:d)"),
        ("0:32:5,32:64", "bad plan region '32:64' (want x0:x1:d)"),
        ("x", "bad plan region 'x' (want d)"),
    ])
    def test_bad_region_named(self, tmp_path, capsys, plan, message):
        assert main(["synth", "--out", str(tmp_path), "--width", "64", "--plan", plan]) == 2
        assert error_lines(capsys.readouterr().err).strip() == f"error: {message}"
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

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0$"):
            generate_synthetic_pair(-1, 32, 8, [(0, 32, 4)])

    def test_disparity_beyond_max_disparity_invalid(self, tmp_path, capsys):
        # d = 250 fits the 512-px region but no valid disparity holds it.
        assert main(["synth", "--out", str(tmp_path / "pair"), "--plan", "250"]) == 2
        assert error_lines(capsys.readouterr().err) == (
            "error: region disparity 250 outside [0, 192)\n")
        assert not list(tmp_path.iterdir())

    def test_infeasible_plan_rejected(self):
        with pytest.raises(ValueError, match=r"^region disparity 200 outside \[0, 192\)$"):
            generate_synthetic_pair(0, 64, 8, [(0, 64, 200)])
        with pytest.raises(ValueError, match=r"^region disparity 40 >= region extent 32$"):
            generate_synthetic_pair(0, 64, 8, [(0, 32, 40), (32, 64, 0)])


# Option names that are not the field name with "_" turned into "-".
OPTIONS = {"lam": "lambda"}
# A non-default value per setting, of the field's type.
SAMPLES = {
    "left": "l.ppm", "right": "r.ppm", "gt": "gt.pfm", "pred": "p.pfm",
    "weights": "w.mscv1", "out": "o.pfm", "epsilon": 2.5,
    "tau": 0.5, "lam": 0.25, "seed": 7, "threads": 2, "width": 33,
    "height": 17, "plan": "0:8:2,8:33:4", "kitti_rule": True,
}
# Each command's options: its handler's parameters, in order.
PARAMS = {command: inspect.signature(handler).parameters
          for command, handler in _HANDLERS.items()}
TAKES = {command: list(params) for command, params in PARAMS.items()}
# Every option some command takes, in the order of first appearance.
SETTINGS = list(dict.fromkeys(name for names in TAKES.values() for name in names))
# The path options: no default, so each command that takes one requires it.
PATHS = {name for params in PARAMS.values() for name, p in params.items()
         if p.default is p.empty}


def option(name):
    return OPTIONS.get(name, name).replace("_", "-")


def flag(name, value):
    """The arguments that set ``name`` to ``value``; --kitti-rule is a switch."""
    return [f"--{option(name)}"] + ([] if value is True else [str(value)])


def paths_given(command, root, but=None):
    """``{name: path}`` under ``root`` for each path option ``command``
    requires other than ``but``, and the arguments that give them."""
    given = {name: str(root / SAMPLES[name]) for name in TAKES[command]
             if name in PATHS and name != but}
    return given, [arg for name, path in given.items() for arg in flag(name, path)]


def error_lines(err: str) -> str:
    """``err`` without the status lines (``config: ...``, ``wrote ...``) that
    the CLI prints to stderr beside its errors."""
    return "".join(line for line in err.splitlines(keepends=True)
                   if not line.startswith(("config: ", "wrote ")))


def run_env(**env):
    """This process's environment with ``src/`` on the path, plus ``env``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **env)


def run_python(*args, cwd=None, timeout=120, **env):
    """``python *args`` with ``src/`` on the path."""
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          env=run_env(**env), capture_output=True, text=True, timeout=timeout)


def run_module(*args, **env):
    """``python -m mscv.cli *args`` with ``src/`` on the path."""
    return run_python("-m", "mscv.cli", *args, **env)


# ``python -m mscv.cli`` in a process that may not grow past 1 GB, so a
# read without end fails with a MemoryError instead of filling the machine.
CAPPED_CLI = ("import resource, runpy\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30,) * 2)\n"
              "runpy.run_module('mscv.cli', run_name='__main__')")


class TestConfigResolution:
    @pytest.mark.parametrize("name", SETTINGS)
    def test_config_keys_match_flag(self, tmp_path, name):
        # Each handler parameter is set by its own flag, on the first command
        # that takes it, to a value of the default's type; the others keep
        # their defaults, in the handler's order.
        command = next(c for c, names in TAKES.items() if name in names)
        value = SAMPLES[name]
        given, args = paths_given(command, tmp_path, but=name)
        parsed = vars(build_parser().parse_args([command, *args, *flag(name, value)]))
        defaults = {n: p.default for n, p in PARAMS[command].items()}
        assert type(parsed[name]) is type(value) and defaults[name] != value
        want = {"command": command, **defaults, **given, name: value}
        assert list(parsed.items()) == list(want.items())

    def test_help_lists_the_commands(self, capsys):
        assert main(["--help"]) == 0
        listed = re.findall(r"^  \{(.*)\}$", capsys.readouterr().out, re.MULTILINE)
        assert listed == [",".join(_HANDLERS)] and len(_HANDLERS) == 8

    @pytest.mark.parametrize("command", TAKES)
    def test_command_help_lists_its_options(self, capsys, command):
        assert main([command, "--help"]) == 0
        listed = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.MULTILINE)
        assert listed == [f"--{option(n)}" for n in TAKES[command]]

    def test_defaults(self):
        parse = build_parser().parse_args
        loss = parse(["loss", "--pred", "p.pfm", "--gt", "gt.pfm"])
        assert loss.tau == 1.0 and loss.lam == 0.5 and loss.epsilon == 3.0
        infer = parse(["infer", "--left", "l.ppm", "--right", "r.ppm",
                       "--weights", "w.mscv1", "--out", "o.pfm"])
        assert infer.threads == 1

    def test_config_line_names_only_the_commands_options(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["eval", "--pred", "P", "--gt", "G", "--kitti-rule"]) == 2
        assert capsys.readouterr().err.splitlines()[0] == (
            "config: eval pred='P' gt='G' kitti_rule=True")
        assert main(["describe"]) == 0
        assert capsys.readouterr().err.splitlines()[0] == "config: describe"

    # The range is MAX_DISPARITY, and flags are the one way to set a run.
    @pytest.mark.parametrize("removed", [["--max-disp", "64"], ["--config", "run.cfg"]],
                             ids=lambda removed: removed[0])
    def test_removed_option_unrecognized(self, tmp_path, capsys, removed):
        (tmp_path / "run.cfg").write_text("seed = 4\n")
        assert main(["synth", "--out", str(tmp_path / "pair"), *removed]) == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {' '.join(removed)}\n" in captured.err
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("command", ["synth", "init-weights"])
    def test_negative_seed_rejected(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([command, "--out", str(out), "--seed", "-1"]) == 2
        assert error_lines(capsys.readouterr().err) == "error: seed must be >= 0\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--width", "--height"])
    def test_nonpositive_size_rejected(self, tmp_path, capsys, flag):
        for value in ("0", "-3"):
            assert main(["synth", "--out", str(tmp_path), flag, value]) == 2
            assert "width and height must be >= 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


# Every (command, path option it requires) pair, in the order it takes them.
REQUIRED = [(command, name) for command, names in TAKES.items()
            for name in names if name in PATHS]
# Every (command, option it does not take) pair: 94 of the 120.
NOT_TAKEN = [(command, name) for command, names in TAKES.items()
             for name in SETTINGS if name not in names]


# Each writing command, and the path of its first output: ``--out``, or
# synth's left image in its ``--out`` directory.  Inputs from write_inputs.
WRITERS = [
    (["synth", "--width", "6", "--height", "4", "--plan", "1", "--out", "d"], "d/left.ppm"),
    (["trad-match", "--left", "a.ppm", "--right", "a.ppm", "--out", "ff"], "ff"),
    (["infer", "--left", "a.ppm", "--right", "a.ppm", "--weights", "w.bin", "--out", "ff"], "ff"),
    (["mask", "--gt", "gt.pfm", "--out", "ff"], "ff"),
    (["init-weights", "--out", "ff"], "ff"),
]
WRITER_IDS = [args[0] for args, _ in WRITERS]


def write_inputs(root):
    """The inputs ``WRITERS`` read, and synth's ``--out`` directory."""
    (root / "d").mkdir()
    write_image(Image(np.zeros((3, 4, 6))), root / "a.ppm")
    write_pfm(DisparityMap(np.full((4, 6), 2.0)), root / "gt.pfm")
    save_weights(init_weights(0), root / "w.bin")


class TestDispatch:
    @pytest.mark.parametrize("command,missing", REQUIRED,
                             ids=[f"{command}-{name}" for command, name in REQUIRED])
    def test_missing_required_option_exits_2(self, tmp_path, capsys, command, missing):
        _, args = paths_given(command, tmp_path, but=missing)
        assert main([command, *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: the following arguments are required: --{option(missing)}\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", [c for c, names in TAKES.items() if names])
    def test_first_missing_option_named(self, tmp_path, monkeypatch, capsys, command):
        # argparse names every missing path option, the first one first.
        monkeypatch.chdir(tmp_path)
        assert main([command]) == 2
        captured = capsys.readouterr()
        missing = ", ".join(f"--{option(n)}" for n in TAKES[command] if n in PATHS)
        assert captured.out == ""
        assert captured.err.endswith(f"error: the following arguments are required: {missing}\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command,name", NOT_TAKEN)
    def test_option_not_taken_exits_2(self, tmp_path, capsys, command, name):
        _, args = paths_given(command, tmp_path)
        extra = flag(name, SAMPLES[name])
        assert main([command, *args, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(extra)}\n")
        assert not list(tmp_path.iterdir())

    # /dev/zero as the input of each decoder: PPM/PGM, PFM and MSCV1.
    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    @pytest.mark.parametrize("args", [
        ["trad-match", "--left", "/dev/zero", "--right", "/dev/zero"],
        ["mask", "--gt", "/dev/zero"],
        ["infer", "--left", "a.ppm", "--right", "a.ppm", "--weights", "/dev/zero"],
    ], ids=lambda args: args[0])
    def test_endless_device_exits_2(self, tmp_path, args):
        write_image(Image(np.zeros((3, 4, 6))), tmp_path / "a.ppm")
        proc = run_python("-c", CAPPED_CLI, *args, "--out", "o.pfm", cwd=tmp_path,
                          OPENBLAS_NUM_THREADS="1")
        assert proc.returncode == 2
        assert error_lines(proc.stderr) == "error: /dev/zero: not a regular file\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.ppm"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
    @pytest.mark.parametrize("args", [
        ["trad-match", "--left", "ff", "--right", "a.ppm", "--out", "o.pfm"],
        ["mask", "--gt", "ff", "--out", "o.pfm"],
        ["loss", "--pred", "ff", "--gt", "gt.pfm"],
        ["eval", "--pred", "ff", "--gt", "gt.pfm"],
        ["infer", "--left", "a.ppm", "--right", "a.ppm", "--weights", "ff", "--out", "o.pfm"],
    ], ids=lambda args: args[0])
    def test_fifo_input_exits_2_at_once(self, tmp_path, args):
        # A FIFO with no writer; the other inputs are regular files.  The
        # child is killed after 5 s, so a blocking open fails the test.
        os.mkfifo(tmp_path / "ff")
        write_image(Image(np.zeros((3, 4, 6))), tmp_path / "a.ppm")
        write_pfm(DisparityMap(np.full((4, 6), 2.0)), tmp_path / "gt.pfm")
        proc = run_module(*args, cwd=tmp_path, timeout=5)
        assert proc.returncode == 2
        assert error_lines(proc.stderr) == "error: ff: not a regular file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ppm", "ff", "gt.pfm"]

    # A FIFO, held open by a reader or not, as each writing command's first
    # output.  The child is killed after 5 s, so a blocking open fails the
    # test; nothing is written to the FIFO or anywhere else.
    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
    @pytest.mark.parametrize("reader", [False, True], ids=["no-reader", "reader"])
    @pytest.mark.parametrize("args,out", WRITERS, ids=WRITER_IDS)
    def test_fifo_output_exits_2_at_once(self, tmp_path, args, out, reader):
        write_inputs(tmp_path)
        os.mkfifo(tmp_path / out)
        before = sorted(tmp_path.rglob("*"))
        fd = os.open(tmp_path / out, os.O_RDONLY | os.O_NONBLOCK) if reader else None
        try:
            proc = run_module(*args, cwd=tmp_path, timeout=5, OPENBLAS_NUM_THREADS="1")
            assert fd is None or os.read(fd, 1) == b""
        finally:
            if fd is not None:
                os.close(fd)
        assert proc.returncode == 2
        assert error_lines(proc.stderr) == f"error: {out}: not a regular file\n"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("args,out", WRITERS, ids=WRITER_IDS)
    def test_directory_output_exits_2(self, tmp_path, monkeypatch, capsys, args, out):
        write_inputs(tmp_path)
        (tmp_path / out).mkdir()
        before = sorted(tmp_path.rglob("*"))
        monkeypatch.chdir(tmp_path)
        assert main(args) == 2
        assert error_lines(capsys.readouterr().err) == f"error: {out}: not a regular file\n"
        assert sorted(tmp_path.rglob("*")) == before

    # Not trad-match: where outputs need not be regular files, its
    # ``--out /dev/null`` makes a regular file /dev/null.pgm.
    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    @pytest.mark.parametrize("command", ["mask", "init-weights"])
    def test_device_output_exits_2(self, tmp_path, monkeypatch, capsys, command):
        write_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        args = next(args for args, _ in WRITERS if args[0] == command)
        assert main([*args[:-1], "/dev/null"]) == 2
        assert error_lines(capsys.readouterr().err) == "error: /dev/null: not a regular file\n"

    # Rejections that no other test reaches from the command line: a PPM
    # header with width 0, loss over maps of different sizes, and an output
    # in a directory that does not exist (the writer re-raises os.open's error).
    @pytest.mark.parametrize("args,message", [
        (["trad-match", "--left", "zero.ppm", "--right", "zero.ppm", "--out", "o.pfm"],
         "bad dimensions 0x4"),
        (["loss", "--pred", "small.pfm", "--gt", "gt.pfm"], "disparity map dimensions differ"),
        (["mask", "--gt", "gt.pfm", "--out", "nodir/m.pgm"],
         "[Errno 2] No such file or directory: 'nodir/m.pgm'"),
    ], ids=["zero-width-ppm", "loss-size-mismatch", "out-in-missing-dir"])
    def test_rejection_exits_2_with_its_message(self, tmp_path, monkeypatch, capsys,
                                                args, message):
        write_inputs(tmp_path)  # gt.pfm is 4x6
        (tmp_path / "zero.ppm").write_bytes(b"P6\n0 4\n255\n")
        write_pfm(DisparityMap(np.full((4, 5), 2.0)), tmp_path / "small.pfm")
        before = sorted(tmp_path.rglob("*"))
        monkeypatch.chdir(tmp_path)
        assert main(args) == 2
        assert error_lines(capsys.readouterr().err) == f"error: {message}\n"
        assert sorted(tmp_path.rglob("*")) == before

    # Status lines go to stderr, so an output written through /dev/stdout,
    # bound to a regular file, holds the encoder's bytes and nothing else.
    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    @pytest.mark.parametrize("command", ["mask", "init-weights"])
    def test_output_through_stdout_equals_output_file(self, tmp_path, command):
        write_inputs(tmp_path)
        args = next(args for args, _ in WRITERS if args[0] == command)[:-1]
        assert run_module(*args, "direct", cwd=tmp_path).returncode == 0
        with open(tmp_path / "piped", "wb") as stdout:
            proc = subprocess.run([sys.executable, "-m", "mscv.cli", *args, "/dev/stdout"],
                                  cwd=tmp_path, env=run_env(), stdout=stdout,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("wrote /dev/stdout")
        assert (tmp_path / "piped").read_bytes() == (tmp_path / "direct").read_bytes()

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

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_2(self, tmp_path, capsys, threads):
        main(["synth", "--out", str(tmp_path), "--width", "32", "--height", "16"])
        save_weights(init_weights(1), tmp_path / "w.bin")
        out = tmp_path / "d.pfm"
        capsys.readouterr()
        assert main(["infer", "--left", str(tmp_path / "left.ppm"),
                     "--right", str(tmp_path / "right.ppm"), "--weights", str(tmp_path / "w.bin"),
                     "--out", str(out), "--threads", threads]) == 2
        assert error_lines(capsys.readouterr().err) == "error: threads must be >= 1\n"
        assert not out.exists()

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

    def test_disparity_pgm_bytes_match_write_image(self, tmp_path, rng):
        # Values on both sides of [0, MAX_DISPARITY] and invalid pixels.
        values = rng.random((37, 53)) * (MAX_DISPARITY + 60) - 30
        dmap = DisparityMap(values, valid=rng.random(values.shape) > 0.2)
        new, old = tmp_path / "new.pgm", tmp_path / "old.pgm"
        disparity_to_pgm(dmap, new)
        write_image(Image(np.clip(dmap.values / MAX_DISPARITY, 0.0, 1.0)[None]), old)
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

    @pytest.mark.parametrize("command", [["trad-match"], ["infer", "--weights", "w.bin"],
                                         ["infer", "--weights", "w.bin", "--threads", "2"]],
                             ids=["trad-match", "infer", "infer-threads-2"])
    def test_grey_pair_exits_2(self, tmp_path, monkeypatch, capsys, rng, command):
        left, right, out = tmp_path / "l.pgm", tmp_path / "r.pgm", tmp_path / "o.pfm"
        write_image(Image(rng.random((1, 16, 32))), left)
        write_image(Image(rng.random((1, 16, 32))), right)
        save_weights(init_weights(1), tmp_path / "w.bin")
        monkeypatch.chdir(tmp_path)
        assert main([*command, "--left", str(left), "--right", str(right),
                     "--out", str(out)]) == 2
        assert error_lines(capsys.readouterr().err).strip() == (
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
        err = error_lines(capsys.readouterr().err)
        assert err.startswith("error: ") and len(err) < 200

    def test_unallocatable_size_exits_2(self, tmp_path, capsys):
        # 10^6 x 10^6 RGB is 21.8 TiB: refused at once, never overcommitted.
        assert main(["synth", "--out", str(tmp_path / "d"),
                     "--width", "1000000", "--height", "1000000"]) == 2
        err = error_lines(capsys.readouterr().err)
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
        save_weights({"a": np.float32([1.0])}, tiny)
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
        assert error_lines(capsys.readouterr().err).strip() == f"error: parameter {name!r} {error}"
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
        err = error_lines(capsys.readouterr().err).strip()
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


# tracemalloc peak of traditional_match on a 376x1240 pair:
# 11.54 MB measured with a uint8 argmin map (11.96 MB with a float64 one,
# 63.8 MB while each band was built as float64 96-deep volumes); one
# float64 96-deep band volume (7.6 MB) more fails.
TRADITIONAL_MATCH_PEAK_MB = 11.8


class TestTraditionalMatchBands:
    # Half-scale heights around the band size and with a short last band;
    # the range, MAX_DISPARITY = 192, asks for 96 half-scale candidates on
    # 12 columns, so planes with d >= W must never win.
    @pytest.mark.parametrize("max_disp", [MAX_DISPARITY])
    @pytest.mark.parametrize("half_h", [1, 15, 16, 17, 40])
    def test_equals_whole_volume_reference(self, rng, half_h, max_disp):
        from mscv.imagekit import Image

        left = Image(rng.random((3, 2 * half_h, 23)))
        right = Image(rng.random((3, 2 * half_h, 23)))
        got = traditional_match(left, right)
        want = traditional_match_reference(left, right, max_disp)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.valid, want.valid)

    # Exact ties between candidates: constant images tie every d <= x at
    # cost 0; a texture of period 8 px ties d = 0, 4, 8, ... at half scale
    # when the shift (16 px) is a multiple of the period, and d = 2, 6, ...
    # when it is 4 px.  The running minimum must keep the smallest d.
    @pytest.mark.parametrize("max_disp", [MAX_DISPARITY])
    @pytest.mark.parametrize("case", ["constant", "period8_shift16", "period8_shift4"])
    def test_exact_ties_equal_argmin_reference(self, rng, case, max_disp):
        from mscv.imagekit import Image

        if case == "constant":
            left = right = Image(np.full((3, 34, 40), 0.25))
        else:
            shift = int(case.rsplit("shift", 1)[1])
            right = Image(np.tile(rng.random((3, 34, 8)), (1, 1, 5)))
            left = Image(np.roll(right.data, shift, axis=2))
        got = traditional_match(left, right)
        want = traditional_match_reference(left, right, max_disp)
        assert np.array_equal(got.values, want.values)
        if case != "period8_shift4":
            assert (got.values == 0).all()

    # 200 half-scale columns, more than the 96 candidates: disparity 180
    # (the largest even one below 192) is found from x = 180 on.
    def test_fewer_candidates_than_columns_equal_reference(self, rng):
        left = Image(rng.random((3, 16, 400)))
        right = Image(np.roll(left.data, -180, axis=2))
        got = traditional_match(left, right)
        want = traditional_match_reference(left, right, MAX_DISPARITY)
        assert np.array_equal(got.values, want.values)
        assert got.values.max() == 180 and (got.values[:, 200:390] == 180).all()

    # Any size: odd sizes, which traditional_costs pads to even, one or two
    # cost bands (half-scale heights 16 and 17), and half-scale widths
    # around DEPTH.
    @settings(max_examples=60, deadline=None)
    @given(h=st.one_of(st.sampled_from([1, 2 * _BAND_ROWS, 2 * _BAND_ROWS + 1, 80]),
                       st.integers(1, 80)),
           w=st.one_of(st.sampled_from([2 * DEPTH - 1, 2 * DEPTH, 2 * DEPTH + 1, 440]),
                       st.integers(1, 440)),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_reference_over_shapes(self, h, w, seed):
        r = np.random.default_rng(seed)
        left, right = Image(r.random((3, h, w))), Image(r.random((3, h, w)))
        got = traditional_match(left, right)
        want = traditional_match_reference(left, right, MAX_DISPARITY)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.valid.tobytes() == want.valid.tobytes()

    # Odd widths are padded to even first; W is the padded half width, and
    # the candidates past it change nothing.
    @pytest.mark.parametrize("width", [60, 59])
    def test_candidates_stop_at_half_scale_width(self, rng, width):
        left = Image(rng.random((3, 40, width)))
        right = Image(rng.random((3, 40, width)))
        np.testing.assert_array_equal(
            traditional_match(left, right).values,
            traditional_match_reference(left, right, 60).values,
        )

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
        peak = peak_bytes(lambda: traditional_match(left, right))
        assert peak <= TRADITIONAL_MATCH_PEAK_MB * 1e6, f"peak {peak / 1e6:.1f} MB"
