"""Acceptance suite: one test per release criterion.

Each test prints a PASS line when its assertions hold (run with -s or
look at captured output).  Tolerances are fixed here, not calibrated.
"""

import time

import numpy as np
import pytest

from mscv.cli import generate_synthetic_pair, parse_plan
from mscv.costvol import (
    CENSUS_BITS,
    CostVolume,
    _absdiff,
    _hamming,
    _plane,
    census_transform,
    correlate_1d,
)
from mscv.disparity import (
    DiscontinuityMask,
    LossParams,
    discontinuity_mask,
    loss_eval,
    loss_grad,
)
from mscv.imagekit import (
    DisparityMap,
    Image,
    mean_pool_2x,
    read_image,
    read_pfm,
    rgb_to_yuv,
    write_image,
    write_pfm,
)
from mscv.metrics import evaluate
from mscv.network import (
    WeightStore,
    _layer,
    full_forward,
    init_weights,
    load_weights,
    save_weights,
)
from mscv.tensorops import (
    ConvParams,
    bilinear_resize,
    conv2d,
    deconv2d_s2,
)

from oracles import (
    ad_volume_oracle,
    assemble_traditional,
    bilinear_oracle,
    census_oracle,
    conv2d_f64,
    conv2d_oracle,
    correlation_oracle,
    deconv_f64,
    hamming_volume_oracle,
    mask_oracle,
)


def ok(n, text):
    print(f"PASS criterion {n}: {text}")


def plane(data):
    return Image(np.asarray(data, dtype=np.float64)[None])


def plane_volume(left, right, max_d, fill, cost):
    # The per-disparity planes that traditional_costs streams, as one volume.
    vol = np.empty((max_d, *left.shape))
    for d in range(max_d):
        _plane(left.reshape(-1), right.reshape(-1), d, fill, cost, vol[d])
    return vol


def test_criterion_01_census_oracle():
    rng = np.random.default_rng(101)
    # CPU time of this process: wall time also counts other processes' load.
    t0 = time.process_time()
    for _ in range(100):
        data = rng.random((16, 16))
        got = census_transform(plane(data))
        np.testing.assert_array_equal(got, census_oracle(data))
    elapsed = time.process_time() - t0
    assert elapsed < 1.0, f"census oracle sweep took {elapsed:.2f}s"
    ok(1, f"100 random 16x16 census planes exact in {elapsed:.2f}s")


def test_criterion_02_hamming_ad_oracles():
    rng = np.random.default_rng(102)
    for _ in range(10):
        dl = census_transform(plane(rng.random((16, 16))))
        dr = census_transform(plane(rng.random((16, 16))))
        got = plane_volume(dl, dr, 8, CENSUS_BITS, _hamming)
        np.testing.assert_array_equal(got, hamming_volume_oracle(dl, dr, 8))
        l = rng.random((16, 16)) - 0.5
        r = rng.random((16, 16)) - 0.5
        got = plane_volume(l, r, 8, 1.0, _absdiff)
        np.testing.assert_array_equal(got, ad_volume_oracle(l, r, 8))
    ok(2, "Hamming and AD volumes exactly match brute-force oracles")


def test_criterion_03_synthetic_traditional_path():
    plan = parse_plan("0:128:0,128:256:4,256:384:8,384:512:16", 512)
    left, right, _gt = generate_synthetic_pair(103, 512, 256, plan)
    t0 = time.perf_counter()
    lh = rgb_to_yuv(mean_pool_2x(left))
    rh = rgb_to_yuv(mean_pool_2x(right))
    vol = plane_volume(
        census_transform(Image(lh.data[0:1])),
        census_transform(Image(rh.data[0:1])),
        96, CENSUS_BITS, _hamming,
    )
    half = 2.0 * np.argmin(vol, axis=0)  # half-scale candidates count 2 px
    elapsed = time.perf_counter() - t0
    full = np.repeat(np.repeat(half, 2, axis=0), 2, axis=1)
    assert (np.mod(full, 2) == 0).all()  # full-res units, multiples of 2
    # Non-occluded interior: away from image borders and region seams.
    interior = np.zeros((256, 512), dtype=bool)
    interior[8:-8, 8:-8] = True
    for x0, _, _ in plan[1:]:
        interior[:, x0 - 8 : x0 + 24] = False
    d_of_x = np.zeros(512)
    for x0, x1, d in plan:
        d_of_x[x0:x1] = d
    sel = interior & (np.arange(512) - d_of_x >= 0)[None, :]
    rate = (full[sel] == np.broadcast_to(d_of_x, (256, 512))[sel]).mean()
    assert rate >= 0.95, f"recovery rate {rate:.3f}"
    assert elapsed < 5.0, f"256x512 traditional path took {elapsed:.2f}s"
    ok(3, f"census WTA recovers {100 * rate:.2f}% of interior in {elapsed:.2f}s")


def test_criterion_04_correlation_oracle_and_shift():
    rng = np.random.default_rng(104)
    for _ in range(10):
        fl = rng.standard_normal((4, 5, 6))
        fr = rng.standard_normal((4, 5, 6))
        got = correlate_1d(fl, fr, 4)
        np.testing.assert_allclose(got.costs, correlation_oracle(fl, fr, 4),
                                   atol=1e-6)
    w = 20
    fr = np.zeros((w, 2, w))
    fr[np.arange(w), :, np.arange(w)] = 1.0
    for k in (0, 3, 7):
        fl = np.zeros_like(fr)
        fl[:, :, k:] = fr[:, :, : w - k] if k else fr[:, :, :]
        vol = correlate_1d(fl, fr, 10)
        best = np.argmax(vol.costs, axis=0)
        np.testing.assert_array_equal(best[:, k:], k)
    ok(4, "correlation matches triple-loop oracle; argmax recovers shifts")


def test_criterion_05_normalization():
    rng = np.random.default_rng(105)
    mk = lambda: CostVolume(rng.random((96, 10, 14)) * 24)
    out = assemble_traditional(mk(), mk(), mk())
    assert abs(out.mean()) < 1e-6
    assert abs(out.var() - 1.0) < 1e-5
    const = lambda: CostVolume(np.full((96, 4, 4), 3.0))
    zero = assemble_traditional(const(), const(), const())
    assert (zero == 0.0).all()
    ok(5, "288-channel normalization statistics and zero-variance guard hold")


def test_criterion_06_mask_oracle_and_worked_patterns():
    rng = np.random.default_rng(106)
    for _ in range(10_000):
        # Monotone ramp with injected dips.
        d = np.round(rng.random(64) * 3, 2)
        for j in rng.integers(0, 64, size=rng.integers(0, 4)):
            d[j:] += int(rng.integers(0, 8))
        eps = float(rng.random() * 6)
        got = discontinuity_mask(DisparityMap(d[None], valid=np.ones((1, 64), bool)),
                                 eps).flags[0]
        np.testing.assert_array_equal(got, mask_oracle(d, eps))
    to_d = lambda y: np.arange(len(y)) - np.asarray(y, dtype=np.float64)
    big = discontinuity_mask(
        DisparityMap(to_d([1, 2, 3, 9, 4, 5, 6, 10, 11])[None],
                     valid=np.ones((1, 9), bool)), 3.0
    )
    np.testing.assert_array_equal(big.flags[0], [0, 0, 0, 1, 1, 0, 0, 0, 0])
    small = discontinuity_mask(
        DisparityMap(to_d([1, 2, 3, 9, 4, 5, 6, 7, 11])[None],
                     valid=np.ones((1, 9), bool)), 5.0
    )
    np.testing.assert_array_equal(small.flags[0], [0, 0, 0, 1, 1, 0, 0, 1, 1])
    ok(6, "mask equals run-enumeration oracle on 10,000 rows; worked patterns exact")


def zero_mask(shape):
    return DiscontinuityMask(np.zeros(shape, dtype=np.uint8))


def test_criterion_07_loss_values():
    rng = np.random.default_rng(107)
    values = rng.random((6, 6)) * 190 + 0.5
    gt = DisparityMap(values.copy())
    pred = DisparityMap(values.copy(), valid=np.ones_like(values, bool))
    mean, _ = loss_eval(pred, gt, zero_mask(values.shape))
    assert mean == 1.0
    gt1 = DisparityMap(np.full((1, 1), 100.0))
    pred1 = DisparityMap(np.full((1, 1), 292.0), valid=np.ones((1, 1), bool))
    mean1, _ = loss_eval(pred1, gt1, zero_mask((1, 1)))
    assert abs(mean1 - 192.0 ** 0.125) < 1e-9
    upper = 192.0 ** 0.125
    for _ in range(50):
        gv = rng.random((8, 8)) * 190 + 0.5
        pv = np.clip(gv + rng.standard_normal((8, 8)) * 40, 0.0, 191.9)
        g = DisparityMap(gv)
        p = DisparityMap(pv, valid=np.ones_like(pv, bool))
        flags = DiscontinuityMask((rng.random((8, 8)) > 0.5).astype(np.uint8))
        mean, per_pixel = loss_eval(p, g, flags)
        assert 1.0 <= mean <= upper
        assert per_pixel[g.valid].min() >= 1.0 and per_pixel[g.valid].max() <= upper
        params = LossParams(tau=1.0, lam=0.0)
        m0, pp0 = loss_eval(p, g, zero_mask((8, 8)), params)
        m1, pp1 = loss_eval(p, g, flags, params)
        assert m0 == m1 and (pp0 == pp1).all()
    ok(7, "loss floor, 192-px ceiling, range bounds, lambda=0 mask independence")


def test_criterion_08_loss_gradient():
    rng = np.random.default_rng(108)
    h = 1e-4
    checked = 0
    while checked < 1000:
        gv = rng.random((20, 20)) * 150 + 20
        pv = gv + rng.uniform(2, 30, (20, 20)) * rng.choice([-1, 1], (20, 20))
        gt = DisparityMap(gv)
        mask = DiscontinuityMask((rng.random((20, 20)) > 0.5).astype(np.uint8))
        valid = np.ones((20, 20), bool)
        grad = loss_grad(DisparityMap(pv, valid=valid), gt, mask)
        _, up = loss_eval(DisparityMap(pv + h, valid=valid), gt, mask)
        _, dn = loss_eval(DisparityMap(pv - h, valid=valid), gt, mask)
        fd = (up - dn) / (2 * h)
        sel = gt.valid & (grad != 0)
        np.testing.assert_allclose(grad[sel], fd[sel], rtol=1e-4)
        checked += int(sel.sum())
    clamped_pred = DisparityMap(np.full((2, 2), 50.4), valid=np.ones((2, 2), bool))
    clamped_gt = DisparityMap(np.full((2, 2), 50.0))
    grad = loss_grad(clamped_pred, clamped_gt, zero_mask((2, 2)))
    assert (grad == 0.0).all()
    ok(8, f"gradient matches central differences on {checked} pixels; 0 when clamped")


def test_criterion_09_convolution_engine():
    rng = np.random.default_rng(109)
    x = rng.standard_normal((3, 6, 7)).astype(np.float32)
    for stride in (1, 2):
        p = ConvParams(
            rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
            rng.standard_normal(4).astype(np.float32),
            stride=stride,
        )
        expected = conv2d_oracle(
            x.astype(np.float64), p.weights.astype(np.float64),
            p.bias.astype(np.float64), stride=stride,
        )
        np.testing.assert_allclose(conv2d(x, p), expected, atol=1e-5)
    w = rng.standard_normal((4, 3, 2, 2)).astype(np.float32)
    xc = rng.standard_normal((3, 6, 8)).astype(np.float32)
    z = rng.standard_normal((4, 3, 4)).astype(np.float32)
    lhs = float((conv2d(xc, ConvParams(w, np.zeros(4), 2)) * z).sum())
    rhs = float(
        (xc * deconv2d_s2(z, ConvParams(w.transpose(1, 0, 2, 3), np.zeros(3), 2))).sum()
    )
    assert abs(lhs - rhs) < 1e-5 * max(1.0, abs(lhs))
    # Batch norm folded into a conv and a deconv layer, against the
    # float64 layer followed by the batch-norm formula and ReLU.
    for name, shape, layer_f64 in (
        ("unet.enc0", (16, 3, 3, 3), conv2d_f64),
        ("unet.up2.deconv", (64, 128, 2, 2), deconv_f64),
    ):
        o, i = shape[:2]
        bound = 1.0 / np.sqrt(np.prod(shape[1:]))
        params = {
            "w": rng.uniform(-bound, bound, shape), "b": rng.standard_normal(o),
            "bn.mean": rng.standard_normal(o), "bn.var": rng.random(o) + 0.1,
            "bn.gamma": rng.standard_normal(o), "bn.beta": rng.standard_normal(o),
        }
        params = {k: v.astype(np.float32) for k, v in params.items()}
        xb = rng.standard_normal((i, 4, 4)).astype(np.float32)
        store = WeightStore({f"{name}.{k}": v for k, v in params.items()})
        bn = {k: params[f"bn.{k}"].astype(np.float64)[:, None, None]
              for k in ("mean", "var", "gamma", "beta")}
        y = layer_f64(xb, params["w"], params["b"])
        want = np.maximum(
            bn["gamma"] * (y - bn["mean"]) / np.sqrt(bn["var"] + 1e-5) + bn["beta"], 0.0
        )
        np.testing.assert_allclose(_layer(store, name, xb), want, atol=1e-5)
    xr = rng.random((2, 5, 4)).astype(np.float32)
    np.testing.assert_allclose(
        bilinear_resize(xr, 9, 7), bilinear_oracle(xr, 9, 7), atol=1e-5
    )
    ok(9, "conv/deconv/folded batchnorm/bilinear match oracles; adjoint identity holds")


@pytest.mark.slow
def test_criterion_10_full_forward_kitti_size(forward_probe):
    rng = np.random.default_rng(110)
    left = Image(rng.random((3, 376, 1240)))
    right = Image(rng.random((3, 376, 1240)))
    store = init_weights(0)
    t0 = time.perf_counter()
    a = full_forward(left, right, store)
    elapsed = time.perf_counter() - t0
    b = full_forward(left, right, store)
    c = full_forward(left, right, store, threads=4)
    assert a.values.shape == (376, 1240)
    assert np.isfinite(a.values).all()
    assert (a.values == b.values).all()
    assert (a.values == c.values).all()
    # Reduction chain 288-144-72-36-32: trad.red0 reads the 288-channel
    # volume as band GEMMs, with weights _layer checks against the table.
    assert store["trad.red0.w"].shape == (144, 288, 1, 1)
    chain = [("trad.red0", None, 144), ("trad.red1", 144, 72), ("trad.red2", 72, 36),
             ("trad.red3", 36, 32)]
    assert [l for l in forward_probe.layers if l[0].startswith("trad.red")] == chain * 3
    # Padded canvas is 384x1248; refined features at half scale.
    refined = forward_probe.refined
    assert [r.shape for r in refined] == [(32, 192, 624)] * 3
    assert all(r.tobytes() == refined[0].tobytes() for r in refined)
    assert elapsed < 120.0, f"full forward took {elapsed:.1f}s"
    ok(10, f"376x1240 forward: finite, bit-identical map and refined, {elapsed:.1f}s")


def test_criterion_11_metrics():
    gt = DisparityMap(np.full((2, 2), 50.0))
    errors = np.array([[0.0, 1.0], [2.0, 5.0]])
    pred = DisparityMap(gt.values + errors, valid=np.ones((2, 2), bool))
    report = evaluate(pred, gt)
    assert report.epe == 2.0
    assert report.outlier_3px == 25.0
    assert report.outlier_5px == 0.0  # strict inequality
    rng = np.random.default_rng(111)
    for _ in range(50):
        gv = rng.random((8, 8)) * 100 + 1
        pv = gv + rng.random((8, 8)) * 8
        g = DisparityMap(gv)
        p = DisparityMap(pv, valid=np.ones_like(pv, bool))
        fg = rng.random((8, 8)) > 0.4
        r = evaluate(p, g, fg)
        d1_bg, d1_fg, d1_all = r.d1_bg, r.d1_fg, r.d1_all
        n = g.valid.sum()
        n_fg = (g.valid & fg).sum()
        lhs = d1_all * n
        rhs = (d1_bg or 0.0) * (n - n_fg) + (d1_fg or 0.0) * n_fg
        assert abs(lhs - rhs) < 1e-9 * max(1.0, lhs)
    ok(11, "hand-computed metric examples exact; D1 weighted identity holds")


def test_criterion_12_round_trips(tmp_path):
    rng = np.random.default_rng(112)
    store = WeightStore(
        {
            "a.w": rng.standard_normal((2, 3, 1, 1)).astype(np.float32),
            "a.b": rng.standard_normal(2).astype(np.float32),
        }
    )
    wp = tmp_path / "w.bin"
    save_weights(store, wp)
    loaded = load_weights(wp)
    for name in store:
        assert loaded[name].tobytes() == store[name].tobytes()
    wp2 = tmp_path / "w2.bin"
    save_weights(loaded, wp2)
    assert wp.read_bytes() == wp2.read_bytes()

    img = Image(rng.integers(0, 256, (3, 9, 11)).astype(np.float64) / 255.0)
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    write_image(img, p1)
    write_image(read_image(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()

    dmap = DisparityMap(
        (rng.random((7, 5)) * 190 + 0.5).astype(np.float32).astype(np.float64)
    )
    f1, f2 = tmp_path / "a.pfm", tmp_path / "b.pfm"
    write_pfm(dmap, f1)
    write_pfm(read_pfm(f1), f2)
    assert f1.read_bytes() == f2.read_bytes()
    ok(12, "weight container, PPM, and PFM round-trips are bit-exact")
