"""Weight container, initialization, and forward-pass shape/determinism."""

import collections
import concurrent.futures
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mscv.network
from mscv.costvol import _BAND_ROWS, _CORR_COLS, CostVolume
from mscv.imagekit import Image, mean_pool_2x, rgb_to_yuv
from mscv.network import (
    DEPTH,
    WeightError,
    _layer,
    architecture,
    architecture_manifest,
    cascade_forward,
    describe_architecture,
    disparity_head,
    full_forward,
    guide_encoder,
    hourglass_forward,
    init_weights,
    load_weights,
    reduce_correlation,
    reduce_traditional,
    save_weights,
    unet_features,
    validate_store,
)
from mscv.tensorops import _BAND_PIXELS, ConvParams, concat_channels, conv2d, relu

from oracles import (
    ad_volume_oracle,
    assemble_traditional,
    census_oracle,
    conv2d_f64,
    conv2d_oracle,
    correlation_f64,
    correlation_oracle,
    deconv_f64,
    deconv_oracle,
    forward_oracle,
    hamming_volume_oracle,
    traditional_volumes,
)


@pytest.fixture(scope="module")
def store():
    return init_weights(7)


def shapes(store):
    return [(name, arr.shape) for name, arr in store.items()]


class TestWeightContainer:
    def test_round_trip_bit_exact(self, tmp_path, store):
        path = tmp_path / "w.bin"
        save_weights(store, path)
        loaded = load_weights(path)
        assert list(loaded) == list(store)
        for name, arr in store.items():
            assert loaded[name].tobytes() == arr.tobytes()

    def test_empty_store_header_only(self, tmp_path):
        path = tmp_path / "empty.bin"
        save_weights({}, path)
        assert path.read_bytes() == b"MSCV1" + b"\x00" * 4
        assert load_weights(path) == {}

    def test_single_entry_hand_assembled(self, tmp_path):
        # magic | count=1 | namelen=1 "k" | rank=2 | dims 2,2 | 4 floats
        payload = np.array([1, 2, 3, 4], dtype="<f4").tobytes()
        raw = (
            b"MSCV1"
            + (1).to_bytes(4, "little")
            + (1).to_bytes(2, "little")
            + b"k"
            + (2).to_bytes(1, "little")
            + (2).to_bytes(4, "little")
            + (2).to_bytes(4, "little")
            + payload
        )
        path = tmp_path / "hand.bin"
        path.write_bytes(raw)
        loaded = load_weights(path)
        np.testing.assert_array_equal(loaded["k"], [[1, 2], [3, 4]])
        # And the writer reproduces the same bytes.
        out = tmp_path / "out.bin"
        save_weights(loaded, out)
        assert out.read_bytes() == raw

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE!" + b"\x00" * 4)
        with pytest.raises(WeightError, match="magic"):
            load_weights(path)

    def test_truncated_payload_names_parameter(self, tmp_path):
        raw = (
            b"MSCV1"
            + (1).to_bytes(4, "little")
            + (1).to_bytes(2, "little")
            + b"q"
            + (1).to_bytes(1, "little")
            + (4).to_bytes(4, "little")
            + b"\x00" * 8  # half the payload
        )
        path = tmp_path / "trunc.bin"
        path.write_bytes(raw)
        with pytest.raises(WeightError, match="'q'"):
            load_weights(path)

    def test_truncation_at_every_offset_rejected(self, tmp_path):
        small = {
            "a": np.float32([1.5]).reshape(()),
            "bb": np.arange(6, dtype=np.float32).reshape(2, 3),
        }
        path = tmp_path / "small.bin"
        save_weights(small, path)
        raw = path.read_bytes()
        assert shapes(load_weights(path)) == shapes(small)
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(WeightError, match="truncated"):
                load_weights(path)

    def test_huge_declared_dims_rejected_before_reading(self, tmp_path):
        raw = (
            b"MSCV1"
            + (1).to_bytes(4, "little")
            + (1).to_bytes(2, "little")
            + b"k"
            + (2).to_bytes(1, "little")
            + (100000).to_bytes(4, "little")
            + (100000).to_bytes(4, "little")
            + b"\x00" * 16
        )
        path = tmp_path / "huge.bin"
        path.write_bytes(raw)
        with pytest.raises(WeightError, match="'k'"):
            load_weights(path)

    def test_repeated_name_rejected(self, tmp_path):
        path = tmp_path / "w.bin"
        save_weights({"a": np.float32([1.0])}, path)
        entry = path.read_bytes()[9:]  # after the magic and the entry count
        path.write_bytes(b"MSCV1" + (2).to_bytes(4, "little") + entry + entry)
        with pytest.raises(WeightError, match="repeated parameter 'a'"):
            load_weights(path)

    def test_bytes_after_last_entry_rejected(self, tmp_path, store):
        path = tmp_path / "w.bin"
        save_weights(store, path)
        path.write_bytes(path.read_bytes() + b"garbage")
        with pytest.raises(WeightError, match="7 bytes after the last entry"):
            load_weights(path)

    @pytest.mark.parametrize("name, dims", [
        (b"\xff", (1,)),  # name not UTF-8
        (b"k", (1,) * 65),  # more dims than NumPy allows
        (b"k", (2**32 - 1,) * 3 + (0,)),  # no elements, but too large a shape
    ])
    def test_malformed_entry_rejected(self, tmp_path, name, dims):
        raw = (
            b"MSCV1"
            + (1).to_bytes(4, "little")
            + len(name).to_bytes(2, "little")
            + name
            + len(dims).to_bytes(1, "little")
            + b"".join(d.to_bytes(4, "little") for d in dims)
            + b"\x00" * (4 * math.prod(dims))
        )
        path = tmp_path / "bad.bin"
        path.write_bytes(raw)
        with pytest.raises(WeightError):
            load_weights(path)


class TestInitWeights:
    def test_deterministic_across_calls(self):
        a, b = init_weights(3), init_weights(3)
        assert list(a) == list(b)
        for name in a:
            assert (a[name] == b[name]).all()

    def test_manifest_matches_architecture(self, store):
        assert shapes(store) == architecture_manifest()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0$"):
            init_weights(-1)

    def test_param_count_invariant_across_seeds(self):
        count = lambda store: sum(a.size for a in store.values())
        assert count(init_weights(0)) == count(init_weights(99))

    def test_nonzero_variance_per_entry(self, store):
        # Running BN statistics (mean 0 / var 1 constants) excluded.
        for name, arr in store.items():
            if name.endswith((".bn.mean", ".bn.var")) or arr.size < 2:
                continue
            assert arr.var() > 0, name

    @pytest.mark.parametrize("seed", [0, 7])
    def test_draw_order(self, seed):
        # Per layer in table order: w then b from U(±1/√fan_in), then BN
        # gamma from U(0.9, 1.1) and beta from U(-0.1, 0.1), mean 0, var 1.
        rng = np.random.default_rng(seed)
        want = []
        for l in architecture():
            bound = math.sqrt(1.0 / (l.in_c * l.kh * l.kw))
            want += [(f"{l.name}.w", rng.uniform(-bound, bound, (l.out_c, l.in_c, l.kh, l.kw))),
                     (f"{l.name}.b", rng.uniform(-bound, bound, l.out_c))]
            if l.bn:
                want += [(f"{l.name}.bn.gamma", rng.uniform(0.9, 1.1, l.out_c)),
                         (f"{l.name}.bn.beta", rng.uniform(-0.1, 0.1, l.out_c)),
                         (f"{l.name}.bn.mean", np.zeros(l.out_c)),
                         (f"{l.name}.bn.var", np.ones(l.out_c))]
        got = init_weights(seed)
        assert list(got) == [name for name, _ in want]
        for name, value in want:
            arr = got[name]
            assert (arr.dtype, arr.shape) == (np.float32, value.shape), name
            assert arr.tobytes() == value.astype(np.float32).tobytes(), name

    def test_validate_store_flags_bad_shape(self, store):
        broken = dict(store)
        broken["head.conv.w"] = np.zeros((1, 31, 1, 1), dtype=np.float32)
        with pytest.raises(WeightError, match="head.conv.w"):
            validate_store(broken)

    def test_validate_store_flags_missing(self, store):
        broken = dict(store)
        del broken["unet.enc0.b"]
        with pytest.raises(WeightError, match="unet.enc0.b"):
            validate_store(broken)

    def test_validate_store_flags_bn_length(self, store):
        broken = dict(store)
        broken["unet.up2.deconv.bn.var"] = np.ones(63, dtype=np.float32)
        with pytest.raises(WeightError, match="unet.up2.deconv.bn.var"):
            validate_store(broken)

    def test_validate_store_flags_unexpected(self, store):
        # Layers of a 4-level network: the first extra in file order is named.
        bigger = dict(store)
        bigger["hg1.down2.c1.w"] = np.zeros((32, 32, 3, 3), dtype=np.float32)
        bigger["guide.d4.a.w"] = np.zeros((32, 32, 3, 3), dtype=np.float32)
        with pytest.raises(WeightError, match=r"^parameter 'hg1.down2.c1.w' is not in the architecture$"):
            validate_store(bigger)
        # The per-parameter checks keep precedence over the extra entries.
        del bigger["unet.enc0.b"]
        with pytest.raises(WeightError, match="missing parameter 'unet.enc0.b'"):
            validate_store(bigger)


class TestDescribe:
    def test_lists_every_parameter_and_total(self, store):
        text = describe_architecture()
        for name, _ in architecture_manifest():
            assert name in text
        assert str(sum(a.size for a in store.values())) in text


class TestLayer:
    """Batch norm folded by ``_layer`` against the float64 formula."""

    LAYERS = [
        pytest.param("unet.enc0", conv2d_f64, 3, id="unet.enc0"),
        pytest.param("unet.up2.deconv", deconv_f64, 128, id="unet.up2.deconv"),
    ]

    @staticmethod
    def run(rng, store, name, layer_f64, in_c, **bn):
        # bn: running statistics and affine parameters, float64 per channel.
        o = store[f"{name}.b"].shape[0]
        stats = {"mean": np.zeros(o), "var": np.ones(o), "gamma": np.ones(o),
                 "beta": np.zeros(o), **bn}
        layer = dict(store)
        for k, v in stats.items():
            layer[f"{name}.bn.{k}"] = v.astype(np.float32)
        x = rng.standard_normal((in_c, 4, 6)).astype(np.float32)
        y = layer_f64(x, store[f"{name}.w"], store[f"{name}.b"])
        g = {k: layer[f"{name}.bn.{k}"].astype(np.float64)[:, None, None] for k in stats}
        want = g["gamma"] * (y - g["mean"]) / np.sqrt(g["var"] + 1e-5) + g["beta"]
        return _layer(layer, name, x), np.maximum(want, 0.0)

    @pytest.mark.parametrize("name,layer_f64,in_c", LAYERS)
    def test_bn_identity_parameters(self, rng, store, name, layer_f64, in_c):
        got, want = self.run(rng, store, name, layer_f64, in_c)
        np.testing.assert_allclose(got, want, atol=1e-6)

    @pytest.mark.parametrize("name,layer_f64,in_c", LAYERS)
    def test_bn_large_negative_beta_floors_to_zero(self, rng, store, name, layer_f64, in_c):
        o = store[f"{name}.b"].shape[0]
        got, _ = self.run(rng, store, name, layer_f64, in_c, beta=np.full(o, -1e6))
        np.testing.assert_array_equal(got, 0.0)

    @pytest.mark.parametrize("name,layer_f64,in_c", LAYERS)
    def test_bn_matches_scalar_formula(self, rng, store, name, layer_f64, in_c):
        o = store[f"{name}.b"].shape[0]
        got, want = self.run(
            rng, store, name, layer_f64, in_c,
            mean=rng.standard_normal(o), var=rng.random(o) + 0.1,
            gamma=rng.standard_normal(o), beta=rng.standard_normal(o),
        )
        assert (want > 0).any() and (want == 0).any()
        np.testing.assert_allclose(got, want, atol=1e-5)


class TestLayerWeights:
    """``_layer`` checks each layer's parameters against the table, so a
    kernel of the wrong size raises instead of running as a different conv,
    a bias or BN vector of the wrong length instead of broadcasting, and a
    non-finite value or a negative variance instead of giving a NaN map."""

    RUNS = {
        "unet": lambda s, r: unet_features(Image(r.random((3, 32, 32))), s),
        "guide": lambda s, r: guide_encoder(r.random((32, 8, 8), np.float32), s),
        "hourglass": lambda s, r: hourglass_forward(
            r.random((48, 8, 12), np.float32),
            guide_encoder(r.random((32, 16, 24), np.float32), s)[1:], s, 1),
        "head": lambda s, r: disparity_head(r.random((32, 4, 4), np.float32), (8, 8), s),
        "traditional": lambda s, r: reduce_traditional(Image(r.random((3, 16, 16))),
                                                       Image(r.random((3, 16, 16))), s),
        "correlation": lambda s, r: reduce_correlation(*r.random((2, 32, 4, 4), np.float32), s),
    }

    @staticmethod
    def run_broken(rng, store, run, name, value, error):
        # validate_store and the block both reject ``value`` for ``name``.
        broken = dict(store)
        broken[name] = value
        want = re.escape(f"parameter {name!r} {error}")
        with pytest.raises(WeightError, match=want):
            validate_store(broken)
        with pytest.raises(WeightError, match=want):
            TestLayerWeights.RUNS[run](broken, rng)

    @classmethod
    def run_shape(cls, rng, store, run, name, shape):
        cls.run_broken(rng, store, run, name, np.zeros(shape, dtype=np.float32),
                       f"has shape {shape}, expected {store[name].shape}")

    @pytest.mark.parametrize("run,name,shape", [
        pytest.param("unet", "unet.enc0.w", (16, 3, 5, 5), id="unet"),
        pytest.param("guide", "guide.s0.w", (32, 32, 1, 1), id="guide"),
        pytest.param("hourglass", "hg1.down0.c1.w", (32, 32, 1, 1), id="hourglass"),
        pytest.param("head", "head.conv.w", (1, 32, 3, 3), id="head"),
        pytest.param("traditional", "trad.harvest0.w", (32, 35, 1, 1), id="traditional"),
    ])
    def test_wrong_kernel_rejected(self, rng, store, run, name, shape):
        self.run_shape(rng, store, run, name, shape)

    # A (1,) vector would broadcast through the BN fold and the bias add.
    @pytest.mark.parametrize("run,name", [
        pytest.param(run, name, id=name) for run, name in [
            ("unet", "unet.enc0.b"),
            ("unet", "unet.enc0.bn.gamma"),
            ("unet", "unet.up2.deconv.bn.var"),
            ("guide", "guide.s0.b"),
            ("traditional", "trad.red0.b"),
            ("correlation", "corr.reduce.b"),
        ]
    ])
    def test_wrong_vector_rejected(self, rng, store, run, name):
        self.run_shape(rng, store, run, name, (1,))

    # One bad entry is enough.
    @pytest.mark.parametrize("run,name,value,error", [
        pytest.param(run, name, value, error, id=f"{name}={value}")
        for run, name, value, error in [
            ("unet", "unet.enc0.w", np.nan, "is not finite"),
            ("unet", "unet.enc0.bn.var", -1.0, "has a negative variance"),
            ("unet", "unet.up2.deconv.bn.var", -1e-3, "has a negative variance"),
            ("unet", "unet.up1.fuse.bn.gamma", np.inf, "is not finite"),
            ("guide", "guide.s0.b", np.inf, "is not finite"),
            ("hourglass", "hg1.down0.c1.w", np.nan, "is not finite"),
            ("head", "head.conv.w", np.nan, "is not finite"),
            ("traditional", "trad.red0.b", -np.inf, "is not finite"),
            ("correlation", "corr.reduce.w", np.nan, "is not finite"),
        ]
    ])
    def test_bad_value_rejected(self, rng, store, run, name, value, error):
        arr = store[name].copy()
        arr.flat[-1] = value
        self.run_broken(rng, store, run, name, arr, error)

    def test_zero_variance_accepted(self, rng, store):
        broken = dict(store)
        broken["unet.enc0.bn.var"] = np.zeros_like(store["unet.enc0.bn.var"])
        validate_store(broken)
        assert all(np.isfinite(f).all() for f in self.RUNS["unet"](broken, rng))


class TestUnetFeatures:
    def test_output_shapes(self, rng, store):
        img = Image(rng.random((3, 32, 48)))
        f_half, f_quarter = unet_features(img, store)
        assert f_half.shape == (32, 16, 24)
        assert f_quarter.shape == (32, 8, 12)

    def test_deterministic(self, rng, store):
        img = Image(rng.random((3, 32, 32)))
        a = unet_features(img, store)
        b = unet_features(img, store)
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()

    def test_different_inputs_differ(self, rng, store):
        a = unet_features(Image(rng.random((3, 32, 32))), store)
        b = unet_features(Image(rng.random((3, 32, 32))), store)
        assert not (a[0] == b[0]).all()

    def test_non_multiple_16_rejected(self, rng, store):
        with pytest.raises(ValueError):
            unet_features(Image(rng.random((3, 30, 32))), store)


# The reduction chain 288-144-72-36-32 as forward_probe records it.
TRAD_CHAIN = [("trad.red0", None, 144), ("trad.red1", 144, 72), ("trad.red2", 72, 36),
              ("trad.red3", 36, 32)]


class TestReductions:
    @staticmethod
    def reduce(monkeypatch, vols, left_half, store):
        # reduce_traditional on hand-built costs: traditional_costs streams
        # `vols` band by band as (y0, d, planes), planes the (3, rows, W)
        # [C(d), U(d), V(d)].  Each plane is a copy: reduce_traditional
        # centers it in place.
        stacked = np.stack([v.costs for v in vols])

        def costs(left, right):
            return left_half, (
                (y0, d, stacked[:, d, y0 : y0 + _BAND_ROWS].copy())
                for y0 in range(0, stacked.shape[2], _BAND_ROWS)
                for d in range(DEPTH)
            )

        monkeypatch.setattr(mscv.network, "traditional_costs", costs)
        return reduce_traditional(None, None, store)

    @staticmethod
    def trad_volumes(rng, h=8, w=12, depth=96):
        census = rng.integers(0, 25, (depth, h, w)).astype(np.float64)
        return tuple(
            CostVolume(c)
            for c in (census, rng.random((depth, h, w)), rng.random((depth, h, w)))
        )

    @staticmethod
    def reduce_reference(vols, left_half, store):
        # trad.red0 ... trad.harvest2 applied to the normalized, interleaved
        # 288-channel volume, trad.red0 as a plain 1x1 conv.
        x = assemble_traditional(*vols).astype(np.float32)
        x = relu(conv2d(x, ConvParams(store["trad.red0.w"], store["trad.red0.b"])))
        for i in range(1, 4):
            x = _layer(store, f"trad.red{i}", x)
        x = concat_channels([x, left_half.data.astype(np.float32)])
        for i in range(3):
            x = _layer(store, f"trad.harvest{i}", x)
        return x

    def test_traditional_channel_trace_and_shape(self, rng, store, forward_probe,
                                                 monkeypatch):
        # Reduction chain 288-144-72-36-32: trad.red0 reads the 288-channel
        # volume as band GEMMs, with weights _layer checks against the table.
        left_half = Image(rng.random((3, 8, 12)))
        out = self.reduce(monkeypatch, self.trad_volumes(rng), left_half, store)
        assert out.shape == (32, 8, 12)
        assert store["trad.red0.w"].shape == (144, 288, 1, 1)
        assert [l for l in forward_probe.layers if l[0].startswith("trad.red")] == TRAD_CHAIN

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_traditional_matches_assembled_reference(self, rng, seed, monkeypatch):
        weights = init_weights(seed)
        # 8 rows fit in one band; 40 span two full bands and a short third.
        for h in (8, 40):
            left_half = Image(rng.random((3, h, 12)))
            reduce = lambda vols: self.reduce(monkeypatch, vols, left_half, weights)
            near = lambda eps: tuple(
                CostVolume(3.0 + eps * rng.random((96, h, 12)))
                for _ in range(3)
            )
            # Band 0, and so the first plane's mean, lies far from the global one.
            offset = self.trad_volumes(rng, h=h)
            for v in offset:
                v.costs[:, :_BAND_ROWS] += 5.0
            # Random and near-constant volumes (spread 1e-3 .. 1e-9 around
            # 3): float32 rounding only, against outputs of about 0.1.
            for vols in (self.trad_volumes(rng, h=h), near(1e-3), near(1e-6),
                         near(1e-9), offset):
                np.testing.assert_allclose(
                    reduce(vols),
                    self.reduce_reference(vols, left_half, weights),
                    rtol=0, atol=1e-6,
                )
            # Zero variance: both sides see an all-zero normalized volume.
            const = near(0.0)
            np.testing.assert_array_equal(
                reduce(const), self.reduce_reference(const, left_half, weights),
            )

    def test_traditional_hostile_shift(self, rng, store, monkeypatch):
        # The centering shift is the mean of the first plane alone (band 0,
        # d = 0): here 0, while every other plane lies near 1e4, so the shift
        # is off by about σ·√(DEPTH·bands), the bound's worst case.
        for h in (8, 40):
            left_half = Image(rng.random((3, h, 12)))
            vols = tuple(CostVolume(1e4 + rng.random((96, h, 12))) for _ in range(3))
            for v in vols:
                v.costs[0, :_BAND_ROWS] = 0.0
            np.testing.assert_allclose(
                self.reduce(monkeypatch, vols, left_half, store),
                self.reduce_reference(vols, left_half, store),
                rtol=0, atol=1e-6,
            )
            const = tuple(CostVolume(np.full((96, h, 12), 1e4)) for _ in range(3))
            np.testing.assert_array_equal(
                self.reduce(monkeypatch, const, left_half, store),
                self.reduce_reference(const, left_half, store),
            )

    def test_traditional_streams_each_plane_once(self, rng, store, monkeypatch):
        # 48x32 full-resolution pixels are 24x16 half-scale ones: a full band
        # and a short one, each with one popcount per plane d < W = 16 (the
        # planes d >= W are all fill).
        calls = []
        count = np.bitwise_count
        monkeypatch.setattr(np, "bitwise_count", lambda *a, **k: calls.append(a) or count(*a, **k))
        left, right = (Image(rng.random((3, 48, 32))) for _ in range(2))
        reduce_traditional(left, right, store)
        assert len(calls) == 16 * math.ceil(24 / _BAND_ROWS)

    def test_correlation_reduce_shape_and_linearity(self, rng, store):
        # The fused corr.reduce against float64: correlation_f64, then the
        # 1x1 conv's weights, bias and ReLU.  Widths below DEPTH, one the
        # block width does not divide, and 1.  Float32 rounding of 32-term
        # dot products and a 96-term sum stays near 1e-7 on outputs of
        # about 0.3.
        w64 = store["corr.reduce.w"].reshape(32, 96).astype(np.float64)
        b64 = store["corr.reduce.b"].astype(np.float64)
        for h, w in ((6, 10), (3, 3 * _CORR_COLS + 7), (2, 1)):
            fl, fr = rng.standard_normal((2, 32, h, w)).astype(np.float32)
            out = reduce_correlation(fl, fr, store)
            assert out.shape == (32, h, w) and out.dtype == np.float32
            linear = np.tensordot(w64, correlation_f64(fl, fr, 96), 1)
            expected = np.maximum(linear + b64[:, None, None], 0.0)
            assert expected.max() > 0.05
            np.testing.assert_allclose(out, expected, rtol=0, atol=1e-6)

    def test_correlation_wrong_depth_rejected(self, rng, store):
        shallow = dict(store)
        shallow["corr.reduce.w"] = rng.random((32, 48, 1, 1)).astype(np.float32)
        fl = rng.random((32, 6, 10)).astype(np.float32)
        with pytest.raises(WeightError, match=r"'corr.reduce.w' has shape \(32, 48, 1, 1\)"):
            reduce_correlation(fl, fl, shallow)

    def test_correlation_feature_shapes_must_match(self, rng, store):
        fl = rng.random((32, 6, 10)).astype(np.float32)
        with pytest.raises(ValueError, match=r"feature shapes \(32, 6, 10\), \(32, 6, 9\)"):
            reduce_correlation(fl, fl[:, :, :9], store)

    def test_correlation_peak_memory_output_plus_one_block(self, store, peak_bytes):
        # The DEPTH-deep volume is never built: only the (H, B, B+D-1)
        # product block is allocated besides the 32-channel output.
        fl, fr = np.random.default_rng(3).standard_normal((2, 32, 48, 400), dtype=np.float32)
        out_bytes = 4 * 32 * 48 * 400
        block_bytes = 4 * 48 * _CORR_COLS * (_CORR_COLS + 95)
        peak = peak_bytes(lambda: reduce_correlation(fl, fr, store))
        assert peak <= out_bytes + block_bytes + 2**18


class TestGuideEncoder:
    def test_four_scales_halving(self, rng, store):
        trad = rng.standard_normal((32, 16, 24)).astype(np.float32)
        guides = guide_encoder(trad, store)
        assert [g.shape for g in guides] == [
            (32, 16, 24), (32, 8, 12), (32, 4, 6), (32, 2, 3),
        ]

    def test_deterministic(self, rng, store):
        trad = rng.standard_normal((32, 8, 8)).astype(np.float32)
        a = guide_encoder(trad, store)
        b = guide_encoder(trad, store)
        assert all((x == y).all() for x, y in zip(a, b))


class TestCascade:
    @staticmethod
    def inputs(rng, store, hh=16, hw=24):
        feats = lambda c, h, w: rng.standard_normal((c, h, w)).astype(np.float32)
        trad, corr32 = feats(32, hh, hw), feats(32, hh, hw)
        corr48 = feats(48, hh // 2, hw // 2)
        guides = guide_encoder(trad, store)
        return trad, corr32, corr48, guides

    def test_final_shape(self, rng, store):
        trad, corr32, corr48, guides = self.inputs(rng, store)
        refined = cascade_forward(trad, corr32, corr48, guides, store)
        assert refined.shape == (32, 16, 24)

    @pytest.mark.parametrize("level", [
        pytest.param(3, id="sixteenth"), pytest.param(1, id="quarter"),
        pytest.param(0, id="half"),
    ])
    def test_guide_mismatch_names_scale(self, rng, store, level):
        # A guide one row short: the layer that fuses it names both (H, W).
        trad, corr32, corr48, guides = self.inputs(rng, store)
        h, w = guides[level].shape[1:]
        guides[level] = guides[level][:, :-1]
        shapes = re.escape(f"[{(h, w)}, {(h - 1, w)}]")
        with pytest.raises(ValueError, match=rf"inputs differ in \(H, W\): {shapes}"):
            cascade_forward(trad, corr32, corr48, guides, store)

    def test_stage1_rejects_every_guide(self, rng, store):
        # Stage 1 starts at 1/4 scale: it takes the guides from 1/4 down.
        _, _, corr48, guides = self.inputs(rng, store)
        with pytest.raises(ValueError, match="hourglass stage 1 takes 3 guides, got 4"):
            hourglass_forward(corr48, guides, store, 1)

    def test_stage2_rejects_missing_half_guide(self, rng, store):
        # Shapes alone match from 1/4 down; the stage must still run 3 levels.
        _, corr32, _, guides = self.inputs(rng, store)
        x = corr32[:, ::2, ::2]
        with pytest.raises(ValueError, match="hourglass stage 2 takes 4 guides, got 3"):
            hourglass_forward(x, guides[1:], store, 2)

    def test_residual_identity_with_zero_weights(self, rng, store):
        # Zeroing both convs of an identity-shortcut block leaves its
        # non-negative input unchanged.
        from mscv.network import _residual

        zeroed = dict(store)
        for suffix in ("c1", "c2"):
            name = f"hg1.res0.{suffix}"
            zeroed[f"{name}.w"] = np.zeros_like(store[f"{name}.w"])
            zeroed[f"{name}.b"] = np.zeros_like(store[f"{name}.b"])
        x = rng.random((32, 4, 4)).astype(np.float32)
        np.testing.assert_array_equal(_residual(zeroed, "hg1.res0", x), x)

    def test_finite_on_random_seeds(self, rng):
        for seed in range(5):
            w = init_weights(seed)
            r = np.random.default_rng(seed)
            trad, corr32, corr48, guides = self.inputs(r, w)
            refined = cascade_forward(trad, corr32, corr48, guides, w)
            assert np.isfinite(refined).all()


class TestDisparityHead:
    def test_output_dims_and_clamp(self, rng, store):
        refined = rng.standard_normal((32, 8, 12)).astype(np.float32)
        dmap = disparity_head(refined, (15, 23), store)
        assert (dmap.height, dmap.width) == (15, 23)
        assert (dmap.values >= 0).all()

    def test_constant_input_constant_map(self, store):
        # Constant features + 1x1 head = constant pre-clamp output.
        refined = np.full((32, 4, 4), 0.5, dtype=np.float32)
        dmap = disparity_head(refined, (8, 8), store)
        assert np.allclose(dmap.values, dmap.values[0, 0], atol=1e-6)

    def test_negative_head_output_clamped_to_zero(self, rng, store):
        forced = dict(store)
        forced["head.conv.w"] = np.zeros((1, 32, 1, 1), dtype=np.float32)
        forced["head.conv.b"] = np.array([-3.0], dtype=np.float32)
        refined = rng.random((32, 4, 4)).astype(np.float32)
        dmap = disparity_head(refined, (8, 8), forced)
        np.testing.assert_array_equal(dmap.values, 0.0)


class TestFullForward:
    # init_weights(7) gives an all-zero map on random pairs, so the
    # features that reach the head are compared as well.
    def test_dims_determinism_and_threads(self, rng, store, forward_probe):
        left = Image(rng.random((3, 40, 72)))
        right = Image(rng.random((3, 40, 72)))
        a = full_forward(left, right, store)
        b = full_forward(left, right, store)
        c = full_forward(left, right, store, threads=4)
        assert a.values.shape == (40, 72)
        assert (a.values == b.values).all()
        assert (a.values == c.values).all()
        assert np.isfinite(a.values).all()
        refined = [r.tobytes() for r in forward_probe.refined]
        assert len(refined) == 3 and refined[0] == refined[1] == refined[2]
        assert forward_probe.refined[0].any()

    def test_worker_count_follows_threads(self, rng, store, monkeypatch, forward_probe):
        workers = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        left = Image(rng.random((3, 32, 48)))
        right = Image(rng.random((3, 32, 48)))
        serial = full_forward(left, right, store, threads=1)
        threaded = full_forward(left, right, store, threads=2)
        assert workers == [2]
        assert serial.values.tobytes() == threaded.values.tobytes()
        serial_refined, threaded_refined = forward_probe.refined
        assert serial_refined.tobytes() == threaded_refined.tobytes()
        assert serial_refined.any()

    def test_non_finite_weight_rejected(self, rng, store):
        # The forward checks each layer's parameters as it loads them.
        w = store["head.conv.w"].copy()
        w[0, 5] = np.nan
        left = Image(rng.random((3, 32, 48)))
        with pytest.raises(WeightError, match=r"parameter 'head\.conv\.w' is not finite"):
            full_forward(left, left, {**store, "head.conv.w": w})

    def test_trace_channels(self, rng, store, forward_probe):
        left = Image(rng.random((3, 32, 48)))
        right = Image(rng.random((3, 32, 48)))
        full_forward(left, right, store)
        assert store["trad.red0.w"].shape == (144, 288, 1, 1)
        assert [l for l in forward_probe.layers if l[0].startswith("trad.red")] == TRAD_CHAIN
        # padded 32x48 halves to 16x24
        assert [r.shape for r in forward_probe.refined] == [(32, 16, 24)]

    def test_every_layer_applied_once_in_table_order(self, rng, store, forward_probe):
        # The architecture table is the one place that decides each layer's
        # weight shape, stride, batch norm, lowering and ReLU: every layer
        # goes through _layer, once per use.
        full_forward(Image(rng.random((3, 32, 48))), Image(rng.random((3, 32, 48))), store)
        applied = [name for name, _, _ in forward_probe.layers]
        names = [l.name for l in architecture()]
        unet = [n for n in names if n.startswith("unet.")]
        # The feature extractor runs once per image of the pair.
        assert [n for n in applied if n in unet] == unet * 2
        assert [n for n in applied if n not in unet] == [n for n in names if n not in unet]

    def test_layer_channels_match_table(self, rng, store, forward_probe):
        # Each conv or deconv reads (summed over its inputs) and writes the
        # channels its table entry lists: trad.harvest0 35, casc.fuse 96.
        # The fused trad.red0 and corr.reduce write 144 and 32.
        full_forward(Image(rng.random((3, 32, 48))), Image(rng.random((3, 32, 48))), store)
        table = {l.name: (None if l.op in ("trad", "corr") else l.in_c, l.out_c)
                 for l in architecture()}
        layers = forward_probe.layers
        assert len(layers) == len(table) + 13  # the 13 unet layers run twice
        assert layers == [(name, *table[name]) for name, _, _ in layers]

    def test_kernels_looked_up_at_call_time(self, rng, store, monkeypatch):
        # _layer calls conv2d and deconv2d_s2 through this module's names, so
        # wrappers put there (perfbench --trace 1 counts conv2d calls) see
        # every call: 76 convs and 10 deconvs per forward.
        calls = collections.Counter()
        for kernel in ("conv2d", "deconv2d_s2"):
            def counted(*args, f=getattr(mscv.network, kernel), kernel=kernel):
                calls[kernel] += 1
                return f(*args)
            monkeypatch.setattr(mscv.network, kernel, counted)
        full_forward(Image(rng.random((3, 32, 48))), Image(rng.random((3, 32, 48))), store)
        assert calls == {"conv2d": 76, "deconv2d_s2": 10}

    def test_refined_independent_of_memory_layout(self, forward_probe, layouts):
        # The smallest unpadded frame on which pooling in a layout-dependent
        # order changed `refined`: four gray levels make exact ties common,
        # so the rounding of the pooled values shows.
        left, right = np.random.default_rng(1).integers(0, 4, (2, 3, 16, 16)) / 3
        weights = scaled_weights(7, 6 ** 0.5)
        for l, r in zip(layouts(left), layouts(right)):
            full_forward(Image(l), Image(r), weights)
        a, b, c = forward_probe.refined
        assert a.tobytes() == b.tobytes() == c.tobytes()

    def test_dim_mismatch_rejected(self, rng, store):
        with pytest.raises(ValueError):
            full_forward(
                Image(rng.random((3, 32, 32))), Image(rng.random((3, 32, 48))), store
            )

    # No thread count below one runs: the check comes before any branch.
    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, rng, store, forward_probe, threads):
        pair = Image(rng.random((3, 32, 48)))
        with pytest.raises(ValueError, match=r"^threads must be >= 1$"):
            full_forward(pair, pair, store, threads=threads)
        assert forward_probe.layers == []


# Largest |full_forward - forward_oracle| allowed on `refined` and on the
# disparity map, as a fraction of the largest |refined| value: float32
# rounding through ~80 layers (measured up to 1e-6).
FORWARD_RTOL = 1e-5
# tracemalloc peak of one 376x1240 full_forward: 130.0 MB measured, in
# trad.red1 (138.3 MB in corr.reduce before the correlation volume was
# reduced block by block, 245 MB before unpadded convs stopped copying their
# input and activations were freed at their last use, 170.8 MB before the
# traditional costs streamed one disparity plane at a time); a re-inflated
# peak fails.
KITTI_FORWARD_PEAK_MB = 133.2


def scaled_weights(seed, gain):
    """``init_weights(seed)`` with every conv weight multiplied by ``gain``."""
    weights = init_weights(seed)
    for name, arr in weights.items():
        if name.endswith(".w"):
            weights[name] = arr * np.float32(gain)
    return weights


@pytest.fixture(scope="module")
def he_weights():
    return scaled_weights(7, 6 ** 0.5)


def assert_matches_oracle(left, right, weights, forward_probe):
    """``full_forward`` at ``threads`` 1 and 2 gives ``forward_oracle``'s
    ``refined`` and map within ``FORWARD_RTOL``."""
    ref_refined, ref_disp = forward_oracle(left, right, weights)
    assert np.abs(ref_refined).max() > 0.05  # a live, non-trivial reference
    atol = FORWARD_RTOL * np.abs(ref_refined).max()
    for threads in (1, 2):
        dmap = full_forward(left, right, weights, threads=threads)
        refined = forward_probe.refined.pop()
        np.testing.assert_allclose(refined, ref_refined, rtol=0, atol=atol)
        np.testing.assert_allclose(dmap.values, ref_disp, rtol=0, atol=atol)


def kitti_pair():
    # The right view shifted by 20 px: a pair whose disparity map is not
    # all zero under scaled_weights(7, sqrt(6)).  Values are those of an
    # 8-bit PPM, multiples of 1/255, in a channel-interleaved (H, W, 3)
    # array seen as (3, H, W): the layout read_image returned before it
    # decoded straight into planar arrays.
    rgb = np.random.default_rng(2024).integers(0, 256, (376, 1240, 3)) / 255
    right = rgb.transpose(2, 0, 1)
    return Image(np.roll(right, 20, axis=2)), Image(right)


class TestForwardOracle:
    @pytest.mark.parametrize("o,i,k,stride,h,w", [
        (3, 2, 3, 1, 5, 7), (2, 3, 3, 2, 7, 5), (4, 3, 2, 2, 6, 8),
        (2, 3, 1, 2, 5, 7), (2, 2, 1, 1, 1, 1),
    ])
    def test_conv_helper_matches_loop_oracle(self, rng, o, i, k, stride, h, w):
        x = rng.standard_normal((i, h, w))
        wts, b = rng.standard_normal((o, i, k, k)), rng.standard_normal(o)
        np.testing.assert_allclose(
            conv2d_f64(x, wts, b, stride), conv2d_oracle(x, wts, b, stride),
            rtol=0, atol=1e-12,
        )

    @pytest.mark.parametrize("o,i,h,w", [(3, 2, 2, 3), (2, 4, 1, 1), (1, 1, 3, 2)])
    def test_deconv_helper_matches_loop_oracle(self, rng, o, i, h, w):
        x = rng.standard_normal((i, h, w))
        wts, b = rng.standard_normal((o, i, 2, 2)), rng.standard_normal(o)
        np.testing.assert_allclose(
            deconv_f64(x, wts, b), deconv_oracle(x, wts, b), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("max_d", [1, 4, 9])
    def test_correlation_helper_matches_loop_oracle(self, rng, max_d):
        fl, fr = rng.standard_normal((2, 5, 3, 7))
        np.testing.assert_allclose(
            correlation_f64(fl, fr, max_d), correlation_oracle(fl, fr, max_d),
            rtol=0, atol=1e-12,
        )

    def test_traditional_helper_matches_loop_oracles(self, rng):
        # 4x6 half-scale planes at max_d 9: planes 6..8 are all fill.
        left, right = Image(rng.random((3, 8, 12))), Image(rng.random((3, 8, 12)))
        lyuv = rgb_to_yuv(mean_pool_2x(left)).data
        ryuv = rgb_to_yuv(mean_pool_2x(right)).data
        census, ad_u, ad_v, left_half = traditional_volumes(left, right, 9)
        np.testing.assert_array_equal(
            census.costs,
            hamming_volume_oracle(census_oracle(lyuv[0]), census_oracle(ryuv[0]), 9),
        )
        np.testing.assert_array_equal(ad_u.costs, ad_volume_oracle(lyuv[1], ryuv[1], 9))
        np.testing.assert_array_equal(ad_v.costs, ad_volume_oracle(lyuv[2], ryuv[2], 9))
        np.testing.assert_array_equal(left_half.data, mean_pool_2x(left).data)

    @pytest.mark.parametrize("h,w,random_bn", [
        pytest.param(32, 64, False, id="32-64"),
        pytest.param(40, 72, False, id="40-72"),
        pytest.param(32, 64, True, id="32-64-random_bn"),
    ])
    @pytest.mark.parametrize("seed", [0, 7, 11])
    @pytest.mark.parametrize("gain", [1.0, 6 ** 0.5])
    def test_full_forward_matches_reference(self, forward_probe, h, w, random_bn, seed, gain):
        # init_weights' fan-in bound shrinks the signal about 2.4x per
        # layer, which hides deep paths (a 32x error in the correlation
        # volume moves the output by under 3e-8, float32 rounding); gain
        # sqrt(6) is He scaling, which keeps every branch visible.
        weights = scaled_weights(seed, gain)
        r = np.random.default_rng(seed + h)
        if random_bn:
            # init_weights leaves mean 0 and var 1, under which a batch-norm
            # fold along the wrong weight axis would go unseen.
            draw = {"mean": lambda n: r.normal(0.0, 0.2, n),
                    "var": lambda n: r.uniform(0.5, 2.0, n),
                    "gamma": lambda n: r.uniform(0.5, 1.5, n),
                    "beta": lambda n: r.normal(0.0, 0.1, n)}
            for name, arr in weights.items():
                if ".bn." in name:
                    draw_k = draw[name.rsplit(".", 1)[1]]
                    weights[name] = draw_k(arr.size).astype(np.float32)
        left, right = Image(r.random((3, h, w))), Image(r.random((3, h, w)))
        assert_matches_oracle(left, right, weights, forward_probe)

    # Shapes the fixed cases miss.  The pair is padded to multiples of 16,
    # so the edges are stated on the padded sizes: one or two 16-row cost
    # bands (half-scale heights 16 and 24), half-scale widths around DEPTH,
    # one or two _CORR_COLS blocks at 1/2 and 1/4 scale, and full-scale
    # conv bands of 4 or 3 rows.  Odd sizes come from the integer draws.
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(h=st.one_of(st.sampled_from([1, 2 * _BAND_ROWS, 2 * _BAND_ROWS + 1, 80]),
                       st.integers(1, 80)),
           w=st.one_of(st.sampled_from([2 * DEPTH - 1, 2 * DEPTH, 2 * DEPTH + 1,
                                        2 * _CORR_COLS, 2 * _CORR_COLS + 1,
                                        4 * _CORR_COLS, 4 * _CORR_COLS + 1,
                                        _BAND_PIXELS // 4, _BAND_PIXELS // 4 + 1, 440]),
                       st.integers(1, 440)),
           seed=st.integers(0, 2**32 - 1))
    def test_full_forward_matches_reference_over_shapes(self, he_weights, forward_probe,
                                                        h, w, seed):
        r = np.random.default_rng(seed)
        left, right = Image(r.random((3, h, w))), Image(r.random((3, h, w)))
        assert_matches_oracle(left, right, he_weights, forward_probe)

    @pytest.mark.slow
    def test_kitti_size_bit_identical_across_threads(self, forward_probe):
        weights = scaled_weights(7, 6 ** 0.5)
        left, right = kitti_pair()
        maps = [full_forward(left, right, weights, threads=t).values for t in (1, 2)]
        refined = forward_probe.refined
        assert maps[0].max() > 0
        assert maps[0].tobytes() == maps[1].tobytes()
        assert refined[0].tobytes() == refined[1].tobytes()
        ref_refined, ref_disp = forward_oracle(left, right, weights)
        atol = FORWARD_RTOL * np.abs(ref_refined).max()
        np.testing.assert_allclose(refined[0], ref_refined, rtol=0, atol=atol)
        np.testing.assert_allclose(maps[0], ref_disp, rtol=0, atol=atol)


@pytest.mark.slow
def test_kitti_size_forward_peak_memory(store, peak_bytes):
    left, right = kitti_pair()
    peak = peak_bytes(lambda: full_forward(left, right, store))
    assert peak <= KITTI_FORWARD_PEAK_MB * 1e6, f"peak {peak / 1e6:.1f} MB"
