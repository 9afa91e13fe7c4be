"""Weight container, initialization, and forward-pass shape/determinism."""

import functools
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import mscv.network
from mscv.costvol import _BAND_ROWS, CostVolume
from mscv.imagekit import Image, mean_pool_2x, rgb_to_yuv
from mscv.network import (
    GuideSet,
    WeightError,
    WeightStore,
    _layer,
    architecture,
    architecture_manifest,
    cascade_forward,
    describe_architecture,
    disparity_head,
    full_forward,
    guide_encoder,
    init_weights,
    load_weights,
    reduce_correlation,
    reduce_traditional,
    save_weights,
    unet_features,
    validate_store,
)
from mscv.tensorops import concat_channels

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
    return [(name, arr.shape) for name, arr in store.entries.items()]


class TestWeightContainer:
    def test_round_trip_bit_exact(self, tmp_path, store):
        path = tmp_path / "w.bin"
        save_weights(store, path)
        loaded = load_weights(path)
        assert list(loaded.entries) == list(store.entries)
        for name, arr in store.entries.items():
            assert loaded.entries[name].tobytes() == arr.tobytes()

    def test_empty_store_header_only(self, tmp_path):
        path = tmp_path / "empty.bin"
        save_weights(WeightStore(), path)
        assert path.read_bytes() == b"MSCV1" + b"\x00" * 4
        assert load_weights(path).entries == {}

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
        np.testing.assert_array_equal(loaded.entries["k"], [[1, 2], [3, 4]])
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
        small = WeightStore({
            "a": np.float32([1.5]).reshape(()),
            "bb": np.arange(6, dtype=np.float32).reshape(2, 3),
        })
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
        save_weights(WeightStore({"a": np.float32([1.0])}), path)
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
        assert list(a.entries) == list(b.entries)
        for name in a.entries:
            assert (a.entries[name] == b.entries[name]).all()

    def test_manifest_matches_architecture(self, store):
        assert shapes(store) == architecture_manifest()

    def test_param_count_invariant_across_seeds(self):
        assert init_weights(0).param_count() == init_weights(99).param_count()

    def test_nonzero_variance_per_entry(self, store):
        # Running BN statistics (mean 0 / var 1 constants) excluded.
        for name, arr in store.entries.items():
            if name.endswith((".bn.mean", ".bn.var")) or arr.size < 2:
                continue
            assert arr.var() > 0, name

    def test_validate_store_flags_bad_shape(self, store):
        broken = WeightStore(dict(store.entries))
        broken.entries["head.conv.w"] = np.zeros((1, 31, 1, 1), dtype=np.float32)
        with pytest.raises(WeightError, match="head.conv.w"):
            validate_store(broken)

    def test_validate_store_flags_missing(self, store):
        broken = WeightStore(dict(store.entries))
        del broken.entries["unet.enc0.b"]
        with pytest.raises(WeightError, match="unet.enc0.b"):
            validate_store(broken)

    def test_validate_store_flags_bn_length(self, store):
        broken = WeightStore(dict(store.entries))
        broken.entries["unet.up2.deconv.bn.var"] = np.ones(63, dtype=np.float32)
        with pytest.raises(WeightError, match="unet.up2.deconv.bn.var"):
            validate_store(broken)


class TestDescribe:
    def test_lists_every_parameter_and_total(self, store):
        text = describe_architecture()
        for name, _ in architecture_manifest():
            assert name in text
        assert str(store.param_count()) in text


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
        layer = WeightStore(dict(store.entries))
        for k, v in stats.items():
            layer.entries[f"{name}.bn.{k}"] = v.astype(np.float32)
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


class TestReductions:
    @staticmethod
    def bands(vols):
        # Row bands as costvol.traditional_costs streams them: (y0, planes),
        # planes() yielding one (3, rows, W) [C(d), U(d), V(d)] per d.  Each
        # plane is a copy: reduce_traditional centers it in place.
        stacked = np.stack([v.costs for v in vols])

        def planes(y0):
            for d in range(stacked.shape[1]):
                yield stacked[:, d, y0 : y0 + _BAND_ROWS].copy()

        return [(y0, functools.partial(planes, y0))
                for y0 in range(0, stacked.shape[2], _BAND_ROWS)]

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
        # 288-channel volume.
        x = assemble_traditional(*vols).astype(np.float32)
        for i in range(4):
            x = _layer(store, f"trad.red{i}", x)
        x = concat_channels([x, left_half.data.astype(np.float32)])
        for i in range(3):
            x = _layer(store, f"trad.harvest{i}", x)
        return x

    def test_traditional_channel_trace_and_shape(self, rng, store, forward_probe):
        # Reduction chain 288-144-72-36-32: trad.red0 reads the 288-channel
        # volume as band GEMMs, trad.red1..3 run through _layer.
        left_half = Image(rng.random((3, 8, 12)))
        out = reduce_traditional(self.bands(self.trad_volumes(rng)), left_half, store)
        assert out.shape == (32, 8, 12)
        assert store["trad.red0.w"].shape == (144, 288, 1, 1)
        assert [l for l in forward_probe.layers if l[0].startswith("trad.red")] == [
            ("trad.red1", 144, 72), ("trad.red2", 72, 36), ("trad.red3", 36, 32),
        ]

    def test_traditional_scale_mismatch_rejected(self, rng, store):
        vols = self.trad_volumes(rng)
        with pytest.raises(ValueError):
            reduce_traditional(self.bands(vols), Image(rng.random((3, 4, 6))), store)
        left_half = Image(rng.random((3, 8, 12)))
        # 95 or 97 planes, quarter-scale costs for a half-scale image, and
        # one column too many.
        for bad in (
            self.trad_volumes(rng, depth=95),
            self.trad_volumes(rng, depth=97),
            self.trad_volumes(rng, h=4, w=6),
            self.trad_volumes(rng, w=13),
        ):
            with pytest.raises(ValueError, match="band at row 0"):
                reduce_traditional(self.bands(bad), left_half, store)

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_traditional_matches_assembled_reference(self, rng, seed):
        weights = init_weights(seed)
        # 8 rows fit in one band; 40 span two full bands and a short third.
        for h in (8, 40):
            left_half = Image(rng.random((3, h, 12)))
            reduce = lambda vols: reduce_traditional(self.bands(vols), left_half, weights)
            near = lambda eps: tuple(
                CostVolume(3.0 + eps * rng.random((96, h, 12)))
                for _ in range(3)
            )
            # The first band's mean lies far from the global one.
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

    def test_correlation_reduce_shape_and_linearity(self, rng, store):
        costs = rng.standard_normal((96, 6, 10)).astype(np.float32)
        out1 = reduce_correlation(costs, store)
        assert out1.shape == (32, 6, 10)
        # 1x1 conv + ReLU: doubling a non-negatively-mapped input scales
        # positive outputs; check the underlying per-pixel matmul instead.
        w = store["corr.reduce.w"].reshape(32, 96).astype(np.float64)
        b = store["corr.reduce.b"].astype(np.float64)
        expected = np.maximum(
            (w @ costs.astype(np.float64).reshape(96, -1)
             ).reshape(32, 6, 10) + b[:, None, None],
            0.0,
        )
        np.testing.assert_allclose(out1, expected, atol=1e-4)

    def test_correlation_wrong_depth_rejected(self, rng, store):
        with pytest.raises(ValueError):
            reduce_correlation(rng.random((48, 6, 10)).astype(np.float32), store)


class TestGuideEncoder:
    def test_four_scales_halving(self, rng, store):
        trad = rng.standard_normal((32, 16, 24)).astype(np.float32)
        guides = guide_encoder(trad, store)
        assert guides.half.shape == (32, 16, 24)
        assert guides.quarter.shape == (32, 8, 12)
        assert guides.eighth.shape == (32, 4, 6)
        assert guides.sixteenth.shape == (32, 2, 3)

    def test_deterministic(self, rng, store):
        trad = rng.standard_normal((32, 8, 8)).astype(np.float32)
        a = guide_encoder(trad, store)
        b = guide_encoder(trad, store)
        assert (a.sixteenth == b.sixteenth).all()


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

    @pytest.mark.parametrize("scale", ["sixteenth", "quarter", "half"])
    def test_guide_mismatch_names_scale(self, rng, store, scale):
        trad, corr32, corr48, guides = self.inputs(rng, store)
        fields = {f: getattr(guides, f) for f in ("half", "quarter", "eighth", "sixteenth")}
        fields[scale] = fields[scale][:, :-1]
        where = "bottleneck" if scale == "sixteenth" else scale
        with pytest.raises(ValueError, match=f"guide scale mismatch at {where}"):
            cascade_forward(trad, corr32, corr48, GuideSet(**fields), store)

    def test_residual_identity_with_zero_weights(self, rng, store):
        # Zeroing both convs of an identity-shortcut block leaves its
        # non-negative input unchanged.
        from mscv.network import _residual

        zeroed = WeightStore(dict(store.entries))
        for suffix in ("c1", "c2"):
            name = f"hg1.res0.{suffix}"
            zeroed.entries[f"{name}.w"] = np.zeros_like(store[f"{name}.w"])
            zeroed.entries[f"{name}.b"] = np.zeros_like(store[f"{name}.b"])
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
        forced = WeightStore(dict(store.entries))
        forced.entries["head.conv.w"] = np.zeros((1, 32, 1, 1), dtype=np.float32)
        forced.entries["head.conv.b"] = np.array([-3.0], dtype=np.float32)
        refined = rng.random((32, 4, 4)).astype(np.float32)
        dmap = disparity_head(refined, (8, 8), forced)
        np.testing.assert_array_equal(dmap.values, 0.0)


class TestFullForward:
    def test_dims_determinism_and_threads(self, rng, store):
        left = Image(rng.random((3, 40, 72)))
        right = Image(rng.random((3, 40, 72)))
        a = full_forward(left, right, store)
        b = full_forward(left, right, store)
        c = full_forward(left, right, store, threads=4)
        assert a.values.shape == (40, 72)
        assert (a.values == b.values).all()
        assert (a.values == c.values).all()
        assert np.isfinite(a.values).all()

    def test_worker_count_follows_threads(self, rng, store, monkeypatch):
        workers = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(mscv.network, "ThreadPoolExecutor", Recording)
        left = Image(rng.random((3, 32, 48)))
        right = Image(rng.random((3, 32, 48)))
        serial = full_forward(left, right, store, threads=1)
        threaded = full_forward(left, right, store, threads=2)
        assert workers == [2]
        assert serial.values.tobytes() == threaded.values.tobytes()

    def test_trace_channels(self, rng, store, forward_probe):
        left = Image(rng.random((3, 32, 48)))
        right = Image(rng.random((3, 32, 48)))
        full_forward(left, right, store)
        assert [l for l in forward_probe.layers if l[0].startswith("trad.red")] == [
            ("trad.red1", 144, 72), ("trad.red2", 72, 36), ("trad.red3", 36, 32),
        ]
        # padded 32x48 halves to 16x24
        assert [r.shape for r in forward_probe.refined] == [(32, 16, 24)]

    def test_every_layer_applied_once_in_table_order(self, rng, store, forward_probe):
        # The architecture table is the one place that decides each layer's
        # stride, batch norm, deconvolution and ReLU: every layer but
        # trad.red0 (run as band GEMMs) goes through _layer, once per use.
        full_forward(Image(rng.random((3, 32, 48))), Image(rng.random((3, 32, 48))), store)
        applied = [name for name, _, _ in forward_probe.layers]
        names = [l.name for l in architecture() if l.name != "trad.red0"]
        unet = [n for n in names if n.startswith("unet.")]
        # The feature extractor runs once per image of the pair.
        assert [n for n in applied if n in unet] == unet * 2
        assert [n for n in applied if n not in unet] == [n for n in names if n not in unet]

    def test_layer_channels_match_table(self, rng, store, forward_probe):
        # Each _layer call reads (summed over its inputs) and writes the
        # channels its table entry lists: trad.harvest0 35, casc.fuse 96.
        full_forward(Image(rng.random((3, 32, 48))), Image(rng.random((3, 32, 48))), store)
        table = {l.name: (l.in_c, l.out_c) for l in architecture()}
        layers = forward_probe.layers
        assert len(layers) == len(table) + 12  # unet layers twice, no trad.red0
        assert layers == [(name, *table[name]) for name, _, _ in layers]

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


# Largest |full_forward - forward_oracle| allowed on `refined` and on the
# disparity map, as a fraction of the largest |refined| value: float32
# rounding through ~80 layers (measured up to 1e-6).
FORWARD_RTOL = 1e-5
# tracemalloc peak of one 376x1240 full_forward: 138.3 MB measured, in
# corr.reduce (245 MB before unpadded convs stopped copying their input and
# activations were freed at their last use, 170.8 MB before the traditional
# costs streamed one disparity plane at a time); a re-inflated peak fails.
KITTI_FORWARD_PEAK_MB = 141.8


def scaled_weights(seed, gain):
    """``init_weights(seed)`` with every conv weight multiplied by ``gain``."""
    weights = init_weights(seed)
    for name, arr in weights.entries.items():
        if name.endswith(".w"):
            weights.entries[name] = arr * np.float32(gain)
    return weights


def kitti_pair():
    # The right view shifted by 20 px: a pair whose disparity map is not
    # all zero under scaled_weights(7, sqrt(6)).  Values and layout are
    # what read_image returns for an 8-bit PPM: multiples of 1/255 in a
    # channel-interleaved (H, W, 3) array seen as (3, H, W).
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
            for name, arr in weights.entries.items():
                if ".bn." in name:
                    draw_k = draw[name.rsplit(".", 1)[1]]
                    weights.entries[name] = draw_k(arr.size).astype(np.float32)
        left, right = Image(r.random((3, h, w))), Image(r.random((3, h, w)))
        ref_refined, ref_disp = forward_oracle(left, right, weights)
        assert np.abs(ref_refined).max() > 0.05  # a live, non-trivial reference
        atol = FORWARD_RTOL * np.abs(ref_refined).max()
        for threads in (1, 2):
            dmap = full_forward(left, right, weights, threads=threads)
            refined = forward_probe.refined.pop()
            np.testing.assert_allclose(refined, ref_refined, rtol=0, atol=atol)
            np.testing.assert_allclose(dmap.values, ref_disp, rtol=0, atol=atol)

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
