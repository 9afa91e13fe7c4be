"""Metric definitions: what each run reports, with units.

``END_TO_END`` and ``PER_LAYER`` must list the same names, units and
directions as ``BENCHMARK.json``; ``test_perfbench.py`` holds them
together.  Per-layer values are per timed item (the traced items' totals
divided by their count) unless the unit says otherwise.  Each group
notes the end-to-end metric it should move.
"""

from __future__ import annotations

import statistics

from tracing import LAYERS

# name, unit, better
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("latency_p50_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

# Span names whose summed duration is reported as <name>.busy_s.
BUSY = [
    # net_kitti latency / items_per_s; nothing elsewhere.
    "tensorops.conv2d",
    "tensorops.deconv2d_s2",
    "tensorops.batchnorm_relu",
    "tensorops.relu",
    "tensorops.bilinear_resize",
    "tensorops.concat_channels",
    # classic_files items_per_s, a small share of net_kitti latency.
    "costvol.census_transform",
    "costvol.hamming_cost_volume",
    "costvol.ad_cost_volume",
    "costvol.assemble_traditional",
    # net_kitti only.
    "costvol.correlate_1d",
    "network.validate_store",
    # classic_files and loss_masks.
    "imagekit.read_image",
    "imagekit.write_image",
    "imagekit.read_pfm",
    "imagekit.write_pfm",
    "imagekit.pad_reflect",
    "imagekit.mean_pool_2x",
    "imagekit.rgb_to_yuv",
    # loss_masks; wta_disparity moves classic_files.
    "disparity.discontinuity_mask",
    "disparity.loss_eval",
    "disparity.loss_grad",
    "disparity.wta_disparity",
    "metrics.evaluate",
]

# Span names whose self time (children excluded) is reported as <name>.self_s.
SELF = [
    # net_kitti latency.
    "network.unet_features",
    "network.reduce_traditional",
    "network.reduce_correlation",
    "network.guide_encoder",
    "network.cascade_forward",
    "network.disparity_head",
    # classic_files items_per_s.
    "cli.traditional_match",
]

# Counters recorded at layer boundaries, per item.
COUNTS = [
    ("tensorops.conv2d.gflop", "GFLOP/item"),  # computed from shapes
    ("tensorops.conv2d.im2col_mb", "MB/item"),  # computed from shapes
    ("costvol.volume_mb", "MB/item"),  # net_kitti peak_rss_mb
    ("imagekit.bytes_read", "bytes/item"),
    ("imagekit.bytes_written", "bytes/item"),
    ("disparity.mask_px", "px/item"),
    ("disparity.grad_valid_px", "px/item"),
    ("metrics.valid_px", "px/item"),
]

PER_LAYER = (
    [("tensorops.conv2d.calls", "calls/item", "lower")]
    + [(f"{n}.busy_s", "s/item", "lower") for n in BUSY]
    + [(f"{n}.self_s", "s/item", "lower") for n in SELF]
    + [("network.load_weights.busy_s", "s", "lower")]  # net_kitti setup_s
    + [(n, u, "lower") for n, u in COUNTS]
    + [
        ("disparity.mask_flagged_ratio", "ratio", "lower"),  # base: mask_px
        ("disparity.grad_active_ratio", "ratio", "higher"),  # base: grad_valid_px
    ]
    + [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    + [("trace.items", "count", "higher"), ("trace.overhead_pct", "%", "lower")]
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 1]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, -(-int(q * 100) * len(ordered) // 100) - 1)]


def end_to_end(setup_times: list[float], latencies: list[float], spans: list[float],
               peak_rss_mb: float) -> dict[str, float]:
    """From times already scaled to the nominal host: set-up times,
    item latencies, and item latencies plus their checks."""
    return {
        "setup_s": statistics.median(setup_times),
        "latency_p50_s": statistics.median(latencies),
        "items_per_s": len(spans) / sum(spans),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(rec, n_items: int, overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics from a recorder whose items ran under root spans
    named ``item`` and whose traced set-up ran under ``setup``."""
    busy, own, calls = rec.totals("item")
    setup_busy, _, _ = rec.totals("setup")
    count = lambda key: rec.counts.get(("item", key), 0.0)
    out = {"tensorops.conv2d.calls": calls.get("tensorops.conv2d", 0) / n_items}
    out.update({f"{n}.busy_s": busy.get(n, 0.0) / n_items for n in BUSY})
    out.update({f"{n}.self_s": own.get(n, 0.0) / n_items for n in SELF})
    out["network.load_weights.busy_s"] = setup_busy.get("network.load_weights", 0.0)
    out.update({n: count(n) / n_items for n, _ in COUNTS})
    out["disparity.mask_flagged_ratio"] = _ratio(count("disparity.mask_flagged_px"), count("disparity.mask_px"))
    out["disparity.grad_active_ratio"] = _ratio(count("disparity.grad_active_px"), count("disparity.grad_valid_px"))
    out.update({f"{layer}.errors": rec.errors.get(layer, 0) for layer in LAYERS})
    out["trace.items"] = n_items
    out["trace.overhead_pct"] = overhead_pct
    return out


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0
