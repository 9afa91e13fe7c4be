"""Run the full guided-cascade network forward pass end to end.

Initializes random weights, pushes a small stereo pair through the
traditional cost-volume branch, the CNN correlation branch, the two
guided hourglasses, and the disparity head.  Prints the channel chain
that reduces the traditional volume, read from the architecture table,
and the shape of the refined features that reach the head.

Run:  python3 demos/03_network_forward.py
"""

import time

import numpy as np

from mscv.imagekit import Image, pad_reflect
from mscv.network import architecture, full_forward, init_weights

H, W = 128, 256


def main():
    store = init_weights(seed=0)
    print(f"initialized {len(store)} weight tensors "
          f"({store.param_count():,} parameters)")

    rng = np.random.default_rng(1)
    left = Image(rng.random((3, H, W)))
    right = Image(rng.random((3, H, W)))

    t0 = time.perf_counter()
    disp = full_forward(left, right, store)
    dt = time.perf_counter() - t0

    print(f"{W}x{H} forward pass in {dt:.2f}s")
    print(f"output disparity map: {disp.values.shape}, "
          f"range [{disp.values.min():.3f}, {disp.values.max():.3f}]")
    reds = [l for l in architecture() if l.name.startswith("trad.red")]
    print("traditional-volume reduction chain:",
          [reds[0].in_c] + [l.out_c for l in reds])
    # The head's input: half the 16-aligned canvas the pair is padded to.
    canvas = pad_reflect(left, 16)[0]
    head = next(l for l in architecture() if l.name == "head.conv")
    print("refined feature map:",
          (head.in_c, canvas.height // 2, canvas.width // 2))

    # Same weights, threaded execution: bit-identical result.
    again = full_forward(left, right, store, threads=4)
    print("threads=4 bit-identical:", bool((disp.values == again.values).all()))


if __name__ == "__main__":
    main()
