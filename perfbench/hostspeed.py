"""Host-speed probes: fixed work, independent of mscv, timed around items.

On a shared machine the same code runs 20-60% slower for minutes at a
time when neighbours load the host, which swamps any change a benchmark
is meant to show.  A run therefore times a fixed probe before every item
and once after the last, and scales each item's time to a nominal host
by the two probes that bracket it:

    time_at_nominal = raw_time * NOMINAL_S[probe] / mean(probe before, probe after)

A probe slows down with the host but never with a change to mscv, so
the scaled time moves only with the program.  Raw times are reported
alongside.  Each workload names the probe, interpreter-bound or
memory-bound, that tracks its own items best.
"""

from __future__ import annotations

import time

import numpy as np

# Scale only: each probe's typical time between items on a 2-vCPU Xeon
# VM, so scaled times read close to raw ones.  Changing a value rescales
# every reported time, so they stay fixed.
NOMINAL_S = {"python": 0.050, "memory": 0.100}
# The Python probe in a fresh interpreter, as run.py's set-up runs it.
FRESH_PYTHON_NOMINAL_S = 0.050

# Interpreter-bound probe, kept as source so that a fresh interpreter can
# run it before NumPy is imported (see run.py's set-up measurement).
PYTHON_PROBE = "s = 0\nfor i in range(300_000):\n    s += i & 7\n"

STREAM_ELEMENTS = 8_000_000  # 64 MB of float64, far beyond the last-level cache


def _python() -> None:
    exec(PYTHON_PROBE, {})


def _memory() -> None:
    # Fresh allocations, as in mscv's volume code: page faults plus
    # streamed bytes.  Everything is freed before the next item starts,
    # so the probe leaves the process's peak RSS alone.
    stream = np.ones(STREAM_ELEMENTS)
    for _ in range(3):
        float((stream * 2.0).sum())


PROBES = {"python": _python, "memory": _memory}


def bracket_scale(durations: list[float], samples: list[float], nominal: float) -> list[float]:
    """Durations at nominal host speed; sample ``i`` was taken just
    before unit ``i`` and one more after the last unit."""
    if len(samples) != len(durations) + 1:
        raise ValueError(f"{len(samples)} probe samples for {len(durations)} units")
    return [d * 2.0 * nominal / (samples[i] + samples[i + 1]) for i, d in enumerate(durations)]


class HostSpeed:
    """Probe samples of one kind, taken around a sequence of timed units."""

    def __init__(self, kind: str):
        self.kind = kind
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        PROBES[self.kind]()
        self.samples.append(time.perf_counter() - t0)

    def scaled(self, durations: list[float]) -> list[float]:
        return bracket_scale(durations, self.samples, NOMINAL_S[self.kind])
