"""Environment capture attached to every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

# BLAS threads are pinned before NumPy loads so both sides of a
# comparison run the same count, which stays within nproc.
BLAS_THREADS = 1
BLAS_ENV = {v: str(BLAS_THREADS) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info(np) -> tuple[str, int | None]:
    """BLAS name/version from NumPy's build config and, for OpenBLAS, the
    thread count the loaded library reports."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        name = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return name, int(getter())
    return name, None


def capture(np, **extra) -> dict:
    name, threads = blas_info(np)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": name,
        "blas_threads": threads,
        "blas_threads_requested": BLAS_THREADS,
        **extra,
    }
