"""Thread cap and the environment record printed with every result.

``cap_threads`` must run before numpy is imported: OpenBLAS reads its
thread count once, when it loads.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> None:
    """Run the BLAS and OpenMP pools at one thread.

    On this benchmark's 2-core host a second OpenBLAS thread left pass
    wall time unchanged while it raised CPU time by about 1.7x, and it
    tied every product to whatever else ran on the other core; see
    README.md.  One thread is within nproc on any machine.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    sizes: dict[str, str] = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _openblas() -> tuple[str, int | None]:
    """Configuration string and thread count of the OpenBLAS numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown", None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if get_threads is None or get_config is None:
                continue
            get_threads.restype = ctypes.c_int
            get_threads.argtypes = []
            get_config.restype = ctypes.c_char_p
            get_config.argtypes = []
            return get_config().decode(), int(get_threads())
    return "unknown", None


def environment() -> dict[str, object]:
    import numpy as np
    import scipy
    import scipy.fft

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config, threads = _openblas()
    return {
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": config,
        "blas_threads": threads,
        "fft_workers": scipy.fft.get_workers(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }
