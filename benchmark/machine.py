"""What the numbers were measured on: CPU, caches, Python, numpy and BLAS."""

from __future__ import annotations

import ctypes
import glob
import os
import platform


def _read(path):
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read().strip()
    except OSError:
        return None


def cpu_model():
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def caches():
    """Data and unified cache sizes of CPU 0 by level, as the kernel lists them."""
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level"))
        kind = _read(os.path.join(index, "type"))
        size = _read(os.path.join(index, "size"))
        if level and size and kind != "Instruction":
            out[f"L{level}"] = size
    return out


def blas():
    """BLAS library name and version numpy was built with, and its thread
    count as the loaded library reports it."""
    import numpy as np

    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError, AttributeError):
        name = "unknown"
    threads = None
    maps = _read("/proc/self/maps") or ""
    libs = sorted({ln.split()[-1] for ln in maps.splitlines()
                   if "blas" in ln.lower() and ln.split()[-1].startswith("/")})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return {"library": name, "threads": threads}


def cpu_ticks():
    """(steal, total) clock ticks of all CPUs since boot, from /proc/stat;
    (0, 0) where the kernel does not say."""
    for line in (_read("/proc/stat") or "").splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu" and len(fields) > 8:
            ticks = [int(f) for f in fields[1:9]]
            return ticks[7], sum(ticks)
    return 0, 0


def steal_share(before, after):
    """The share of all CPU time between two `cpu_ticks()` readings that the
    host gave to other guests."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def describe():
    import numpy as np

    return {
        "cores": os.cpu_count(),
        "cpu": cpu_model(),
        "caches": caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas(),
    }
