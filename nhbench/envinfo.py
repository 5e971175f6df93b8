"""Environment block printed with every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform

# glibc sysconf names Python's os.sysconf does not expose; on x86 glibc
# answers them from cpuid, without reading any file
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194


def _sysconf(code):
    try:
        val = int(ctypes.CDLL(None).sysconf(code))
    except (OSError, AttributeError):
        return None
    return val if val > 0 else None


def _blas():
    """(name, thread count) of the OpenBLAS that numpy and scipy load."""
    import numpy as np
    import scipy

    name = "unknown"
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    threads = {}
    for pkg in (np, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              f"{pkg.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
                if hasattr(lib, fn):
                    getter = getattr(lib, fn)
                    getter.restype = ctypes.c_int
                    threads[pkg.__name__] = int(getter())
                    break
    return name, threads


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas_name, blas_threads = _blas()
    l2 = _sysconf(_SC_LEVEL2_CACHE_SIZE)
    l3 = _sysconf(_SC_LEVEL3_CACHE_SIZE)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads or "unknown",
        "l2_bytes": l2,
        "l3_bytes": l3,
        "seed": seed,
        "roofline": ("not reported: a bandwidth run needs arrays of 4x the "
                     "last-level cache" + (f" ({4 * l3 / 2 ** 20:.0f} MiB)" if l3 else "")
                     + ", more memory than the benchmark allows itself"),
    }
