"""The machine a result was measured on, recorded with every result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

_BLAS_THREAD_FUNCTIONS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_threads(numpy_module) -> object:
    """Thread count reported by the OpenBLAS that numpy bundles, or the
    OPENBLAS_NUM_THREADS setting when no such library is found."""
    libs_dir = os.path.dirname(numpy_module.__file__) + ".libs"
    for lib in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in _BLAS_THREAD_FUNCTIONS:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _git_commit(root: Path) -> str:
    """HEAD commit read from ``.git`` without running git; "unknown" in a
    checkout that is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(numpy),
        "git_commit": _git_commit(root),
    }
