"""Where a result was measured: code version, interpreter, numpy and BLAS."""

import ctypes
import glob
import os
import platform
from pathlib import Path

import numpy as np


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _openblas_runtime() -> dict:
    """Kernel type, thread count and configuration string of the OpenBLAS
    that numpy loaded, read through its exported getters."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            try:
                corename = getattr(lib, f"{prefix}get_corename{suffix}")
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}get_config{suffix}")
            except AttributeError:
                continue
            corename.restype = config.restype = ctypes.c_char_p
            corename.argtypes = threads.argtypes = config.argtypes = []
            threads.restype = ctypes.c_int
            return {"kernel": corename().decode(), "threads": threads(),
                    "config": config().decode()}
    return {"kernel": "unknown", "threads": None, "config": "unknown"}


def environment(root: Path, pinned: dict) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name", "unknown"),
                 "version": blas.get("version", "unknown"),
                 **_openblas_runtime()},
        "nproc": len(os.sched_getaffinity(0)),
        "pinned": pinned,
    }
