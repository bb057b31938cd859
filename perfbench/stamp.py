"""The environment a result was measured in.

BLAS threads are read from the loaded OpenBLAS, never set: the program is
measured as users run it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas(module) -> dict:
    info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": info.get("name"), "version": info.get("version"), "threads": _openblas_threads(module)}


def _openblas_threads(module):
    """Thread count reported by the OpenBLAS bundled next to a wheel."""
    pkg = Path(module.__file__).parent
    for lib in sorted(pkg.with_name(pkg.name + ".libs").glob("*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in OPENBLAS_THREAD_SYMBOLS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source(src: Path) -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(src.glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_optrans_lines": lines, "src_optrans_sha256": digest.hexdigest()}


def stamp(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas(numpy), "scipy": _blas(scipy)},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": _git_commit(root),
        **_source(root / "src" / "optrans"),
    }
