"""Environment block printed with every result; never part of a hash."""

from __future__ import annotations

import os
import platform
from pathlib import Path


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def llc_bytes() -> int | None:
    """Size of the highest-level cache of CPU 0, from sysfs."""
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    best = None
    for cache in caches:
        level, size = _read(cache / "level"), _read(cache / "size")
        if level and size and size[-1] in "KM":
            value = int(size[:-1]) * (1024 if size[-1] == "K" else 1024 * 1024)
            if best is None or int(level) >= best[0]:
                best = (int(level), value)
    return best[1] if best else None


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = _read(root / ".git" / "HEAD")
    if head is None:
        return None
    if head.startswith("ref: "):
        return _read(root / ".git" / head[5:])
    return head


def environment(root: Path) -> dict:
    import numpy
    import scipy

    blas = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    llc = llc_bytes()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "llc_bytes": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}" if blas else None,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(root),
    }
