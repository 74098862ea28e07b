"""Run record: what a benchmark number was measured on.

Numbers compare like with like across commits only when the source, the
Python stack, the BLAS build and its thread count, and the machine match.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path


def _blas_libraries() -> list[dict]:
    """OpenBLAS builds mapped into this process, with their thread counts."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return []
    paths = sorted({line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1].lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry: dict = {"library": Path(path).name}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = int(threads())
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode(errors="replace").strip()
        found.append(entry)
    return found


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision(root: Path) -> str | None:
    """HEAD of the repository rooted at ``root``; None in a plain source checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def source_digest(src: Path) -> str:
    """sha256 over the library's Python sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_record(root: Path) -> dict:
    """Machine and software record of the current process (numpy/scipy imported)."""
    import numpy
    import scipy

    blas = _blas_libraries()
    nproc = os.cpu_count() or 1
    return {
        "git_revision": _git_revision(root),
        "source_sha256": source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_max": max((b.get("threads", 0) for b in blas), default=0),
        "nproc": nproc,
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else nproc,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }
