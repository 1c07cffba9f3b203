"""The environment block recorded with every result."""

from __future__ import annotations

import hashlib
from importlib import metadata
import os
import platform
import subprocess
import sys
from pathlib import Path

# keys that differ between any two commits or runs; compare.py ignores them
VOLATILE = ("git_sha", "git_dirty", "src_sha256")


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "none"


def louvain_backend() -> str:
    """'numba' when the local-move kernel is a compiled dispatcher that has
    run, else 'python' (the plain fallback)."""
    kernel = getattr(sys.modules.get("simnet.community"), "_local_moves", None)
    if kernel is None:
        return "unknown"
    if type(kernel).__module__.startswith("numba"):
        return "numba" if kernel.signatures else "numba-not-run"
    return "python"


def _blas() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(root: Path) -> tuple[str, str]:
    if not (root / ".git").exists():
        return "none", "none"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=30,
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                               cwd=root, timeout=30, capture_output=True,
                               text=True, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown", "unknown"
    return sha, "yes" if dirty else "no"


def _src_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def env_block(root: Path) -> dict:
    sha, dirty = _git(root)
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba": _version("numba"),
        "louvain_backend": louvain_backend(),
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": _src_sha256(root / "src"),
    }
