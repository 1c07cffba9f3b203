"""Build, cache and load the compiled kernels of ``_kernels.c``.

The first call to ``load`` in a process compiles the C source with the
system C compiler into ``$XDG_CACHE_HOME/simnet`` (default
``~/.cache/simnet``), and loads it with ctypes.  The library is named by
the sha256 of everything that shapes it: the source, the compiler flags
and the machine architecture, so a changed flag or a home directory shared
by two architectures gets its own build.  The build writes to a temporary
name and renames it into place, so concurrent processes never load a
half-written library.  When there is no compiler, the build fails or the
cache directory is not writable, ``load`` logs one warning and returns
None, and callers run the Python kernels, which give the same results.
Importing this module starts no process and imports no ctypes.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import os
import platform
import shutil
from collections.abc import Iterable
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_kernels.c")
# no -ffast-math and no -march=native: results must match the Python kernels
# bit for bit on every machine, and a fused multiply-add would round once
# where Python rounds twice
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
COMPILE_TIMEOUT_S = 120
# The move log starts at 2n + 16 rows; levels of 8x50 planted corpora moved
# at most 1.2n times.  A level that moves more runs again with a longer log.
_LOG_ROWS_PER_NODE, _LOG_SPARE_ROWS = 2, 16


class KernelBuildError(RuntimeError):
    """The C source could not be compiled."""


def compiler() -> str | None:
    """The system C compiler on PATH, ``cc`` before ``gcc``, or None."""
    return shutil.which("cc") or shutil.which("gcc")


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "simnet"


def _build(source: bytes) -> Path:
    """Compile ``source`` unless the cache holds it; return the library path."""
    # imported here, so that importing simnet stays as cheap as before
    # (hashlib loads OpenSSL: about 7 ms)
    import hashlib
    import subprocess

    # platform, not os.uname, which Windows lacks; numpy has imported it already
    key = b"\0".join([source, *map(str.encode, CFLAGS), platform.machine().encode()])
    lib = cache_dir() / f"_kernels-{hashlib.sha256(key).hexdigest()}.so"
    if lib.is_file():
        return lib
    cc = compiler()
    if cc is None:
        raise KernelBuildError("no C compiler (cc or gcc) on PATH")
    lib.parent.mkdir(parents=True, exist_ok=True)
    tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
    try:
        proc = subprocess.run([cc, *CFLAGS, "-o", str(tmp), "-x", "c", "-"],
                              input=source, capture_output=True,
                              timeout=COMPILE_TIMEOUT_S)
        if proc.returncode != 0:
            raise KernelBuildError(
                f"{cc} exited {proc.returncode}: "
                f"{proc.stderr.decode(errors='replace').strip()}")
        os.replace(tmp, lib)
    except subprocess.TimeoutExpired as e:
        raise KernelBuildError(f"{cc} took over {COMPILE_TIMEOUT_S} s") from e
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
    return lib


class Kernels:
    """The loaded library, with numpy-array wrappers of its entry points."""

    def __init__(self, path: Path):
        import ctypes

        lib = ctypes.CDLL(str(path))
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        lib.simnet_local_moves.argtypes = (i64, ptr, ptr, ptr, ptr,
                                           ctypes.c_double, ptr, ptr, ptr, i64)
        lib.simnet_local_moves.restype = i64
        lib.simnet_digest_rows.argtypes = (i64, ptr, ptr, ptr, ptr)
        lib.simnet_digest_rows.restype = None
        self.path = path
        self._lib = lib

    def local_moves(self, indptr, indices, weights, k, m: float, order):
        """community._local_moves's result on numpy CSR arrays: (comm, moves).

        The C kernel rescans a node's edges on every visit; `_local_moves`
        reuses a node's community sums until a neighbour moves, a cache
        that pays off only in CPython.  Both give the same partition and
        moves.  ``moves`` is an (n_moves, 3) int64 array of (node, from, to)
        rows.  A level whose log overflows runs again with a log of exactly
        its length; the kernel is deterministic, so that gives the same moves.
        """
        n = len(k)
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        k = np.ascontiguousarray(k, dtype=np.float64)
        order = np.ascontiguousarray(order, dtype=np.int64)
        if not (indptr.shape == (n + 1,) and order.shape == (n,)
                and indices.shape == weights.shape == (int(indptr[-1]),)):
            raise ValueError("local_moves: inconsistent CSR, degree or order shapes")
        comm = np.empty(n, dtype=np.int64)
        cap = _LOG_ROWS_PER_NODE * n + _LOG_SPARE_ROWS
        while True:
            moves = np.empty((cap, 3), dtype=np.int64)
            got = self._lib.simnet_local_moves(
                n, indptr.ctypes.data, indices.ctypes.data, weights.ctypes.data,
                k.ctypes.data, m, order.ctypes.data, comm.ctypes.data,
                moves.ctypes.data, cap)
            if got == -1:
                raise MemoryError("local_moves: working memory allocation failed")
            if got == -2:
                raise ValueError("local_moves: order is not a permutation of the "
                                 "nodes, or the CSR has an index out of range")
            if got <= cap:
                return comm, moves[:got]
            cap = got

    def digest_rows(self, buffers: Iterable[bytes], lookup: np.ndarray) -> np.ndarray:
        """The (n, 32) uint8 Nilsimsa digests of ``buffers``, one row each.

        The buffers are appended to one bytearray as they arrive, so no list
        of them is held beside it: on 16x50 corpora such a list raised the
        peak RSS of repeated tensor builds by about 5 MB.
        """
        lookup = np.ascontiguousarray(lookup).view(np.uint8)
        if lookup.shape != (256, 32):
            raise ValueError("digest_rows: lookup must be a (256, 32) byte table")
        data = bytearray()
        ends = [0]
        for b in buffers:
            data += b
            ends.append(len(data))
        data = np.frombuffer(data, dtype=np.uint8)
        offsets = np.array(ends, dtype=np.int64)
        out = np.empty((len(ends) - 1, 32), dtype=np.uint8)
        self._lib.simnet_digest_rows(len(out), data.ctypes.data, offsets.ctypes.data,
                                     lookup.ctypes.data, out.ctypes.data)
        return out


@functools.cache
def load() -> Kernels | None:
    """The compiled kernels, built on first use; None (one warning) if unavailable."""
    # RuntimeError: a KernelBuildError, or Path.home() finding no home
    # directory; OSError: an unwritable cache or a library that does not load
    try:
        kernels = Kernels(_build(SOURCE.read_bytes()))
    except (RuntimeError, OSError) as e:
        log.warning("compiled kernels unavailable (%s); using the Python "
                    "kernels, which give the same results more slowly", e)
        return None
    log.debug("compiled kernels loaded from %s", kernels.path)
    return kernels
