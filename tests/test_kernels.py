"""The compiled kernels of _kernels.c against their Python references.

Each C entry point computes what a Python function in the package computes,
and that function stays as the fallback: `_local_moves` and `_digest_bits`.
The two local-move kernels are different algorithms: the C one rescans a
node's edges on every visit, the Python one reuses a node's community sums
until a neighbour moves.  These tests run both on the same inputs and
require identical results.  Wherever a C compiler is on PATH the compiled
kernels must be active, so that such a Tier-1 run cannot skip the
comparison; without one, the fallback must give the same partitions and
digests and warn once.
"""

import hashlib
import logging
import platform

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simnet import WeightVector, _kernels, build_graph, louvain
from simnet.community import _build_csr, _local_moves, _weighted_degrees
from simnet.similarity import _LOOKUP, _digest_bits, _digest_rows
from test_community import levels


def compiled():
    kernels = _kernels.load()
    if kernels is None:
        # only without a compiler: test_active_when_a_compiler_is_on_path fails otherwise
        pytest.skip("compiled kernels unavailable")
    return kernels


@pytest.fixture
def fresh_load():
    """Forget the loaded kernels before and after the test."""
    _kernels.load.cache_clear()
    yield
    _kernels.load.cache_clear()


def test_active_when_a_compiler_is_on_path():
    assert _kernels.compiler() is None or _kernels.load() is not None, (
        "a C compiler is on PATH but the compiled kernels did not load; "
        "see the warning logged by simnet._kernels")


def library_name():
    """The cache file name: the sha256 of the source, CFLAGS and the machine."""
    key = b"\0".join([_kernels.SOURCE.read_bytes(), *map(str.encode, _kernels.CFLAGS),
                      platform.machine().encode()])
    return f"_kernels-{hashlib.sha256(key).hexdigest()}.so"


def test_build_is_cached_by_source_sha256(tmp_path, monkeypatch, caplog, fresh_load):
    if _kernels.compiler() is None:
        pytest.skip("no C compiler on PATH")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    kernels = _kernels.load()
    assert kernels.path == tmp_path / "simnet" / library_name()
    assert [p.name for p in (tmp_path / "simnet").iterdir()] == [kernels.path.name]
    # a later process loads the cached build without a compiler, and silently
    _kernels.load.cache_clear()
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    with caplog.at_level(logging.WARNING, logger="simnet._kernels"):
        assert _kernels.load().path == kernels.path
    assert caplog.records == []


@pytest.mark.parametrize("change", ["cflags", "machine"])
def test_other_flags_or_machine_build_a_second_library(change, tmp_path, monkeypatch,
                                                        fresh_load):
    if _kernels.compiler() is None:
        pytest.skip("no C compiler on PATH")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    first = _kernels.load().path
    _kernels.load.cache_clear()
    if change == "cflags":
        monkeypatch.setattr(_kernels, "CFLAGS", (*_kernels.CFLAGS, "-g"))
    else:
        other = "riscv64" if platform.machine() != "riscv64" else "aarch64"
        monkeypatch.setattr(platform, "machine", lambda: other)
    second = _kernels.load()
    assert second.path.name == library_name() != first.name
    assert sorted(p.name for p in (tmp_path / "simnet").iterdir()) == sorted(
        [first.name, second.path.name])
    # the second library loads and runs
    level = (3, np.array([0, 1]), np.array([1, 2]), np.ones(2), np.zeros(3), np.arange(3))
    csr, k, m = python_level(level)
    comm, moves = python_moves(csr, k, m, level[-1])
    got_comm, got_moves = second.local_moves(*csr, k, m, level[-1])
    assert got_comm.tolist() == comm and got_moves.tolist() == moves


def python_level(level):
    """CSR arrays, degrees and total weight of a level, as `_run_level` builds them."""
    n, src, dst, w, self_w, order = level
    csr = _build_csr(n, src, dst, w)
    return csr, _weighted_degrees(n, src, dst, w, self_w), float(w.sum()) + float(self_w.sum())


def python_moves(csr, k, m, order):
    moves = []
    comm = _local_moves(*(a.tolist() for a in csr), k.tolist(), m, order.tolist(), moves)
    return comm, [list(mv) for mv in moves]


class TestLocalMoves:
    @given(level=levels())
    @settings(max_examples=400, deadline=None)
    def test_matches_python_kernel(self, level):
        # levels() draws edgeless nodes and levels, self-weights and tied weights
        kernels = compiled()
        csr, k, m = python_level(level)
        order = level[-1]
        comm, moves = python_moves(csr, k, m, order)
        got_comm, got_moves = kernels.local_moves(*csr, k, m, order)
        assert got_comm.dtype == got_moves.dtype == np.int64
        assert got_moves.shape == (len(moves), 3)
        assert got_comm.tolist() == comm
        assert got_moves.tolist() == moves

    def test_overflowing_move_log_reruns_to_the_same_moves(self, small_tensor,
                                                          monkeypatch):
        kernels = compiled()
        monkeypatch.setattr(_kernels, "_LOG_ROWS_PER_NODE", 0)
        monkeypatch.setattr(_kernels, "_LOG_SPARE_ROWS", 1)
        for threshold in (0.80, 0.90):
            g = build_graph(small_tensor, WeightVector.equal(), threshold)
            src, dst = g.src.astype(np.int64), g.dst.astype(np.int64)
            level = (g.n, src, dst, g.weight, np.zeros(g.n),
                     np.random.default_rng(3).permutation(g.n))
            csr, k, m = python_level(level)
            comm, moves = python_moves(csr, k, m, level[-1])
            assert len(moves) > 1   # so the one-row log overflowed
            got_comm, got_moves = kernels.local_moves(*csr, k, m, level[-1])
            assert got_comm.tolist() == comm
            assert got_moves.tolist() == moves

    @pytest.mark.parametrize("order", [[0, 0, 1], [0, 1, 3], [2, 1, -1]])
    def test_order_must_be_a_permutation(self, order):
        kernels = compiled()
        level = (3, np.array([0, 1]), np.array([1, 2]), np.ones(2), np.zeros(3),
                 np.array(order))
        csr, k, m = python_level(level)
        with pytest.raises(ValueError, match="permutation"):
            kernels.local_moves(*csr, k, m, level[-1])

    def test_inconsistent_shapes_are_refused(self):
        kernels = compiled()
        level = (3, np.array([0, 1]), np.array([1, 2]), np.ones(2), np.zeros(3),
                 np.arange(3))
        (indptr, indices, weights), k, m = python_level(level)
        with pytest.raises(ValueError, match="shapes"):
            kernels.local_moves(indptr, indices[:-1], weights, k, m, level[-1])


class TestDigestRows:
    """`_digest_rows` itself, compiled when a compiler is present, is checked
    against `_digest_bits` and the streaming oracle on token lists (empty
    tokens, non-ASCII text) in test_similarity.py's TestDigestRows."""

    @given(st.lists(st.binary(max_size=4) | st.binary(max_size=300), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_matches_python_on_raw_buffers(self, buffers):
        # every length below a full 5-byte window, and longer ones
        got = compiled().digest_rows(buffers, _LOOKUP)
        assert got.shape == (len(buffers), 32) and got.dtype == np.uint8
        assert got.tobytes() == b"".join(_digest_bits(b) for b in buffers)


def _fallback_env(case, tmp_path, monkeypatch):
    """Make the next `load` fall back: no compiler, a failing one, or no cache."""
    if case == "cache-not-writable":
        blocker = tmp_path / "cache-file"
        blocker.write_text("")   # a file where the cache directory should be
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        return
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    if case == "build-fails":
        cc = bin_dir / "cc"
        cc.write_text("#!/bin/sh\necho 'cc: broken' >&2\nexit 1\n")
        cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))


@pytest.mark.parametrize("case", ["no-compiler", "build-fails", "cache-not-writable"])
def test_fallback_gives_identical_results_and_warns_once(
        case, planted_tensor, planted_ds, tmp_path, monkeypatch, caplog, fresh_load):
    graphs = [build_graph(planted_tensor, WeightVector.equal(), t) for t in (0.85, 0.90)]
    runs = [(g, seed) for g in graphs for seed in (0, 1)]
    want = [louvain(g, seed, track=True) for g, seed in runs]
    want_digests = _digest_rows(planted_ds)

    _fallback_env(case, tmp_path, monkeypatch)
    _kernels.load.cache_clear()
    caplog.clear()   # a machine without a compiler warned for `want` already
    with caplog.at_level(logging.WARNING, logger="simnet._kernels"):
        got = [louvain(g, seed, track=True) for g, seed in runs]
        got_digests = _digest_rows(planted_ds)
        assert _kernels.load() is None
    assert [r.name for r in caplog.records] == ["simnet._kernels"]
    assert "using the Python kernels" in caplog.records[0].getMessage()
    assert got_digests.tobytes() == want_digests.tobytes()
    for p, q in zip(got, want):
        assert p.membership.tolist() == q.membership.tolist()
        assert p.modularity == q.modularity
        assert [lv.moves.tolist() for lv in p.trace] == [lv.moves.tolist() for lv in q.trace]
