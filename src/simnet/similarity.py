"""Per-feature pairwise similarities and their weighted fusion.

API-call sequences are compared with Nilsimsa locality-sensitive hashing;
the three string-set features use Jaccard.  Every per-byte lookup of the
trigram hash sits in one (256, 32) table, and a combination's bucket is a
wrapping uint8 ``(a ^ b) + c`` of three of them.  When a C compiler is
available (see ``_kernels``), one call of the compiled kernel digests all
samples, walking each buffer once; otherwise `_digest_bits` gathers one
buffer's lookups in a single take and counts the buckets with one
bincount.  Both give the same bytes, and `_digest_bits` is the reference
the compiled kernel is tested against.

Both pairwise measures run on one blocked popcount kernel over bit-packed
uint64 rows: Nilsimsa counts the differing bits of two digests (xor),
Jaccard the shared tokens of two sets' packed token incidence (and).  Both
are symmetric with a unit diagonal, so the kernel computes only the upper
triangle and each block's strict upper part goes straight into a condensed
vector of the n(n−1)/2 pairs.  The four condensed features are computed
once into a SimilarityTensor; fusing them under a WeightVector is a linear
reweighting, so weight search never touches raw features again.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .dataset import Dataset, Sample, atomic_write

FEATURES = ("api", "permission", "activity", "file")

# Classic Nilsimsa trigram transition table (the 53-based permutation of
# 0..255 from the original implementation).
_TRAN_HEX = (
    "02D69E6FF91D04ABD022161FD873A1AC"
    "3B7062961E6E8F399D05144AA6BEAE0E"
    "CFB99C9AC76813E12DA4EB518D646B50"
    "23800341ECBB71CC7A867F98F2365EEE"
    "8ECE4FB832B65F59DC1B314C7BF06301"
    "6CBA07E81277493CDA46FE2F791C9B30"
    "E300067E2E0F383321ADA554CAA729FC"
    "5A47697DC595B5F40B90A3816D255535"
    "F575740A26BF195C1AC6FF995D84AA66"
    "3EAF78B32043C1ED24EAE63F18F3A042"
    "57085360C3C0834082D709BD442A67A8"
    "93E0C2569FD9DD8515B48A27289276DE"
    "EFF8B2B7C93D45944B110D65D5348B91"
    "0CFA87E97C5BB14DE5D4CB10A21789BC"
    "DBB0E2978852F748D3612C3A2BD18CFB"
    "F1CDE46AE7A9FDC437C8D2F6DF58724E"
)
TRAN = bytes.fromhex(_TRAN_HEX)


# ---------------------------------------------------------------------------
# Nilsimsa
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NilsimsaDigest:
    """A 256-bit Nilsimsa digest."""

    bits: bytes

    def __post_init__(self):
        if len(self.bits) != 32:
            raise ValueError("digest must be exactly 32 bytes")

    def hex(self) -> str:
        return self.bits.hex()


def _lookup_table() -> np.ndarray:
    """Every per-byte lookup of the trigram hash, as (256, 4) uint64 rows.

    Combination k hashes its bytes (a, b, c) to
    ``((T[(a + k) & 255] ^ T[b]·(2k + 1)) + T[c ^ T[k]]) & 255``, and each of
    the three terms depends on one byte only.  Row x holds them at uint8
    columns 3k, 3k + 1 and 3k + 2 (reduced mod 256, which commutes with the
    xor and the add); eight zero columns pad a row to four whole words.
    """
    t = np.frombuffer(TRAN, dtype=np.uint8).astype(np.int64)
    x = np.arange(256)
    table = np.zeros((256, 32), dtype=np.uint8)
    for k in range(8):
        table[:, 3 * k] = t[(x + k) & 255]
        table[:, 3 * k + 1] = (t[x] * (2 * k + 1)) & 255
        table[:, 3 * k + 2] = t[x ^ t[k]]
    return table.view(np.uint64)


_LOOKUP = _lookup_table()

# The (a, b, c) bytes of the eight combinations as slices of the input:
# a 5-byte window ends at each byte (_CH, then _W0.._W3 going back).  The
# three slices of a combination always have equal length, zero when the
# input is shorter than its window, so short inputs need no special case.
_CH, _W0, _W1, _W2, _W3 = (slice(4, None), slice(3, -1), slice(2, -2), slice(1, -3),
                           slice(None, -4))
_COMBOS = (
    (slice(2, None), slice(1, -1), slice(None, -2)),
    (slice(3, None), slice(2, -1), slice(None, -3)),
    (slice(3, None), slice(1, -2), slice(None, -3)),
    (_CH, _W0, _W3),
    (_CH, _W1, _W3),
    (_CH, _W2, _W3),
    (_W3, _W0, _CH),
    (_W3, _W2, _CH),
)


def _digest_bits(data: bytes) -> bytes:
    """The 32 digest bytes of a byte buffer: one table gather, one bincount.

    Each byte's row of _LOOKUP holds all 24 of its lookups; a combination's
    buckets are then ``(a ^ b) + c`` over slices of the gathered columns,
    and uint8 arithmetic wraps exactly like the reference's ``& 255``.
    """
    g = _LOOKUP.take(np.frombuffer(data, dtype=np.uint8), axis=0).view(np.uint8)
    buckets = np.concatenate([(g[a, 3 * k] ^ g[b, 3 * k + 1]) + g[c, 3 * k + 2]
                              for k, (a, b, c) in enumerate(_COMBOS)])
    total = buckets.shape[0]
    if total == 0:
        return bytes(32)
    threshold = total // 256  # mean bucket count, floor — bit set iff strictly above
    bits = np.bincount(buckets, minlength=256) > threshold
    return np.packbits(bits, bitorder="little")[::-1].tobytes()


def nilsimsa_digest(data: bytes) -> NilsimsaDigest:
    """Digest a byte string; empty or sub-trigram input gives all-zero bits."""
    return NilsimsaDigest(_digest_bits(bytes(data)))


def nilsimsa_compare(a: NilsimsaDigest, b: NilsimsaDigest) -> int:
    """128 minus the number of differing bits; in [-128, 128]."""
    diff = (int.from_bytes(a.bits, "big") ^ int.from_bytes(b.bits, "big")).bit_count()
    return 128 - diff


def _serialize_sequence(seq: Iterable[str]) -> bytes:
    # separator byte keeps token boundaries from colliding ("ab","c" vs "a","bc");
    # UTF-8 encodes "\n" as that one byte, so joining the tokens before encoding
    # gives the same bytes as joining their encodings
    return "\n".join(seq).encode("utf-8")


def _score_to_unit(score):
    """A Nilsimsa score in [-128, 128], or an array of them, rescaled to [0, 1]."""
    return (score / 128.0 + 1.0) / 2.0


def api_similarity(a: Sample, b: Sample) -> float:
    """Nilsimsa similarity of two API sequences, rescaled to [0, 1]."""
    da = nilsimsa_digest(_serialize_sequence(a.api_sequence))
    db = nilsimsa_digest(_serialize_sequence(b.api_sequence))
    return _score_to_unit(nilsimsa_compare(da, db))


# ---------------------------------------------------------------------------
# Jaccard
# ---------------------------------------------------------------------------

def jaccard(a: Iterable[str], b: Iterable[str]) -> float:
    """|A∩B| / |A∪B|.  Two empty sets are equal (1.0); one empty gives 0.0."""
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 1.0
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter)


# ---------------------------------------------------------------------------
# Weights and the tensor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightVector:
    """Simplex weights over (api, permission, activity, file)."""

    w_api: float
    w_permission: float
    w_activity: float
    w_file: float

    def __post_init__(self):
        vals = self.as_tuple()
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"weights must be finite: {vals}")
        if any(v < 0.0 for v in vals):
            raise ValueError(f"weights must be nonnegative: {vals}")
        if abs(sum(vals) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1: {vals}")

    @classmethod
    def equal(cls) -> "WeightVector":
        return cls(0.25, 0.25, 0.25, 0.25)

    @classmethod
    def from_array(cls, arr) -> "WeightVector":
        return cls(*(float(v) for v in arr))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.w_api, self.w_permission, self.w_activity, self.w_file)

    def as_array(self) -> np.ndarray:
        return np.array(self.as_tuple(), dtype=np.float64)

    def as_dict(self) -> dict[str, float]:
        return dict(zip(FEATURES, self.as_tuple()))


def _row_start(n: int, i):
    """Condensed position of pair (i, i + 1), where row i's pairs begin.

    Pairs (i, j), i < j, of n samples are numbered row by row in
    ``np.triu_indices(n, 1)`` order, so row i starts after the
    (n - 1) + ... + (n - i) pairs of the rows above it.  Works elementwise
    on integer arrays, and ``_row_start(n, n)`` is the pair count.
    """
    return i * (2 * n - i - 1) // 2


@lru_cache(maxsize=8)
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column (int64) of every condensed pair of n samples."""
    iu, ju = np.triu_indices(n, k=1)
    return iu.astype(np.int64), ju.astype(np.int64)


@lru_cache(maxsize=4)
def _dense_index(n: int) -> np.ndarray:
    """(n, n) intp gather index from a condensed vector with 1.0 appended.

    Entry (i, j) holds the position of pair (i, j) or (j, i); the diagonal
    points at the appended 1.0, one past the last pair.
    """
    idx = np.zeros((n, n), dtype=np.intp)
    idx[np.triu_indices(n, k=1)] = np.arange(_row_start(n, n))
    idx += idx.T
    np.fill_diagonal(idx, _row_start(n, n))
    return idx


class _DenseMatrices(Sequence):
    """The four features of a tensor as dense n×n matrices.

    Each access expands one feature into a new C-contiguous symmetric
    array with a unit diagonal; nothing is cached, so iterating twice
    expands twice and the tensor itself stays condensed.
    """

    def __init__(self, t: "SimilarityTensor"):
        self._t = t

    def __len__(self) -> int:
        return len(FEATURES)

    def __getitem__(self, k: int) -> np.ndarray:
        v = self._t.vectors()[k]
        return np.append(v, 1.0).take(_dense_index(self._t.n))


class CacheVersionError(ValueError):
    """A tensor cache written in a format this version does not read."""


@dataclass(frozen=True, eq=False)
class SimilarityTensor:
    """Four symmetric per-feature similarities of n samples, condensed.

    Each feature is a (P,) float64 vector, P = n(n−1)/2, holding the pairs
    (i, j), i < j, in ``np.triu_indices(n, 1)`` order; the unit diagonal is
    implied.  ``pair`` reads one pair and ``matrices`` expands to dense.
    """

    sample_order: tuple[str, ...]
    api: np.ndarray
    permission: np.ndarray
    activity: np.ndarray
    file: np.ndarray

    def __post_init__(self):
        p = _row_start(self.n, self.n)
        for name, v in zip(FEATURES, self.vectors()):
            if v.shape != (p,):
                raise ValueError(f"{name} vector shape {v.shape} != ({p},)")

    @property
    def n(self) -> int:
        return len(self.sample_order)

    def vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.api, self.permission, self.activity, self.file)

    def matrices(self) -> Sequence[np.ndarray]:
        """The dense n×n matrices, expanded one feature per access."""
        return _DenseMatrices(self)

    def pair(self, i: int, j: int) -> tuple[float, float, float, float]:
        """The four similarities of samples i and j (all 1.0 when i == j)."""
        n = self.n
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"pair ({i}, {j}) out of range for {n} samples")
        if i == j:
            return (1.0, 1.0, 1.0, 1.0)
        lo, hi = min(i, j), max(i, j)
        k = _row_start(n, lo) + hi - lo - 1
        return tuple(float(v[k]) for v in self.vectors())

    def subset(self, indices) -> "SimilarityTensor":
        """The tensor of the samples at ``indices``, in that order."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise IndexError(f"subset index out of range for {self.n} samples")
        if np.unique(idx).size != idx.size:
            raise ValueError("subset indices must be distinct")
        order = tuple(self.sample_order[i] for i in idx)
        iu, ju = pair_indices(idx.size)
        a, b = idx[iu], idx[ju]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        k = _row_start(self.n, lo) + hi - lo - 1
        return SimilarityTensor(order, *(v[k] for v in self.vectors()))

    # Cache format v2: one JSON header line, then the four float64 condensed
    # vectors as raw blobs and nothing after them.  Hand-rolled instead of
    # npz because zip containers embed timestamps and the cache must be
    # byte-stable across runs.
    FORMAT_VERSION = 2

    def save(self, path) -> None:
        """Write the cache atomically: a reader sees the old file or the new one."""
        header = {
            "format_version": self.FORMAT_VERSION,
            "n": self.n,
            "features": list(FEATURES),
            "sample_order": list(self.sample_order),
        }
        # the vectors stream to the file one by one: joining them first
        # would hold a second copy of the tensor at the peak of a save
        with atomic_write(path, "wb") as fh:
            fh.write(json.dumps(header, separators=(",", ":")).encode("ascii"))
            fh.write(b"\n")
            for v in self.vectors():
                fh.write(np.ascontiguousarray(v, dtype=np.float64).tobytes())

    @classmethod
    def _read_header(cls, line: bytes) -> tuple[int, tuple[str, ...]]:
        """Validate a cache header line; return n and the sample order."""
        try:
            header = json.loads(line.decode("ascii"))
        except ValueError as e:
            raise ValueError(f"corrupt tensor cache: unreadable header ({e})") from e
        if not isinstance(header, dict):
            raise ValueError("corrupt tensor cache: header is not a JSON object")
        if "format_version" not in header:
            # not a tensor cache at all, so it is refused rather than rebuilt over
            raise ValueError("corrupt tensor cache: header has no format_version")
        version = header["format_version"]
        if version != cls.FORMAT_VERSION:
            raise CacheVersionError(f"unsupported tensor cache version: {version!r}")
        n = header.get("n")
        if type(n) is not int or n < 1:
            raise ValueError(f"corrupt tensor cache: n must be an int >= 1, got {n!r}")
        if header.get("features") != list(FEATURES):
            raise ValueError(f"corrupt tensor cache: features {header.get('features')!r}"
                             f" != {list(FEATURES)!r}")
        order = header.get("sample_order")
        if (not isinstance(order, list) or len(order) != n
                or not all(isinstance(sid, str) for sid in order)):
            raise ValueError(f"corrupt tensor cache: sample_order is not {n} strings")
        return n, tuple(order)

    @classmethod
    def load(cls, path) -> "SimilarityTensor":
        with open(path, "rb") as fh:
            n, order = cls._read_header(fh.readline())
            size = 8 * _row_start(n, n)
            vecs = []
            for name in FEATURES:
                buf = fh.read(size)
                if len(buf) != size:
                    raise ValueError("corrupt tensor cache: truncated feature block")
                v = np.frombuffer(buf, dtype=np.float64).copy()
                # NaN fails both comparisons
                if not ((v >= 0.0) & (v <= 1.0)).all():
                    raise ValueError(f"corrupt tensor cache: {name} value outside [0, 1]")
                vecs.append(v)
            if fh.read(1):
                raise ValueError("corrupt tensor cache: trailing bytes after the last block")
        return cls(order, *vecs)


def _digest_rows(ds: Dataset) -> np.ndarray:
    """Stack every sample's sequence digest into an (n, 32) uint8 array.

    All digests come from one call of the compiled kernel when it is
    available, else one `_digest_bits` per sample; both give the same bytes.
    """
    buffers = (_serialize_sequence(s.api_sequence) for s in ds)
    kernels = _kernels.load()
    if kernels is not None:
        return kernels.digest_rows(buffers, _LOOKUP)
    bits = b"".join(_digest_bits(b) for b in buffers)
    return np.frombuffer(bits, dtype=np.uint8).reshape(len(ds), 32)


# Rows per block are chosen so that one block's (words, rows, n - lo) uint64
# cube stays near this size; it bounds peak memory and never changes results.
# At n = 400 and 800, 256 KiB was faster and lighter than 1-4 MiB blocks.
_BLOCK_BYTES = 256 << 10


def _pairwise_popcount(rows: np.ndarray, op) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (lo, hi, counts) with counts[i - lo, j - lo] = popcount(op(rows[i], rows[j])).

    ``rows`` is an (n, words) uint64 array of bit-packed rows and ``op`` a
    commutative bitwise ufunc, so the counts are symmetric and only the
    upper triangle is computed: each block pairs rows lo..hi with columns
    lo..n, and the blocks cover rows 0..n in order.  The cube is laid out
    word-major so the sum over words adds whole (rows, n - lo) planes.
    """
    n, words = rows.shape
    cols = np.ascontiguousarray(rows.T)
    lo = 0
    while lo < n:
        hi = min(n, lo + max(1, _BLOCK_BYTES // (8 * (n - lo) * words)))
        cube = op(cols[:, lo:hi, None], cols[:, None, lo:])
        yield lo, hi, np.bitwise_count(cube).sum(axis=0, dtype=np.int64)
        lo = hi


def _upper(n: int, lo: int, hi: int) -> tuple[slice, np.ndarray]:
    """Where block rows lo..hi land in the condensed vector, and the mask.

    The mask selects the entries j > i of a (hi - lo, n - lo) block; in
    row-major order they are exactly the condensed pairs of rows lo..hi.
    """
    mask = np.arange(n - lo) > np.arange(hi - lo)[:, None]
    return slice(_row_start(n, lo), _row_start(n, hi)), mask


def _compare_matrix(digests: np.ndarray) -> np.ndarray:
    """Condensed rescaled Nilsimsa scores from stacked (n, 32) uint8 digests."""
    n = digests.shape[0]
    sim = np.empty(_row_start(n, n), dtype=np.float64)
    for lo, hi, diff in _pairwise_popcount(digests.view(np.uint64), np.bitwise_xor):
        out, mask = _upper(n, lo, hi)
        sim[out] = _score_to_unit(128 - diff[mask])
    return sim


def _incidence_rows(sets: list[frozenset[str]]) -> np.ndarray:
    """Token incidence of each set, bit-packed into (n, words) uint64 rows.

    The width is padded to whole 64-bit words, and to one word when the
    vocabulary is empty; padding bits are zero and never counted.
    """
    n = len(sets)
    vocab = sorted(set().union(*sets))
    index = {tok: j for j, tok in enumerate(vocab)}
    words = max(1, -(-len(vocab) // 64))
    bits = np.zeros((n, 64 * words), dtype=bool)
    rows = np.repeat(np.arange(n), [len(s) for s in sets])
    bits[rows, [index[tok] for s in sets for tok in s]] = True
    return np.packbits(bits, axis=1).view(np.uint64)


def _jaccard_matrix(sets: list[frozenset[str]]) -> np.ndarray:
    """Condensed pairwise Jaccard via popcounts of packed incidence."""
    n = len(sets)
    rows = _incidence_rows(sets)
    sizes = np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
    sim = np.empty(_row_start(n, n), dtype=np.float64)
    for lo, hi, counts in _pairwise_popcount(rows, np.bitwise_and):
        out, mask = _upper(n, lo, hi)
        inter = counts[mask]
        union = (sizes[lo:hi, None] + sizes[None, lo:])[mask] - inter
        sim[out] = np.where(union == 0, 1.0, inter / np.maximum(union, 1))
    return sim


def build_similarity_tensor(ds: Dataset) -> SimilarityTensor:
    """Compute all four condensed pairwise similarities for a dataset."""
    if len(ds) == 0:
        raise ValueError("cannot build a similarity tensor from an empty dataset")
    api = _compare_matrix(_digest_rows(ds))
    permission = _jaccard_matrix([s.permissions for s in ds])
    activity = _jaccard_matrix([s.activity_names for s in ds])
    file_ = _jaccard_matrix([s.file_names for s in ds])
    return SimilarityTensor(ds.ids, api, permission, activity, file_)


def fused_matrix(t: SimilarityTensor, w: WeightVector) -> np.ndarray:
    """Weighted fusion of all four features, condensed like the tensor.

    Accumulates in fixed feature order so every entry is bit-identical to
    the scalar final_similarity value.
    """
    ws = w.as_tuple()
    out = ws[0] * t.api
    out += ws[1] * t.permission
    out += ws[2] * t.activity
    out += ws[3] * t.file
    return out


def final_similarity(t: SimilarityTensor, w: WeightVector, i: int, j: int) -> float:
    """Fused similarity of one pair: w · (S_api, S_perm, S_act, S_file)."""
    ws = w.as_tuple()
    s = t.pair(i, j)
    return float(ws[0] * s[0] + ws[1] * s[1] + ws[2] * s[2] + ws[3] * s[3])
