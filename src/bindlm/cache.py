"""Training-free embedding cache: cosine top-k retrieval and residual blending.

The store is a frozen matrix of unit-norm rows used as both keys and values.
A query retrieves its top-k rows by inner product (cosine, since everything
is unit-norm) and blends the similarity-weighted aggregate back into itself:

    enhanced = alpha * (weights . values) + (1 - alpha) * query

By default the top-k similarities are clamped at zero and normalized to a
convex combination, which keeps alpha interpretable and the output norm at
most 1; raw_eq4=True uses the raw similarity row instead.

File format (integers little-endian):

    magic 'BNDC' | version u32 | dim u32 | count u64 | values-elided flag u8
    | keys float32 row-major | values float32 row-major (absent when elided)
    | ids: per row u32 length + UTF-8 bytes

Rows are quantized to float32 once at build time, so save/load round-trips
are bitwise faithful and rebuilding from the same stream reproduces the same
file.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .encoders import JointEmbedding
from .tensor import Tensor

MAGIC = b"BNDC"
VERSION = 1

DEFAULT_TOP_K = 16
DEFAULT_ALPHA = 0.5


class EmptyCacheError(ValueError):
    """Retrieval was attempted against a store with no rows."""


class CacheRangeError(ValueError):
    """k is outside [1, M], or a partitioning count is below 1."""


class CacheBuildError(ValueError):
    """An embedding in the build stream violated the store contract."""


class CacheFormatError(ValueError):
    """The file is not a valid cache; message carries the byte offset."""


@dataclass
class RetrievalResult:
    indices: list[int]
    similarities: Tensor  # [1, k], descending, clamped to [-1, 1]
    enhanced: Tensor | None = None  # [1, C_I]; set by enhance()


@dataclass
class _Partitions:
    centroids: np.ndarray  # [nlist, dim]
    lists: list[np.ndarray]  # row indices per centroid
    nprobe: int


class CacheStore:
    def __init__(self, keys: np.ndarray, values: np.ndarray, ids: list[str]):
        self.keys = keys  # float64 holding exactly float32-representable rows
        self.values = values
        self.ids = ids
        self._partitions: _Partitions | None = None

    @property
    def size(self) -> int:
        return self.keys.shape[0]

    @property
    def dim(self) -> int:
        return self.keys.shape[1] if self.keys.ndim == 2 else 0

    @property
    def values_elided(self) -> bool:
        return self.keys is self.values

    def build_partitions(self, nlist: int | None = None, nprobe: int | None = None,
                         seed: int = 0, iterations: int = 6) -> None:
        """Seeded spherical k-means inverted lists for approximate search."""
        m = self.size
        if m == 0:
            raise EmptyCacheError("cannot partition an empty cache")
        for name, value in (("nlist", nlist), ("nprobe", nprobe)):
            if value is not None and value < 1:
                raise CacheRangeError(f"{name} = {value} must be >= 1")
        if nlist is None:
            nlist = max(1, int(round(np.sqrt(m))))
        nlist = min(nlist, m)
        if nprobe is None:
            # Uniformly random keys are the worst case for inverted lists;
            # probing 80% keeps measured recall@16 above 0.95 even there.
            nprobe = max(1, -(-nlist * 4 // 5))
        rng = np.random.Generator(np.random.Philox(seed))
        centroids = self.keys[rng.choice(m, size=nlist, replace=False)].copy()
        assign = None
        for _ in range(iterations):
            sims = self.keys @ centroids.T
            assign = sims.argmax(axis=1)
            for l in range(nlist):
                members = self.keys[assign == l]
                if len(members):
                    c = members.mean(axis=0)
                    norm = np.sqrt((c * c).sum())
                    if norm > 0:
                        centroids[l] = c / norm
        lists = [np.nonzero(assign == l)[0] for l in range(nlist)]
        self._partitions = _Partitions(centroids, lists, min(nprobe, nlist))


def cache_build(embeddings: Iterable[JointEmbedding]) -> CacheStore:
    """Collect a stream of unit-norm embeddings into a frozen store.

    Rows keep insertion order; ids come from each embedding's source_id.
    A dimension or norm violation mid-stream fails the build naming the
    offending id.
    """
    rows, ids = [], []
    dim = None
    for e in embeddings:
        v = e.vector.array.reshape(-1)
        if dim is None:
            dim = v.shape[0]
        elif v.shape[0] != dim:
            raise CacheBuildError(
                f"embedding {e.source_id!r} has dim {v.shape[0]}, store dim is {dim}"
            )
        norm = float(np.sqrt((v * v).sum()))
        if abs(norm - 1.0) > 1e-6:
            raise CacheBuildError(
                f"embedding {e.source_id!r} is not unit-norm (|v| = {norm:.2e})"
            )
        rows.append(v)
        ids.append(e.source_id)
    if not rows:
        keys = np.zeros((0, 0))
        return CacheStore(keys, keys, [])
    keys = np.stack(rows).astype("<f4").astype(np.float64)
    return CacheStore(keys, keys, ids)


def _query_vector(store: CacheStore, query: JointEmbedding) -> np.ndarray:
    q = query.vector.array.reshape(-1)
    if q.shape[0] != store.dim:
        raise CacheBuildError(f"query dim {q.shape[0]} != store dim {store.dim}")
    return q


def _rank(sims: np.ndarray, candidates: np.ndarray | None, k: int):
    """The k best rows by similarity; sims holds one entry per candidate row,
    or per store row when candidates is None."""
    order = np.argsort(-sims, kind="stable")[:k]  # ties: lower index wins
    picked = order if candidates is None else candidates[order]
    return picked.tolist(), np.clip(sims[order], -1.0, 1.0)


def topk(store: CacheStore, query: JointEmbedding, k: int,
         mode: str = "exact") -> RetrievalResult:
    """Top-k rows by cosine; exact scan or partitioned (inverted-list) probe."""
    if store.size == 0:
        raise EmptyCacheError("cache is empty")
    if not (1 <= k <= store.size):
        raise CacheRangeError(f"k = {k} outside [1, {store.size}]")
    q = _query_vector(store, query)
    candidates = None  # None scans every row
    if mode == "partitioned":
        if store._partitions is None:
            store.build_partitions()
        part = store._partitions
        csims = part.centroids @ q
        probe_order = np.argsort(-csims, kind="stable")
        picked: list[np.ndarray] = []
        total = 0
        for li in probe_order:
            if total >= k and len(picked) >= part.nprobe:
                break
            lst = part.lists[li]
            if len(lst):
                picked.append(lst)
                total += len(lst)
        if total >= k:  # else degenerate partitioning: fall back to the full scan
            candidates = np.sort(np.concatenate(picked))
    elif mode != "exact":
        raise CacheRangeError(f"unknown mode {mode!r}")
    sims = store.keys @ q if candidates is None else store.keys[candidates] @ q
    indices, sims = _rank(sims, candidates, k)
    return RetrievalResult(indices=indices, similarities=Tensor(sims.reshape(1, -1)))


def enhance(store: CacheStore, query: JointEmbedding, k: int = DEFAULT_TOP_K,
            alpha: float = DEFAULT_ALPHA, mode: str = "exact",
            raw_eq4: bool = False) -> RetrievalResult:
    """Blend the retrieved aggregate into the query with balance factor alpha."""
    if not (0.0 <= alpha <= 1.0):
        raise CacheRangeError(f"alpha = {alpha} outside [0, 1]")
    result = topk(store, query, k, mode=mode)
    q = _query_vector(store, query)
    sims = result.similarities.array.reshape(-1)
    rows = store.values[result.indices]
    if raw_eq4:
        weights = sims
    else:
        weights = np.clip(sims, 0.0, None)
        total = weights.sum()
        # all-nonpositive similarities: fall back to uniform over the k rows
        weights = np.full(k, 1.0 / k) if total == 0.0 else weights / total
    agg = weights @ rows
    enhanced = alpha * agg + (1.0 - alpha) * q
    result.enhanced = Tensor(enhanced.reshape(1, -1))
    return result


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_cache(store: CacheStore, path) -> None:
    chunks = [
        MAGIC,
        struct.pack("<I", VERSION),
        struct.pack("<I", store.dim),
        struct.pack("<Q", store.size),
        struct.pack("<B", 1 if store.values_elided else 0),
        np.ascontiguousarray(store.keys, dtype="<f4").tobytes(),
    ]
    if not store.values_elided:
        chunks.append(np.ascontiguousarray(store.values, dtype="<f4").tobytes())
    for sid in store.ids:
        raw = sid.encode("utf-8")
        chunks.append(struct.pack("<I", len(raw)))
        chunks.append(raw)
    Path(path).write_bytes(b"".join(chunks))


def load_cache(path) -> CacheStore:
    raw = Path(path).read_bytes()
    off = 0

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(raw):
            raise CacheFormatError(
                f"{Path(path).name}: truncated {what} at byte offset {off} (needed {n} more)"
            )
        out = raw[off:off + n]
        off += n
        return out

    if take(4, "magic") != MAGIC:
        raise CacheFormatError(
            f"{Path(path).name}: bad magic at byte offset 0, expected {MAGIC!r}"
        )
    version = struct.unpack("<I", take(4, "version"))[0]
    if version != VERSION:
        raise CacheFormatError(f"{Path(path).name}: unsupported version {version}")
    dim = struct.unpack("<I", take(4, "dim"))[0]
    count = struct.unpack("<Q", take(8, "count"))[0]
    if dim == 0 and count:
        raise CacheFormatError(
            f"{Path(path).name}: dim 0 at byte offset 8 with {count} rows"
        )
    elided = struct.unpack("<B", take(1, "flag"))[0]
    if elided not in (0, 1):
        raise CacheFormatError(f"{Path(path).name}: bad values flag {elided} at offset {off - 1}")
    keys = np.frombuffer(take(4 * dim * count, "keys"), dtype="<f4")
    keys = keys.reshape(count, dim).astype(np.float64) if count else np.zeros((0, 0))
    if elided:
        values = keys
    else:
        values = np.frombuffer(take(4 * dim * count, "values"), dtype="<f4")
        values = values.reshape(count, dim).astype(np.float64) if count else np.zeros((0, 0))
    ids = []
    for row in range(count):
        n = struct.unpack("<I", take(4, "id length"))[0]
        start = off
        try:
            ids.append(take(n, "id").decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CacheFormatError(
                f"{Path(path).name}: id of row {row} is not UTF-8 at byte offset "
                f"{start + exc.start}"
            ) from None
    if off != len(raw):
        raise CacheFormatError(
            f"{Path(path).name}: {len(raw) - off} trailing bytes at offset {off}"
        )
    return CacheStore(keys, values, ids)
