"""Training-free embedding cache: cosine top-k retrieval and residual blending.

The store is a frozen matrix of unit-norm rows used as both keys and values.
A query retrieves its top-k rows by inner product (cosine, since everything
is unit-norm) and blends the similarity-weighted aggregate back into itself:

    enhanced = alpha * (weights . values) + (1 - alpha) * query

By default the top-k similarities are clamped at zero and normalized to a
convex combination, which keeps alpha interpretable and the output norm at
most 1; raw_eq4=True uses the raw similarity row instead.

A row's similarity is one rule, the same wherever the row sits:
(rows * q).sum(axis=1) in float64. A `keys @ q` product is not: at one
BLAS thread OpenBLAS scores the last M % 4 rows of an M-row product with
another kernel, so identical rows could differ in their last bits; under
the rule they always tie. Search applies the rule only to the rows a
float32 scan cannot rule out. Both modes scale the query by its largest
magnitude (a zero query by 1), cast it to float32 and score it against the
float32 rows; a row's float32 score s and its similarity F then
satisfy |s - F / scale| <= margin, where, with u = 2^-24, |x| <= 1 +
UNIT_NORM_TOL for every row x and n the norm of the scaled query,

    margin = (1 + UNIT_NORM_TOL) * n * ((1 + u)^(dim + 1) - 1 + (dim + 8) * eps)
             + dim * (2^-149 + 2^-1075 / scale)

The first term is relative: the query's cast to float32 is one rounding, a
dim-term float32 dot product takes at most dim more on any summation order,
and (dim + 8) float64 epsilons cover the float64 rule's own rounding, the
scaling, the norm n and the threshold arithmetic below. The second term is
absolute and covers underflow, where a product or cast is off by up to half
its type's smallest subnormal (2^-150 or 2^-1075) and a sum of subnormals
is exact: dim * 2^-149 covers the float32 products and the query's cast,
and dim * 2^-1075 / scale the rule's products, scaled like s.
If t is the k-th best float32 score, k rows have F >= (t - margin) * scale,
so every row of the top-k, and every row tied with the k-th, scores at
least t - 2 * margin. Those rows, and only those, are re-scored by the rule
and ranked. Ranking selects before it sorts: np.partition finds the k-th
largest similarity, and only the rows at or above it are sorted, by
descending similarity and then by ascending row index, so the lower index
wins a tie.

The exact scan scores every row. The partitioned probe searches seeded
spherical k-means inverted lists in two phases. Phase 1 visits lists nearest
centroid first until they hold k rows and nprobe of them are non-empty; if t
is the k-th best float32 score found there, (t - margin) * scale is a lower
bound on the true k-th similarity. Phase 2 also visits every other non-empty
list whose upper bound on q . x reaches it, so no row the probe skips can
enter the top-k, or tie with its k-th, and both modes rank the same rows by
the same rule: they return the same indices and the same similarity bytes.
The bound of list l is

    |q| * (cos(max(0, angle(q, c_l) - radius_l)) + UNIT_NORM_TOL + slack)

where radius_l is the largest angle between a member and its final centroid
c_l. The slack, (dim + 10) float64 epsilons, exceeds the rounding error of a
dim-term dot product, of the norms, and of arccos and cos. It moves each
cosine to the safe side before its arccos (the query's up, a radius's down),
since near an angle of 0 a cosine off by one rounding moves its arccos by far
more, and it is added to the bound for the rounding of the rule. A
UNIT_NORM_TOL term covers rows whose norm is off 1. A zero query (the
placeholder) scores 0 on every row, so it visits every list; so does a
nonzero query whose norm is outside [2^-500, 2^500], where a product could
underflow or overflow past the slack.

Memory: the store holds its rows once, as one float32 array, 4 bytes a value.
build_partitions reorders it into list order, each list one block, and keeps
the inverse permutation; the probe scores the lists it visits in place. A
float32 row widens to float64 exactly, so float64 work widens only the rows
it uses and gets a float64 copy's bits. keys and values are the float64 rows
in store order, computed when read; no program path reads them.

File format (encoded and bounds-checked by binfmt.py):

    magic 'BNDC' | version u32 | dim u32 | count u64 | values flag u8, always 1
    | rows float32 row-major, the keys and the values alike
    | ids: per row u32 length + UTF-8 bytes

Rows are quantized to float32 once at build time, so save/load round-trips
are bitwise faithful and rebuilding from the same stream reproduces the same
file. load_cache holds a file to what cache_build guarantees: dim 0 only with
no rows, values flag 1, and every row finite and unit-norm within UNIT_NORM_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import binfmt
from .encoders import JointEmbedding
from .tensor import DataError, Tensor

MAGIC = b"BNDC"
VERSION = 1

DEFAULT_TOP_K = 16
DEFAULT_ALPHA = 0.5
# How far a stored row's norm may be from 1. cache_build applies it to the
# float32 rows it stores and load_cache to the rows it reads, so every store
# cache_build writes loads.
UNIT_NORM_TOL = 1e-6
# Spherical k-means rounds that build_partitions runs.
KMEANS_ITERATIONS = 6
# Rows per block that cache_build fills, and per float64 chunk (_widened).
_CHUNK = 4096


class EmptyCacheError(DataError):
    """Retrieval was attempted against a store with no rows."""


class CacheRangeError(DataError):
    """k is outside [1, M], a partitioning count is below 1, or the
    partitioning seed is negative."""


class CacheBuildError(DataError):
    """An embedding in the build stream violated the store contract."""


class CacheFormatError(DataError):
    """The file is not a valid cache; message carries the byte offset."""


@dataclass
class RetrievalResult:
    indices: list[int]
    similarities: Tensor  # [1, k], descending, clamped to [-1, 1]
    scanned: int  # rows scored in float32
    probed: int  # inverted lists visited; 0 for the exact scan
    rescored: int  # rows re-scored in float64
    enhanced: Tensor | None = None  # [1, C_I]; set by enhance()


@dataclass
class _Partitions:
    centroids: np.ndarray  # [nlist, dim], unit-norm
    radii: np.ndarray  # [nlist]; each member is at most radii[l] radians from centroid l
    rows: np.ndarray  # store row indices, list after list, ascending within a list
    where: np.ndarray  # the inverse of rows: store row r sits at position where[r]
    offsets: np.ndarray  # [nlist + 1]; list l is rows[offsets[l]:offsets[l + 1]]
    nprobe: int


class CacheStore:
    """Float32 rows, in insertion order, and their ids. Both modes scan the one row
    array: position i holds row i, or part.rows[i] once lists are stored as blocks."""

    def __init__(self, rows: np.ndarray, ids: list[str]):
        self.ids = ids
        self._rows32 = np.require(rows, np.float32, "CA")  # a file's rows may sit unaligned
        self._partitions: _Partitions | None = None

    @property
    def size(self) -> int:
        return self._rows32.shape[0]

    @property
    def dim(self) -> int:
        return self._rows32.shape[1]

    @property
    def keys(self) -> np.ndarray:
        """The rows in store order, widened to float64 when read; values is this property."""
        return self._rows().astype(np.float64)

    values = keys

    def _rows(self, ids=slice(None)) -> np.ndarray:
        """The float32 rows of store rows ids (indices, a mask or a slice), in that order."""
        return self._rows32[ids if self._partitions is None else self._partitions.where[ids]]

    def build_partitions(self, nlist: int | None = None, nprobe: int | None = None,
                         seed: int = 0) -> None:
        """Seeded spherical k-means inverted lists for the partitioned probe;
        nprobe is the fewest non-empty lists its first phase visits."""
        m = self.size
        if m == 0:
            raise EmptyCacheError("cannot partition an empty cache")
        for name, value, low in (("nlist", nlist, 1), ("nprobe", nprobe, 1), ("seed", seed, 0)):
            if value is not None and value < low:
                raise CacheRangeError(f"{name} = {value} must be >= {low}")
        if nlist is None:
            nlist = max(1, int(round(np.sqrt(m))))
        nlist = min(nlist, m)
        # the bound, not nprobe, keeps the result exact
        nprobe = min(1 if nprobe is None else nprobe, nlist)
        rows32 = self._rows()  # store order
        rng = np.random.Generator(np.random.Philox(seed))
        centroids = rows32[rng.choice(m, size=nlist, replace=False)].astype(np.float64)
        assign = None
        for _ in range(KMEANS_ITERATIONS):
            assign = np.concatenate([(x @ centroids.T).argmax(axis=1) for x in _widened(rows32)])
            for l in range(nlist):
                members = rows32[assign == l].astype(np.float64)
                if len(members):
                    c = members.mean(axis=0)
                    norm = np.sqrt((c * c).sum())
                    if norm > 0:
                        centroids[l] = c / norm
        centroids /= _norms(centroids)[:, None]
        rows = np.argsort(assign, kind="stable")
        offsets = np.concatenate(([0], np.cumsum(np.bincount(assign, minlength=nlist))))
        # a list's radius is the arccos of its members' smallest cosine to the
        # final centroid, less the slack
        listed, least = rows32[rows], []  # the rows in list order
        for c, a, b in zip(centroids, offsets[:-1], offsets[1:]):
            members = listed[a:b].astype(np.float64)
            least.append(np.min(members @ c / _norms(members), initial=1.0))
        radii = np.arccos(np.clip(np.array(least) - _slack(self.dim), -1.0, 1.0))
        self._rows32 = listed  # argsort inverts the permutation rows
        self._partitions = _Partitions(centroids, radii, rows, np.argsort(rows), offsets, nprobe)


def cache_build(embeddings: Iterable[JointEmbedding]) -> CacheStore:
    """Collect a stream of unit-norm embeddings into a frozen store.

    Rows keep insertion order; ids come from each embedding's source_id.
    A dimension violation stops the stream, and an embedding whose float32
    row is not unit-norm fails the build; either error names the offending id.
    Each row is cast into a preallocated block of _CHUNK float32 rows, so a
    build peaks near twice the store's size, when the blocks are joined.
    """
    blocks, ids = [], []
    dim = None
    for e in embeddings:
        v = e.vector.array.reshape(-1)
        if dim is None:
            dim = v.shape[0]
        elif v.shape[0] != dim:
            raise CacheBuildError(
                f"embedding {e.source_id!r} has dim {v.shape[0]}, store dim is {dim}"
            )
        at = len(ids) % _CHUNK
        if at == 0:
            blocks.append(np.empty((_CHUNK, dim), "<f4"))
        blocks[-1][at] = v  # the same rounding as astype
        ids.append(e.source_id)
    if not blocks:
        return CacheStore(np.zeros((0, 0), "<f4"), ids)
    blocks[-1] = blocks[-1][:at + 1]
    store = CacheStore(np.concatenate(blocks), ids)
    del blocks  # freed before the unit-norm check widens rows
    bad = _first_non_unit_row(store._rows32)
    if bad is not None:
        row, norm = bad
        raise CacheBuildError(f"embedding {ids[row]!r} is not unit-norm (|v| = {norm:.2e})")
    return store


def _norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def _widened(rows: np.ndarray):
    """rows as float64, _CHUNK at a time: no float64 store, and small k-means products."""
    return (rows[a:a + _CHUNK].astype(np.float64) for a in range(0, len(rows), _CHUNK))


def _slack(dim: int) -> float:
    """What the probe's bound adds to a cosine, per unit of |q|: see the module
    docstring."""
    return (dim + 10) * np.finfo(np.float64).eps


def _margin(scaled: np.ndarray, scale: float) -> float:
    """Bound on |s - F / scale| for every row, s its float32 score against the
    scaled query and F its similarity: see the module docstring."""
    dim = len(scaled)
    n = math.sqrt(scaled @ scaled)
    relative = math.expm1((dim + 1) * math.log1p(2.0 ** -24)) + (dim + 8) * 2.0 ** -52
    # half of float64's smallest subnormal, 2^-1075, is not itself a float64
    underflow = 2.0 ** -149 + 2.0 ** -1074 / scale / 2
    return (1.0 + UNIT_NORM_TOL) * n * relative + dim * underflow


def _first_non_unit_row(rows: np.ndarray) -> tuple[int, float] | None:
    """Index and float64 norm of the first float32 row whose norm is off 1 by more
    than UNIT_NORM_TOL (a non-finite row always is), or None."""
    norms = np.concatenate([np.zeros(0)] + [_norms(x) for x in _widened(rows)])
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOL))
    return (int(bad[0]), float(norms[bad[0]])) if bad.size else None


def _rank(sims: np.ndarray, rows: np.ndarray, k: int):
    """The k best rows by similarity, the lower row index first among equals;
    sims[i] scores store row rows[i]."""
    # a select, then a sort of only the rows at or above the k-th similarity;
    # every row tied with the k-th stays, so the tie rule sees them all
    keep = np.flatnonzero(sims >= _kth(sims, k))
    ids = rows[keep]
    order = np.lexsort((ids, -sims[keep]))[:k]
    return ids[order].tolist(), np.clip(sims[keep[order]], -1.0, 1.0)


def _score(rows32: np.ndarray, part: _Partitions, lists: np.ndarray, q32: np.ndarray):
    """Float32 scores and rows32 positions of the rows of lists, scored in place,
    each run of lists that sit next to each other in rows32 as one product."""
    runs = []
    for l in np.sort(lists).tolist():
        a, b = part.offsets[l], part.offsets[l + 1]
        if runs and runs[-1][1] == a:
            runs[-1][1] = b  # a list that starts where the one before it ends extends that run
        else:
            runs.append([a, b])
    return (np.concatenate([rows32[a:b] @ q32 for a, b in runs]),
            np.concatenate([np.arange(a, b) for a, b in runs]))


def _bounds(cos: np.ndarray, radii: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Upper bounds on q . x over the members x of lists with centroid cosines
    cos (centroid @ q) and the given radii, as the module docstring gives them."""
    with np.errstate(over="ignore"):  # an infinite norm is out of range below
        norm = np.sqrt(q @ q)
    if not 2.0 ** -500 <= norm <= 2.0 ** 500:
        # a zero query scores exactly 0 on every row; any other visits every list
        return np.full(len(cos), np.inf if q.any() else 0.0)
    slack = _slack(len(q))
    # rounding leaves cos / norm above -1 - slack, so only the top needs a clip
    angle = np.arccos(np.minimum(cos / norm + slack, 1.0))
    return norm * (np.cos(np.maximum(angle - radii, 0.0)) + UNIT_NORM_TOL + slack)


def _probe(store: CacheStore, q: np.ndarray, q32: np.ndarray, k: int, margin: float,
           scale: float):
    """Float32 scores and rows32 positions of every row of the lists visited, and
    how many lists were visited: phase 1's lists in centroid order, empty ones
    included, then the lists phase 2 adds."""
    part = store._partitions
    cos = part.centroids @ q
    order = np.argsort(-cos, kind="stable")
    sizes = part.offsets[1:] - part.offsets[:-1]
    ordered = sizes[order]
    # the lists cover every row, so they hold k rows once all are visited
    enough = (np.cumsum(ordered) >= k) & (np.cumsum(ordered > 0) >= part.nprobe)
    probed = int(enough.argmax()) + 1 if enough.any() else len(order)
    near = order[:probed]
    scores, pos = _score(store._rows32, part, near[sizes[near] > 0], q32)
    t = (_kth(scores, k) - margin) * scale  # at most the true k-th similarity
    far = order[probed:]
    far = far[(sizes[far] > 0) & (_bounds(cos[far], part.radii[far], q) >= t)]
    if far.size:
        more, more_pos = _score(store._rows32, part, far, q32)
        scores, pos = np.concatenate((scores, more)), np.concatenate((pos, more_pos))
    return scores, pos, probed + len(far)


def _kth(scores: np.ndarray, k: int) -> float:
    return float(np.partition(scores, -k)[-k])


def topk(store: CacheStore, query: JointEmbedding, k: int,
         mode: str = "exact") -> RetrievalResult:
    """Top-k rows by cosine; exact scan or partitioned (inverted-list) probe."""
    if store.size == 0:
        raise EmptyCacheError("cache is empty")
    if not (1 <= k <= store.size):
        raise CacheRangeError(f"k = {k} outside [1, {store.size}]")
    q = query.vector.array.reshape(-1)
    if q.shape[0] != store.dim:
        raise CacheBuildError(f"query dim {q.shape[0]} != store dim {store.dim}")
    scale = float(np.abs(q).max()) or 1.0  # a zero query scores 0 at any scale
    scaled = q / scale
    q32 = scaled.astype(np.float32)
    margin = _margin(scaled, scale)
    if mode == "exact":
        scores, pos, probed = store._rows32 @ q32, None, 0
    elif mode == "partitioned":
        if store._partitions is None:
            store.build_partitions()
        scores, pos, probed = _probe(store, q, q32, k, margin, scale)
    else:
        raise CacheRangeError(f"unknown mode {mode!r}")
    # np.float64 keeps the comparison in float64: a Python float would be cast to float32
    keep = scores >= np.float64(_kth(scores, k) - 2.0 * margin)
    near = np.flatnonzero(keep) if pos is None else pos[keep]  # rows32 positions
    ids = near if store._partitions is None else store._partitions.rows[near]
    indices, top = _rank((store._rows32[near] * q).sum(axis=1), ids, k)
    return RetrievalResult(indices=indices, similarities=Tensor(top.reshape(1, -1)),
                           scanned=len(scores), probed=probed, rescored=len(near))


def enhance(store: CacheStore, query: JointEmbedding, k: int = DEFAULT_TOP_K,
            alpha: float = DEFAULT_ALPHA, mode: str = "exact",
            raw_eq4: bool = False) -> RetrievalResult:
    """Blend the retrieved aggregate into the query with balance factor alpha."""
    if not (0.0 <= alpha <= 1.0):
        raise CacheRangeError(f"alpha = {alpha} outside [0, 1]")
    result = topk(store, query, k, mode=mode)  # checks the query's width
    sims = result.similarities.array.reshape(-1)
    rows = store._rows(result.indices).astype(np.float64)
    if raw_eq4:
        weights = sims
    else:
        weights = np.clip(sims, 0.0, None)
        total = weights.sum()
        # all-nonpositive similarities: fall back to uniform over the k rows
        weights = np.full(k, 1.0 / k) if total == 0.0 else weights / total
    agg = weights @ rows
    result.enhanced = Tensor(alpha * agg + (1.0 - alpha) * query.vector.array)
    return result


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_cache(store: CacheStore, path) -> None:
    w = binfmt.Writer(MAGIC, VERSION)
    w.u32(store.dim)
    w.u64(store.size)
    w.u8(1)
    w.array(store._rows(), "<f4")
    for sid in store.ids:
        w.string(sid)
    w.save(path)


def load_cache(path) -> CacheStore:
    r = binfmt.read_binary(path, CacheFormatError)
    r.header(MAGIC, VERSION)
    dim, count = r.u32("dim"), r.u64("count")
    if dim == 0 and count:
        r.fail(f"dim 0 at byte offset 8 with {count} rows")
    flag = r.u8("flag")
    if flag != 1:
        r.fail(f"bad values flag {flag} at offset {r.off - 1}")
    start = r.off
    store = CacheStore(r.array("<f4", (count, dim), "keys"), [])
    bad = _first_non_unit_row(store._rows32)
    if bad is not None:
        row, norm = bad
        r.fail(f"row {row} of keys is not unit-norm (|v| = {norm:.2e}) "
               f"at byte offset {start + 4 * dim * row}")
    store.ids = [r.string(f"id of row {row}") for row in range(count)]
    r.finish()
    return store
