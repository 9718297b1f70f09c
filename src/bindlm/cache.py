"""Training-free embedding cache: cosine top-k retrieval and residual blending.

The store is a frozen matrix of unit-norm rows used as both keys and values.
A query retrieves its top-k rows by inner product (cosine, since everything
is unit-norm) and blends the similarity-weighted aggregate back into itself:

    enhanced = alpha * (weights . values) + (1 - alpha) * query

By default the top-k similarities are clamped at zero and normalized to a
convex combination, which keeps alpha interpretable and the output norm at
most 1; raw_eq4=True uses the raw similarity row instead.

Search selects before it sorts: np.partition finds the k-th largest
similarity, and only the rows at or above it are sorted, by descending
similarity and then by ascending row index, so the lower index wins a tie.
The exact scan is one `keys @ q` over every row. The partitioned probe
searches seeded spherical k-means inverted lists in two phases. Phase 1
visits lists nearest centroid first until they hold k rows and nprobe of
them are non-empty; the k-th best similarity t found there is a lower bound
on the true k-th. Phase 2 also visits every other non-empty list whose upper
bound on q . x reaches t, so no row the probe skips can enter the top-k and
the result is the exact top-k. The bound of list l is

    |q| * (cos(max(0, angle(q, c_l) - radius_l)) + UNIT_NORM_TOL + slack)

where radius_l is the largest angle between a member and its final centroid
c_l. The slack, (dim + 10) float64 epsilons, exceeds the rounding error of a
dim-term dot product, of the norms, and of arccos and cos. It moves each
cosine to the safe side before its arccos (the query's up, a radius's down),
since near an angle of 0 a cosine off by one rounding moves its arccos by far
more, and it is added to the bound for the rounding of the scores. A
UNIT_NORM_TOL term covers rows whose norm is off 1. A zero query (the
placeholder) scores 0 on every row, so it visits every list; so does a
nonzero query whose norm is outside [2^-500, 2^500], where a product could
underflow or overflow past the slack.

build_partitions stores each list as one contiguous block of a float64 copy
of the keys, list after list, so a partitioned store holds the keys twice;
the probe scores the lists it visits in place, each run of neighbouring
lists as one product, and copies no rows. Exact similarities are the bits
of `keys @ q`. Partitioned ones agree with it to 1e-12 but not bitwise: at
one BLAS thread, OpenBLAS scores the last n % 4 rows of an n-row product
with another kernel, so a row's bits depend on where its block ends. The
two modes therefore return the same indices up to the order of
similarities that agree within 1e-12.

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
    scanned: int  # rows scored
    probed: int  # inverted lists visited; 0 for the exact scan
    enhanced: Tensor | None = None  # [1, C_I]; set by enhance()


@dataclass
class _Partitions:
    centroids: np.ndarray  # [nlist, dim], unit-norm
    radii: np.ndarray  # [nlist]; each member is at most radii[l] radians from centroid l
    rows: np.ndarray  # store row indices, list after list, ascending within a list
    blocks: np.ndarray  # keys[rows]: each list's rows as one contiguous block
    offsets: np.ndarray  # [nlist + 1]; list l is blocks[offsets[l]:offsets[l + 1]]
    nprobe: int


class CacheStore:
    def __init__(self, keys: np.ndarray, ids: list[str]):
        self.keys = self.values = keys  # float64 holding exactly float32-representable rows
        self.ids = ids
        self._partitions: _Partitions | None = None

    @property
    def size(self) -> int:
        return self.keys.shape[0]

    @property
    def dim(self) -> int:
        return self.keys.shape[1]

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
        if nprobe is None:
            nprobe = 1  # the bound, not nprobe, keeps the result exact
        rng = np.random.Generator(np.random.Philox(seed))
        centroids = self.keys[rng.choice(m, size=nlist, replace=False)].copy()
        assign = None
        for _ in range(KMEANS_ITERATIONS):
            sims = self.keys @ centroids.T
            assign = sims.argmax(axis=1)
            for l in range(nlist):
                members = self.keys[assign == l]
                if len(members):
                    c = members.mean(axis=0)
                    norm = np.sqrt((c * c).sum())
                    if norm > 0:
                        centroids[l] = c / norm
        centroids /= _norms(centroids)[:, None]
        rows = np.argsort(assign, kind="stable")
        blocks = self.keys[rows]
        offsets = np.concatenate(([0], np.cumsum(np.bincount(assign, minlength=nlist))))
        # a list's radius is the arccos of its members' smallest cosine to the
        # final centroid, less the slack
        least = [np.min(blocks[a:b] @ c / _norms(blocks[a:b]), initial=1.0)
                 for c, a, b in zip(centroids, offsets[:-1], offsets[1:])]
        radii = np.arccos(np.clip(np.array(least) - _slack(self.dim), -1.0, 1.0))
        self._partitions = _Partitions(centroids, radii, rows, blocks, offsets,
                                       min(nprobe, nlist))


def cache_build(embeddings: Iterable[JointEmbedding]) -> CacheStore:
    """Collect a stream of unit-norm embeddings into a frozen store.

    Rows keep insertion order; ids come from each embedding's source_id.
    A dimension violation stops the stream, and a row whose float32 copy
    is not unit-norm fails the build; either error names the offending id.
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
        rows.append(v)
        ids.append(e.source_id)
    if not rows:
        return CacheStore(np.zeros((0, 0)), [])
    keys = np.stack(rows).astype("<f4").astype(np.float64)
    bad = _first_non_unit_row(keys)
    if bad is not None:
        row, norm = bad
        raise CacheBuildError(f"embedding {ids[row]!r} is not unit-norm (|v| = {norm:.2e})")
    return CacheStore(keys, ids)


def _norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def _slack(dim: int) -> float:
    """What the probe's bound adds to a cosine, per unit of |q|: see the module
    docstring."""
    return (dim + 10) * np.finfo(np.float64).eps


def _first_non_unit_row(rows: np.ndarray) -> tuple[int, float] | None:
    """Index and norm of the first row whose norm is off 1 by more than
    UNIT_NORM_TOL (a non-finite row always is), or None."""
    norms = _norms(rows)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOL))
    return (int(bad[0]), float(norms[bad[0]])) if bad.size else None


def _rank(sims: np.ndarray, rows: np.ndarray | None, k: int):
    """The k best rows by similarity, the lower row index first among equals;
    sims[i] scores store row rows[i], or row i when rows is None."""
    # a select, then a sort of only the rows at or above the k-th similarity;
    # every row tied with the k-th stays, so the tie rule sees them all
    keep = np.flatnonzero(sims >= np.partition(sims, -k)[-k])
    ids = keep if rows is None else rows[keep]
    order = np.lexsort((ids, -sims[keep]))[:k]
    return ids[order].tolist(), np.clip(sims[keep[order]], -1.0, 1.0)


def _score(part: _Partitions, lists: np.ndarray, q: np.ndarray):
    """Similarities and row indices of the rows of lists, scored in place, each
    run of lists that sit next to each other in blocks as one product."""
    runs = []
    for l in np.sort(lists).tolist():
        a, b = part.offsets[l], part.offsets[l + 1]
        if runs and runs[-1][1] == a:
            runs[-1][1] = b  # a list that starts where the one before it ends extends that run
        else:
            runs.append([a, b])
    return (np.concatenate([part.blocks[a:b] @ q for a, b in runs]),
            np.concatenate([part.rows[a:b] for a, b in runs]))


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


def _probe(part: _Partitions, q: np.ndarray, k: int):
    """Similarities and row indices of every row of the lists visited, and how
    many lists were visited: phase 1's lists in centroid order, empty ones
    included, then the lists phase 2 adds."""
    cos = part.centroids @ q
    order = np.argsort(-cos, kind="stable")
    sizes = part.offsets[1:] - part.offsets[:-1]
    ordered = sizes[order]
    # the lists cover every row, so they hold k rows once all are visited
    enough = (np.cumsum(ordered) >= k) & (np.cumsum(ordered > 0) >= part.nprobe)
    probed = int(enough.argmax()) + 1 if enough.any() else len(order)
    near = order[:probed]
    sims, rows = _score(part, near[sizes[near] > 0], q)
    t = np.partition(sims, -k)[-k]  # at most the true k-th best similarity
    far = order[probed:]
    far = far[(sizes[far] > 0) & (_bounds(cos[far], part.radii[far], q) >= t)]
    if far.size:
        more, more_rows = _score(part, far, q)
        sims, rows = np.concatenate((sims, more)), np.concatenate((rows, more_rows))
    return sims, rows, probed + len(far)


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
    if mode == "exact":
        sims, rows, probed = store.keys @ q, None, 0
    elif mode == "partitioned":
        if store._partitions is None:
            store.build_partitions()
        sims, rows, probed = _probe(store._partitions, q, k)
    else:
        raise CacheRangeError(f"unknown mode {mode!r}")
    indices, top = _rank(sims, rows, k)
    return RetrievalResult(indices=indices, similarities=Tensor(top.reshape(1, -1)),
                           scanned=len(sims), probed=probed)


def enhance(store: CacheStore, query: JointEmbedding, k: int = DEFAULT_TOP_K,
            alpha: float = DEFAULT_ALPHA, mode: str = "exact",
            raw_eq4: bool = False) -> RetrievalResult:
    """Blend the retrieved aggregate into the query with balance factor alpha."""
    if not (0.0 <= alpha <= 1.0):
        raise CacheRangeError(f"alpha = {alpha} outside [0, 1]")
    result = topk(store, query, k, mode=mode)  # checks the query's width
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
    w.array(store.keys, "<f4")
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
    keys = r.array("<f4", (count, dim), "keys").astype(np.float64)
    bad = _first_non_unit_row(keys)
    if bad is not None:
        row, norm = bad
        r.fail(f"row {row} of keys is not unit-norm (|v| = {norm:.2e}) "
               f"at byte offset {start + 4 * dim * row}")
    ids = [r.string(f"id of row {row}") for row in range(count)]
    r.finish()
    return CacheStore(keys, ids)
