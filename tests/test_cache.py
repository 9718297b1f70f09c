import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bindlm.cache import (
    UNIT_NORM_TOL,
    CacheBuildError,
    CacheFormatError,
    CacheRangeError,
    EmptyCacheError,
    cache_build,
    enhance,
    load_cache,
    save_cache,
    topk,
)
from bindlm.encoders import JointEmbedding, Modality
from bindlm.tensor import Tensor, derive_rng

from _oracles import kmeans_oracle, probe_oracle, rule_topk_oracle, topk_oracle


def exhaustive_topk_oracle(keys: np.ndarray, q: np.ndarray, k: int) -> list[int]:
    """Independent scan: sort by (-similarity, index)."""
    sims = [(float(-(row @ q)), i) for i, row in enumerate(keys)]
    sims.sort()
    return [i for _, i in sims[:k]]


def _embs(rng, n, dim, prefix="e"):
    out = []
    for i in range(n):
        out.append(JointEmbedding.of(rng.standard_normal(dim), Modality.IMAGE, f"{prefix}{i}"))
    return out


def test_build_empty_store_then_query_errors():
    store = cache_build([])
    assert store.size == 0
    q = JointEmbedding.of([1.0, 0.0], Modality.AUDIO, "q")
    with pytest.raises(EmptyCacheError):
        topk(store, q, 1)


def _rows32(embs) -> np.ndarray:
    """The float32 rows a store of embs holds, in insertion order."""
    return np.stack([e.vector.array.reshape(-1) for e in embs]).astype("<f4")


def test_build_keeps_insertion_order():
    rng = derive_rng(0, "cache-order")
    embs = _embs(rng, 3, 8)
    store = cache_build(embs)
    assert store.size == 3
    assert store.ids == ["e0", "e1", "e2"]
    assert store.values.tobytes() == _rows32(embs).astype(np.float64).tobytes()


def test_build_rejects_dim_mismatch_naming_id():
    rng = derive_rng(1, "cache-dim")
    good = _embs(rng, 2, 8)
    bad = JointEmbedding.of(rng.standard_normal(9), Modality.IMAGE, "odd-one")
    with pytest.raises(CacheBuildError, match="odd-one"):
        cache_build(good + [bad])


def test_build_rejects_non_unit_rows():
    from bindlm.encoders import placeholder_embedding

    with pytest.raises(CacheBuildError, match="placeholder"):
        cache_build([placeholder_embedding(8)])


def test_build_fills_blocks_without_losing_a_row():
    # rows on both sides of each 4,096-row block boundary, and a short last block
    embs = _embs(derive_rng(20, "cache-blocks"), 2 * 4096 + 3, 4)
    store = cache_build(iter(embs))
    assert store.ids == [e.source_id for e in embs]
    assert store._rows32.tobytes() == _rows32(embs).tobytes()
    assert store._rows32.base is None  # no unused block rows held behind the store


def test_build_errors_name_the_row_in_a_later_block():
    rng = derive_rng(21, "cache-block-errors")
    embs = _embs(rng, 4100, 4)
    wide = JointEmbedding.of(rng.standard_normal(5), Modality.IMAGE, "wide")
    with pytest.raises(CacheBuildError,
                       match="^" + re.escape("embedding 'wide' has dim 5, store dim is 4") + "$"):
        cache_build(iter(embs[:4098] + [wide] + embs[4098:]))
    from bindlm.encoders import placeholder_embedding

    with pytest.raises(CacheBuildError, match="^" + re.escape(
            "embedding 'placeholder' is not unit-norm (|v| = 0.00e+00)") + "$"):
        cache_build(iter(embs[:4098] + [placeholder_embedding(4)] + embs[4098:]))


def test_a_streamed_build_peaks_below_twice_the_store():
    m, dim = 65_536, 64

    def stream():
        rng = derive_rng(22, "cache-peak")
        for a in range(0, m, 4096):
            x = rng.standard_normal((4096, dim))
            yield from (JointEmbedding.of(v, Modality.IMAGE, f"r{a + i}") for i, v in enumerate(x))

    tracemalloc.start()
    try:
        store = cache_build(stream())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert store.size == m
    # the blocks and the store they are joined into, plus 8 MiB for the
    # 65,536 ids and the stream's 4,096-row chunk; one float32 array per row
    # held until a final stack peaked at 54 MiB here
    assert peak < 2 * store._rows32.nbytes + 8 * 2**20


def test_rows_unit_norm_within_1e6_after_quantization():
    rng = derive_rng(2, "cache-norm")
    store = cache_build(_embs(rng, 64, 64))
    norms = np.sqrt((store.keys * store.keys).sum(axis=1))
    assert np.abs(norms - 1.0).max() < 1e-6


def test_build_bitwise_deterministic_files(tmp_path):
    rng1 = derive_rng(3, "cache-det")
    rng2 = derive_rng(3, "cache-det")
    a, b = tmp_path / "a.bnc", tmp_path / "b.bnc"
    save_cache(cache_build(_embs(rng1, 10_000, 32)), a)
    save_cache(cache_build(_embs(rng2, 10_000, 32)), b)
    assert a.read_bytes() == b.read_bytes()


def test_self_retrieval_similarity_one():
    # rows chosen to be exactly float32-representable unit vectors
    vecs = [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.5, 0.5, 0.5, 0.5],
        [0.0, 0.0, 0.0, -1.0],
    ]
    embs = [JointEmbedding.of(v, Modality.IMAGE, f"v{i}") for i, v in enumerate(vecs)]
    store = cache_build(embs)
    for i, e in enumerate(embs):
        r = topk(store, e, 1)
        assert r.indices == [i]
        assert abs(r.similarities.array[0, 0] - 1.0) < 1e-9


def test_k_equals_m_full_scan_sorted():
    rng = derive_rng(4, "cache-full")
    embs = _embs(rng, 12, 16)
    store = cache_build(embs)
    r = topk(store, embs[5], 12)
    sims = r.similarities.array[0]
    assert sorted(r.indices) == list(range(12))
    assert all(sims[i] >= sims[i + 1] for i in range(11))
    assert r.indices[0] == 5


def test_similarities_in_unit_interval():
    rng = derive_rng(5, "cache-range")
    embs = _embs(rng, 50, 8)
    store = cache_build(embs)
    for e in embs[:10]:
        sims = topk(store, e, 50).similarities.array
        assert sims.max() <= 1.0 + 1e-9 and sims.min() >= -1.0 - 1e-9


def test_ties_broken_by_lower_index():
    v = [0.5, 0.5, 0.5, 0.5]
    embs = [JointEmbedding.of(v, Modality.IMAGE, f"d{i}") for i in range(4)]
    store = cache_build(embs)
    r = topk(store, embs[0], 3)
    assert r.indices == [0, 1, 2]


def test_topk_argument_errors():
    rng = derive_rng(6, "cache-args")
    embs = _embs(rng, 4, 8)
    store = cache_build(embs)
    with pytest.raises(CacheRangeError):
        topk(store, embs[0], 5)
    with pytest.raises(CacheRangeError):
        topk(store, embs[0], 0)
    with pytest.raises(CacheRangeError):
        topk(store, embs[0], 2, mode="fuzzy")


def test_build_partitions_rejects_a_negative_seed():
    store = cache_build(_embs(derive_rng(6, "cache-parts"), 4, 8))
    with pytest.raises(CacheRangeError, match="seed = -1 must be >= 0"):
        store.build_partitions(seed=-1)


def test_exact_matches_oracle_and_partitioned_recall():
    rng = derive_rng(7, "cache-oracle")
    embs = _embs(rng, 256, 32)
    store = cache_build(embs)
    queries = _embs(rng, 32, 32, prefix="q")
    store.build_partitions(seed=0)
    for q in queries:
        qv = q.vector.array.reshape(-1)
        exact = topk(store, q, 16)
        want = exhaustive_topk_oracle(store.keys, qv, 16)
        assert exact.indices == want
        assert 16 <= exact.rescored < 20  # random rows: few sit within the margin of the k-th
        # the per-row rule, one row at a time, bit for bit
        assert exact.similarities.array.tobytes() == rule_topk_oracle(store.keys, qv, 16)[1].tobytes()
        approx = topk(store, q, 16, mode="partitioned")
        assert approx.indices == want
        assert approx.similarities.array.tobytes() == exact.similarities.array.tobytes()


@pytest.mark.parametrize("mode", ["exact", "partitioned"])
def test_ties_straddling_k_go_to_lower_indices(mode):
    # similarity to e0 is the first coordinate exactly, so equal first
    # coordinates are exact ties whatever the summation order
    firsts = [0.1, 0.5, 0.9, 0.5, -0.3, 0.5, 0.9, 0.5, 0.1, 0.5, -0.3, 0.5]
    embs = []
    for i, a in enumerate(firsts):
        v = np.zeros(4)
        v[0], v[1 + i % 3] = a, (-1.0) ** i * np.sqrt(1.0 - a * a)
        embs.append(JointEmbedding.of(v, Modality.IMAGE, f"t{i}"))
    store = cache_build(embs)
    store.build_partitions(nlist=3, nprobe=3, seed=0)  # probe every list: no row is missed
    query = JointEmbedding.of([1.0, 0.0, 0.0, 0.0], Modality.AUDIO, "q")
    for k in range(1, len(firsts) + 1):
        got = topk(store, query, k, mode=mode).indices
        assert got == exhaustive_topk_oracle(store.keys, query.vector.array.reshape(-1), k)
    assert topk(store, query, 4, mode=mode).indices == [2, 6, 1, 3]


@given(seed=st.integers(0, 2**16), m=st.integers(1, 64), k_frac=st.floats(0.01, 1.0))
@settings(max_examples=40)
def test_exact_topk_equals_oracle_property(seed, m, k_frac):
    rng = derive_rng(seed, "cache-prop")
    embs = _embs(rng, m, 8)
    store = cache_build(embs)
    q = JointEmbedding.of(rng.standard_normal(8), Modality.AUDIO, "q")
    k = max(1, int(round(k_frac * m)))
    got = topk(store, q, k).indices
    assert got == exhaustive_topk_oracle(store.keys, q.vector.array.reshape(-1), k)


def _tied_store(rng, m, dim):
    """m rows whose first coordinate is one of seven multiples of 1/4, kept
    exactly through the float32 copy, so their similarities to e0 are exact
    ties whatever the summation order."""
    embs = []
    for i in range(m):
        a = int(rng.integers(-3, 4)) / 4
        rest = rng.standard_normal(dim - 1)
        v = np.concatenate(([a], np.sqrt(1.0 - a * a) * rest / np.sqrt(rest @ rest)))
        embs.append(JointEmbedding(Tensor(v.reshape(1, -1)), Modality.IMAGE, f"t{i}"))
    return cache_build(embs)


def _assert_partitioned_is_exact(store, query, k, nlist, nprobe, seed):
    """The partitioned top-k has the full sort's indices over the whole store,
    and the probe visits as many lists and scans as many rows as the probe
    oracle, whose candidates also hold that top-k; the similarities are the
    exact scan's bytes."""
    qv = query.vector.array.reshape(-1)
    want = topk_oracle(store.keys, qv, k)[0]
    got = topk(store, query, k, mode="partitioned")
    assert got.indices == want
    probed, scanned, candidates = probe_oracle(store.keys, qv, k, nlist, nprobe, seed)
    assert (got.probed, got.scanned) == (probed, scanned)
    assert topk_oracle(store.keys, qv, k, candidates)[0] == want
    assert got.similarities.array.tobytes() == topk(store, query, k).similarities.array.tobytes()


@given(seed=st.integers(0, 2**16), m=st.integers(1, 40), dim=st.integers(2, 8), data=st.data())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_select_equals_the_full_sort_on_stores_full_of_ties(seed, m, dim, data):
    """Every k in [1, M]: the exact scan gives the full sort's indices and
    similarity bytes; the partitioned probe gives the same indices and visits
    the lists the probe oracle names."""
    store = _tied_store(derive_rng(seed, "cache-ties"), m, dim)
    nlist = data.draw(st.integers(1, m), label="nlist")
    nprobe = data.draw(st.integers(1, nlist), label="nprobe")
    store.build_partitions(nlist=nlist, nprobe=nprobe, seed=seed)
    query = JointEmbedding.of(np.eye(dim)[0], Modality.AUDIO, "q")
    qv = query.vector.array.reshape(-1)
    for k in range(1, m + 1):
        want = topk_oracle(store.keys, qv, k)[0]
        exact = topk(store, query, k)
        assert exact.indices == want
        assert exact.similarities.array.tobytes() == rule_topk_oracle(store.keys, qv, k)[1].tobytes()
        assert (exact.scanned, exact.probed) == (m, 0)
        _assert_partitioned_is_exact(store, query, k, nlist, nprobe, seed)


def test_partitioned_is_exact_on_a_clustered_store():
    """Tight clusters, like the many views of few objects an image cache
    holds, so the bound skips most lists; six k-means rounds leave the
    centroids still moving, so a radius must come from the final ones."""
    rng = derive_rng(22, "cache-clusters")
    centres = rng.standard_normal((24, 16))
    rows = centres.repeat(8, axis=0) + 0.3 * rng.standard_normal((192, 16))
    store = cache_build(JointEmbedding.of(_unit(*r), Modality.IMAGE, f"c{i}")
                        for i, r in enumerate(rows))
    store.build_partitions(nlist=14, seed=0)
    scanned = 0
    for c in centres + 0.3 * rng.standard_normal((24, 16)):
        query = JointEmbedding.of(_unit(*c), Modality.AUDIO, "q")
        for k in (1, 4, 16):
            _assert_partitioned_is_exact(store, query, k, 14, 1, 0)
        scanned += topk(store, query, 4, mode="partitioned").scanned
    assert scanned < 0.5 * 24 * store.size


def _unit(*v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.sqrt(v @ v)


def _duplicates():
    """Five rows, each stored four times, interleaved; two share a list."""
    rows = derive_rng(19, "cache-dups").standard_normal((5, 6))
    return [_unit(*rows[i % 5]) for i in range(20)], 4, [4, 4, 4, 8]


def _symmetric_clusters():
    """Two clusters of five rows, each symmetric about its centre, which is
    itself a row: the mean's direction is the centre's, so that row lies on
    its list's centroid, and the other four sit at the list's radius."""
    rows = []
    for centre, across in ((0, (1, 2)), (3, (4, 5))):
        rows.append(np.eye(6)[centre])
        for axis in across:
            for sign in (1.0, -1.0):
                v = 0.8 * np.eye(6)[centre]
                v[axis] = 0.6 * sign
                rows.append(v)
    return rows, 2, [5, 5]


def _one_row_lists():
    """Twelve rows far apart, one to a list."""
    rows = derive_rng(20, "cache-single").standard_normal((12, 6))
    return [_unit(*r) for r in rows], 12, [1] * 12


# 1 - 13 * 2^-24 and 1 + 7 * 2^-23: float32 values, off 1 by nearly UNIT_NORM_TOL
SHORT, LONG = 1.0 - 13 * 2.0 ** -24, 1.0 + 7 * 2.0 ** -23


def _norms_at_the_bound():
    """A row just short of unit norm along e0 and one just long along e1, one
    to a list; the NORM_QUERY prefers e0's centroid, but the long row scores
    higher than the short one, so only the norm allowance finds it."""
    rows = [SHORT * np.eye(6)[0], LONG * np.eye(6)[1], _unit(1, 1, 0, 0, 0, 0)]
    rows += [np.eye(6)[i] for i in range(2, 6)] + [-np.eye(6)[0]]
    return rows, 8, [1] * 8


NORM_QUERY = np.array([1.0, 1.0 - UNIT_NORM_TOL, 0.3, 0.0, 0.0, 0.0])


def _store_of(rows):
    return cache_build(JointEmbedding(Tensor(np.reshape(v, (1, -1))), Modality.IMAGE, f"a{i}")
                       for i, v in enumerate(rows))


@pytest.mark.parametrize("make", [_duplicates, _symmetric_clusters, _one_row_lists,
                                  _norms_at_the_bound])
@pytest.mark.parametrize("nprobe", [1, 2])
def test_partitioned_is_exact_on_adversarial_stores(make, nprobe):
    """Every k in [1, M] and a random, a stored, an antipodal and a zero query;
    each store's lists have the sizes its maker names."""
    rows, nlist, sizes = make()
    store = _store_of(rows)
    seed = 0
    store.build_partitions(nlist=nlist, nprobe=nprobe, seed=seed)
    assert sorted(np.diff(store._partitions.offsets).tolist()) == sizes
    queries = [derive_rng(21, "cache-adv").standard_normal(store.dim), store.keys[0],
               -store.keys[1], np.zeros(store.dim)]
    if make is _norms_at_the_bound:
        queries.append(NORM_QUERY)
    for q in queries:
        query = JointEmbedding(Tensor(q.reshape(1, -1)), Modality.AUDIO, "q")
        for k in range(1, store.size + 1):
            _assert_partitioned_is_exact(store, query, k, nlist, nprobe, seed)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_a_query_norm_far_from_one_visits_every_list(scale):
    """Products of such a query could underflow or overflow past the slack."""
    rows, nlist, _ = _one_row_lists()
    store = _store_of(rows)
    store.build_partitions(nlist=nlist, seed=0)
    q = scale * derive_rng(23, "cache-scale").standard_normal(store.dim)
    got = topk(store, JointEmbedding(Tensor(q.reshape(1, -1)), Modality.AUDIO, "q"), 3,
               mode="partitioned")
    assert got.indices == topk_oracle(store.keys, q, 3)[0]
    assert (got.probed, got.scanned) == (nlist, store.size)


# ---------------------------------------------------------------------------
# the float32 scan's margin: both modes against the per-row rule
# ---------------------------------------------------------------------------


def _assert_rule_topk(store, q, k, mode):
    """topk has the per-row rule's indices and similarity bytes, and re-scores
    every row it returns."""
    query = JointEmbedding(Tensor(np.reshape(q, (1, -1))), Modality.AUDIO, "q")
    got = topk(store, query, k, mode=mode)
    want, want_sims = rule_topk_oracle(store.keys, q, k)
    assert got.indices == want
    assert got.similarities.array.reshape(-1).tobytes() == want_sims.tobytes()
    assert k <= got.rescored <= got.scanned
    return got


MODES = ["exact", "partitioned"]


@pytest.mark.parametrize("mode", MODES)
def test_identical_first_and_last_rows_tie_to_the_first(mode):
    """13 rows, not a multiple of 4: a product scores the last 13 % 4 rows with
    another kernel, the per-row rule scores every row alike."""
    rows = derive_rng(25, "cache-twins").standard_normal((13, 8))
    rows[12] = rows[0]
    store = _store_of([_unit(*r) for r in rows])
    store.build_partitions(nlist=4, seed=0)
    queries = [store.keys[0], derive_rng(26, "cache-twins-q").standard_normal(8)]
    for q in queries:
        for k in range(1, store.size + 1):
            got = _assert_rule_topk(store, q, k, mode)
            if 12 in got.indices:
                assert got.indices.index(0) == got.indices.index(12) - 1
    assert topk(store, JointEmbedding(Tensor(queries[0].reshape(1, -1)), Modality.AUDIO, "q"),
                2, mode=mode).indices == [0, 12]


def _ring(dim, angle, rng):
    """Rows at one angle from a direction u, each toward its own axis of a
    basis of u's complement, signs alternating: far enough apart for one
    k-means list each, with similarities to u that differ by less than the
    float32 margin. The last axis, orthogonal to the others, pads each norm to
    between 1e-10 and 1e-8 under 1 + UNIT_NORM_TOL: the norms reorder rows whose
    angles the float32 copy left a rounding apart, and each list's bound sits
    within about 1e-8 of its row's similarity to u."""
    u = np.append(_unit(*rng.standard_normal(dim - 1)), 0.0)
    basis = np.linalg.qr(np.column_stack([u[:-1], rng.standard_normal((dim - 1, dim - 2))]))[0]
    rows = []
    for j in range(2 * (dim - 2)):
        v = np.cos(angle) * u[:-1] + (-1.0) ** j * np.sin(angle) * basis[:, 1 + j // 2]
        v = v.astype(np.float32).astype(np.float64)
        norm = 1.0 + UNIT_NORM_TOL * (1.0 - rng.uniform(1e-4, 1e-2))
        rows.append(np.append(v, np.float32(np.sqrt(norm * norm - v @ v))))
    return u, rows


@pytest.mark.parametrize("mode", MODES)
def test_rows_within_the_margin_straddle_the_kth(mode):
    """Every k on stores whose rows' similarities differ by less than the float32
    margin, so the k-th float32 score falls among rows it cannot order; the
    partitioned probe must lower phase 2's threshold by the margin to visit
    every list that may hold one of them."""
    for seed in range(6):
        rng = derive_rng(seed, "cache-ring")
        u, rows = _ring(13, 0.02, rng)
        store = _store_of(rows)
        store.build_partitions(nlist=len(rows), seed=seed)
        assert np.diff(store._partitions.offsets).max() == 1
        for q in (u, u + 1e-3 * rng.standard_normal(13)):
            for k in range(1, store.size + 1):
                _assert_rule_topk(store, q, k, mode)


def _subnormal_query_store():
    """Rows scored against a query of four smallest subnormals. Each float64
    product rounds to a multiple of that subnormal, so a row's rule similarity
    counts its components above 1/2 less those below -1/2, while the float32
    scan of the query scaled to ones sums the components: row 0 is last by
    the scan but ties rows 1 and 3 for first by the rule, and row 2
    leads the scan and scores 0. Only the margin's underflow term keeps row 0."""
    rows = [_unit(0.51, -0.4966, -0.4966, -0.4966), _unit(0.49, 0.49, 0.49, 0.5289),
            _unit(1, 1, 1, 1), _unit(0.3, 0.2, 0.1, 0.9), _unit(-1, 0.1, 0.2, 0.3)]
    return _store_of(rows), np.full(4, np.finfo(np.float64).smallest_subnormal)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("which", ["1e-200", "1e200", "subnormal parts", "subnormal", "zero"])
def test_query_scales_far_from_one(mode, which):
    """Every k, for queries the float32 cast would underflow or overflow without
    the scaling, one whose small parts underflow anyway, one whose similarities
    are all underflow, and the zero query."""
    if which == "subnormal":
        store, q = _subnormal_query_store()
        assert rule_topk_oracle(store.keys, q, 2)[0] == [0, 1]
    else:
        store = _store_of(_one_row_lists()[0])
        q = derive_rng(27, "cache-scales").standard_normal(store.dim)
        q = {"1e-200": 1e-200 * q, "1e200": 1e200 * q, "zero": 0.0 * q,
             "subnormal parts": q * np.array([1.0, 1e-310, -1e-315, 3e-320, 1e-40, -1e-45])}[which]
    store.build_partitions(nlist=3, seed=0)
    for k in range(1, store.size + 1):
        _assert_rule_topk(store, q, k, mode)


@pytest.mark.parametrize("mode", MODES)
def test_k_equal_to_the_store_size_rescores_every_row(mode):
    store = cache_build(_embs(derive_rng(28, "cache-all"), 37, 8))
    store.build_partitions(nlist=5, seed=0)
    q = derive_rng(29, "cache-all-q").standard_normal(8)
    got = _assert_rule_topk(store, q, store.size, mode)
    assert got.rescored == got.scanned == store.size


def test_partitions_store_each_kmeans_list_as_one_block():
    """The store's one float32 row array is reordered into list order, each list
    one block, from whatever order the build before left it in."""
    embs = _embs(derive_rng(18, "cache-layout"), 300, 16)
    want = _rows32(embs)
    store = cache_build(embs)
    assert store._rows32.tobytes() == want.tobytes()
    parts = []
    for seed in (0, 5):
        store.build_partitions(nlist=17, seed=seed)
        p = store._partitions
        assert np.array_equal(np.sort(p.rows), np.arange(store.size))
        assert store._rows32.tobytes() == want[p.rows].tobytes()
        lists, centroids = kmeans_oracle(store.keys, 17, seed)
        assert len(p.offsets) == len(lists) + 1 and p.offsets[0] == 0
        for l, rows in enumerate(lists):
            assert np.array_equal(p.rows[p.offsets[l]:p.offsets[l + 1]], rows)
        assert np.abs(p.centroids - centroids).max() <= 1e-15
        parts.append(p)
    # the second build replaces every part of the layout
    first, part = parts
    assert not np.array_equal(part.rows, first.rows)
    assert not np.array_equal(part.centroids, first.centroids)


def _held_bytes(store) -> int:
    """Bytes of the arrays a store and its partitions hold; each must own its
    data, so that no view keeps a larger buffer alive."""
    arrays = [v for obj in (store, store._partitions) if obj is not None
              for v in vars(obj).values() if isinstance(v, np.ndarray)]
    assert all(a.base is None for a in arrays)
    return sum(a.nbytes for a in arrays)


def test_a_store_holds_four_bytes_per_value(tmp_path):
    """One float32 row array, plus index arrays of m entries and the centroids
    once partitioned; keys and values are the float32 rows widened, in store
    order, whatever the layout."""
    embs = _embs(derive_rng(19, "cache-bytes"), 500, 24)
    rows = _rows32(embs).astype(np.float64)
    m, dim = rows.shape
    store = cache_build(embs)
    assert _held_bytes(store) == 4 * m * dim
    assert store.keys.tobytes() == store.values.tobytes() == rows.tobytes()
    save_cache(store, tmp_path / "c.bnc")
    store = load_cache(tmp_path / "c.bnc")
    assert _held_bytes(store) == 4 * m * dim
    for seed in (0, 3):
        store.build_partitions(nlist=20, seed=seed)
        p = store._partitions
        small = p.centroids.nbytes + p.radii.nbytes + p.offsets.nbytes
        assert _held_bytes(store) <= 4 * m * dim + 2 * m * np.dtype(np.intp).itemsize + small
        assert store.keys.tobytes() == store.values.tobytes() == rows.tobytes()


# ---------------------------------------------------------------------------
# enhance
# ---------------------------------------------------------------------------


def test_enhance_alpha_zero_returns_query_exactly():
    rng = derive_rng(8, "enh0")
    embs = _embs(rng, 10, 8)
    store = cache_build(embs)
    q = JointEmbedding.of(rng.standard_normal(8), Modality.AUDIO, "q")
    r = enhance(store, q, k=3, alpha=0.0)
    assert np.array_equal(r.enhanced.array, q.vector.array)


def test_enhance_alpha_one_self_query_returns_value_row():
    vecs = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5]]
    embs = [JointEmbedding.of(v, Modality.IMAGE, f"v{i}") for i, v in enumerate(vecs)]
    store = cache_build(embs)
    r = enhance(store, embs[2], k=1, alpha=1.0)
    assert np.abs(r.enhanced.array - store.values[2]).max() < 1e-9


def test_enhance_matches_five_key_hand_oracle():
    # Keys: e1, e2, e3, e4, m = (.5,.5,.5,.5); query e1; k = 3, alpha = 0.5.
    # Sims: (1.0, 0, 0, 0, 0.5) -> top3 = [0, 4, 1] (tie at 0 -> lower index).
    # Weights (1.0, 0.5, 0.0)/1.5 -> (2/3, 1/3, 0).
    # agg = 2/3*e1 + 1/3*m = (5/6, 1/6, 1/6, 1/6)
    # enhanced = 0.5*agg + 0.5*e1 = (11/12, 1/12, 1/12, 1/12)
    vecs = [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.5, 0.5, 0.5, 0.5],
    ]
    embs = [JointEmbedding.of(v, Modality.IMAGE, f"v{i}") for i, v in enumerate(vecs)]
    store = cache_build(embs)
    r = enhance(store, embs[0], k=3, alpha=0.5)
    assert r.indices == [0, 4, 1]
    want = np.array([[11.0 / 12.0, 1.0 / 12.0, 1.0 / 12.0, 1.0 / 12.0]])
    assert np.abs(r.enhanced.array - want).max() < 1e-10


def test_enhance_norm_bounded_by_one_in_convex_mode():
    rng = derive_rng(9, "enh-norm")
    embs = _embs(rng, 100, 16)
    store = cache_build(embs)
    for i in range(10):
        q = JointEmbedding.of(rng.standard_normal(16), Modality.AUDIO, "q")
        r = enhance(store, q, k=8, alpha=rng.uniform(0, 1))
        norm = float(np.sqrt((r.enhanced.array ** 2).sum()))
        assert norm <= 1.0 + 1e-9


def test_enhance_raw_eq4_uses_raw_similarities():
    rng = derive_rng(10, "enh-raw")
    embs = _embs(rng, 20, 8)
    store = cache_build(embs)
    q = JointEmbedding.of(rng.standard_normal(8), Modality.AUDIO, "q")
    r = enhance(store, q, k=5, alpha=0.7, raw_eq4=True)
    sims = r.similarities.array.reshape(-1)
    want = 0.7 * (sims @ store.values[r.indices]) + 0.3 * q.vector.array.reshape(-1)
    assert np.abs(r.enhanced.array.reshape(-1) - want).max() < 1e-12


def test_enhance_uniform_fallback_when_all_sims_nonpositive():
    vecs = [[1.0, 0.0], [0.0, 1.0]]
    embs = [JointEmbedding.of(v, Modality.IMAGE, f"v{i}") for i, v in enumerate(vecs)]
    store = cache_build(embs)
    q = JointEmbedding.of([-1.0, 0.0], Modality.AUDIO, "q")
    r = enhance(store, q, k=2, alpha=1.0)
    want = 0.5 * store.values[0] + 0.5 * store.values[1]
    assert np.abs(r.enhanced.array.reshape(-1) - want).max() < 1e-12


def test_enhance_alpha_validation():
    store = cache_build([JointEmbedding.of([1.0, 0.0], Modality.IMAGE, "a")])
    q = JointEmbedding.of([0.0, 1.0], Modality.AUDIO, "q")
    with pytest.raises(CacheRangeError):
        enhance(store, q, k=1, alpha=1.5)


def test_monotone_fidelity_on_constructed_instance():
    # Query is a stored key whose retrieved neighbors differ from it, so
    # cosine(enhanced, query) must not increase with alpha.
    vecs = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5]]
    embs = [JointEmbedding.of(v, Modality.IMAGE, f"v{i}") for i, v in enumerate(vecs)]
    store = cache_build(embs)
    q = embs[0]
    cosines = []
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        e = enhance(store, q, k=3, alpha=alpha).enhanced.array.reshape(-1)
        cosines.append(float(e @ q.vector.array.reshape(-1) / np.sqrt((e * e).sum())))
    assert all(cosines[i] >= cosines[i + 1] - 1e-12 for i in range(len(cosines) - 1))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_save_load_round_trip_bitwise(tmp_path):
    rng = derive_rng(11, "cache-rt")
    store = cache_build(_embs(rng, 37, 24))
    p = tmp_path / "c.bnc"
    save_cache(store, p)
    loaded = load_cache(p)
    assert loaded.keys.tobytes() == store.keys.tobytes()
    # the file's row block starts after the 21-byte header
    rows = np.frombuffer(p.read_bytes(), "<f4", count=37 * 24, offset=21).astype(np.float64)
    assert loaded.values.tobytes() == rows.tobytes()
    assert loaded.ids == store.ids
    p2 = tmp_path / "c2.bnc"
    save_cache(loaded, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_load_truncated_file(tmp_path):
    rng = derive_rng(12, "cache-trunc")
    store = cache_build(_embs(rng, 8, 8))
    p = tmp_path / "c.bnc"
    save_cache(store, p)
    raw = p.read_bytes()
    cut = p.parent / "cut.bnc"
    cut.write_bytes(raw[: 4 + 4 + 4 + 8 + 1 + 11])  # mid-row of the keys block
    with pytest.raises(CacheFormatError, match="byte offset"):
        load_cache(cut)


def test_load_bad_magic(tmp_path):
    p = tmp_path / "bad.bnc"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CacheFormatError, match="BNDC"):
        load_cache(p)


def test_load_trailing_garbage(tmp_path):
    rng = derive_rng(13, "cache-tail")
    store = cache_build(_embs(rng, 2, 4))
    p = tmp_path / "c.bnc"
    save_cache(store, p)
    p.write_bytes(p.read_bytes() + b"junk")
    with pytest.raises(CacheFormatError, match="trailing"):
        load_cache(p)


def write_non_utf8_id_cache(path) -> int:
    """Two-row store whose second id is not UTF-8; returns that id's offset."""
    store = cache_build(_embs(derive_rng(14, "cache-utf8"), 2, 4, prefix="r"))
    save_cache(store, path)
    raw = bytearray(path.read_bytes())
    raw[-2] = 0xFF  # row 1's id is the last two bytes, b"r1"
    path.write_bytes(bytes(raw))
    return len(raw) - 2


def write_zero_dim_cache(path) -> None:
    """Header claiming three rows of width 0, followed by three empty ids."""
    path.write_bytes(b"BNDC" + struct.pack("<IIQB", 1, 0, 3, 1) + b"\x00" * 12)


def test_load_non_utf8_id_names_row_and_offset(tmp_path):
    p = tmp_path / "c.bnc"
    offset = write_non_utf8_id_cache(p)
    with pytest.raises(CacheFormatError, match=f"row 1 .* byte offset {offset}$"):
        load_cache(p)


def test_load_rejects_zero_dim_with_rows(tmp_path):
    p = tmp_path / "c.bnc"
    write_zero_dim_cache(p)
    with pytest.raises(CacheFormatError, match="dim 0 .* 3 rows"):
        load_cache(p)


def test_load_keeps_the_width_of_an_empty_store(tmp_path):
    p, q = tmp_path / "c.bnc", tmp_path / "again.bnc"
    p.write_bytes(b"BNDC" + struct.pack("<IIQB", 1, 5, 0, 1))  # dim 5, no rows
    store = load_cache(p)
    assert store.keys.shape == (0, 5)
    save_cache(store, q)
    assert q.read_bytes() == p.read_bytes()


def _saved_store(path):
    """A saved 4-row, 4-dim store; returns the byte offset of its keys block."""
    save_cache(cache_build(_embs(derive_rng(16, "cache-contract"), 4, 4)), path)
    return 4 + 4 + 4 + 8 + 1


def _patch_row(path, offset, row):
    raw = bytearray(path.read_bytes())
    raw[offset:offset + 16] = np.asarray(row, dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_load_rejects_non_finite_key_naming_row_and_offset(tmp_path, bad):
    p = tmp_path / "c.bnc"
    keys_at = _saved_store(p)
    row = load_cache(p).keys[0].copy()
    row[2] = bad
    _patch_row(p, keys_at, row)
    with pytest.raises(CacheFormatError, match=rf"c.bnc: .*keys .*\(0, 2\).* byte offset {keys_at + 8}$"):
        load_cache(p)


def test_load_rejects_non_unit_row_naming_row_and_offset(tmp_path):
    p = tmp_path / "c.bnc"
    row_at = _saved_store(p) + 16 * 1
    _patch_row(p, row_at, load_cache(p).keys[1] * np.sqrt(10.0))  # |v| = 3.16
    with pytest.raises(CacheFormatError,
                       match=rf"row 1 of keys is not unit-norm .*3.16e\+00.* byte offset {row_at}$"):
        load_cache(p)


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_row_at_the_build_bound_saves_and_loads(tmp_path, side):
    """The closest row to the 1e-6 bound that cache_build accepts also loads."""
    u = derive_rng(17, "cache-bound").standard_normal((1, 64))
    u /= np.sqrt((u * u).sum())
    for step in range(100):
        v = u * (1.0 + side * (UNIT_NORM_TOL - step * 1e-9))
        try:
            store = cache_build([JointEmbedding(Tensor(v), Modality.IMAGE, "edge")])
            break
        except CacheBuildError:
            continue
    else:
        pytest.fail("no row near the bound builds")
    norm = np.sqrt(store.keys[0] @ store.keys[0])
    assert 0.95 * UNIT_NORM_TOL < abs(norm - 1.0) <= UNIT_NORM_TOL
    p = tmp_path / "edge.bnc"
    save_cache(store, p)
    assert load_cache(p).keys.tobytes() == store.keys.tobytes()
    far = u * (1.0 + side * 2 * UNIT_NORM_TOL)
    with pytest.raises(CacheBuildError, match="edge"):
        cache_build([JointEmbedding(Tensor(far), Modality.IMAGE, "edge")])
