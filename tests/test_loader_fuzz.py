"""Mutated BNDK and BNDC files: only the loader's typed error may escape.

Each format is fuzzed on one small seeded file with every truncation length,
1-3 bit flips, 4-byte overwrites and header fields that lie about counts,
dimensions and lengths. A mutated file that still loads must hold what
save_checkpoint and cache_build guarantee: finite values, unit-norm cache
rows, and parameters that to_models accepts or rejects with
CheckpointFormatError.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bindlm import peft
from bindlm.bind import BindConfig, bind_init
from bindlm.cache import (
    UNIT_NORM_TOL,
    CacheFormatError,
    cache_build,
    load_cache,
    save_cache,
    topk,
)
from bindlm.checkpoint import Checkpoint, CheckpointFormatError, load_checkpoint, save_checkpoint
from bindlm.encoders import EncoderConfig, JointEmbedding, Modality
from bindlm.lm import LMConfig, lm_init
from bindlm.tensor import derive_rng
from bindlm.tokenizer import Tokenizer

FUZZ = settings(max_examples=100, derandomize=True, deadline=None)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def tiny_bnk(workdir) -> bytes:
    lm = lm_init(LMConfig(vocab_size=3, dim=2, layers=1, heads=1, max_seq=2, ffn_hidden=2), 0)
    peft.apply_peft(lm, rank=1, seed=0, targets=("wv", "w_up"))
    bind = bind_init(BindConfig(dim_joint=2, dim_lm=2, dim_hidden=2), 0)
    ck = Checkpoint.from_models(lm, bind, Tokenizer([(104, 105)]), EncoderConfig(), {}, 3, ["p"])
    save_checkpoint(ck, workdir / "tiny.bnk")
    return (workdir / "tiny.bnk").read_bytes()


@pytest.fixture(scope="module")
def store_bnc(workdir) -> bytes:
    rng = derive_rng(5, "fuzz-cache")
    store = cache_build(JointEmbedding.of(rng.standard_normal(8), Modality.IMAGE, f"r{i}")
                        for i in range(64))
    save_cache(store, workdir / "store.bnc")
    return (workdir / "store.bnc").read_bytes()


def _bnk_fields(raw: bytes) -> list[tuple[int, str]]:
    """(offset, struct format) of every count, length and dimension field,
    walking the layout independently of the loader."""
    fields, off = [], 8

    def u32():
        nonlocal off
        fields.append((off, "<I"))
        off += 4
        return struct.unpack_from("<I", raw, off - 4)[0]

    def skip_string():
        nonlocal off
        n = u32()
        off += n

    skip_string()  # config JSON
    for _ in range(u32()):
        skip_string()  # name
        dims = [u32() for _ in range(u32())]
        off += 8 * int(np.prod(dims))
    skip_string()  # RNG state JSON
    fields.append((off, "<Q"))  # step
    off += 8
    for _ in range(u32()):
        skip_string()  # provenance entry
    assert off == len(raw)
    return fields


def _bnc_fields(raw: bytes) -> list[tuple[int, str]]:
    dim, count, elided = struct.unpack_from("<IQB", raw, 8)
    fields = [(8, "<I"), (12, "<Q"), (20, "<B")]
    off = 21 + 4 * dim * count * (1 if elided else 2)
    for _ in range(count):
        fields.append((off, "<I"))
        off += 4 + struct.unpack_from("<I", raw, off)[0]
    assert off == len(raw)
    return fields


def _flip_bits(raw: bytes, bits: list[int]) -> bytes:
    out = bytearray(raw)
    for b in bits:
        out[(b // 8) % len(out)] ^= 1 << (b % 8)
    return bytes(out)


def _overwrite(raw: bytes, at: int, patch: bytes) -> bytes:
    at %= len(raw) - len(patch) + 1
    return raw[:at] + patch + raw[at + len(patch):]


def _lie(raw: bytes, fields, pick: int, value: int) -> bytes:
    off, fmt = fields[pick % len(fields)]
    value %= 1 << (8 * struct.calcsize(fmt))
    return raw[:off] + struct.pack(fmt, value) + raw[off + struct.calcsize(fmt):]


# random bytes, or the high half of a float64 / a whole float32 that is inf or NaN
_PATCHES = st.one_of(st.binary(min_size=4, max_size=4),
                     st.sampled_from([b"\x00\x00\xf0\x7f", b"\x00\x00\xf8\xff",
                                      b"\x00\x00\x80\x7f", b"\x00\x00\xc0\xff"]))
_LIES = st.one_of(st.integers(0, 4), st.sampled_from([2**32 - 1, 2**31, 2**64 - 1]),
                  st.integers(0, 2**64 - 1))


def _read_bnk(tmp_path, raw: bytes):
    (tmp_path / "t.bnk").write_bytes(raw)
    return load_checkpoint(tmp_path / "t.bnk")


def _read_bnc(tmp_path, raw: bytes):
    (tmp_path / "t.bnc").write_bytes(raw)
    return load_cache(tmp_path / "t.bnc")


def _load_bnk(workdir, raw: bytes) -> None:
    try:
        ck = _read_bnk(workdir, raw)
    except CheckpointFormatError:
        return
    for name, a in ck.params.items():
        assert np.isfinite(a).all(), name
    try:
        ck.to_models()
        ck.encoder_config()
    except CheckpointFormatError:
        pass


def _load_bnc(workdir, raw: bytes) -> None:
    try:
        store = _read_bnc(workdir, raw)
    except CacheFormatError:
        return
    for rows in (store.keys, store.values):
        assert np.isfinite(rows).all()
        if rows.size:
            assert np.all(np.abs(np.linalg.norm(rows, axis=1) - 1.0) <= UNIT_NORM_TOL)
    assert len(store.ids) == store.size
    if store.size:
        q = np.zeros(store.dim)
        q[0] = 1.0
        result = topk(store, JointEmbedding.of(q, Modality.AUDIO, "q"), 1)
        assert np.isfinite(result.similarities.array).all()


def test_every_truncation_is_rejected(tmp_path, tiny_bnk, store_bnc):
    for cut in range(len(tiny_bnk)):
        with pytest.raises(CheckpointFormatError):
            _read_bnk(tmp_path, tiny_bnk[:cut])
    for cut in range(len(store_bnc)):
        with pytest.raises(CacheFormatError):
            _read_bnc(tmp_path, store_bnc[:cut])


def test_unmutated_files_round_trip(tmp_path, tiny_bnk, store_bnc):
    save_checkpoint(_read_bnk(tmp_path, tiny_bnk), tmp_path / "again.bnk")
    assert (tmp_path / "again.bnk").read_bytes() == tiny_bnk
    save_cache(_read_bnc(tmp_path, store_bnc), tmp_path / "again.bnc")
    assert (tmp_path / "again.bnc").read_bytes() == store_bnc


@FUZZ
@given(bits=st.lists(st.integers(0, 2**31), min_size=1, max_size=3))
def test_checkpoint_bit_flips(workdir, tiny_bnk, bits):
    _load_bnk(workdir, _flip_bits(tiny_bnk, bits))


@FUZZ
@given(at=st.integers(0, 2**31), patch=_PATCHES)
def test_checkpoint_overwrites(workdir, tiny_bnk, at, patch):
    _load_bnk(workdir, _overwrite(tiny_bnk, at, patch))


@FUZZ
@given(pick=st.integers(0, 2**16), value=_LIES)
def test_checkpoint_header_lies(workdir, tiny_bnk, pick, value):
    _load_bnk(workdir, _lie(tiny_bnk, _bnk_fields(tiny_bnk), pick, value))


@FUZZ
@given(bits=st.lists(st.integers(0, 2**31), min_size=1, max_size=3))
def test_cache_bit_flips(workdir, store_bnc, bits):
    _load_bnc(workdir, _flip_bits(store_bnc, bits))


@FUZZ
@given(at=st.integers(0, 2**31), patch=_PATCHES)
def test_cache_overwrites(workdir, store_bnc, at, patch):
    _load_bnc(workdir, _overwrite(store_bnc, at, patch))


@FUZZ
@given(pick=st.integers(0, 2**16), value=_LIES)
def test_cache_header_lies(workdir, store_bnc, pick, value):
    _load_bnc(workdir, _lie(store_bnc, _bnc_fields(store_bnc), pick, value))
