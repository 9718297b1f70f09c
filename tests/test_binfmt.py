"""Both file formats against layouts assembled here with struct, field by field."""

import struct
import tracemalloc

import numpy as np
import pytest

from bindlm.bind import BindConfig, bind_init
from bindlm.binfmt import Reader, Writer
from bindlm.cache import CacheFormatError, load_cache, save_cache
from bindlm.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from bindlm.encoders import EncoderConfig
from bindlm.lm import LMConfig, lm_init
from bindlm.tokenizer import default_tokenizer


def _string(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def test_checkpoint_layout(tmp_path):
    w = np.arange(6, dtype=np.float64).reshape(2, 3) / 7
    g = np.array([[0.5]])
    raw = (b"BNDK" + struct.pack("<I", 1) + _string('{"lm": {"dim": 3}}')
           + struct.pack("<I", 2)
           + _string("bind.w0") + struct.pack("<III", 2, 2, 3) + w.astype("<f8").tobytes()
           + _string("lm.gates.0") + struct.pack("<III", 2, 1, 1) + g.astype("<f8").tobytes()
           + _string('{"seed": 4}') + struct.pack("<Q", 2**40 + 7)
           + struct.pack("<I", 2) + _string("pretrain") + _string("hé"))
    p = tmp_path / "hand.bnk"
    p.write_bytes(raw)
    ck = load_checkpoint(p)
    assert ck.config == {"lm": {"dim": 3}}
    assert sorted(ck.params) == ["bind.w0", "lm.gates.0"]
    assert ck.params["bind.w0"].tobytes() == w.tobytes()
    assert ck.params["lm.gates.0"].tobytes() == g.tobytes()
    assert (ck.rng_state, ck.step, ck.provenance) == ({"seed": 4}, 2**40 + 7, ["pretrain", "hé"])
    save_checkpoint(ck, tmp_path / "again.bnk")
    assert (tmp_path / "again.bnk").read_bytes() == raw


@pytest.mark.parametrize("elided", [True, False])
def test_cache_layout(tmp_path, elided):
    """Values flag 1 and one row block load and save back to the same bytes;
    flag 0, which once announced a second (values) block, is rejected."""
    keys = np.array([[0.6, 0.8], [0.0, 1.0]], dtype="<f4")
    raw = (b"BNDC" + struct.pack("<IIQB", 1, 2, 2, int(elided)) + keys.tobytes()
           + (b"" if elided else keys[::-1].tobytes()) + _string("a") + _string("ü"))
    p = tmp_path / "hand.bnc"
    p.write_bytes(raw)
    if not elided:
        with pytest.raises(CacheFormatError, match="hand.bnc: bad values flag 0 at offset 20$"):
            load_cache(p)
        return
    store = load_cache(p)
    assert store.keys.tobytes() == keys.astype(np.float64).tobytes()
    assert store.values.tobytes() == keys.astype(np.float64).tobytes()
    assert store.ids == ["a", "ü"]
    save_cache(store, tmp_path / "again.bnc")
    assert (tmp_path / "again.bnc").read_bytes() == raw


class _Oops(ValueError):
    pass


@pytest.mark.parametrize("raw,read,message", [
    (b"BN", lambda r: r.header(b"BNDX", 1), "f.bin: truncated magic at byte offset 0 (needed 4 more)"),
    (b"BNDX\x02\x00\x00\x00", lambda r: r.header(b"BNDX", 1), "f.bin: unsupported version 2"),
    (b"\x03\x00\x00\x00ab", lambda r: r.string("name"), "f.bin: truncated name at byte offset 4 (needed 3 more)"),
    (b"\x02\x00\x00\x00a\xff", lambda r: r.string(), "f.bin: string is not UTF-8 at byte offset 5"),
    (b"\x02\x00\x00\x00{]", lambda r: r.json_value(), "f.bin: malformed JSON at byte offset 5"),
    pytest.param(b"\xa0\x86\x01\x00" + b"[" * 100_000, lambda r: r.json_value(),
                 "f.bin: JSON nested too deeply", id="deeply-nested-json"),
    (np.array([1.0, np.inf], "<f4").tobytes(), lambda r: r.array("<f4", (1, 2), "keys"),
     "f.bin: non-finite value in keys at index (0, 1), byte offset 4"),
    (b"\x00\x00", lambda r: (r.u8(), r.finish()), "f.bin: 1 trailing bytes at offset 1"),
])
def test_reader_errors_carry_the_callers_type_and_the_offset(raw, read, message):
    with pytest.raises(_Oops) as info:
        read(Reader(raw, "f.bin", _Oops))
    assert str(info.value).startswith(message)


def test_array_shape_product_does_not_overflow():
    """A header claiming 2**32 - 1 in each of eight dims asks for more bytes
    than any file holds; the request must not wrap around to a small count."""
    r = Reader(b"\x00" * 64, "f.bin", _Oops)
    with pytest.raises(_Oops, match="truncated at byte offset 0"):
        r.array("<f8", (2**32 - 1,) * 8)


@pytest.mark.parametrize("shape", [(0,) * 65, (0,) + (2**32 - 1,) * 3])
def test_array_shape_numpy_cannot_hold_is_a_format_error(shape):
    """Zero bytes of data, but a shape no ndarray can take."""
    with pytest.raises(_Oops, match="shape numpy cannot hold"):
        Reader(b"", "f.bin", _Oops).array("<f8", shape, "w")


def test_writer_arrays_match_their_bytes(tmp_path):
    """Writer streams each array from memory; the file holds what tobytes gives."""
    m = np.arange(12, dtype=np.float64).reshape(3, 4) / 7
    arrays = [(m, "<f8"), (m.T, "<f8"), (m, "<f4"), ((3, 4), "<u4"), (np.zeros((0, 5)), "<f4")]
    w = Writer(b"TEST", 1)
    for a, dt in arrays:
        w.array(a, dt)
    w.save(tmp_path / "f.bin")
    want = b"TEST" + struct.pack("<I", 1) + b"".join(
        np.ascontiguousarray(a, dt).tobytes() for a, dt in arrays)
    assert (tmp_path / "f.bin").read_bytes() == want


def _default_checkpoint() -> Checkpoint:
    lm, bind = lm_init(LMConfig(), 0), bind_init(BindConfig(), 0)
    return Checkpoint.from_models(lm, bind, default_tokenizer(), EncoderConfig(), {}, 0, [])


def test_save_checkpoint_copies_no_parameter(tmp_path):
    """Saving a default-size model allocates far less than the file it writes."""
    ckpt, p = _default_checkpoint(), tmp_path / "ck.bnk"
    tracemalloc.start()
    try:
        save_checkpoint(ckpt, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p.stat().st_size / 8


def test_loaded_parameters_are_aligned(tmp_path):
    """load_checkpoint copies each parameter out of the file's bytes, where
    most would be unaligned views."""
    p = tmp_path / "ck.bnk"
    save_checkpoint(_default_checkpoint(), p)
    assert all(a.flags.aligned for a in load_checkpoint(p).params.values())
