"""The encoding shared by the BNDK checkpoint and BNDC cache files.

A file is a 4-byte magic and a u32 version, then fields in the order its
format module (checkpoint.py, cache.py) gives. Integers are unsigned
little-endian, a string is a u32 byte length and UTF-8 bytes, and an array
is little-endian row-major data shaped by earlier fields. A read error names
the file and the byte offset, as the error type the format module passes.
"""

import json
import math
import struct
from pathlib import Path
from typing import NoReturn

import numpy as np


class Reader:
    """Bounds-checked reads of one file; `what` names the field read."""

    def __init__(self, raw: bytes, name: str, error: type[Exception]):
        self.raw = memoryview(raw)
        self.name = name
        self.error = error
        self.off = 0

    def fail(self, message: str) -> NoReturn:
        raise self.error(f"{self.name}: {message}") from None

    def take(self, n: int, what: str = "") -> memoryview:
        if self.off + n > len(self.raw):
            label = f"{what} " if what else ""
            self.fail(f"truncated {label}at byte offset {self.off} (needed {n} more)")
        out = self.raw[self.off:self.off + n]
        self.off += n
        return out

    def _unpack(self, fmt: str, what: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))[0]

    def u8(self, what: str = "") -> int:
        return self._unpack("<B", what)

    def u32(self, what: str = "") -> int:
        return self._unpack("<I", what)

    def u64(self, what: str = "") -> int:
        return self._unpack("<Q", what)

    def string(self, what: str = "") -> str:
        n = self.u32(what)
        start = self.off
        try:
            return str(self.take(n, what), "utf-8")
        except UnicodeDecodeError as exc:
            self.fail(f"{what or 'string'} is not UTF-8 at byte offset {start + exc.start}")

    def json_value(self):
        start = self.off + 4
        text = self.string()
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            at = start + len(text[:exc.pos].encode("utf-8"))
            self.fail(f"malformed JSON at byte offset {at}: {exc.msg}")

    def array(self, dtype, shape: tuple[int, ...], what: str = "") -> np.ndarray:
        """A read-only view of the next array; a float array must be finite."""
        dtype = np.dtype(dtype)
        start = self.off
        a = np.frombuffer(self.take(math.prod(shape) * dtype.itemsize, what), dtype)
        try:
            a = a.reshape(shape)
        except ValueError:  # too many dimensions, or sizes whose product overflows
            self.fail(f"{what or 'array'} at byte offset {start} has a shape numpy cannot "
                      f"hold ({len(shape)} dimensions)")
        # min and max propagate NaN, so this scan needs no array-sized temporary
        if dtype.kind == "f" and a.size and not np.isfinite([a.min(), a.max()]).all():
            i = int(np.flatnonzero(~np.isfinite(a))[0])
            index = tuple(int(x) for x in np.unravel_index(i, shape))
            self.fail(f"non-finite value in {what} at index {index}, "
                      f"byte offset {start + i * dtype.itemsize}")
        return a

    def header(self, magic: bytes, version: int) -> None:
        if self.take(len(magic), "magic") != magic:
            self.fail(f"bad magic at byte offset 0, expected {magic!r}")
        found = self.u32("version")
        if found != version:
            self.fail(f"unsupported version {found}")

    def finish(self) -> None:
        if self.off != len(self.raw):
            self.fail(f"{len(self.raw) - self.off} trailing bytes at offset {self.off}")


class Writer:
    """Collects the fields of one file in order; save() writes them at once."""

    def __init__(self, magic: bytes, version: int):
        self._chunks = [magic]
        self.u32(version)

    def u8(self, value: int) -> None:
        self._chunks.append(struct.pack("<B", value))

    def u32(self, value: int) -> None:
        self._chunks.append(struct.pack("<I", value))

    def u64(self, value: int) -> None:
        self._chunks.append(struct.pack("<Q", value))

    def string(self, text: str) -> None:
        raw = text.encode("utf-8")
        self.u32(len(raw))
        self._chunks.append(raw)

    def array(self, values, dtype) -> None:
        self._chunks.append(np.ascontiguousarray(values, dtype=dtype).tobytes())

    def save(self, path) -> None:
        Path(path).write_bytes(b"".join(self._chunks))
