"""Every input file is opened here: BNDK and BNDC files, JSONL corpora, text.

A file that cannot be opened or decoded raises the caller's error type naming
it. A BNDK checkpoint or BNDC cache is a 4-byte magic and a u32 version, then
fields in the order its format module (checkpoint.py, cache.py) gives.
Integers are unsigned little-endian, a string is a u32 byte length and UTF-8
bytes, and an array is little-endian row-major data shaped by earlier fields.
A read error names the file and the byte offset.
"""

import io
import json
import math
import struct
from pathlib import Path
from typing import Callable, NoReturn

import numpy as np


def read_text(path, error: type[Exception]) -> str:
    """The UTF-8 text of path with every line end (\\r\\n, \\r) made \\n."""
    return _read(path, error, text=True)


def _read(path, error: type[Exception], text: bool):
    """The text or bytes of path; a read or decode failure raises error naming it."""
    try:
        return Path(path).read_text(encoding="utf-8") if text else Path(path).read_bytes()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte offset {exc.start})") from None
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror or exc}") from None


def read_jsonl(path, parse: Callable[[object], object], error: type[Exception]) -> list:
    """parse(obj) for the JSON object on each non-blank line of path; lines end
    at \\n, \\r\\n or \\r (not U+2028 or U+0085), as in text-mode iteration.
    error names the file and each line (up to 20) whose JSON or parse raises
    KeyError, ValueError, TypeError or OverflowError (an int past float range)."""
    records, errors = [], []
    for lineno, line in enumerate(io.StringIO(read_text(path, error)), start=1):
        if not line.strip():
            continue
        try:
            records.append(parse(json.loads(line)))
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            errors.append(f"line {lineno}: {exc}")
            if len(errors) >= 20:
                break
    if errors:
        raise error(f"{path}: " + "; ".join(errors))
    return records


def read_binary(path, error: type[Exception]) -> "Reader":
    """A Reader over the bytes of path; its errors name the path."""
    return Reader(_read(path, error, text=False), str(path), error)


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
