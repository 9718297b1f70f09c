"""Every file is opened here: BNDK and BNDC files, JSONL corpora, JSON, text.

A file that cannot be opened or decoded raises the caller's error type naming
it. A BNDK checkpoint or BNDC cache is a 4-byte magic and a u32 version, then
fields in the order its format module (checkpoint.py, cache.py) gives.
Integers are unsigned little-endian, a string is a u32 byte length and UTF-8
bytes, and an array is little-endian row-major data shaped by earlier fields.
A read error names the file and the byte offset.

Before a reader indexes a JSON object, keys checks that it is an object with
every key the reader needs and no key the writer never writes; build reads a
config dataclass so, its fields all required, as asdict writes every one.
"""

import contextlib
import dataclasses
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


def parse_json(text: str, error: type[Exception], where: object = "",
               offset: int | None = None):
    """The value of JSON text. Malformed JSON, or JSON nested deeper than the
    parser can follow, raises error with the reason after "where: " (the bare
    reason without where); offset, the byte offset of text in its file, puts
    the fault's byte offset in the reason."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        if offset is None:
            reason = f"malformed JSON: {exc}"
        else:
            at = offset + len(text[:exc.pos].encode("utf-8"))
            reason = f"malformed JSON at byte offset {at}: {exc.msg}"
    except RecursionError:
        reason = "JSON nested too deeply to read"
    raise error(f"{where}: {reason}" if where else reason) from None


@contextlib.contextmanager
def naming(where, caught: type[Exception] | tuple, error: type[Exception]):
    """Re-raise a caught error as error("<where>: <reason>"); where is a path
    or a phrase naming what was being read."""
    try:
        yield
    except caught as exc:
        raise error(f"{where}: {exc}") from None


def keys(value, what: str, required, optional=(), error: type[Exception] = ValueError) -> dict:
    """value, if a JSON object with every key in required and none outside required and
    optional; else error "<what> is not a JSON object" or "<what>: missing|unknown key 'k'"."""
    if not isinstance(value, dict):
        raise error(f"{what} is not a JSON object")
    missing = [k for k in required if k not in value]
    unknown = [k for k in value if k not in required and k not in optional]
    if missing or unknown:
        raise error(f"{what}: {'missing' if missing else 'unknown'} key {(missing + unknown)[0]!r}")
    return value


def build(cls, value, what: str, error: type[Exception], **nested):
    """The config dataclass cls from a JSON object whose keys are its fields, each field
    in nested built as that dataclass; a ValueError from cls's checks names what."""
    obj = keys(value, what, [f.name for f in dataclasses.fields(cls)], error=error)
    obj = {**obj, **{k: build(sub, obj[k], f"{what}: {k}", error) for k, sub in nested.items()}}
    with naming(what, ValueError, error):
        return cls(**obj)


def read_jsonl(path, parse: Callable[[dict], object], error: type[Exception],
               required, optional=()) -> list:
    """parse(obj) for the JSON object on each non-blank line of path, its keys
    checked by keys; lines end at \\n, \\r\\n or \\r (not U+2028 or U+0085),
    as in text-mode iteration. error names the file and each line (up to 20)
    whose JSON, keys or parse fails; parse reports a bad value as ValueError."""
    records, errors = [], []
    for lineno, line in enumerate(io.StringIO(read_text(path, error)), start=1):
        if not line.strip():
            continue
        where = f"line {lineno}"
        try:
            obj = keys(parse_json(line, ValueError, where), where, required, optional)
            with naming(where, ValueError, ValueError):
                records.append(parse(obj))
        except ValueError as exc:
            errors.append(str(exc))
        if len(errors) >= 20:
            break
    if errors:
        raise error(f"{path}: " + "; ".join(errors))
    return records


def write_json(path, value, indent: int | None = None) -> None:
    """value as sorted-keys JSON text and a newline, UTF-8: equal values write equal bytes."""
    Path(path).write_text(json.dumps(value, sort_keys=True, indent=indent) + "\n", "utf-8")


def write_jsonl(path, rows) -> None:
    """One sorted-keys JSON line per row, UTF-8."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)


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
        return parse_json(self.string(), self.error, self.name, offset=start)

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
    """Collects the fields of one file in order; save() writes them, arrays uncopied."""

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
        self._chunks.append(np.ascontiguousarray(values, dtype=dtype))

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.writelines(self._chunks)
