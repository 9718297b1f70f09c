"""Byte-level tokenizer with a small learned merge table.

Token ids 0..255 are raw bytes, 256..258 are BOS/EOS/PAD, and the remaining
ids are BPE merges learned from a fixed corpus covering the synthetic
template language. Text is pre-split into space-prefixed word pieces and
merges never cross piece boundaries, so frequent words like " yes" and " no"
collapse to single tokens. The default merge table is checked in as
assets/vocab.json and rebuilding it is byte-for-byte reproducible.
"""

from __future__ import annotations

import re
from pathlib import Path

from . import binfmt
from .tensor import DataError

VOCAB_SIZE = 512
BOS, EOS, PAD = 256, 257, 258
_FIRST_MERGE_ID = 259
# the keys to_dict writes beside the merges; from_dict accepts only these values
_HEADER = {"version": 1, "vocab_size": VOCAB_SIZE}

_PIECE_RE = re.compile(r" ?\w+| ?[^\w\s]+|\s")

_ASSET = Path(__file__).parent / "assets" / "vocab.json"


class VocabularyError(DataError):
    """A token id the model or the tokenizer does not define, or an unreadable tokenizer file."""


class Tokenizer:
    def __init__(self, merges: list[tuple[int, int]]):
        if len(merges) > VOCAB_SIZE - _FIRST_MERGE_ID:
            raise VocabularyError(f"too many merges for vocab size {VOCAB_SIZE}")
        self.merges = [tuple(m) for m in merges]
        self._bytes: dict[int, bytes] = {i: bytes([i]) for i in range(256)}
        for i, (a, b) in enumerate(self.merges):
            # a bool or 1.0 would look up like an int
            if not all(type(m) is int and m in self._bytes for m in (a, b)):
                raise VocabularyError(f"merge {i} joins {a!r} and {b!r}, which are not both ids"
                                      f" defined before it")
            self._bytes[_FIRST_MERGE_ID + i] = self._bytes[a] + self._bytes[b]
        self.ranks = {m: i for i, m in enumerate(self.merges)}
        self._pieces: dict[str, list[int]] = {}  # see encode

    @property
    def vocab_size(self) -> int:
        return VOCAB_SIZE

    def _merge_piece(self, ids: list[int]) -> list[int]:
        while len(ids) > 1:
            best_rank, best_at = None, None
            for i in range(len(ids) - 1):
                r = self.ranks.get((ids[i], ids[i + 1]))
                if r is not None and (best_rank is None or r < best_rank):
                    best_rank, best_at = r, i
            if best_at is None:
                break
            ids = ids[:best_at] + [_FIRST_MERGE_ID + best_rank] + ids[best_at + 2:]
        return ids

    def encode(self, text: str) -> list[int]:
        """The ids of text, piece by piece. A piece always merges to the same
        ids, so each distinct piece is merged once and its ids kept on the
        tokenizer: the memo grows by distinct pieces only, not by calls."""
        out: list[int] = []
        pieces = self._pieces
        for piece in _PIECE_RE.findall(text):
            ids = pieces.get(piece)
            if ids is None:
                ids = pieces[piece] = self._merge_piece(list(piece.encode("utf-8")))
            out.extend(ids)
        return out

    def decode(self, ids: list[int]) -> str:
        chunks = []
        for i in ids:
            if i in (BOS, EOS, PAD):
                continue
            if i not in self._bytes:
                n = _FIRST_MERGE_ID + len(self.merges)
                raise VocabularyError(f"cannot decode token id {i}: the tokenizer defines {n} ids")
            chunks.append(self._bytes[i])
        return b"".join(chunks).decode("utf-8", errors="replace")

    def to_dict(self) -> dict:
        return {**_HEADER, "merges": [list(m) for m in self.merges]}

    @staticmethod
    def from_dict(d, what: str, error: type[Exception] = VocabularyError) -> "Tokenizer":
        """The tokenizer of a JSON object to_dict wrote; a fault raises error naming what."""
        merges = binfmt.keys(d, what, ("merges",), tuple(_HEADER), error)["merges"]
        for key, want in _HEADER.items():
            if key in d and not (type(d[key]) is int and d[key] == want):
                raise error(f"{what}.{key} {d[key]!r}, which is not {want}")
        with binfmt.naming(what, VocabularyError, error):
            if not (isinstance(merges, list) and all(isinstance(m, list) and len(m) == 2
                                                     for m in merges)):
                raise VocabularyError("merges is not a list of id pairs")
            return Tokenizer(merges)

    def save(self, path) -> None:
        binfmt.write_json(path, self.to_dict())

    @staticmethod
    def load(path) -> "Tokenizer":
        obj = binfmt.parse_json(binfmt.read_text(path, VocabularyError), VocabularyError, path)
        return Tokenizer.from_dict(obj, str(path))


def train_merges(text: str, max_merges: int) -> list[tuple[int, int]]:
    """Greedy pair-count BPE; ties break on the smaller pair for determinism."""
    pieces: dict[tuple[int, ...], int] = {}
    for piece in _PIECE_RE.findall(text):
        key = tuple(piece.encode("utf-8"))
        pieces[key] = pieces.get(key, 0) + 1
    seqs = [[list(k), n] for k, n in sorted(pieces.items())]
    merges: list[tuple[int, int]] = []
    for _ in range(max_merges):
        counts: dict[tuple[int, int], int] = {}
        for ids, n in seqs:
            for i in range(len(ids) - 1):
                pair = (ids[i], ids[i + 1])
                counts[pair] = counts.get(pair, 0) + n
        if not counts:
            break
        pair = min(counts, key=lambda p: (-counts[p], p))
        if counts[pair] < 2:
            break
        new_id = _FIRST_MERGE_ID + len(merges)
        merges.append(pair)
        for entry in seqs:
            ids = entry[0]
            i = 0
            while i < len(ids) - 1:
                if ids[i] == pair[0] and ids[i + 1] == pair[1]:
                    ids[i:i + 2] = [new_id]
                else:
                    i += 1
    return merges


def _template_corpus() -> str:
    """Deterministic text covering everything the synthetic pipeline renders."""
    from .data import ACTIONS, CAPTION_INSTRUCTION, COLORS, LANGUAGE_WORDS, SHAPES
    from .lm import YESNO_SUFFIX, prompt_template

    lines = []
    for c in COLORS:
        for s in SHAPES:
            for a in ACTIONS:
                lines.append(f"a {c} {s} that {a}")
    for s in SHAPES:
        for c in COLORS:
            lines.append(prompt_template(f"Is the {s} {c}?{YESNO_SUFFIX}"))
            lines.append(" yes")
            lines.append(" no")
    lines.append(prompt_template(CAPTION_INSTRUCTION))
    for w in LANGUAGE_WORDS:
        lines.append(prompt_template(f"Say the word {w}."))
        lines.append(f" {w}")
    return "\n".join(lines)


def build_default_vocab() -> Tokenizer:
    return Tokenizer(train_merges(_template_corpus(), VOCAB_SIZE - _FIRST_MERGE_ID))


def default_tokenizer() -> Tokenizer:
    return Tokenizer.load(_ASSET)


def write_default_asset() -> Path:
    _ASSET.parent.mkdir(parents=True, exist_ok=True)
    build_default_vocab().save(_ASSET)
    return _ASSET


if __name__ == "__main__":
    print(f"wrote {write_default_asset()}")
