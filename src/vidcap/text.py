"""Tokenization, frequency-filtered vocabulary and id<->string conversion."""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

from .errors import DataError, ParameterError, naming

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED = ("<pad>", "<bos>", "<eos>", "<unk>")

# Lowercased alphanumeric runs; apostrophes kept only between alphanumerics
# ("don't" survives, quoting "'cube'" does not).
_TOKEN_RE = re.compile(r"[a-z0-9]+(?:'[a-z0-9]+)*")

TokenSeq = list[int]


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Vocabulary:
    """Token/id bijection with fixed reserved ids PAD=0, BOS=1, EOS=2, UNK=3."""

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if tuple(self.id_to_token[:4]) != RESERVED:
            raise DataError(f"first four entries must be {RESERVED}")
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("duplicate token in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK)

    def save(self, path) -> None:
        from .binio import write_file  # here: binio loads numpy, and vidcap.metrics imports this
        write_file(path, "".join(f"{tok}\t{i}\n" for i, tok in enumerate(self.id_to_token)))

    @classmethod
    def load(cls, path) -> "Vocabulary":
        entries = []
        try:
            with open(path, encoding="utf-8") as f:
                lines = f.read().split("\n")
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
        for lineno, line in enumerate(lines, 1):
            if not line:
                continue
            try:
                tok, idx = line.split("\t")
                entries.append((int(idx), tok))
            except ValueError as e:
                raise DataError(f"{path}:{lineno}: bad vocab line {line!r}") from e
        entries.sort()
        if [i for i, _ in entries] != list(range(len(entries))):
            raise DataError(f"{path}: vocabulary ids are not contiguous from 0")
        with naming(f"{path}: ", DataError):  # reserved tokens out of place, or a repeated token
            return cls(id_to_token=[t for _, t in entries])


def build_vocab(corpus: list[str], min_count: int = 5) -> Vocabulary:
    """Keep tokens occurring >= min_count times, ordered by descending
    frequency then lexicographically (deterministic id assignment)."""
    if min_count < 1:
        raise ParameterError(f"min_count must be >= 1, got {min_count}")
    counts = Counter()
    for caption in corpus:
        counts.update(tokenize(caption))
    kept = [t for t, c in counts.items() if c >= min_count]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(id_to_token=list(RESERVED) + kept)


def encode(tokens: list[str], vocab: Vocabulary) -> TokenSeq:
    """[BOS, ids..., EOS]; out-of-vocabulary tokens map to UNK."""
    return [BOS] + [vocab.id_of(t) for t in tokens] + [EOS]


def decode(ids: TokenSeq, vocab: Vocabulary) -> str:
    """Drop reserved ids and join the rest with single spaces."""
    words = []
    for i in ids:
        if not 0 <= i < len(vocab):
            raise DataError(f"token id {i} out of range for vocabulary of size {len(vocab)}")
        if i >= len(RESERVED):
            words.append(vocab.id_to_token[i])
    return " ".join(words)
