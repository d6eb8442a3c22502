"""Pre-trained word vectors, the merged bilingual vocabulary, and the
character inventory.

Word tables are loaded from the standard ``.vec`` text format (header
line ``count dim``, then one space-separated row per word).  English and
Spanish tables are merged English-first into one shared vocabulary with
four reserved tokens in front: PAD, UNK, USR and URL.  The merged matrix
is fixed during training except for those four rows.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .corpus_io import Dataset, non_utf8_line
from .preprocess import URL, USR, normalization_candidates, replace_token

PAD_TOKEN = "<PAD>"
UNK_TOKEN = "<UNK>"
SPECIAL_TOKENS = (PAD_TOKEN, UNK_TOKEN, USR, URL)

PAD_CHAR = "\x00"
UNK_CHAR = "\x01"

# characters guaranteed an index even if unseen in training data:
# Spanish diacritics and inverted punctuation plus printable ASCII
SPANISH_EXTRA = "ñáéíóúü¿¡"
ASCII_EXTRA = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~"
)
DEFAULT_CHAR_EXTRA = SPANISH_EXTRA + ASCII_EXTRA


class VectorLoadError(Exception):
    pass


class Vocabulary:
    """Injective token -> index mapping.

    Final (merged) vocabularies reserve PAD at 0, UNK at 1, USR at 2 and
    URL at 3; raw single-file vocabularies carry only the file's words.
    Index lookups of unknown tokens fall back to UNK when it exists.
    """

    SPECIALS = SPECIAL_TOKENS  # reserved in front; the second is UNK

    def __init__(self, tokens, specials: bool = True):
        self.tokens: list[str] = list(self.SPECIALS) if specials else []
        self.specials = specials
        seen = set(self.tokens)
        for tok in tokens:
            if tok not in seen:
                seen.add(tok)
                self.tokens.append(tok)
        self._index = {tok: i for i, tok in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def index(self, token: str) -> int:
        idx = self._index.get(token)
        if idx is None:
            if not self.specials:
                raise KeyError(token)
            return self._index[self.SPECIALS[1]]
        return idx

    def indices(self, tokens) -> np.ndarray:
        return np.array([self.index(t) for t in tokens], dtype=np.int64)


@dataclass
class EmbeddingTable:
    """A vocabulary with one vector row per token.

    ``stat_sum``/``stat_count`` accumulate over every row seen at load
    time, so the UNK mean initialization is unaffected by pruning.
    """

    vocabulary: Vocabulary
    vectors: np.ndarray
    stat_sum: np.ndarray | None = None
    stat_count: int = 0

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __post_init__(self):
        if self.vectors.shape[0] != len(self.vocabulary):
            raise ValueError(
                f"{self.vectors.shape[0]} rows for {len(self.vocabulary)} tokens"
            )


def load_vec(source, keep: set[str] | None = None) -> EmbeddingTable:
    """Load a ``.vec`` file (path or file object).

    ``keep`` restricts the rows retained in memory (full tables run to
    gigabytes); membership is decided by the caller, typically via the
    normalization candidate closure of a corpus.  Duplicate words keep
    their first occurrence.
    """
    if hasattr(source, "read"):
        fp = source
        close = False
    else:
        fp = io.open(source, encoding="utf-8", newline="\n")
        close = True
    try:
        header = fp.readline()  # outside the try: UnicodeDecodeError is a ValueError
        try:
            _, dim = map(int, header.split())
        except ValueError:
            raise VectorLoadError("line 1: expected header 'count dim'") from None
        words: list[str] = []
        rows: list[np.ndarray] = []
        seen: set[str] = set()
        stat_sum = np.zeros(dim, dtype=np.float64)
        stat_count = 0
        for line_no, line in enumerate(fp, start=2):
            parts = line.rstrip("\n").split(" ")
            if parts and parts[-1] == "":  # tolerate trailing space
                parts.pop()
            if len(parts) - 1 != dim:
                raise VectorLoadError(
                    f"line {line_no}: expected {dim} components, got {len(parts) - 1}"
                )
            word = parts[0]
            try:
                vector = np.array(parts[1:], dtype=np.float64)
            except ValueError:
                raise VectorLoadError(
                    f"line {line_no}: non-numeric vector component"
                ) from None
            stat_sum += vector
            stat_count += 1
            if word in seen or (keep is not None and word not in keep):
                continue
            seen.add(word)
            words.append(word)
            rows.append(vector)
    except UnicodeDecodeError:
        if not close:
            raise VectorLoadError("not valid UTF-8") from None
        bad = non_utf8_line(source, newline="\n")
        raise VectorLoadError(f"line {bad}: not valid UTF-8") from None
    finally:
        if close:
            fp.close()
    vectors = np.vstack(rows) if rows else np.zeros((0, dim), dtype=np.float64)
    return EmbeddingTable(
        Vocabulary(words, specials=False),
        vectors,
        stat_sum=stat_sum,
        stat_count=stat_count,
    )


def empty_table(dim: int) -> EmbeddingTable:
    return EmbeddingTable(
        Vocabulary([], specials=False),
        np.zeros((0, dim), dtype=np.float64),
        stat_sum=np.zeros(dim, dtype=np.float64),
        stat_count=0,
    )


def merge_tables(eng: EmbeddingTable, spa: EmbeddingTable) -> EmbeddingTable:
    """Concatenate two tables into the shared bilingual vocabulary.

    English entries come first and win on collision; PAD/UNK/USR/URL rows
    are prepended.  PAD starts at zero, the other three at the mean of
    all loaded vectors (a documented choice; the pre-trained tables have
    no row for them).
    """
    if eng.dim != spa.dim:
        raise ValueError(f"dimension mismatch: {eng.dim} vs {spa.dim}")
    dim = eng.dim
    words = list(eng.vocabulary.tokens)
    rows = [eng.vectors]
    eng_set = set(words)
    spa_rows = [
        i
        for i, w in enumerate(spa.vocabulary.tokens)
        if w not in eng_set and w not in SPECIAL_TOKENS
    ]
    words += [spa.vocabulary.tokens[i] for i in spa_rows]
    rows.append(spa.vectors[spa_rows])

    stat_sum = np.zeros(dim, dtype=np.float64)
    stat_count = 0
    for table in (eng, spa):
        if table.stat_sum is not None:
            stat_sum += table.stat_sum
            stat_count += table.stat_count
    mean = stat_sum / stat_count if stat_count else np.zeros(dim, dtype=np.float64)

    specials = np.vstack([np.zeros(dim, dtype=np.float64), mean, mean, mean])
    vocabulary = Vocabulary(words, specials=True)
    vectors = np.vstack([specials] + rows)
    return EmbeddingTable(
        vocabulary, vectors, stat_sum=stat_sum, stat_count=stat_count
    )


def candidate_forms(token: str) -> set[str]:
    """Every surface form the normalizer might look up for ``token``.

    Used to prune vector files without changing any lookup result.
    """
    replaced = replace_token(token)
    if replaced != token:
        return {token, replaced}
    return {token} | {form for form, _ in normalization_candidates(token)}


def corpus_candidate_forms(*datasets: Dataset) -> set[str]:
    forms: set[str] = set()
    for dataset in datasets:
        for sent in dataset:
            for token in sent.tokens:
                forms |= candidate_forms(token)
    return forms


class CharVocabulary(Vocabulary):
    """Case-preserving character -> index mapping: PAD=0, UNK=1, then the
    characters by code point."""

    SPECIALS = (PAD_CHAR, UNK_CHAR)

    def __init__(self, chars):
        super().__init__(sorted(set(chars)))

    @property
    def chars(self) -> list[str]:
        return self.tokens


def build_char_vocab(dataset: Dataset, extra: str = DEFAULT_CHAR_EXTRA) -> CharVocabulary:
    """Union of all characters in the corpus plus a fixed extra inventory.

    Deterministic: characters are ordered by code point regardless of the
    order they were observed in.
    """
    chars = set(extra)
    for sent in dataset:
        for token in sent.tokens:
            chars.update(token)
    return CharVocabulary(chars)
