"""Pre-trained word vectors, the merged bilingual vocabulary, and the
character inventory.

Word tables are loaded from the standard ``.vec`` text format (header
line ``count dim``, then one space-separated row per word).  English and
Spanish tables are merged English-first into one shared vocabulary with
four reserved tokens in front: PAD, UNK, USR and URL.  The merged matrix
is fixed during training except for those four rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .corpus_io import Dataset
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

# a ``.vec`` file is read about this many bytes of rows at a time: large
# enough that numpy's per-call cost vanishes, small enough that the block
# adds little to peak memory (4 MiB blocks added ~20 MB)
_BLOCK_BYTES = 1 << 16


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
        self.specials = specials
        reserved = self.SPECIALS if specials else ()
        self.tokens: list[str] = list(dict.fromkeys([*reserved, *tokens]))  # first occurrences
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


def load_vec(path, keep: set[str] | None = None) -> EmbeddingTable:
    """Load the ``.vec`` file at ``path``.

    ``keep`` restricts the rows retained in memory (full tables run to
    gigabytes); membership is decided by the caller, typically via the
    normalization candidate closure of a corpus.  Duplicate words keep
    their first occurrence.
    """
    # a NaN, an infinity or an overflow shows in the sum, checked once a block
    with open(path, "rb") as fp, np.errstate(over="ignore", invalid="ignore"):
        try:
            header = fp.readline().decode()
        except UnicodeDecodeError:
            raise VectorLoadError("line 1: not valid UTF-8") from None
        try:
            count, dim = map(int, header.split())
        except ValueError:
            raise VectorLoadError("line 1: expected header 'count dim'") from None
        if dim < 1:
            raise VectorLoadError(f"line 1: dimension {dim} is not positive")
        # nothing is sized by the header's dimension until a parsed row has
        # that many components: a false header fails at its first row, or at
        # its row count when no row follows
        index: dict[str, int] = {}  # kept word -> its row of ``vectors``
        vectors = np.empty((0, dim), dtype=np.float64)  # grown in place
        stat_sum = None  # made with the first block that holds a parsed row
        stat_count = 0
        non_finite = None  # the line at which the sum stopped being finite
        while raw := fp.readlines(_BLOCK_BYTES):
            words, tails = [], []
            for data in raw:  # up to the first line that is not UTF-8
                try:  # a row ends at its LF, then one CR, then one trailing space
                    line = data.decode().rstrip("\n").removesuffix("\r").removesuffix(" ")
                except UnicodeDecodeError:
                    break
                word, space, tail = line.partition(" ")
                words.append(word)
                tails.append(tail if space else None)  # None: the word alone
            rows = _parse_block(tails, dim) if all(tails) else None
            if rows is None:
                rows = _parse_rows(tails, 2 + stat_count, dim)
            if len(tails) < len(raw):
                raise VectorLoadError(f"line {2 + stat_count + len(tails)}: not valid UTF-8")
            if stat_sum is None:
                stat_sum = np.zeros(dim, dtype=np.float64)
            before = stat_sum.copy()
            for word, row in zip(words, rows):
                stat_sum += row  # row by row, in file order
                if word not in index and (keep is None or word in keep):
                    if len(index) == len(vectors):
                        vectors.resize((len(vectors) * 5 // 4 + 16, dim), refcheck=False)
                    vectors[len(index)] = row
                    index[word] = len(index)
            if non_finite is None and not np.isfinite(stat_sum).all():
                # a sum stays non-finite once it is: replay this block to find the row
                for i, row in enumerate(rows):
                    before += row
                    if not np.isfinite(before).all():
                        non_finite = 2 + stat_count + i
                        break
            stat_count += len(tails)
    if non_finite is not None:
        raise VectorLoadError(f"line {non_finite}: non-finite vector component")
    if stat_count != count:
        raise VectorLoadError(f"line 1: header declares {count} rows, file has {stat_count}")
    vectors.resize((len(index), dim), refcheck=False)
    return EmbeddingTable(
        Vocabulary(index, specials=False),
        vectors,
        stat_sum=np.zeros(dim, dtype=np.float64) if stat_sum is None else stat_sum,
        stat_count=stat_count,
    )


def _parse_block(tails: list[str], dim: int) -> np.ndarray | None:
    """The ``(len(tails), dim)`` components of a block of rows, each tail a
    row without its word, or None if numpy's reader does not take every
    row as exactly ``dim`` components (then ``_parse_rows`` decides)."""
    try:
        # numpy skips a row it reads as blank (a lone "\r"), and warns when
        # every row is: the shape shows the one, the warning the other
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(tails, delimiter=" ", comments=None, ndmin=2)
    except (ValueError, UserWarning):
        return None
    return rows if rows.shape == (len(tails), dim) else None


def _parse_rows(tails: list[str | None], first_line_no: int, dim: int) -> list[np.ndarray]:
    """The components of ``tails``, one array per row, or the
    ``VectorLoadError`` of the first bad row.  A row's width is checked
    before anything of ``dim`` is allocated.  Accepts every number
    Python's ``float`` does (``1_0``, full-width digits), unlike numpy's
    reader."""
    rows = []
    for i, tail in enumerate(tails):
        parts = [] if tail is None else tail.split(" ")
        if len(parts) != dim:
            raise VectorLoadError(
                f"line {first_line_no + i}: expected {dim} components, got {len(parts)}"
            )
        try:
            rows.append(np.array(parts, dtype=np.float64))
        except ValueError:
            raise VectorLoadError(
                f"line {first_line_no + i}: non-numeric vector component"
            ) from None
    return rows


def merge_tables(*tables: EmbeddingTable) -> EmbeddingTable:
    """Concatenate one or more loaded tables, the earliest first, into the
    shared bilingual vocabulary (English, then Spanish).

    An earlier table's entry wins on collision; PAD/UNK/USR/URL rows are
    prepended and replace any row of that name in any table.  PAD starts
    at zero, the other three at the mean of all loaded vectors (a
    documented choice, as ordinary words' rows would not fit those roles).
    """
    dims = [table.dim for table in tables]
    if len(set(dims)) > 1:
        raise ValueError("dimension mismatch: " + " vs ".join(map(str, dims)))
    picks = []  # (table, the rows it keeps), earliest first
    taken = set(SPECIAL_TOKENS)
    for table in tables:
        picks.append((table, [i for i, w in enumerate(table.vocabulary.tokens) if w not in taken]))
        taken.update(table.vocabulary.tokens)
    words = [table.vocabulary.tokens[i] for table, rows in picks for i in rows]
    stat_sum = sum(table.stat_sum for table in tables)  # left to right
    stat_count = sum(table.stat_count for table in tables)

    start = len(SPECIAL_TOKENS)
    vectors = np.zeros((start + len(words), dims[0]), dtype=np.float64)
    if stat_count:
        vectors[1:start] = stat_sum / stat_count
    for table, rows in picks:
        # "clip" is unbuffered: the rows land in place, with no copy of the table
        np.take(table.vectors, rows, axis=0, out=vectors[start : start + len(rows)],
                mode="clip")
        start += len(rows)
    return EmbeddingTable(
        Vocabulary(words, specials=True), vectors, stat_sum=stat_sum, stat_count=stat_count
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


def build_char_vocab(dataset: Dataset) -> CharVocabulary:
    """Union of all characters in the corpus plus a fixed extra inventory.

    Deterministic: characters are ordered by code point regardless of the
    order they were observed in.
    """
    chars = set(DEFAULT_CHAR_EXTRA)
    for sent in dataset:
        for token in sent.tokens:
            chars.update(token)
    return CharVocabulary(chars)
