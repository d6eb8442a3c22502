"""The hierarchical tagger: a bilingual character BiLSTM encodes each
word from its raw spelling, the result is concatenated with a fixed
pre-trained word vector, and a word-level BiLSTM plus a linear layer
produce per-token tag scores.

All internal computation is time-major: word position (t, b) lives at
flat row t*B + b, so every LSTM step is a contiguous row slice.  The
arrays stay padded; each LSTM takes its sequences' lengths, steps only
the live rows and carries the state through the rest, and the loss
weighs padded words 0, so padded inputs stay out of the loss and the
gradients exactly (not just approximately).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus_io import TAGS
from .embeddings import CharVocabulary, EmbeddingTable

N_TAGS = len(TAGS)


@dataclass
class Tables:
    """Fixed lookup state shared by training and inference."""

    words: EmbeddingTable
    chars: CharVocabulary


def param_shapes(cfg, n_chars: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every trainable tensor, sized by the TrainingConfig
    ``cfg``, in the order checkpoints store them and Adam walks them.  The
    word BiLSTM reads a word vector joined to both char directions.

    The pre-trained word matrix is not here (it stays fixed inside
    EmbeddingTable and can never accumulate gradient); its four special
    rows PAD/UNK/USR/URL are trainable and live in ``word_specials``.
    """
    shapes = {"char_embed": (n_chars, cfg.char_dim)}
    for layer, n_in, n in (("char", cfg.char_dim, cfg.char_hidden),
                           ("word", cfg.word_dim + 2 * cfg.char_hidden, cfg.hidden)):
        for prefix in (f"{layer}_fwd", f"{layer}_bwd"):
            shapes[f"{prefix}.wx"] = (n_in, 4 * n)
            shapes[f"{prefix}.wh"] = (n, 4 * n)
            shapes[f"{prefix}.b"] = (4 * n,)
    shapes.update(proj_w=(2 * cfg.hidden, N_TAGS), proj_b=(N_TAGS,),
                  word_specials=(4, cfg.word_dim))
    return shapes


@dataclass
class BatchArrays:
    """Index matrices for one padded group of sentences (time-major).

    The character arrays hold one column per distinct spelling in the
    batch, longest first; ``spelling_idx`` gives each word slot its
    column, and padded slots, which the mask hides, column 0.
    """

    word_idx: np.ndarray  # (T, B) int
    char_idx: np.ndarray  # (V, U) int
    char_lengths: np.ndarray  # (U,) int, each spelling's length
    spelling_idx: np.ndarray  # (T*B,) int, a column of char_idx
    mask: np.ndarray  # (T, B), the loss's weight; 1 iff t < lengths[b]
    lengths: list[int]

    @property
    def max_len(self) -> int:
        return self.word_idx.shape[0]

    @property
    def batch_size(self) -> int:
        return self.word_idx.shape[1]


def build_arrays(
    token_seqs: list[list[str]],
    tables: Tables,
    dtype=np.float32,
    surface_seqs: list[list[str]] | None = None,
) -> BatchArrays:
    """Index and pad a group of sentences, given longest first.

    Word indices come from ``token_seqs`` (normalized forms); characters
    come from ``surface_seqs`` when given (the raw pre-replacement
    spellings) so the char encoder sees original orthography.  The
    spellings are sorted longest first here; the sentences must already
    be, as ``autodiff.lstm_seq`` checks.
    """
    lengths = [len(s) for s in token_seqs]
    if surface_seqs is None:
        surface_seqs = token_seqs
    elif [len(s) for s in surface_seqs] != lengths:
        raise ValueError("surface sentences are not aligned with the tokens")
    b, t_max = len(lengths), max(lengths)
    # first occurrence, then a stable sort longest first: the same order
    # in every process, whatever the string hash seed
    spellings = sorted(dict.fromkeys(w for sent in surface_seqs for w in sent),
                       key=len, reverse=True)
    column = {w: u for u, w in enumerate(spellings)}
    char_lengths = np.array([len(w) for w in spellings], dtype=np.int64)

    word_idx = np.zeros((t_max, b), dtype=np.int64)
    mask = np.zeros((t_max, b), dtype=dtype)
    spelling_idx = np.zeros(t_max * b, dtype=np.int64)
    for j, (tokens, surfaces) in enumerate(zip(token_seqs, surface_seqs)):
        for t, (token, surface) in enumerate(zip(tokens, surfaces)):
            word_idx[t, j] = tables.words.vocabulary.index(token)
            spelling_idx[t * b + j] = column[surface]
        mask[: len(tokens), j] = 1.0
    char_idx = np.zeros((char_lengths[0], len(spellings)), dtype=np.int64)
    for u, spelling in enumerate(spellings):
        char_idx[: len(spelling), u] = tables.chars.indices(spelling)
    return BatchArrays(word_idx, char_idx, char_lengths, spelling_idx, mask, lengths)


def _run_bilstm(project, lengths, n_steps: int, params: dict[str, Tensor], layer: str):
    """Both directions of ``layer`` (its ``<layer>_fwd``/``_bwd`` tensors)
    over B sequences of the given ``lengths``, longest first, in ``n_steps``
    steps.  ``project(wx)`` gives a direction's packed live-row projections
    (``autodiff.lstm_seq``), made just before it runs so that one is alive
    at a time.  Returns each direction's (T*B, hidden) states."""
    return [ad.lstm_seq(project(params[f"{layer}_{d}.wx"]), lengths, params[f"{layer}_{d}.wh"],
                        params[f"{layer}_{d}.b"], n_steps, reverse=d == "bwd")
            for d in ("fwd", "bwd")]


def _encode_chars(params: dict[str, Tensor], char_idx, char_lengths) -> Tensor:
    """(V, U) character indices -> (U, 2*char_hidden) spelling encodings.
    The projection gathers the live characters' rows of char_embed @ wx."""
    v_max, n = char_idx.shape
    live = char_idx[np.arange(v_max)[:, None] < char_lengths]  # step by step
    h_fwd, h_bwd = _run_bilstm(lambda wx: ad.embedding(ad.matmul(params["char_embed"], wx), live),
                               char_lengths, v_max, params, "char")
    # forward freezes at each word's last character; backward ends after
    # consuming the first
    return ad.concat(
        [ad.slice_axis(h_fwd, 0, (v_max - 1) * n, v_max * n), ad.slice_axis(h_bwd, 0, 0, n)],
        axis=1,
    )


def _word_vectors(params: dict[str, Tensor], table: EmbeddingTable, word_flat) -> Tensor:
    """Fixed-row lookup plus the trainable special rows (indices 0-3)."""
    dtype = params["proj_w"].data.dtype
    fixed = table.vectors[word_flat].astype(dtype)
    special = word_flat < 4
    fixed[special] = 0.0
    onehot = np.zeros((word_flat.size, 4), dtype=dtype)
    onehot[special, word_flat[special]] = 1.0
    return ad.add(Tensor(fixed), ad.matmul(Tensor(onehot), params["word_specials"]))


def encode_batch(
    arrays: BatchArrays,
    tables: Tables,
    params: dict[str, Tensor],
    rng: np.random.Generator | None = None,
    dropout_rate: float = 0.4,
) -> Tensor:
    """Token context vectors, flat time-major shape (T*B, 2*word_hidden).
    Dropout is on exactly when ``rng`` is given (training)."""
    a = _encode_chars(params, arrays.char_idx, arrays.char_lengths)
    # each spelling is encoded once; the gather's backward sums its uses
    a = ad.embedding(a, arrays.spelling_idx)
    x = _word_vectors(params, tables.words, arrays.word_idx.reshape(-1))
    u = ad.concat([x, a], axis=1)
    u = ad.dropout(u, dropout_rate, rng)

    u = ad.embedding(u, np.flatnonzero(arrays.mask))  # the live word slots, step by step
    h_fwd, h_bwd = _run_bilstm(lambda wx: ad.matmul(u, wx), arrays.lengths, arrays.max_len,
                               params, "word")
    c = ad.concat([h_fwd, h_bwd], axis=1)
    return ad.dropout(c, dropout_rate, rng)


def batch_logits(encoded: Tensor, params: dict[str, Tensor]) -> Tensor:
    return ad.add(ad.matmul(encoded, params["proj_w"]), params["proj_b"])


def batch_loss(
    arrays: BatchArrays,
    gold_flat: np.ndarray,
    tables: Tables,
    params: dict[str, Tensor],
    rng: np.random.Generator | None = None,
    dropout_rate: float = 0.4,
) -> Tensor:
    encoded = encode_batch(arrays, tables, params, rng, dropout_rate)
    logits = batch_logits(encoded, params)
    return ad.masked_cross_entropy_logits(
        logits, gold_flat, arrays.mask.reshape(-1)
    )


def predict_batch(arrays: BatchArrays, tables: Tables,
                  params: dict[str, Tensor]) -> list[list[int]]:
    """Per-sentence argmax tag ids; ties resolve to the lowest tag index."""
    params = {name: Tensor(p.data) for name, p in params.items()}  # untaped views
    logits = batch_logits(encode_batch(arrays, tables, params), params)
    ids = logits.data.argmax(axis=-1).reshape(arrays.max_len, arrays.batch_size)
    return [list(ids[: n, j]) for j, n in enumerate(arrays.lengths)]
