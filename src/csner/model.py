"""The hierarchical tagger: a bilingual character BiLSTM encodes each
word from its raw spelling, the result is concatenated with a fixed
pre-trained word vector, and a word-level BiLSTM plus a linear layer
produce per-token tag scores.

All internal computation is time-major: word position (t, b) lives at
flat row t*B + b, so every LSTM step is a contiguous row slice.  Padding
is handled by masked state updates, which keep padded inputs out of the
loss and the gradients exactly (not just approximately).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import LstmParams, Tensor
from .corpus_io import TAGS
from .embeddings import CharVocabulary, EmbeddingTable

N_TAGS = len(TAGS)


@dataclass
class Tables:
    """Fixed lookup state shared by training and inference."""

    words: EmbeddingTable
    chars: CharVocabulary


@dataclass
class ModelParams:
    """Every trainable tensor.

    The pre-trained word matrix is not here (it stays fixed inside
    EmbeddingTable and can never accumulate gradient); its four special
    rows PAD/UNK/USR/URL are trainable and live in ``word_specials``.
    """

    char_embed: Tensor  # |C| x char_dim
    char_fwd: LstmParams
    char_bwd: LstmParams
    word_fwd: LstmParams
    word_bwd: LstmParams
    proj_w: Tensor  # 2*word_hidden x n_tags
    proj_b: Tensor  # n_tags
    word_specials: Tensor  # 4 x word_dim
    char_dim: int
    char_hidden: int
    word_dim: int
    word_hidden: int
    n_tags: int

    def tensors(self) -> dict[str, Tensor]:
        out = {"char_embed": self.char_embed}
        out.update(self.char_fwd.tensors("char_fwd"))
        out.update(self.char_bwd.tensors("char_bwd"))
        out.update(self.word_fwd.tensors("word_fwd"))
        out.update(self.word_bwd.tensors("word_bwd"))
        out["proj_w"] = self.proj_w
        out["proj_b"] = self.proj_b
        out["word_specials"] = self.word_specials
        return out

    @property
    def dtype(self):
        return self.proj_w.data.dtype


def init_params(
    n_chars: int,
    word_dim: int,
    rng: np.random.Generator,
    char_dim: int = 150,
    char_hidden: int = 150,
    word_hidden: int = 200,
    n_tags: int = N_TAGS,
    dtype=np.float32,
    special_rows: np.ndarray | None = None,
) -> ModelParams:
    """Uniform(-0.1, 0.1) everywhere, forget-gate biases at 1.0.

    ``special_rows`` seeds the trainable PAD/UNK/USR/URL word rows,
    normally from the merged table (zero + three mean vectors).
    """
    scale = 0.1
    char_embed = ad.param(rng.uniform(-scale, scale, (n_chars, char_dim)).astype(dtype))
    char_fwd = ad.init_lstm(char_dim, char_hidden, rng, dtype, scale)
    char_bwd = ad.init_lstm(char_dim, char_hidden, rng, dtype, scale)
    word_in = word_dim + 2 * char_hidden
    word_fwd = ad.init_lstm(word_in, word_hidden, rng, dtype, scale)
    word_bwd = ad.init_lstm(word_in, word_hidden, rng, dtype, scale)
    proj_w = ad.param(rng.uniform(-scale, scale, (2 * word_hidden, n_tags)).astype(dtype))
    proj_b = ad.param(rng.uniform(-scale, scale, n_tags).astype(dtype))
    if special_rows is None:
        special_rows = np.zeros((4, word_dim))
    word_specials = ad.param(special_rows.astype(dtype).copy())
    return ModelParams(
        char_embed=char_embed,
        char_fwd=char_fwd,
        char_bwd=char_bwd,
        word_fwd=word_fwd,
        word_bwd=word_bwd,
        proj_w=proj_w,
        proj_b=proj_b,
        word_specials=word_specials,
        char_dim=char_dim,
        char_hidden=char_hidden,
        word_dim=word_dim,
        word_hidden=word_hidden,
        n_tags=n_tags,
    )


@dataclass
class BatchArrays:
    """Index matrices for one padded group of sentences (time-major)."""

    word_idx: np.ndarray  # (T, B) int
    char_idx: np.ndarray  # (V, T*B) int
    char_mask: np.ndarray  # (V, T*B)
    mask: np.ndarray  # (T, B); 1 iff t < lengths[b]
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
    """Index and pad a group of sentences.

    Word indices come from ``token_seqs`` (normalized forms); characters
    come from ``surface_seqs`` when given (the raw pre-replacement
    spellings) so the char encoder sees original orthography.
    """
    if surface_seqs is None:
        surface_seqs = token_seqs
    elif [len(s) for s in surface_seqs] != [len(s) for s in token_seqs]:
        raise ValueError("surface sentences are not aligned with the tokens")
    b = len(token_seqs)
    lengths = [len(s) for s in token_seqs]
    t_max = max(lengths)
    v_max = max(1, max(max(len(w) for w in sent) for sent in surface_seqs))

    word_idx = np.zeros((t_max, b), dtype=np.int64)
    mask = np.zeros((t_max, b), dtype=dtype)
    char_idx = np.zeros((v_max, t_max * b), dtype=np.int64)
    char_mask = np.zeros((v_max, t_max * b), dtype=dtype)
    for j, (tokens, surfaces) in enumerate(zip(token_seqs, surface_seqs)):
        for t, (token, surface) in enumerate(zip(tokens, surfaces)):
            word_idx[t, j] = tables.words.vocabulary.index(token)
            mask[t, j] = 1.0
            n = t * b + j
            char_idx[: len(surface), n] = tables.chars.indices(surface)
            char_mask[: len(surface), n] = 1.0
    return BatchArrays(word_idx, char_idx, char_mask, mask, lengths)


def _run_bilstm(x: Tensor, mask, fwd: LstmParams, bwd: LstmParams):
    """Both directions over flat time-major input ``x`` (T*B rows) with a
    (T, B) ``mask``; masked steps carry the previous state through
    unchanged.  Returns each direction's (T*B, hidden) states."""
    return ad.lstm_seq(x, mask, fwd), ad.lstm_seq(x, mask, bwd, reverse=True)


def _encode_chars(params: ModelParams, char_idx, char_mask, dtype) -> Tensor:
    """(V, N) character indices -> (N, 2*char_hidden) word encodings.

    ``dtype`` is the model's float type, which ``params`` and
    ``char_mask`` already carry.
    """
    v_max, n = char_idx.shape
    x = ad.embedding(params.char_embed, char_idx.reshape(-1))
    h_fwd, h_bwd = _run_bilstm(x, char_mask, params.char_fwd, params.char_bwd)
    # forward freezes at each word's last character; backward ends after
    # consuming the first
    return ad.concat(
        [ad.slice_axis(h_fwd, 0, (v_max - 1) * n, v_max * n), ad.slice_axis(h_bwd, 0, 0, n)],
        axis=1,
    )


def _word_vectors(params: ModelParams, table: EmbeddingTable, word_flat, dtype) -> Tensor:
    """Fixed-row lookup plus the trainable special rows (indices 0-3)."""
    fixed = table.vectors[word_flat].astype(dtype)
    special = word_flat < 4
    fixed[special] = 0.0
    onehot = np.zeros((word_flat.size, 4), dtype=dtype)
    onehot[special, word_flat[special]] = 1.0
    return ad.add(Tensor(fixed), ad.matmul(Tensor(onehot), params.word_specials))


def encode_batch(
    arrays: BatchArrays,
    tables: Tables,
    params: ModelParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
    dropout_rate: float = 0.4,
) -> Tensor:
    """Token context vectors, flat time-major shape (T*B, 2*word_hidden)."""
    dtype = params.dtype
    a = _encode_chars(params, arrays.char_idx, arrays.char_mask, dtype)
    x = _word_vectors(params, tables.words, arrays.word_idx.reshape(-1), dtype)
    u = ad.concat([x, a], axis=1)
    u = ad.dropout(u, dropout_rate, training, rng)

    h_fwd, h_bwd = _run_bilstm(u, arrays.mask, params.word_fwd, params.word_bwd)
    c = ad.concat([h_fwd, h_bwd], axis=1)
    return ad.dropout(c, dropout_rate, training, rng)


def batch_logits(encoded: Tensor, params: ModelParams) -> Tensor:
    return ad.add(ad.matmul(encoded, params.proj_w), params.proj_b)


def batch_loss(
    arrays: BatchArrays,
    gold_flat: np.ndarray,
    tables: Tables,
    params: ModelParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
    dropout_rate: float = 0.4,
) -> Tensor:
    encoded = encode_batch(arrays, tables, params, training, rng, dropout_rate)
    logits = batch_logits(encoded, params)
    return ad.masked_cross_entropy_logits(
        logits, gold_flat, arrays.mask.reshape(-1)
    )


def predict_batch(arrays: BatchArrays, tables: Tables, params: ModelParams) -> list[list[int]]:
    """Per-sentence argmax tag ids; ties resolve to the lowest tag index."""
    with ad.no_grad():
        encoded = encode_batch(arrays, tables, params, training=False)
        logits = batch_logits(encoded, params)
    ids = logits.data.argmax(axis=-1).reshape(arrays.max_len, arrays.batch_size)
    return [list(ids[: n, j]) for j, n in enumerate(arrays.lengths)]
