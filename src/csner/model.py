"""The hierarchical tagger: a bilingual character BiLSTM encodes each
word from its raw spelling, the result is concatenated with a fixed
pre-trained word vector, and a word-level BiLSTM plus a linear layer
produce per-token tag scores.

All internal computation is time-major: word position (t, b) lives at
flat row t*B + b, so every LSTM step is a contiguous row slice.  Padding
is handled by masked state updates, which keep padded inputs out of the
loss and the gradients exactly (not just approximately).  The arrays
stay padded; ``autodiff.lstm_seq`` steps only the live rows, and its
backward history and gradient GEMMs cover only those.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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
    """Every trainable tensor; ``param_shapes`` gives their shapes.

    The pre-trained word matrix is not here (it stays fixed inside
    EmbeddingTable and can never accumulate gradient); its four special
    rows PAD/UNK/USR/URL are trainable and live in ``word_specials``.
    """

    char_embed: Tensor
    char_fwd: LstmParams
    char_bwd: LstmParams
    word_fwd: LstmParams
    word_bwd: LstmParams
    proj_w: Tensor
    proj_b: Tensor
    word_specials: Tensor

    def tensors(self) -> dict[str, Tensor]:
        """Name -> tensor in field order; LSTM ``d`` gives ``d.wx``, ``d.wh``, ``d.b``."""
        out = {}
        for f in fields(self):
            part = getattr(self, f.name)
            out.update(part.tensors(f.name) if isinstance(part, LstmParams) else {f.name: part})
        return out

    @classmethod
    def from_tensors(cls, tensors: dict[str, Tensor]) -> ModelParams:
        """The inverse of ``tensors()``."""
        return cls(**{
            f.name: LstmParams(*(tensors[f"{f.name}.{k}"] for k in ("wx", "wh", "b")))
            if f.type == "LstmParams" else tensors[f.name]
            for f in fields(cls)
        })

    @property
    def dtype(self):
        return self.proj_w.data.dtype


def param_shapes(n_chars: int, word_dim: int, char_dim: int, char_hidden: int,
                 word_hidden: int, n_tags: int = N_TAGS) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every trainable tensor, in ``tensors()`` order.  The
    word BiLSTM reads a word vector joined to both char directions."""
    shapes = {"char_embed": (n_chars, char_dim)}
    for layer, n_in, n in (("char", char_dim, char_hidden),
                           ("word", word_dim + 2 * char_hidden, word_hidden)):
        for prefix in (f"{layer}_fwd", f"{layer}_bwd"):
            shapes[f"{prefix}.wx"] = (n_in, 4 * n)
            shapes[f"{prefix}.wh"] = (n, 4 * n)
            shapes[f"{prefix}.b"] = (4 * n,)
    shapes.update(proj_w=(2 * word_hidden, n_tags), proj_b=(n_tags,), word_specials=(4, word_dim))
    return shapes


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
    shapes = param_shapes(n_chars, word_dim, char_dim, char_hidden, word_hidden, n_tags)
    specials_shape = shapes.pop("word_specials")  # seeded, not drawn
    arrays = {name: rng.uniform(-0.1, 0.1, shape).astype(dtype) for name, shape in shapes.items()}
    for name, data in arrays.items():
        if name.endswith(".b"):  # the forget-gate block of an LSTM bias
            data[data.size // 4 : data.size // 2] = 1.0
    specials = np.zeros(specials_shape) if special_rows is None else special_rows
    arrays["word_specials"] = specials.astype(dtype)
    return ModelParams.from_tensors({name: ad.param(data) for name, data in arrays.items()})


@dataclass
class BatchArrays:
    """Index matrices for one padded group of sentences (time-major).

    The character arrays hold one column per distinct spelling in the
    batch, longest first; ``spelling_idx`` gives each word slot its
    column, and padded slots, which the mask hides, column 0.
    """

    word_idx: np.ndarray  # (T, B) int
    char_idx: np.ndarray  # (V, U) int
    char_mask: np.ndarray  # (V, U)
    spelling_idx: np.ndarray  # (T*B,) int, a column of char_idx
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
    """Index and pad a group of sentences, given longest first.

    Word indices come from ``token_seqs`` (normalized forms); characters
    come from ``surface_seqs`` when given (the raw pre-replacement
    spellings) so the char encoder sees original orthography.  With the
    sentences and the spellings longest first, every step of both masks
    is a prefix, as ``autodiff.lstm_seq`` needs.
    """
    if surface_seqs is None:
        surface_seqs = token_seqs
    elif [len(s) for s in surface_seqs] != [len(s) for s in token_seqs]:
        raise ValueError("surface sentences are not aligned with the tokens")
    b = len(token_seqs)
    lengths = [len(s) for s in token_seqs]
    if any(a < z for a, z in zip(lengths, lengths[1:])):
        raise ValueError(f"sentence lengths {lengths} are not non-increasing")
    t_max = max(lengths)
    # first occurrence, then a stable sort longest first: the same order
    # in every process, whatever the string hash seed
    spellings = sorted(dict.fromkeys(w for sent in surface_seqs for w in sent),
                       key=len, reverse=True)
    column = {w: u for u, w in enumerate(spellings)}
    v_max = len(spellings[0])

    word_idx = np.zeros((t_max, b), dtype=np.int64)
    mask = np.zeros((t_max, b), dtype=dtype)
    spelling_idx = np.zeros(t_max * b, dtype=np.int64)
    for j, (tokens, surfaces) in enumerate(zip(token_seqs, surface_seqs)):
        for t, (token, surface) in enumerate(zip(tokens, surfaces)):
            word_idx[t, j] = tables.words.vocabulary.index(token)
            spelling_idx[t * b + j] = column[surface]
        mask[: len(tokens), j] = 1.0
    char_idx = np.zeros((v_max, len(spellings)), dtype=np.int64)
    char_mask = np.zeros((v_max, len(spellings)), dtype=dtype)
    for u, spelling in enumerate(spellings):
        char_idx[: len(spelling), u] = tables.chars.indices(spelling)
        char_mask[: len(spelling), u] = 1.0
    return BatchArrays(word_idx, char_idx, char_mask, spelling_idx, mask, lengths)


def _run_bilstm(x: Tensor, mask, fwd: LstmParams, bwd: LstmParams):
    """Both directions over flat time-major input ``x`` (T*B rows) with a
    (T, B) ``mask`` whose live rows are a prefix at every step; masked
    steps carry the previous state through unchanged.  Returns each
    direction's (T*B, hidden) states."""
    return ad.lstm_seq(x, mask, fwd), ad.lstm_seq(x, mask, bwd, reverse=True)


def _encode_chars(params: ModelParams, char_idx, char_mask) -> Tensor:
    """(V, U) character indices -> (U, 2*char_hidden) spelling encodings."""
    v_max, n = char_idx.shape
    x = ad.embedding(params.char_embed, char_idx.reshape(-1))
    h_fwd, h_bwd = _run_bilstm(x, char_mask, params.char_fwd, params.char_bwd)
    # forward freezes at each word's last character; backward ends after
    # consuming the first
    return ad.concat(
        [ad.slice_axis(h_fwd, 0, (v_max - 1) * n, v_max * n), ad.slice_axis(h_bwd, 0, 0, n)],
        axis=1,
    )


def _word_vectors(params: ModelParams, table: EmbeddingTable, word_flat) -> Tensor:
    """Fixed-row lookup plus the trainable special rows (indices 0-3)."""
    dtype = params.dtype
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
    rng: np.random.Generator | None = None,
    dropout_rate: float = 0.4,
) -> Tensor:
    """Token context vectors, flat time-major shape (T*B, 2*word_hidden).
    Dropout is on exactly when ``rng`` is given (training)."""
    a = _encode_chars(params, arrays.char_idx, arrays.char_mask)
    # each spelling is encoded once; the gather's backward sums its uses
    a = ad.embedding(a, arrays.spelling_idx)
    x = _word_vectors(params, tables.words, arrays.word_idx.reshape(-1))
    u = ad.concat([x, a], axis=1)
    u = ad.dropout(u, dropout_rate, rng)

    h_fwd, h_bwd = _run_bilstm(u, arrays.mask, params.word_fwd, params.word_bwd)
    c = ad.concat([h_fwd, h_bwd], axis=1)
    return ad.dropout(c, dropout_rate, rng)


def batch_logits(encoded: Tensor, params: ModelParams) -> Tensor:
    return ad.add(ad.matmul(encoded, params.proj_w), params.proj_b)


def batch_loss(
    arrays: BatchArrays,
    gold_flat: np.ndarray,
    tables: Tables,
    params: ModelParams,
    rng: np.random.Generator | None = None,
    dropout_rate: float = 0.4,
) -> Tensor:
    encoded = encode_batch(arrays, tables, params, rng, dropout_rate)
    logits = batch_logits(encoded, params)
    return ad.masked_cross_entropy_logits(
        logits, gold_flat, arrays.mask.reshape(-1)
    )


def predict_batch(arrays: BatchArrays, tables: Tables, params: ModelParams) -> list[list[int]]:
    """Per-sentence argmax tag ids; ties resolve to the lowest tag index."""
    with ad.no_grad():
        encoded = encode_batch(arrays, tables, params)
        logits = batch_logits(encoded, params)
    ids = logits.data.argmax(axis=-1).reshape(arrays.max_len, arrays.batch_size)
    return [list(ids[: n, j]) for j, n in enumerate(arrays.lengths)]
