"""The hierarchical tagger: a bilingual character BiLSTM encodes each
word from its raw spelling, the result is concatenated with a fixed
pre-trained word vector, and a word-level BiLSTM plus a linear layer
produce per-token tag scores.

All internal computation is time-major: word position (t, b) lives at
flat row t*B + b.  Each LSTM takes its sequences' lengths and reads and
writes the live rows alone, packed step by step, so every step is a
contiguous row slice.  The word layer's states are put back in the
padded (T*B) layout with 0 in every padded slot, and the loss weighs
padded words 0, so padded inputs stay out of the loss and the gradients
exactly (not just approximately).

The graph is fixed, so it is differentiated by hand: each stage returns
its value and, in training (when an rng is given), a pullback that maps
the gradient of the value to that of its input and writes its
parameters' gradients by name.  Inference makes no pullback, and keeps
nothing that only backward would read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .corpus_io import TAG_INDEX, TAGS, TaggedSentence
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

    Words are looked up by their normalized tokens, and the character
    arrays spell their raw spellings: one column per distinct spelling in
    the batch, longest first.  ``spelling_idx`` gives each word slot its
    column, and padded slots, which the mask hides, column 0.  ``gold``
    holds the batch's tag ids when every sentence is tagged.
    """

    word_idx: np.ndarray  # (T, B) int
    char_idx: np.ndarray  # (V, U) int
    char_lengths: np.ndarray  # (U,) int, each spelling's length
    spelling_idx: np.ndarray  # (T*B,) int, a column of char_idx
    mask: np.ndarray  # (T, B), the loss's weight; 1 iff t < lengths[b]
    lengths: list[int]
    gold: np.ndarray | None  # (T*B,) int tag ids, 0 in padded slots; None if untagged

    @property
    def max_len(self) -> int:
        return self.word_idx.shape[0]

    @property
    def batch_size(self) -> int:
        return self.word_idx.shape[1]


def build_arrays(
    sentences: list[TaggedSentence],
    tables: Tables,
    dtype,
    surface_seqs: list[list[str]],
) -> BatchArrays:
    """Index and pad a group of sentences, given longest first.

    Word indices come from the sentences' tokens (normalized forms), and
    characters from ``surface_seqs``, each sentence's raw pre-replacement
    spellings, so that the char encoder sees the original orthography.
    The gold tag ids come from the sentences' tags, when all have them.
    The spellings are sorted longest first here; the sentences must
    already be, as ``autodiff.lstm_seq`` checks.
    """
    lengths = [len(s) for s in sentences]
    if [len(s) for s in surface_seqs] != lengths:
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
    tagged = all(s.tags is not None for s in sentences)
    gold = np.zeros(t_max * b, dtype=np.int64) if tagged else None
    for j, (sent, surfaces) in enumerate(zip(sentences, surface_seqs)):
        for t, (token, surface) in enumerate(zip(sent.tokens, surfaces)):
            word_idx[t, j] = tables.words.vocabulary.index(token)
            spelling_idx[t * b + j] = column[surface]
        mask[: len(sent), j] = 1.0
        if tagged:
            gold[j : len(sent) * b : b] = [TAG_INDEX[tag] for tag in sent.tags]
    char_idx = np.zeros((char_lengths[0], len(spellings)), dtype=np.int64)
    for u, spelling in enumerate(spellings):
        char_idx[: len(spelling), u] = tables.chars.indices(spelling)
    return BatchArrays(word_idx, char_idx, char_lengths, spelling_idx, mask, lengths, gold)


def _dropout(x: np.ndarray, rate: float, rng: np.random.Generator):
    """Inverted dropout with its mask drawn from ``rng``: survivors are
    scaled by 1/(1-rate).  Returns the result and the mask, which is None
    at rate 0, where it is the identity.  Training alone calls it."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    if rate == 0.0:
        return x, None
    keep = (rng.random(x.shape) >= rate).astype(x.dtype)
    mask = keep / np.asarray(1.0 - rate, dtype=x.dtype)
    return x * mask, mask


def _run_bilstm(x, rows, lengths, params: dict[str, np.ndarray], layer: str, keep: bool,
                final: bool = False, at_once: bool = True):
    """Both directions of ``layer`` (its ``<layer>_fwd``/``_bwd`` tensors)
    over B sequences of the given ``lengths``, longest first.  A
    direction's packed live-row projections (``autodiff.lstm_seq``) are
    the ``rows`` of x @ wx, all of them when ``rows`` is None, made just
    before it runs.  So x may hold each distinct input once: the char
    layer's x is ``char_embed`` and its rows the live characters, and at
    inference the word layer's x holds each distinct (word, spelling)
    pair and its rows the live slots.

    Returns the directions' states side by side, packed like the
    projections: (sum(lengths), 2*hidden), or with ``final`` only each
    direction's last step, (B, 2*hidden).  When ``at_once``, the
    directions run at once (``autodiff.both``), and in training so do
    their backward passes.  When ``keep`` (training), the pullback that
    returns x's gradient comes too; otherwise it is None, nothing of the
    backward is kept, and each direction gathers one step's projections
    at a time, so that two directions at once hold no packed projection."""
    n = params[f"{layer}_fwd.wh"].shape[0]
    # both directions gather the same rows: their backward's order, once
    gather_back = ad.gather_pullback(rows, len(x)) if keep and rows is not None else None

    def direction(d):
        name, reverse = f"{layer}_{d}", d == "bwd"
        wx = params[f"{name}.wx"]
        h, lstm_back = ad.lstm_seq(x @ wx, lengths, params[f"{name}.wh"], params[f"{name}.b"],
                                   reverse, final, rows, keep)
        if not keep:
            return h, None

        def pullback(g, grads):
            d_xw, grads[f"{name}.wh"], grads[f"{name}.b"] = lstm_back(g)
            if gather_back is not None:
                d_xw = gather_back(d_xw)
            grads[f"{name}.wx"] = x.T @ d_xw
            return d_xw @ wx.T

        return h, pullback

    run = ad.both if at_once else lambda first, second: (first(), second())
    (h_fwd, fwd_back), (h_bwd, bwd_back) = run(lambda: direction("fwd"), lambda: direction("bwd"))
    if not keep:
        return np.concatenate([h_fwd, h_bwd], axis=1), None

    def pullback(g, grads):
        dx, dx_bwd = ad.both(lambda: fwd_back(g[:, :n], grads),
                             lambda: bwd_back(g[:, n:], grads))
        dx += dx_bwd
        return dx

    return np.concatenate([h_fwd, h_bwd], axis=1), pullback


def _encode_chars(params: dict[str, np.ndarray], char_idx, char_lengths, keep: bool = False,
                  at_once: bool = True):
    """(V, U) character indices -> (U, 2*char_hidden) spelling encodings,
    and when ``keep`` their pullback, which returns char_embed's gradient.
    The projection gathers the live characters' rows of char_embed @ wx.
    Forward freezes at each word's last character; backward ends after
    consuming the first."""
    live = char_idx[np.arange(len(char_idx))[:, None] < char_lengths]  # step by step
    return _run_bilstm(params["char_embed"], live, char_lengths, params, "char", keep,
                       final=True, at_once=at_once)


def _word_vectors(params: dict[str, np.ndarray], table: EmbeddingTable, word_flat):
    """Fixed-row lookup plus the trainable special rows (indices 0-3).
    Returns the vectors and the (T*B, 4) one-hot that picks the special
    rows: their gradient is onehot.T @ (the vectors' gradient)."""
    dtype = params["proj_w"].dtype
    vectors = table.vectors[word_flat].astype(dtype, copy=False)
    special = word_flat < 4
    vectors[special] = 0.0
    onehot = np.zeros((word_flat.size, 4), dtype=dtype)
    onehot[special, word_flat[special]] = 1.0
    vectors += onehot @ params["word_specials"]
    return vectors, onehot


def encode_batch(
    arrays: BatchArrays,
    tables: Tables,
    params: dict[str, np.ndarray],
    rng: np.random.Generator | None = None,
    dropout_rate: float = 0.4,
):
    """Token context vectors, flat time-major shape (T*B, 2*word_hidden),
    and their pullback.  Dropout and the pullback are on exactly when
    ``rng`` is given (training); without it the pullback is None.

    Training builds the word layer's input row by row, one per live slot,
    each with its own dropout.  Inference has no dropout, so a slot's row
    depends only on its (word, spelling) pair: it builds one row per
    distinct pair and the word layer projects those rows and gathers them
    per slot, as the char layer does with ``char_embed``.  The pair holds
    the word as well as the spelling, since a spelling may stand for two
    normalized words."""
    keep = rng is not None
    # one sentence at inference is too little work per step to share
    at_once = keep or arrays.batch_size > 1
    spellings, char_back = _encode_chars(params, arrays.char_idx, arrays.char_lengths, keep,
                                         at_once)
    live = np.flatnonzero(arrays.mask)  # the live word slots, step by step
    if keep:
        # each spelling is encoded once; the gather's backward sums its uses
        x, onehot = _word_vectors(params, tables.words, arrays.word_idx.reshape(-1))
        u, u_mask = _dropout(np.concatenate([x, spellings[arrays.spelling_idx]], axis=1),
                             dropout_rate, rng)
        u, rows = u[live], None
    else:
        # no dropout: a slot's row depends on its (word, spelling) pair alone
        n_spellings = len(arrays.char_lengths)
        pairs, rows = np.unique(arrays.word_idx.reshape(-1)[live] * n_spellings
                                + arrays.spelling_idx[live], return_inverse=True)
        x, _ = _word_vectors(params, tables.words, pairs // n_spellings)
        u = np.concatenate([x, spellings[pairs % n_spellings]], axis=1)
    c_live, word_back = _run_bilstm(u, rows, arrays.lengths, params, "word", keep, at_once=at_once)
    c = np.zeros((arrays.mask.size, c_live.shape[1]), dtype=c_live.dtype)
    c[live] = c_live
    if not keep:
        return c, None
    c, c_mask = _dropout(c, dropout_rate, rng)

    def pullback(g, grads):
        if c_mask is not None:
            g = g * c_mask
        d_live = word_back(g[live], grads)
        du = np.zeros((arrays.spelling_idx.size, d_live.shape[1]), dtype=d_live.dtype)
        du[live] = d_live  # each slot is live at most once: a scatter, not a sum
        if u_mask is not None:
            du *= u_mask
        word_dim = params["word_specials"].shape[1]
        grads["word_specials"] = onehot.T @ du[:, :word_dim]
        spellings_back = ad.gather_pullback(arrays.spelling_idx, len(arrays.char_lengths))
        grads["char_embed"] = char_back(spellings_back(du[:, word_dim:]), grads)

    return c, pullback


def batch_logits(encoded: np.ndarray, params: dict[str, np.ndarray]):
    """Tag scores (T*B, N_TAGS) and their pullback."""
    proj_w = params["proj_w"]

    def pullback(g, grads):
        grads["proj_w"] = encoded.T @ g
        grads["proj_b"] = g.sum(axis=0)
        return g @ proj_w.T

    return encoded @ proj_w + params["proj_b"], pullback


def batch_loss(
    arrays: BatchArrays,
    tables: Tables,
    params: dict[str, np.ndarray],
    rng: np.random.Generator | None = None,
    dropout_rate: float = 0.4,
):
    """The mean loss over the live word slots against ``arrays.gold``, and
    when ``rng`` is given (training, with dropout) its pullback for
    ``autodiff.backward``."""
    encoded, encode_back = encode_batch(arrays, tables, params, rng, dropout_rate)
    logits, logits_back = batch_logits(encoded, params)
    loss, loss_back = ad.masked_cross_entropy_logits(logits, arrays.gold, arrays.mask.reshape(-1))
    if encode_back is None:
        return loss, None
    return loss, lambda g, grads: encode_back(logits_back(loss_back(g), grads), grads)


def predict_batch(arrays: BatchArrays, tables: Tables,
                  params: dict[str, np.ndarray]) -> list[list[int] | None]:
    """Per-sentence argmax tag ids; ties resolve to the lowest tag index.
    A sentence whose tag scores are not all finite, because weights that
    are finite but huge overflow the forward pass, gets None instead:
    numpy's overflow warnings are off for the pass, and this check
    replaces them."""
    with np.errstate(over="ignore", invalid="ignore"):
        logits, _ = batch_logits(encode_batch(arrays, tables, params)[0], params)
    shape = (arrays.max_len, arrays.batch_size)
    ids = logits.argmax(axis=-1).reshape(shape)
    finite = np.isfinite(logits).all(axis=-1).reshape(shape)
    return [list(ids[:n, j]) if finite[:n, j].all() else None
            for j, n in enumerate(arrays.lengths)]
