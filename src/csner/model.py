"""The hierarchical tagger: a bilingual character BiLSTM encodes each
word from its raw spelling, the result is concatenated with a fixed
pre-trained word vector, and a word-level BiLSTM plus a linear layer
produce per-token tag scores.

All internal computation is time-major: word position (t, b) lives at
flat row t*B + b.  Both BiLSTMs run one op, ``lstm_seq``, on the
packed live-row layout that this module builds: each step's live rows,
step after step, longest sequence first, so every step is a contiguous
row slice.  The word layer's states are put back in the padded (T*B)
layout with 0 in every padded slot, and the loss weighs padded words 0,
so padded inputs stay out of the loss and the gradients exactly (not
just approximately).

The graph is fixed, so it is differentiated by hand: each stage returns
its value and, in training (when an rng is given), a pullback that maps
the gradient of the value to that of its input and writes its
parameters' gradients by name; ``lstm_seq``'s is hand-written BPTT.
Inference makes no pullback, and keeps nothing that only backward would
read.  The loss, ``backward`` and Adam are in ``autodiff``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .corpus_io import TAG_INDEX, TAGS, TaggedSentence
from .embeddings import SPECIAL_TOKENS, CharVocabulary, EmbeddingTable

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
                  word_specials=(len(SPECIAL_TOKENS), cfg.word_dim))
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
    already be, as ``lstm_seq`` checks.
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


def gather_pullback(indices: np.ndarray, n_rows: int):
    """The backward of the row gather ``table[indices]`` from a table of
    ``n_rows`` rows, as a function of the gathered rows' gradient: each
    table row's gradients summed as one segment of the stably sorted
    ``indices`` (1-D, non-negative).  The sort is done once, here, for
    every gradient the function is given."""
    order = np.argsort(indices, kind="stable")
    ids = indices[order]
    starts = np.flatnonzero(np.diff(ids, prepend=-1))

    def pullback(g: np.ndarray) -> np.ndarray:
        out = np.zeros((n_rows, g.shape[1]), dtype=g.dtype)
        if indices.size:
            # four blocks of columns, so that the sorted copy is a quarter
            # of g; a column's sums do not depend on its neighbours
            width = -(-g.shape[1] // 4)
            for cols in range(0, g.shape[1], width):
                block = slice(cols, cols + width)
                out[ids[starts], block] = np.add.reduceat(g[order, block], starts, axis=0)
        return out

    return pullback


def _activate_gates(z, n: int) -> None:
    """In place: sigmoid on the i, f and o blocks of ``z``, tanh on g.

    The sigmoid is taken as 0.5*(1 + tanh(x/2)): in-place ufuncs with no
    boolean masks, and exactly 0 or 1 once tanh saturates.
    """
    z[:, : 2 * n] *= 0.5
    z[:, 3 * n :] *= 0.5
    np.tanh(z, out=z)
    for block in (z[:, : 2 * n], z[:, 3 * n :]):
        block += 1.0
        block *= 0.5


def _backprop_steps(dz_all, g_out, wh, cells, live, offsets, order, batch: int, final: bool) -> None:
    """The step loop of ``lstm_seq``'s pullback, in place: the gate history
    ``dz_all`` becomes the gradients of the gates' pre-activations.
    ``cells`` holds each step's incoming cell state, packed like the
    history, as the forward kept it."""
    n = wh.shape[0]
    dh, dc = np.zeros((2, batch, n), dtype=dz_all.dtype)
    if final:  # the last step runs first here
        dh += g_out
    # every step's temporaries, one row per sequence, made once
    scratch = np.empty((4, batch, n), dtype=dz_all.dtype)
    for t in reversed(order):
        k = live[t]
        # the step's activated gates, replaced below by the gradients
        # of their pre-activations
        dz = dz_all[offsets[t] : offsets[t] + k]
        i, f, g, o = (dz[:, j * n : (j + 1) * n] for j in range(4))
        c_prev = cells[offsets[t] : offsets[t] + k]
        tc, tmp, dc_new, i_dc = scratch[:, :k]
        np.multiply(c_prev, f, out=tc)  # the step's new cell, as forward computed it
        np.multiply(i, g, out=tmp)
        tc += tmp
        np.tanh(tc, out=tc)
        dh_live, dc_live = dh[:k], dc[:k]
        if not final:
            dh_live += g_out[offsets[t] : offsets[t] + k]
        np.multiply(tc, tc, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        tmp *= o
        tmp *= dh_live
        np.add(dc_live, tmp, out=dc_new)
        np.multiply(dc_new, f, out=dc_live)
        np.multiply(i, dc_new, out=i_dc)
        np.subtract(1.0, i, out=tmp)  # i: i(1-i) * g * dc'
        tmp *= g
        tmp *= dc_new
        i *= tmp
        np.subtract(1.0, f, out=tmp)  # f: f(1-f) * c * dc'
        tmp *= c_prev
        tmp *= dc_new
        f *= tmp
        g *= g  # g: (1-g^2) * i * dc'
        np.subtract(1.0, g, out=g)
        g *= i_dc
        np.subtract(1.0, o, out=tmp)  # o: o(1-o) * tanh(c') * dh'
        tmp *= tc
        tmp *= dh_live
        o *= tmp
        if t != order[0]:  # the direction's first step has no previous h to pass dh to
            np.matmul(dz, wh.T, out=dh_live)


def lstm_seq(xw: np.ndarray, lengths, wh: np.ndarray, b: np.ndarray, reverse: bool = False,
             final: bool = False, rows: np.ndarray | None = None, keep: bool = True):
    """One LSTM direction over B sequences in T = ``lengths[0]`` steps.

    ``lengths`` holds the sequences' lengths, longest first, so at every
    step the live rows come first.  The input projections x @ wx of the
    live rows are packed in step order: step 0's live rows, then step
    1's, and so on.  They are ``xw[rows]``, or ``xw`` itself when
    ``rows`` is None.  ``wh`` (hidden, 4*hidden) and ``b`` (4*hidden,)
    have their gate columns blocked [input | forget | candidate |
    output].  From a zero state the steps run in order (last to first
    when ``reverse``) through the gated update c' = f*c + i*g,
    h' = o*tanh(c') for the live rows only.  Returns the live rows' h,
    packed like the projections (sum(lengths), hidden), and its
    pullback, which takes their gradient in the same layout.  With
    ``final`` it returns only each sequence's h after the direction's
    last step, (B, hidden), and the pullback takes the gradient of that
    alone.

    The op consumes ``xw``, a buffer nothing else may read afterwards.
    When ``keep``, the packed projections are its gate history: each
    step adds h @ wh and b into its rows, and the forward keeps each
    step's incoming h and c, packed like the history.  The pullback is
    hand-written BPTT and runs once.  It reads those states, overwrites
    the history with the gates' pre-activation gradients and returns
    that buffer as the packed projections' gradient, with those of wh
    and b: one GEMM and one reduction over the live rows.  Without
    ``keep`` (inference) the pullback is None and no history is made:
    given ``rows``, each step gathers its rows of ``xw`` into one
    (B, 4*hidden) buffer that every step reuses.  With ``final`` no
    packed output is made either.  A step's values are the same copies
    of the same products either way, and so are its bits.
    """
    lengths = np.asarray(lengths)
    batch = len(lengths)
    n = wh.shape[0]
    n_steps = int(lengths.max(initial=0))  # lengths[0], once they are checked
    counts = (np.arange(n_steps)[:, None] < lengths).sum(axis=1)
    shape = (len(xw) if rows is None else len(rows), *xw.shape[1:])
    if shape != (counts.sum(), 4 * n) or (np.diff(lengths) > 0).any():
        raise ValueError(f"projections {shape}, lengths {lengths.tolist()}: "
                         f"expected (sum(lengths), {4 * n}), lengths[0] >= lengths[1] >= ...")
    # checked once: each step's np.take clips, which writes straight into
    # the step's buffer, where its "raise" mode would write a copy first
    if rows is not None and len(rows) and not 0 <= rows.min() <= rows.max() < len(xw):
        raise IndexError(f"row indices outside the {len(xw)} projections")
    live = counts.tolist()
    offsets = (np.cumsum(counts) - counts).tolist()
    history = xw if rows is None else xw[rows] if keep else None
    step_z = np.empty((batch, 4 * n), dtype=xw.dtype) if history is None else None
    h_in, c_in = np.empty((2, shape[0], n), dtype=xw.dtype) if keep else (None, None)
    states = None if final else np.empty((shape[0], n), dtype=xw.dtype)
    h, c = np.zeros((2, batch, n), dtype=xw.dtype)
    order = range(n_steps - 1, -1, -1) if reverse else range(n_steps)
    for t in order:
        k, at = live[t], slice(offsets[t], offsets[t] + live[t])
        z = history[at] if step_z is None else np.take(xw, rows[at], 0, step_z[:k], "clip")
        if keep:
            h_in[at], c_in[at] = h[:k], c[:k]
        z += h[:k] @ wh
        z += b
        _activate_gates(z, n)
        c_live = c[:k]
        c_live *= z[:, n : 2 * n]
        c_live += z[:, :n] * z[:, 2 * n : 3 * n]
        np.tanh(c_live, out=h[:k])
        h[:k] *= z[:, 3 * n :]
        if states is not None:
            states[at] = h[:k]
    if not keep:
        return (h if final else states), None
    kept = history, h_in, c_in

    def pullback(g_out):
        nonlocal kept
        if kept is None:
            raise RuntimeError("lstm_seq backward already ran for this forward")
        (dz_all, h_prev, c_prev), kept = kept, None
        _backprop_steps(dz_all, g_out, wh, c_prev, live, offsets, order, batch, final)
        # the direction's first step starts from h = 0 and is left out
        first = live[order[0]] if live else 0
        later = slice(0, len(dz_all) - first) if reverse else slice(first, len(dz_all))
        return dz_all, h_prev[later].T @ dz_all[later], dz_all.sum(axis=0)

    return (h if final else states), pullback


def _run_bilstm(x, rows, lengths, params: dict[str, np.ndarray], layer: str, keep: bool,
                final: bool = False, at_once: bool = True):
    """Both directions of ``layer`` (its ``<layer>_fwd``/``_bwd`` tensors)
    over B sequences of the given ``lengths``, longest first.  A
    direction's packed live-row projections (``lstm_seq``) are
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
    gather_back = gather_pullback(rows, len(x)) if keep and rows is not None else None

    def direction(d):
        name, reverse = f"{layer}_{d}", d == "bwd"
        wx = params[f"{name}.wx"]
        h, lstm_back = lstm_seq(x @ wx, lengths, params[f"{name}.wh"], params[f"{name}.b"],
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
    """Fixed-row lookup plus the trainable special rows, PAD/UNK/USR/URL.
    Returns the vectors and the one-hot, a column per special row, that
    picks them: their gradient is onehot.T @ (the vectors' gradient)."""
    dtype = params["proj_w"].dtype
    vectors = table.vectors[word_flat].astype(dtype, copy=False)
    special = word_flat < len(SPECIAL_TOKENS)
    vectors[special] = 0.0
    onehot = np.zeros((word_flat.size, len(SPECIAL_TOKENS)), dtype=dtype)
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
        spellings_back = gather_pullback(arrays.spelling_idx, len(arrays.char_lengths))
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
    rng: np.random.Generator,
    dropout_rate: float,
):
    """The training loss, the mean over the live word slots against
    ``arrays.gold`` with ``rng`` drawing the dropout masks, and its
    pullback for ``autodiff.backward``.  ``predict_batch`` is the
    inference pass."""
    encoded, encode_back = encode_batch(arrays, tables, params, rng, dropout_rate)
    logits, logits_back = batch_logits(encoded, params)
    loss, loss_back = ad.masked_cross_entropy_logits(logits, arrays.gold, arrays.mask.reshape(-1))
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
