"""Hand-written gradients for the tagger's one fixed graph, and Adam.

A differentiable function returns its value and a pullback: a closure
that maps the gradient of the value to the gradient of the input.  The
model's pullbacks also write their parameters' gradients into a name ->
array dict; ``backward`` seeds the loss's pullback with 1 and returns
that dict, and ``adam_step`` applies it.  Values are numpy arrays of
whatever float dtype the caller builds them with (float64 in tests,
float32 in production training).

Independent halves of the work, such as the two directions of a BiLSTM
or the two row halves of Adam's update, run at once through ``both``: the
second half on one worker thread while the first runs on the caller's.
numpy releases the GIL inside GEMMs and large ufuncs, so the halves
overlap on a second CPU; on one CPU the two threads take turns on it.
The LSTM ops keep their shapes and operands, and Adam's are elementwise,
so the bits are those of one thread.
"""

from __future__ import annotations

import os
# imported with the module: imported on first use, in the middle of a
# tagging pass, its long-lived objects sat among the pass's freed arrays,
# and `tag` peak RSS rose by about 5 MB in some process layouts
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np


_pool = None  # (pid, that process's one-worker ThreadPoolExecutor)


def _executor():
    """This process's one-worker pool, made on first use; a forked child
    makes its own, as it has no copy of its parent's thread."""
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        _pool = (os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="csner"))
    return _pool[1]


def both(first, second):
    """``(first(), second())``: ``second`` runs on the worker thread while
    ``first`` runs on this one, so neither may write what the other reads.
    An exception in either propagates once both have stopped, ``first``'s
    if both raise.  Both run under this thread's numpy error handling
    (``np.errstate``)."""
    errors = np.geterr()  # numpy's error handling is per thread: the caller's holds in both

    def second_here():
        with np.errstate(**errors):
            return second()

    future = _executor().submit(second_here)
    try:
        result = first()
    except BaseException:
        future.exception()  # waits for second to stop; first's exception wins
        raise
    return result, future.result()


def backward(loss: np.ndarray, pullback) -> dict[str, np.ndarray]:
    """The gradient of ``loss`` for every parameter its pullback reaches."""
    grads: dict[str, np.ndarray] = {}
    pullback(np.ones_like(loss), grads)
    return grads


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


def masked_cross_entropy_logits(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray):
    """Mean cross-entropy of log-softmax(logits) over unmasked steps, and
    its pullback; padding steps (mask 0) contribute nothing to either the
    value or the gradient."""
    total = float(mask.sum())
    if total == 0:
        raise ValueError("mask selects no positions")
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    sums = e.sum(axis=-1, keepdims=True)
    logp = z - np.log(sums)
    gathered = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    loss = np.asarray(-(gathered * mask).sum() / total, dtype=logits.dtype)

    def pullback(g):
        dz = e / sums
        np.put_along_axis(
            dz,
            targets[..., None],
            np.take_along_axis(dz, targets[..., None], axis=-1) - 1.0,
            axis=-1,
        )
        dz *= (mask * (g / total))[..., None]
        return dz

    return loss, pullback


# ---------------------------------------------------------------------------
# LSTM


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


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """One Adam update of every parameter by its gradient in ``grads``,
    which the caller has checked to be finite, with bias correction, in
    place: views of the first and second halves of every tensor's rows
    update at once through ``both``."""
    state.step += 1
    t = state.step
    correction1 = 1.0 - ADAM_BETA1**t
    correction2 = 1.0 - ADAM_BETA2**t
    for name, p in params.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)

    def update(second):
        for name, p in params.items():
            rows = slice(len(p) // 2, None) if second else slice(len(p) // 2)
            p, g, m, v = (a[rows] for a in (p, grads[name], state.m[name], state.v[name]))
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p -= lr * (m / correction1) / (np.sqrt(v / correction2) + ADAM_EPS)

    both(lambda: update(False), lambda: update(True))
