"""The gradient oracle: a small generic reverse-mode tape, the ops that
the per-step reference LSTM and the taped copy of the tagger need, and
the finite-difference gradient checker.

csner differentiates its one fixed graph by hand (``autodiff`` and
``model``).  This tape differentiates op by op instead, so the two can
be held against each other: each op records a closure that propagates
the output gradient to its parents, and ``backward`` replays the tape in
reverse topological order.  Its row gather scatters with ``np.add.at``,
not the sorted segment sum the model uses.
"""

import numpy as np


class Tensor:
    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward


def param(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _make(data, parents, backward) -> Tensor:
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, parents=parents, backward=backward)
    return Tensor(data)


def _accum(p: Tensor, g):
    if p.requires_grad:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
        p.grad += g


def _unbroadcast(g, shape):
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def backward(root: Tensor):
    """Accumulate d(root)/d(leaf) into each reachable leaf's ``.grad``."""
    # iterative topological order; graphs grow linearly with sequence length
    order = []
    visited = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        for p in parents:
            if id(p) not in visited and p.requires_grad:
                visited.add(id(p))
                stack.append((p, iter(p._parents)))
                break
        else:
            order.append(node)
            stack.pop()
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


def add(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(a.data + b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(a.data * b.data, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b with a of shape (..., k) and b a 2-D (k, m) matrix."""
    if b.data.ndim != 2 or a.data.shape[-1] != b.data.shape[0]:
        raise ValueError(f"matmul shapes {a.data.shape} and {b.data.shape}")
    k, m = b.data.shape

    def bw(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.reshape(-1, k).T @ g.reshape(-1, m))

    return _make(a.data @ b.data, (a, b), bw)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = list(tensors)
    bounds = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def bw(g):
        for t, piece in zip(tensors, np.split(g, bounds, axis=axis)):
            _accum(t, piece)

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bw)


def slice_axis(t: Tensor, axis: int, start: int, stop: int) -> Tensor:
    index = [slice(None)] * t.data.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)

    def bw(g):
        grad = np.zeros_like(t.data)
        grad[index] = g
        _accum(t, grad)

    return _make(t.data[index], (t,), bw)


def embedding(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row gather by non-negative ``indices``."""

    def bw(g):
        grad = np.zeros_like(table.data)
        np.add.at(grad, indices.reshape(-1), g.reshape(-1, table.data.shape[1]))
        _accum(table, grad)

    return _make(table.data[indices], (table,), bw)


def tanh(t: Tensor) -> Tensor:
    out = np.tanh(t.data)

    def bw(g):
        _accum(t, g * (1.0 - out * out))

    return _make(out, (t,), bw)


def sum_all(t: Tensor) -> Tensor:
    def bw(g):
        _accum(t, np.broadcast_to(g, t.data.shape))

    return _make(np.asarray(t.data.sum()), (t,), bw)


def cross_entropy(logits: Tensor, targets, mask) -> Tensor:
    """Mean of -log softmax(logits)[target] over the rows where ``mask``
    is 1; its gradient is (softmax - onehot(target)) * mask / count."""
    probs = np.exp(logits.data - logits.data.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    rows = np.arange(len(targets))
    count = mask.sum()

    def bw(g):
        d = probs.copy()
        d[rows, targets] -= 1.0
        _accum(logits, d * (mask * g / count)[:, None])

    return _make(np.asarray(-(np.log(probs[rows, targets]) * mask).sum() / count),
                 (logits,), bw)


def dropout(t: Tensor, rate: float, rng) -> Tensor:
    """The model's inverted dropout, drawing its mask the same way."""
    if rng is None or rate == 0.0:
        return t
    keep = (rng.random(t.data.shape) >= rate).astype(t.data.dtype)
    return mul(t, Tensor(keep / np.asarray(1.0 - rate, dtype=t.data.dtype)))


def batch_loss(arrays, tables, params, rng=None, dropout_rate=0.4) -> Tensor:
    """``model.batch_loss`` on the tape, the LSTMs stepped one taped step at
    a time (``lstm_reference``) over the padded inputs: the value, for
    ``backward`` to differentiate.  ``params`` maps each name to a Tensor.
    Dropout draws its masks in the model's order from the same ``rng``."""
    import lstm_reference  # here, not at the top: it builds on this module

    def bilstm(x, lengths, layer):
        return [lstm_reference.lstm_seq(x, lengths, *(params[f"{layer}_{d}.{k}"]
                                                      for k in ("wx", "wh", "b")),
                                        reverse=d == "bwd")
                for d in ("fwd", "bwd")]

    v_max, n_cols = arrays.char_idx.shape
    chars = embedding(params["char_embed"], arrays.char_idx.reshape(-1))
    h_fwd, h_bwd = bilstm(chars, arrays.char_lengths, "char")
    spellings = concat([slice_axis(h_fwd, 0, (v_max - 1) * n_cols, v_max * n_cols),
                        slice_axis(h_bwd, 0, 0, n_cols)], axis=1)
    word_flat = arrays.word_idx.reshape(-1)
    dtype = params["proj_w"].data.dtype
    fixed = tables.words.vectors[word_flat].astype(dtype)
    fixed[word_flat < 4] = 0.0
    onehot = (word_flat[:, None] == np.arange(4)).astype(dtype)
    x = add(Tensor(fixed), matmul(Tensor(onehot), params["word_specials"]))
    u = dropout(concat([x, embedding(spellings, arrays.spelling_idx)], axis=1), dropout_rate, rng)
    c = dropout(concat(bilstm(u, arrays.lengths, "word"), axis=1), dropout_rate, rng)
    logits = add(matmul(c, params["proj_w"]), params["proj_b"])
    return cross_entropy(logits, arrays.gold, arrays.mask.reshape(-1))


def finite_diff_check(loss, grads: dict, params: dict, h: float = 1e-4,
                      floor: float = 1e-3) -> float:
    """Max relative error between the analytic gradients ``grads`` and the
    central differences of ``loss``.

    ``loss()`` must be deterministic and return the loss of the arrays of
    ``params``, which this perturbs in place one entry at a time; it need
    not run backward, as ``grads`` (name -> gradient) was taken once
    before.  The relative error denominator is floored at ``floor`` so
    near-zero gradients are compared absolutely.  Run in float64.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    worst = 0.0
    for name, p in params.items():
        flat = p.reshape(-1)
        ana = grads[name].reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            up = float(loss())
            flat[i] = saved - h
            down = float(loss())
            flat[i] = saved
            numeric = (up - down) / (2.0 * h)
            err = abs(ana[i] - numeric) / max(abs(ana[i]), abs(numeric), floor)
            worst = max(worst, err)
    return worst
