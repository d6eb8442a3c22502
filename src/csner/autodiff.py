"""Dense tensors with reverse-mode differentiation.

A deliberately small engine: each operation records a closure that
propagates the output gradient to its parents, and ``backward`` replays
the tape in reverse topological order.  Values are numpy arrays of
whatever float dtype the caller builds them with (float64 in tests,
float32 in production training).

An operation records only when one of its parents requires a gradient,
so a forward pass over untaped tensors (inference, finite differences)
builds no tape.  A tape belongs to one thread; run concurrent models on
separate instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NonFiniteGradient(FloatingPointError):
    """A NaN or infinity reached the optimizer."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"


def param(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _recording(parents) -> bool:
    return any(p.requires_grad for p in parents)


def _make(data, parents, backward) -> Tensor:
    if _recording(parents):
        return Tensor(data, requires_grad=True, parents=parents, backward=backward)
    return Tensor(data)


def _grad(t: Tensor):
    """``t``'s gradient buffer, zero-filled on first use."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    return t.grad


def _accum(p: Tensor, g):
    if p.requires_grad:
        grad = _grad(p)
        grad += g


def _accum_fresh(p: Tensor, g):
    """``_accum`` for a ``g`` nothing else holds: it becomes the buffer."""
    if p.requires_grad and p.grad is None and g.dtype == p.data.dtype:
        p.grad = g
    else:
        _accum(p, g)


def _unbroadcast(g, shape):
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def backward(root: Tensor):
    """Accumulate d(root)/d(leaf) into each reachable leaf's ``.grad``;
    an op's output drops its gradient once the op has passed it on."""
    # iterative topological order; graphs grow linearly with sequence length
    order = []
    visited = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if id(p) not in visited and p.requires_grad:
                visited.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    _grad(root)[...] += 1.0
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)
            node.grad = None


# ---------------------------------------------------------------------------
# primitive operations


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b with a of shape (..., k) and b a 2-D (k, m) matrix."""
    if b.data.ndim != 2 or a.data.shape[-1] != b.data.shape[0]:
        raise ValueError(f"matmul shapes {a.data.shape} and {b.data.shape}")
    data = a.data @ b.data
    k, m = b.data.shape

    def bw(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.reshape(-1, k).T @ g.reshape(-1, m))

    return _make(data, (a, b), bw)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    bounds = np.cumsum(sizes)[:-1]

    def bw(g):
        for t, piece in zip(tensors, np.split(g, bounds, axis=axis)):
            _accum(t, piece)

    return _make(data, tuple(tensors), bw)


def slice_axis(t: Tensor, axis: int, start: int, stop: int) -> Tensor:
    index = [slice(None)] * t.data.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    data = t.data[index]

    def bw(g):
        if t.requires_grad:
            _grad(t)[index] += g

    return _make(data, (t,), bw)


def embedding(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row gather by non-negative ``indices``; backward sums each row's
    gradients as one segment of the stably sorted indices."""
    data = table.data[indices]

    def bw(g):
        if table.requires_grad and indices.size:
            order = np.argsort(indices, axis=None, kind="stable")
            ids = indices.reshape(-1)[order]
            starts = np.flatnonzero(np.diff(ids, prepend=-1))
            rows = g.reshape(-1, table.data.shape[1])[order]
            _grad(table)[ids[starts]] += np.add.reduceat(rows, starts, axis=0)

    return _make(data, (table,), bw)


def dropout(t: Tensor, rate: float, rng=None) -> Tensor:
    """Inverted dropout with its mask drawn from ``rng``: survivors are
    scaled by 1/(1-rate).  Without an rng (inference) it is the identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    if rng is None or rate == 0.0:
        return t
    keep = (rng.random(t.data.shape) >= rate).astype(t.data.dtype)
    mask = keep / np.asarray(1.0 - rate, dtype=t.data.dtype)
    return mul(t, Tensor(mask))


def masked_cross_entropy_logits(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean cross-entropy of log-softmax(logits) over unmasked steps; padding
    steps (mask 0) contribute nothing to either the value or the gradient."""
    total = float(mask.sum())
    if total == 0:
        raise ValueError("mask selects no positions")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    sums = e.sum(axis=-1, keepdims=True)
    logp = z - np.log(sums)
    gathered = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    data = np.asarray(-(gathered * mask).sum() / total, dtype=logits.data.dtype)

    def bw(g):
        if logits.requires_grad:
            dz = e / sums
            np.put_along_axis(
                dz,
                targets[..., None],
                np.take_along_axis(dz, targets[..., None], axis=-1) - 1.0,
                axis=-1,
            )
            dz *= (mask * (g / total))[..., None]
            _accum(logits, dz)

    return _make(data, (logits,), bw)


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


def lstm_seq(xw: Tensor, lengths, wh: Tensor, b: Tensor, n_steps: int,
             reverse: bool = False) -> Tensor:
    """One LSTM direction over B sequences in ``n_steps`` (T) steps, as one op.

    ``lengths`` holds the sequences' lengths, longest first and at most T,
    so at every step the live rows come first.  ``xw`` holds the input
    projections x @ wx of the live rows only, packed in step order: step
    0's live rows, then step 1's, and so on.  ``wh`` (hidden, 4*hidden)
    and ``b`` (4*hidden,) have their gate columns blocked [input | forget
    | candidate | output].  From a zero state the steps run in order
    (last to first when ``reverse``) through the gated update
    c' = f*c + i*g, h' = o*tanh(c') for the live rows only; the others
    carry h and c through.  Returns the carried h of every step, flat
    time-major (T*B, hidden).

    The op consumes ``xw``, a buffer nothing else may read afterwards:
    it adds h @ wh and b into it, so it becomes the gate history.  The
    taped op also keeps each step's incoming cell state.  Backward is
    hand-written BPTT: it overwrites the history with the gates'
    pre-activation gradients and hands that buffer back as ``xw``'s
    gradient, so it can run once per forward; the gradients of wh and b
    are one GEMM and one reduction over the live rows.
    """
    lengths = np.asarray(lengths)
    batch = len(lengths)
    zs, whs, bs = xw.data, wh.data, b.data
    n = whs.shape[0]
    alive = np.arange(n_steps)[:, None] < lengths
    counts = alive.sum(axis=1)
    if zs.shape != (counts.sum(), 4 * n) or lengths[0] > n_steps or (np.diff(lengths) > 0).any():
        raise ValueError(f"projections {zs.shape}, lengths {lengths.tolist()}, T = {n_steps}: "
                         f"expected (sum(lengths), {4 * n}), T >= lengths[0] >= lengths[1] >= ...")
    live = counts.tolist()
    offsets = (np.cumsum(counts) - counts).tolist()
    taped = _recording((xw, wh, b))
    out = np.empty((n_steps * batch, n), dtype=zs.dtype)
    if taped:
        cells = np.empty((len(zs), n), dtype=zs.dtype)
    h, c = np.zeros((2, batch, n), dtype=zs.dtype)
    order = range(n_steps - 1, -1, -1) if reverse else range(n_steps)
    for t in order:
        k = live[t]
        z = zs[offsets[t] : offsets[t] + k]
        z += h[:k] @ whs
        z += bs
        _activate_gates(z, n)
        c_live = c[:k]
        if taped:
            cells[offsets[t] : offsets[t] + k] = c_live
        c_live *= z[:, n : 2 * n]
        c_live += z[:, :n] * z[:, 2 * n : 3 * n]
        np.tanh(c_live, out=h[:k])
        h[:k] *= z[:, 3 * n :]
        out[t * batch : (t + 1) * batch] = h
    if not taped:
        return Tensor(out)

    def bw(g_out):
        nonlocal zs, cells
        if zs is None:
            raise RuntimeError("lstm_seq backward already ran for this forward")
        dz_all, cells_all = zs, cells
        zs = cells = None
        dh, dc = np.zeros((2, batch, n), dtype=dz_all.dtype)
        for t in reversed(order):
            k = live[t]
            start = t * batch
            # the step's activated gates, replaced below by the gradients
            # of their pre-activations
            dz = dz_all[offsets[t] : offsets[t] + k]
            i, f, g, o = (dz[:, j * n : (j + 1) * n] for j in range(4))
            c_prev = cells_all[offsets[t] : offsets[t] + k]
            tc = c_prev * f  # the step's new cell, as forward computed it
            tc += i * g
            np.tanh(tc, out=tc)
            dh += g_out[start : start + batch]
            dh_live, dc_live = dh[:k], dc[:k]
            tmp = tc * tc
            np.subtract(1.0, tmp, out=tmp)
            tmp *= o
            tmp *= dh_live
            dc_new = dc_live + tmp
            np.multiply(dc_new, f, out=dc_live)
            i_dc = i * dc_new
            tmp = 1.0 - i  # i: i(1-i) * g * dc'
            tmp *= g
            tmp *= dc_new
            i *= tmp
            tmp = 1.0 - f  # f: f(1-f) * c * dc'
            tmp *= c_prev
            tmp *= dc_new
            f *= tmp
            g *= g  # g: (1-g^2) * i * dc'
            np.subtract(1.0, g, out=g)
            g *= i_dc
            tmp = 1.0 - o  # o: o(1-o) * tanh(c') * dh'
            tmp *= tc
            tmp *= dh_live
            o *= tmp
            np.matmul(dz, whs.T, out=dh_live)
        # a step's previous h is the neighbouring step's block of ``out``;
        # the direction's first step starts from h = 0 and is left out
        rows = np.flatnonzero(alive)  # each history row's row of ``out``
        first = live[order[0]] if live else 0
        later = slice(0, len(rows) - first) if reverse else slice(first, len(rows))
        prev_rows = rows[later] + (batch if reverse else -batch)
        _accum_fresh(wh, out[prev_rows].T @ dz_all[later])
        _accum_fresh(b, dz_all.sum(axis=0))
        _accum_fresh(xw, dz_all)

    return _make(out, (xw, wh, b), bw)


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


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """One Adam update with bias correction, in place.

    Parameters with no accumulated gradient are treated as having zero
    gradient.  Raises NonFiniteGradient before touching anything if any
    gradient is NaN or infinite.
    """
    for name, p in params.items():
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise NonFiniteGradient(f"non-finite gradient in {name}")
    state.step += 1
    t = state.step
    correction1 = 1.0 - ADAM_BETA1**t
    correction2 = 1.0 - ADAM_BETA2**t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / correction1
        v_hat = v / correction2
        p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None
