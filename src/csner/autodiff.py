"""Dense tensors with reverse-mode differentiation.

A deliberately small engine: each operation records a closure that
propagates the output gradient to its parents, and ``backward`` replays
the tape in reverse topological order.  Values are numpy arrays of
whatever float dtype the caller builds them with (float64 in tests,
float32 in production training).

A tape belongs to one thread; run concurrent models on separate
instances.  Whether operations record at all is per-thread too
(``no_grad`` in one thread leaves every other thread taping).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np


class NonFiniteGradient(FloatingPointError):
    """A NaN or infinity reached the optimizer."""


# a context variable, so each thread (and each asyncio task) has its own flag
_grad_enabled: ContextVar[bool] = ContextVar("grad_enabled", default=True)


@contextmanager
def no_grad():
    """Disable tape recording in this thread (inference, finite differences)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


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
    return _grad_enabled.get() and any(p.requires_grad for p in parents)


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


def backward(root: Tensor, seed=None):
    """Accumulate d(root)/d(leaf) into each reachable leaf's ``.grad``."""
    if seed is None:
        seed = np.ones_like(root.data)
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
    grad = _grad(root)
    grad += seed
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


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


def tanh(t: Tensor) -> Tensor:
    out = np.tanh(t.data)

    def bw(g):
        _accum(t, g * (1.0 - out * out))

    return _make(out, (t,), bw)


def sum_all(t: Tensor) -> Tensor:
    data = np.asarray(t.data.sum())

    def bw(g):
        _accum(t, np.broadcast_to(g, t.data.shape))

    return _make(data, (t,), bw)


def embedding(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row gather; gradients scatter-add back into the table."""
    data = table.data[indices]

    def bw(g):
        if table.requires_grad:
            np.add.at(_grad(table), indices.reshape(-1), g.reshape(-1, table.data.shape[1]))

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


@dataclass
class LstmParams:
    """One direction's weights; gate columns are blocked [input | forget |
    candidate | output]."""

    wx: Tensor  # input_size x 4*hidden
    wh: Tensor  # hidden x 4*hidden
    b: Tensor  # 4*hidden

    def tensors(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.wx": self.wx, f"{prefix}.wh": self.wh, f"{prefix}.b": self.b}


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


def lstm_seq(x: Tensor, mask: np.ndarray, p: LstmParams, reverse: bool = False) -> Tensor:
    """One LSTM direction over a whole padded sequence, as a single op.

    ``x`` is flat time-major, shape (T*B, input_size): step t lives at
    rows [t*B, (t+1)*B).  ``mask`` is (T, B), and at every step its live
    rows must come first: sort the sequences longest first.  Starting
    from a zero state the steps run in order (last to first when
    ``reverse``) through the standard gated update c' = f*c + i*g,
    h' = o*tanh(c'), computed for the live rows only; the other rows
    carry h and c through untouched.  Returns the carried h of every
    step, shape (T*B, hidden).

    Backward is hand-written BPTT over the whole sequence.  When the
    result is taped, each step's activated gates and incoming cell state
    are kept for its live rows only, packed: step t holds rows
    [offsets[t], offsets[t] + live[t]) of the history.  Backward
    overwrites the gates with their gradients, so it can run once per
    forward, and the gradients of x, wx, wh and b are each one GEMM or
    reduction over the live rows alone.
    """
    n_steps, batch = mask.shape
    n = p.wh.data.shape[0]
    expected = (n_steps * batch, p.wx.data.shape[0])
    if x.data.shape != expected:
        raise ValueError(f"input shape {x.data.shape}, expected {expected}")
    alive = mask > 0
    counts = alive.sum(axis=1)
    if not np.array_equal(alive, np.arange(batch) < counts[:, None]):
        raise ValueError("mask is not a prefix at every step: live rows must come first")
    live = counts.tolist()
    parents = (x, p.wx, p.wh, p.b)
    taped = _recording(parents)
    xs, wx, wh, b = x.data, p.wx.data, p.wh.data, p.b.data
    dtype = np.result_type(xs, wx)
    out = np.empty((n_steps * batch, n), dtype=dtype)
    if taped:
        offsets = (np.cumsum(counts) - counts).tolist()
        gates = np.empty((int(counts.sum()), 4 * n), dtype=dtype)
        cells = np.empty((len(gates), n), dtype=dtype)
    else:
        scratch = np.empty((batch, 4 * n), dtype=dtype)
    h = np.zeros((batch, n), dtype=dtype)
    c = np.zeros((batch, n), dtype=dtype)
    order = range(n_steps - 1, -1, -1) if reverse else range(n_steps)
    for t in order:
        k = live[t]
        start = t * batch
        z = gates[offsets[t] : offsets[t] + k] if taped else scratch[:k]
        np.matmul(xs[start : start + k], wx, out=z)
        z += h[:k] @ wh
        z += b
        _activate_gates(z, n)
        c_live = c[:k]
        if taped:
            cells[offsets[t] : offsets[t] + k] = c_live
        c_live *= z[:, n : 2 * n]
        c_live += z[:, :n] * z[:, 2 * n : 3 * n]
        np.tanh(c_live, out=h[:k])
        h[:k] *= z[:, 3 * n :]
        out[start : start + batch] = h
    if not taped:
        return Tensor(out)

    def bw(g_out):
        nonlocal gates, cells
        if gates is None:
            raise RuntimeError("lstm_seq backward already ran for this forward")
        dz_all, cells_all = gates, cells
        gates = cells = None
        dh = np.zeros((batch, n), dtype=dtype)
        dc = np.zeros((batch, n), dtype=dtype)
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
            np.matmul(dz, wh.T, out=dh_live)
        rows = np.flatnonzero(alive)  # the live rows of x, in history order
        if x.requires_grad:
            dx = np.zeros(xs.shape, dtype=dtype)
            dx[rows] = dz_all @ wx.T
            _accum_fresh(x, dx)
        _accum_fresh(p.wx, xs[rows].T @ dz_all)
        # a step's previous h is the neighbouring step's block of ``out``;
        # the direction's first step starts from h = 0 and is left out
        first = live[order[0]] if live else 0
        later = slice(0, len(rows) - first) if reverse else slice(first, len(rows))
        prev_rows = rows[later] + (batch if reverse else -batch)
        _accum_fresh(p.wh, out[prev_rows].T @ dz_all[later])
        _accum_fresh(p.b, dz_all.sum(axis=0))

    return _make(out, parents, bw)


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
    correction1 = 1.0 - state.beta1**t
    correction2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / correction1
        v_hat = v / correction2
        p.data -= lr * m_hat / (np.sqrt(v_hat) + state.eps)


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


# ---------------------------------------------------------------------------
# verification


def finite_diff_check(loss_fn, params: dict[str, Tensor], h: float = 1e-4,
                      floor: float = 1e-3) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` must be deterministic and return a scalar Tensor.  The
    relative error denominator is floored at ``floor`` so near-zero
    gradients are compared absolutely.  Run in float64.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    zero_grads(params)
    loss = loss_fn()
    backward(loss)
    analytic = {name: _grad(p).copy() for name, p in params.items()}
    worst = 0.0
    with no_grad():
        for name, p in params.items():
            flat = p.data.reshape(-1)
            ana = analytic[name].reshape(-1)
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + h
                up = float(loss_fn().data)
                flat[i] = saved - h
                down = float(loss_fn().data)
                flat[i] = saved
                numeric = (up - down) / (2.0 * h)
                err = abs(ana[i] - numeric) / max(abs(ana[i]), abs(numeric), floor)
                worst = max(worst, err)
    return worst
