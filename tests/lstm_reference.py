"""Per-step LSTM built from the engine's primitive ops: the reference the
fused ``autodiff.lstm_seq`` is checked against.

Each step tapes its own matmuls, slices, gate activations and masked
blend, so its gradients come from the generic backward closures rather
than hand-written BPTT.  It builds its own per-step mask from the
lengths and needs them in no particular order.
"""

import numpy as np

from csner import autodiff as ad
from reference_ops import tanh


def sigmoid(t):
    """0.5 + 0.5*tanh(x/2), composed so the tape differentiates it."""
    half = ad.Tensor(np.asarray(0.5, dtype=t.data.dtype))
    return ad.add(half, ad.mul(half, tanh(ad.mul(t, half))))


def lstm_step(x, h, c, wx, wh, b):
    """c' = f*c + i*g, h' = o*tanh(c') with gate blocks [i | f | g | o]."""
    n = wh.data.shape[0]
    z = ad.add(ad.add(ad.matmul(x, wx), ad.matmul(h, wh)), b)
    i = sigmoid(ad.slice_axis(z, -1, 0, n))
    f = sigmoid(ad.slice_axis(z, -1, n, 2 * n))
    g = tanh(ad.slice_axis(z, -1, 2 * n, 3 * n))
    o = sigmoid(ad.slice_axis(z, -1, 3 * n, 4 * n))
    c_new = ad.add(ad.mul(f, c), ad.mul(i, g))
    return ad.mul(o, tanh(c_new)), c_new


def masked(new, prev, m):
    """new where m is 1, prev where m is 0, as a taped blend."""
    return ad.add(ad.mul(new, ad.Tensor(m)), ad.mul(prev, ad.Tensor(1.0 - m)))


def lstm_seq(x, lengths, wx, wh, b, reverse=False):
    """Same contract as ``autodiff.lstm_seq``, one taped step at a time."""
    batch = len(lengths)
    n_steps = len(x.data) // batch
    dtype = x.data.dtype
    mask = (np.arange(n_steps)[:, None] < np.asarray(lengths)).astype(dtype)
    n = wh.data.shape[0]
    h = ad.Tensor(np.zeros((batch, n), dtype=dtype))
    c = ad.Tensor(np.zeros((batch, n), dtype=dtype))
    outs = [None] * n_steps
    for t in (reversed(range(n_steps)) if reverse else range(n_steps)):
        x_t = ad.slice_axis(x, 0, t * batch, (t + 1) * batch)
        h_new, c_new = lstm_step(x_t, h, c, wx, wh, b)
        m = mask[t][:, None]
        h, c = masked(h_new, h, m), masked(c_new, c, m)
        outs[t] = h
    return ad.concat(outs, axis=0)


def run_bilstm(project, lengths, n_steps, params, layer):
    """Drop-in for ``model._run_bilstm`` on the per-step reference.

    The model's ``project`` applied to an identity matrix gives the live
    rows of the unprojected input, taped back to where they came from.
    They are spread into a padded time-major input, its padding rows
    zero, and each direction projects it step by step with its own wx.
    """
    n_in = params[f"{layer}_fwd.wx"].data.shape[0]
    dtype = params[f"{layer}_fwd.wx"].data.dtype
    x_live = project(ad.Tensor(np.eye(n_in, dtype=dtype)))
    alive = (np.arange(n_steps)[:, None] < np.asarray(lengths)).reshape(-1)
    # stacked under one zero row: each live row takes its row of x_live,
    # each padding row the zero row
    rows = np.where(alive, np.cumsum(alive), 0)
    zeros = ad.Tensor(np.zeros((1, n_in), dtype=dtype))
    x = ad.embedding(ad.concat([zeros, x_live], axis=0), rows)
    fwd, bwd = ([params[f"{layer}_{d}.{k}"] for k in ("wx", "wh", "b")] for d in ("fwd", "bwd"))
    return lstm_seq(x, lengths, *fwd), lstm_seq(x, lengths, *bwd, reverse=True)


def tape_size(root):
    """Number of distinct tensors reachable from ``root`` through the tape."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)
