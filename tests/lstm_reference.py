"""Per-step LSTM built from the oracle tape's ops (``reference_ops``): the
reference the fused ``model.lstm_seq`` is checked against.

Each step tapes its own matmuls, slices, gate activations and masked
blend, so its gradients come from the generic backward closures rather
than hand-written BPTT.  It builds its own per-step mask from the
lengths and needs them in no particular order.
"""

import numpy as np

import reference_ops as ref


def sigmoid(t):
    """0.5 + 0.5*tanh(x/2), composed so the tape differentiates it."""
    half = ref.Tensor(np.asarray(0.5, dtype=t.data.dtype))
    return ref.add(half, ref.mul(half, ref.tanh(ref.mul(t, half))))


def lstm_step(x, h, c, wx, wh, b):
    """c' = f*c + i*g, h' = o*tanh(c') with gate blocks [i | f | g | o]."""
    n = wh.data.shape[0]
    z = ref.add(ref.add(ref.matmul(x, wx), ref.matmul(h, wh)), b)
    i = sigmoid(ref.slice_axis(z, -1, 0, n))
    f = sigmoid(ref.slice_axis(z, -1, n, 2 * n))
    g = ref.tanh(ref.slice_axis(z, -1, 2 * n, 3 * n))
    o = sigmoid(ref.slice_axis(z, -1, 3 * n, 4 * n))
    c_new = ref.add(ref.mul(f, c), ref.mul(i, g))
    return ref.mul(o, ref.tanh(c_new)), c_new


def masked(new, prev, m):
    """new where m is 1, prev where m is 0, as a taped blend."""
    return ref.add(ref.mul(new, ref.Tensor(m)), ref.mul(prev, ref.Tensor(1.0 - m)))


def lstm_seq(x, lengths, wx, wh, b, reverse=False):
    """``model.lstm_seq``'s recurrence, one taped step at a time, on
    the padded flat time-major ``x`` (T*B, n_in) with its own ``wx``."""
    batch = len(lengths)
    n_steps = len(x.data) // batch
    dtype = x.data.dtype
    mask = (np.arange(n_steps)[:, None] < np.asarray(lengths)).astype(dtype)
    n = wh.data.shape[0]
    h = ref.Tensor(np.zeros((batch, n), dtype=dtype))
    c = ref.Tensor(np.zeros((batch, n), dtype=dtype))
    outs = [None] * n_steps
    for t in (reversed(range(n_steps)) if reverse else range(n_steps)):
        x_t = ref.slice_axis(x, 0, t * batch, (t + 1) * batch)
        h_new, c_new = lstm_step(x_t, h, c, wx, wh, b)
        m = mask[t][:, None]
        h, c = masked(h_new, h, m), masked(c_new, c, m)
        outs[t] = h
    return ref.concat(outs, axis=0)
