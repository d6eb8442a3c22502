"""Ops that only the tests need, on the engine's tape: ``tanh`` and
``sum_all`` for the per-step reference LSTM and the test losses, and
the finite-difference gradient checker."""

import numpy as np

from csner import autodiff as ad
from csner.autodiff import Tensor, _accum, _grad, _make


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


def finite_diff_check(loss_fn, params: dict[str, Tensor], h: float = 1e-4,
                      floor: float = 1e-3) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` must be deterministic and return a scalar Tensor.  The
    relative error denominator is floored at ``floor`` so near-zero
    gradients are compared absolutely.  Run in float64.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    ad.zero_grads(params)
    loss = loss_fn()
    ad.backward(loss)
    analytic = {name: _grad(p).copy() for name, p in params.items()}
    worst = 0.0
    flags = [(p, p.requires_grad) for p in params.values()]
    for p, _ in flags:
        p.requires_grad = False  # the numeric evaluations build no tape
    try:
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
    finally:
        for p, flag in flags:
            p.requires_grad = flag
    return worst
