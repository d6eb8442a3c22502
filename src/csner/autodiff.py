"""What the training step runs after the network: the loss, ``backward``
and Adam, and ``both``, which Adam and the BiLSTM layers share.

The model's stages (``model.py``) each return their value and a
pullback: a closure that maps the gradient of the value to that of its
input and writes its parameters' gradients into a name -> array dict.
``masked_cross_entropy_logits`` is the last stage, ``backward`` seeds
its pullback with 1 and returns that dict, and ``adam_step`` applies
it.  Values are numpy arrays of whatever float dtype the caller builds
them with (float64 in tests, float32 in production training).

``both`` runs two independent halves of the work at once, such as the
two directions of a BiLSTM or the two row halves of Adam's update: the
second half on one worker thread while the first runs on the caller's.
numpy releases the GIL inside GEMMs and large ufuncs, so the halves
overlap on a second CPU; on one CPU the two threads take turns on it.
Each half keeps its shapes and operands, so the bits are those of one
thread.
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
