import ast
import itertools
import math
import os
import pathlib
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import lstm_reference
import reference_ops as ref
from csner import autodiff as ad
from csner import model
from csner.embeddings import CharVocabulary
from csner.model import param_shapes
from csner.trainer import TrainingConfig, new_model
from conftest import random_table
from reference_ops import finite_diff_check


def lstm_direction(n_in, n, rng):
    """The ``wx``, ``wh`` and ``b`` of a float64 LSTM direction drawn by
    ``new_model``: the forward char LSTM of a model with char_dim n_in and
    char_hidden n."""
    cfg = TrainingConfig(char_dim=n_in, char_hidden=n, word_dim=1, hidden=1, float64=True)
    params = new_model(cfg, random_table([], 1), CharVocabulary(""), rng).params
    return {k: params[f"char_fwd.{k}"] for k in ("wx", "wh", "b")}


def gate_probe(preactivations, hidden=1):
    """Hidden states of an LSTM whose gate pre-activations are the rows of
    ``preactivations`` (T, 4*hidden), blocked [i | f | g | o]."""
    z = np.array(preactivations, dtype=np.float64)  # a fresh buffer: lstm_seq consumes it
    wh, b = np.zeros((hidden, 4 * hidden)), np.zeros(4 * hidden)
    return model.lstm_seq(z, [len(z)], wh, b)[0]


def live_rows(n_steps, lengths):
    """The rows of a flat time-major (T*B) input that are live, step by step."""
    return np.flatnonzero(np.arange(n_steps)[:, None] < np.asarray(lengths))


def lstm_loss(x, lengths, p, w, reverse=False):
    """sum(w * h) over the live rows' states h of ``lstm_seq`` fed as the
    model feeds it (the live rows of the padded time-major ``x`` projected
    by ``p["wx"]``), with ``w`` padded like ``x``, and the gradients of
    ``x`` and of ``p``'s arrays."""
    live = live_rows(max(lengths), lengths)
    out, pullback = model.lstm_seq(x[live] @ p["wx"], lengths, p["wh"], p["b"], reverse)
    w = w[live]
    d_xw, d_wh, d_b = pullback(w)
    d_x = np.zeros_like(x)
    d_x[live] = d_xw @ p["wx"].T
    return float((out * w).sum()), {"x": d_x, "wx": x[live].T @ d_xw, "wh": d_wh, "b": d_b}


def taped(loss_fn, leaves):
    """The ``finite_diff_check`` arguments ``loss`` and ``grads`` for a loss
    that ``loss_fn`` builds on the oracle tape from the Tensors ``leaves``:
    its forward alone, and the tape's gradients of the leaves."""
    for t in leaves.values():
        t.grad = None
    ref.backward(loss_fn())
    grads = {k: np.zeros_like(t.data) if t.grad is None else t.grad for k, t in leaves.items()}
    return lambda: float(loss_fn().data), grads


def weighted_sum(t, rng):
    return ref.sum_all(ref.mul(t, ref.Tensor(rng.normal(size=t.data.shape))))


class TestPrimitives:
    """The LSTM's gate activations, the segment sum, and the oracle: the
    generic tape in ``tests/reference_ops.py`` that the hand-written
    gradients are held against."""

    def test_sigmoid_at_zero(self):
        # i = f = o = sigmoid(0), g = 1: c = 0.5, h = 0.5*tanh(0.5), exactly
        h = gate_probe([[0.0, 0.0, 1e4, 0.0]])
        assert h[0, 0] == 0.5 * np.tanh(0.5)

    def test_sigmoid_saturation_is_finite(self):
        # gates at +-1e4 are exactly 1 or 0: write c = 1, hold it with the
        # output closed, then read it back
        h = gate_probe([
            [1e4, -1e4, 1e4, 1e4],
            [-1e4, 1e4, 1e4, -1e4],
            [-1e4, 1e4, 0.0, 1e4],
        ])
        assert np.array_equal(h[:, 0], [np.tanh(1.0), 0.0, np.tanh(1.0)])

    def test_concat_values(self):
        out = ref.concat([ref.Tensor(np.array([1.0, 2.0])), ref.Tensor(np.array([3.0]))], axis=0)
        assert np.array_equal(out.data, [1.0, 2.0, 3.0])

    def test_matmul_gradient_oracle(self):
        rng = np.random.default_rng(0)
        a = ref.param(rng.normal(size=(3, 4)))
        b = ref.param(rng.normal(size=(4, 5)))
        w = ref.Tensor(rng.normal(size=(3, 5)))
        leaves = {"a": a, "b": b}
        loss, grads = taped(lambda: ref.sum_all(ref.mul(ref.matmul(a, b), w)), leaves)
        assert finite_diff_check(loss, grads, {"a": a.data, "b": b.data}, h=1e-5, floor=1.0) < 1e-6

    def test_matmul_shape_contract(self):
        with pytest.raises(ValueError):
            ref.matmul(ref.Tensor(np.ones((2, 3))), ref.Tensor(np.ones((4, 5))))

    def test_all_ops_pass_randomized_gradcheck(self):
        rng = np.random.default_rng(1)
        x = ref.param(rng.normal(size=(2, 5)))
        y = ref.param(rng.normal(size=(2, 5)))
        row = ref.param(rng.normal(size=(1, 5)))
        table = ref.param(rng.normal(size=(7, 3)))
        idx = rng.integers(0, 7, size=4)
        lstm = {k: ref.param(v) for k, v in lstm_direction(5, 3, rng).items()}
        cases = {
            "add": lambda: weighted_sum(ref.add(x, y), np.random.default_rng(2)),
            "add_broadcast": lambda: weighted_sum(ref.add(x, row), np.random.default_rng(3)),
            "mul": lambda: weighted_sum(ref.mul(x, y), np.random.default_rng(4)),
            "concat": lambda: weighted_sum(ref.concat([x, y], axis=1), np.random.default_rng(5)),
            "slice": lambda: weighted_sum(ref.slice_axis(x, 1, 1, 4), np.random.default_rng(6)),
            "lstm_reference": lambda: weighted_sum(
                lstm_reference.lstm_seq(x, [2, 0], lstm["wx"], lstm["wh"], lstm["b"]),
                np.random.default_rng(7),
            ),
            "tanh": lambda: weighted_sum(ref.tanh(x), np.random.default_rng(8)),
            "embedding": lambda: weighted_sum(ref.embedding(table, idx), np.random.default_rng(9)),
            "cross_entropy": lambda: ref.cross_entropy(ref.concat([x, y], axis=1),
                                                       np.array([3, 7]), np.array([1.0, 1.0])),
        }
        leaves = {"x": x, "y": y, "row": row, "table": table, **lstm}
        arrays = {k: t.data for k, t in leaves.items()}
        for name, loss in cases.items():
            err = finite_diff_check(*taped(loss, leaves), arrays)
            assert err < 1e-4, f"{name}: {err}"

    def test_embedding_backward_sums_as_add_at_does(self):
        # index 5 is used 40 times and 3 three times, in no order; 2 and 6
        # once each, and 0, 1 and 4 never.  The segment sum adds in another
        # order than np.add.at, so float32 sums agree to rounding only
        rng = np.random.default_rng(12)
        idx = rng.permutation(np.repeat([5, 3, 2, 6], [40, 3, 1, 1]))
        g = rng.normal(size=(45, 4)).astype(np.float32)
        got = model.gather_pullback(idx, 7)(g)
        want = np.zeros((7, 4), dtype=np.float32)
        np.add.at(want, idx, g)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)
        assert not got[[0, 1, 4]].any()
        single = [2, 6]
        assert got[single].tobytes() == want[single].tobytes()
        assert not model.gather_pullback(idx[:0], 3)(g[:0]).any()

    def test_shared_subexpression_accumulates(self):
        x = ref.param(np.array([2.0]))
        out = ref.add(ref.mul(x, x), x)  # d/dx = 2x + 1 = 5
        ref.backward(out)
        assert np.allclose(x.grad, [5.0])


class TestLstm:
    def zero_params(self, n_hidden=2):
        return {"wh": np.zeros((n_hidden, 4 * n_hidden)), "b": np.zeros(4 * n_hidden)}

    def padded_case(self, seed, lengths=(4, 2, 1)):
        """Random (T*B, 3) input with junk in the padding, and weights for
        its (T*B, 4) states, 0 in the padding; T is the longest length."""
        rng = np.random.default_rng(seed)
        rows = max(lengths) * len(lengths)
        x = rng.normal(size=(rows, 3))
        w = rng.normal(size=(rows, 4))
        w[np.setdiff1d(np.arange(rows), live_rows(max(lengths), lengths))] = 0.0
        return lstm_direction(3, 4, rng), x, list(lengths), w

    # read in reverse, rows join at steps 5, 3 (two at once), 1 and 0;
    # in (3, 3, 0) one row is never live, so its state stays 0
    REFERENCE_CASES = [(4, 2, 1), (6, 4, 4, 2, 1), (3, 3, 0)]

    def test_zero_fixed_point(self):
        p = self.zero_params()
        for reverse in (False, True):
            out, _ = model.lstm_seq(np.zeros((6, 8)), [3, 3], **p, reverse=reverse)
            assert np.array_equal(out, np.zeros((6, 2)))

    def test_saturated_forget_gate_preserves_cell(self):
        # step 0 writes c = (0.3, -0.7) with o = 1; afterwards f = sigmoid(40),
        # i = 0.5, g = 0, o = 1, so h = tanh(c) shows the cell unchanged
        write = [1e4, 1e4, -1e4, -1e4, np.arctanh(0.3), np.arctanh(-0.7), 1e4, 1e4]
        hold = [0.0, 0.0, 40.0, 40.0, 0.0, 0.0, 1e4, 1e4]
        h = gate_probe([write, hold, hold, hold], hidden=2)
        assert np.allclose(h[0], np.tanh([0.3, -0.7]), atol=1e-12)
        assert np.allclose(h[-1], h[0], atol=1e-6)

    def test_gradients_match_finite_differences(self):
        for reverse in (False, True):
            p, x, lengths, w = self.padded_case(2)
            grads = lstm_loss(x, lengths, p, w, reverse)[1]
            loss = lambda: lstm_loss(x, lengths, p, w, reverse)[0]  # noqa: E731
            assert finite_diff_check(loss, grads, {"x": x, **p}) < 1e-4
            padded = np.arange(4)[:, None] >= np.array(lengths)
            assert np.all(grads["x"][padded.reshape(-1)] == 0.0)

    def test_matches_per_step_reference(self):
        for lengths, reverse in itertools.product(self.REFERENCE_CASES, (False, True)):
            p, x, lengths, w = self.padded_case(3, lengths)
            fused_loss, fused = lstm_loss(x, lengths, p, w, reverse)
            leaves = {"x": ref.param(x.copy()), **{k: ref.param(v.copy()) for k, v in p.items()}}
            out = lstm_reference.lstm_seq(leaves["x"], lengths, leaves["wx"], leaves["wh"],
                                          leaves["b"], reverse=reverse)
            ref_loss, ref_grads = taped(lambda: ref.sum_all(ref.mul(out, ref.Tensor(w))), leaves)
            assert abs(fused_loss - ref_loss()) < 1e-10
            for name in fused:
                assert np.max(np.abs(fused[name] - ref_grads[name])) < 1e-10, name

    def test_projected_input_matches_reference_on_unprojected_input(self):
        # float64: lstm_seq on the live rows projected by one numpy GEMM
        # against the per-step reference, which projects each step itself
        for lengths, reverse in itertools.product(self.REFERENCE_CASES, (False, True)):
            p, x, lengths, _ = self.padded_case(7, lengths)
            live = live_rows(max(lengths), lengths)
            got, _ = model.lstm_seq(x[live] @ p["wx"], lengths, p["wh"], p["b"], reverse=reverse)
            want = lstm_reference.lstm_seq(ref.Tensor(x), lengths,
                                           *(ref.Tensor(p[k]) for k in ("wx", "wh", "b")),
                                           reverse=reverse).data[live]
            assert got.dtype == want.dtype == np.float64
            assert np.max(np.abs(got - want)) < 1e-12

    def test_taped_and_untaped_forward_identical(self):
        # one forward path: running the pullback, which reads each step's
        # previous h from the output, leaves the output as a dropped
        # pullback does
        for reverse in (False, True):
            p, x, lengths, w = self.padded_case(4)
            live = live_rows(4, lengths)
            xw = x[live] @ p["wx"]
            taped, pullback = model.lstm_seq(xw.copy(), lengths, p["wh"], p["b"], reverse=reverse)
            pullback(w[live])
            untaped, _ = model.lstm_seq(xw.copy(), lengths, p["wh"], p["b"], reverse=reverse)
            assert taped.tobytes() == untaped.tobytes()

    # row 3 dies after step 0 and rows 1 and 2 after step 2: read in
    # reverse, rows join at steps 4, 2 and 0
    FINAL_LENGTHS = [5, 3, 3, 1]

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_final_form_matches_padded_form(self, reverse, dtype):
        # ``final`` takes each sequence's state after the direction's last
        # step and that state's gradient alone: the same bits as those
        # rows of the packed states, and a gradient that is 0 elsewhere
        p, x, lengths, _ = self.padded_case(9, self.FINAL_LENGTHS)
        p = {k: v.astype(dtype) for k, v in p.items()}
        t, batch = max(lengths), len(lengths)
        live = live_rows(t, lengths)
        xw = x[live].astype(dtype) @ p["wx"]
        out, packed_back = model.lstm_seq(xw.copy(), lengths, p["wh"], p["b"], reverse)
        h, final_back = model.lstm_seq(xw.copy(), lengths, p["wh"], p["b"], reverse, final=True)
        # each sequence's padded row at its last step, then its packed row
        ends = np.arange(batch) if reverse else (np.array(lengths) - 1) * batch + np.arange(batch)
        last = np.searchsorted(live, ends)
        assert h.dtype == dtype and h.tobytes() == out[last].tobytes()
        g = np.random.default_rng(10).normal(size=h.shape).astype(dtype)
        g_out = np.zeros_like(out)
        g_out[last] = g
        for want, got in zip(packed_back(g_out), final_back(g)):
            assert want.tobytes() == got.tobytes()

    @pytest.mark.parametrize("reverse", [False, True])
    def test_final_form_matches_per_step_reference(self, reverse):
        p, x, lengths, _ = self.padded_case(11, self.FINAL_LENGTHS)
        t, batch = max(lengths), len(lengths)
        w = np.random.default_rng(12).normal(size=(batch, 4))
        live = live_rows(t, lengths)
        h, pullback = model.lstm_seq(x[live] @ p["wx"], lengths, p["wh"], p["b"], reverse, final=True)
        d_xw, d_wh, d_b = pullback(w)
        d_x = np.zeros_like(x)
        d_x[live] = d_xw @ p["wx"].T
        fused = {"x": d_x, "wx": x[live].T @ d_xw, "wh": d_wh, "b": d_b}
        leaves = {"x": ref.param(x.copy()), **{k: ref.param(v.copy()) for k, v in p.items()}}
        out = lstm_reference.lstm_seq(leaves["x"], lengths, leaves["wx"], leaves["wh"],
                                      leaves["b"], reverse=reverse)
        start = 0 if reverse else (t - 1) * batch
        final = ref.slice_axis(out, 0, start, start + batch)
        assert np.max(np.abs(h - final.data)) < 1e-12
        _, ref_grads = taped(lambda: ref.sum_all(ref.mul(final, ref.Tensor(w))), leaves)
        for name in fused:
            assert np.max(np.abs(fused[name] - ref_grads[name])) < 1e-10, name

    @pytest.mark.parametrize("final", [False, True])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gathered_inference_matches_training_forward(self, final, reverse, dtype):
        # inference gathers each step's rows of the un-gathered product into
        # one buffer; training gathers them all into its history first.
        # Each value is the same copy of the same product either way
        rng = np.random.default_rng(14)
        p = {k: v.astype(dtype) for k, v in lstm_direction(3, 4, rng).items()}
        table = rng.normal(size=(5, 3)).astype(dtype) @ p["wx"]  # five distinct inputs
        rows = rng.integers(0, 5, size=sum(self.FINAL_LENGTHS))  # 12 live rows, repeats among them
        args = (self.FINAL_LENGTHS, p["wh"], p["b"], reverse, final)
        want, _ = model.lstm_seq(table[rows], *args)
        gathered, pullback = model.lstm_seq(table.copy(), *args, rows, keep=False)
        assert pullback is None and gathered.dtype == dtype
        assert gathered.tobytes() == want.tobytes()
        # training may hand the op its rows too: it gathers them once
        assert model.lstm_seq(table.copy(), *args, rows)[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("keep", [False, True])
    def test_row_index_contract(self, keep):
        p = self.zero_params()
        # lengths [2, 2] read four packed rows of the 8-wide table
        for count in (3, 5):
            with pytest.raises(ValueError, match=r"projections \({}, 8\)".format(count)):
                model.lstm_seq(np.zeros((4, 8)), [2, 2], **p, rows=np.zeros(count, int), keep=keep)
        for bad in (-1, 4):
            with pytest.raises(IndexError, match="outside the 4 projections"):
                model.lstm_seq(np.zeros((4, 8)), [2, 2], **p, rows=np.array([0, 1, bad, 3]), keep=keep)

    def test_taped_history_holds_live_rows_only(self):
        # one 64-step sequence beside 63 one-step ones: 127 of 4,096 rows
        # live.  Forward keeps the gate history in the consumed input, and
        # the incoming h and c of the live rows only
        lengths = [64] + [1] * 63
        rng = np.random.default_rng(6)
        n = 32
        p = lstm_direction(8, n, rng)
        xw = rng.normal(size=(127, 4 * n))
        g_out = rng.normal(size=(127, n))
        padded_history = 64 * len(lengths) * 5 * n * 8  # float64 gates and cells of every row
        for reverse in (False, True):
            tracemalloc.start()
            try:
                out, pullback = model.lstm_seq(xw.copy(), lengths, p["wh"], p["b"], reverse)
                forward_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                pullback(g_out)
                backward_peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert forward_peak - out.nbytes - xw.nbytes < padded_history / 10
            assert backward_peak < padded_history / 10

    def test_consumes_xw(self):
        # the projections become the gate history in place, and the
        # pullback hands the gate gradients back in that same buffer.  The
        # forward allocates its output and each step's incoming h and c,
        # and no gate buffer; the pullback reads those states, where
        # rebuilding them took 0.27 xw beyond the gradients of wh and b
        rng = np.random.default_rng(8)
        n, lengths = 32, [64, 64, 63, 60]
        p = lstm_direction(8, n, rng)
        projections = rng.normal(size=(sum(lengths), 4 * n))
        xw = projections.copy()
        tracemalloc.start()
        try:
            out, pullback = model.lstm_seq(xw, lengths, p["wh"], p["b"])
            forward_peak = tracemalloc.get_traced_memory()[1]
            g_out = np.ones_like(out)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            d_xw, d_wh, d_b = pullback(g_out)
            backward_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # out and the kept h and c each hold sum(lengths) x hidden
        assert forward_peak - 3 * out.nbytes < xw.nbytes / 4
        assert backward_peak - d_wh.nbytes - d_b.nbytes < xw.nbytes / 4
        assert not np.array_equal(xw, projections)
        assert d_xw is xw

    def test_backward_runs_once_per_forward(self):
        p, x, lengths, w = self.padded_case(5)
        live = live_rows(4, lengths)
        out, pullback = model.lstm_seq(x[live] @ p["wx"], lengths, p["wh"], p["b"])
        pullback(w[live])
        with pytest.raises(RuntimeError):
            pullback(w[live])

    def test_increasing_lengths_rejected(self):
        p = self.zero_params()
        # at step 1, row 1 would be live while row 0 is not
        with pytest.raises(ValueError, match=r"lengths\[0\] >= lengths\[1\]"):
            model.lstm_seq(np.zeros((3, 8)), [1, 2], **p)

    def test_input_width_contract(self):
        p = self.zero_params()
        # 4*hidden = 8 columns, and one row per live step of a sequence
        with pytest.raises(ValueError, match=r"expected \(sum\(lengths\), 8\)"):
            model.lstm_seq(np.zeros((1, 5)), [1], **p)
        for rows in (3, 5):
            with pytest.raises(ValueError, match=r"expected \(sum\(lengths\), 8\)"):
                model.lstm_seq(np.zeros((rows, 8)), [2, 2], **p)

    def test_forget_bias_initialized_to_one(self):
        cfg = TrainingConfig(char_dim=3, char_hidden=4, word_dim=2, hidden=5)
        params = new_model(cfg, random_table([], 2), CharVocabulary(""), np.random.default_rng(0)).params
        biases = {name: b for name, b in params.items() if name.endswith(".b")}
        assert len(biases) == 4
        for name, b in biases.items():
            n = len(b) // 4
            assert np.all(b[n : 2 * n] == 1.0), name
            assert np.all(np.abs(np.delete(b, np.s_[n : 2 * n])) <= 0.1), name


def cross_entropy(z, targets, mask):
    """The fused loss's value and its gradient times the unmasked count."""
    loss, pullback = ad.masked_cross_entropy_logits(np.asarray(z, dtype=np.float64),
                                                    np.asarray(targets), mask)
    return float(loss), pullback(np.ones_like(loss)) * np.sum(mask)


class TestSoftmax:
    """The log-softmax inside the fused loss: an unmasked row's gradient
    (times the unmasked count) is softmax(z) - onehot(target)."""

    def test_uniform_over_19(self):
        value, grad = cross_entropy(np.zeros((1, 19)), [4], np.ones(1))
        assert value == pytest.approx(math.log(19.0), abs=1e-15)
        assert np.allclose(grad + np.eye(19)[4], 1.0 / 19.0, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(4, 19))
        a, _ = cross_entropy(z, [0, 5, 11, 18], np.ones(4))
        b, _ = cross_entropy(z + 123.456, [0, 5, 11, 18], np.ones(4))
        assert abs(a - b) < 1e-12

    def test_closed_form(self):
        # softmax([0, log 3]) = [0.25, 0.75]
        value, grad = cross_entropy([[0.0, math.log(3.0)]], [1], np.ones(1))
        assert value == pytest.approx(-math.log(0.75), abs=1e-12)
        assert np.allclose(grad, [[0.25, -0.25]], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        targets = rng.integers(0, 19, size=50)
        value, grad = cross_entropy(rng.normal(scale=30, size=(50, 19)), targets, np.ones(50))
        assert math.isfinite(value)
        assert np.allclose(grad.sum(axis=-1), 0.0, atol=1e-12)
        probs = grad + np.eye(19)[targets]
        assert np.all(probs >= 0) and np.all(probs <= 1)


class TestMaskedCrossEntropy:
    def test_perfect_prediction_zero_loss(self):
        targets = np.array([0, 1, 2])
        value, _ = cross_entropy(1e3 * np.eye(4)[targets], targets, np.ones(3))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_uniform_loss_is_log19(self):
        value, _ = cross_entropy(np.zeros((5, 19)), np.zeros(5, dtype=int), np.ones(5))
        assert value == pytest.approx(math.log(19.0), abs=1e-12)

    def test_padded_gradient_exactly_zero(self):
        rng = np.random.default_rng(5)
        mask = np.array([1.0, 1.0, 0.0, 0.0])
        _, grad = cross_entropy(rng.normal(size=(4, 7)), [1, 2, 3, 4], mask)
        assert np.all(grad[2:] == 0.0)

    def test_masked_positions_do_not_affect_value(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(4, 7))
        targets = np.array([1, 2, 3, 4])
        mask = np.array([1.0, 1.0, 0.0, 1.0])
        a, _ = cross_entropy(z, targets, mask)
        z2 = z.copy()
        z2[2] = 1e6  # arbitrary junk at the padded step
        b, _ = cross_entropy(z2, targets, mask)
        assert abs(a - b) < 1e-12

    def test_two_loss_routes_agree(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(6, 5))
        targets = rng.integers(0, 5, size=6)
        mask = np.array([1.0, 1, 0, 1, 1, 0])
        fused, _ = cross_entropy(z, targets, mask)
        probs = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)  # reference softmax
        reference = -(np.log(probs[np.arange(6), targets]) * mask).sum() / mask.sum()
        assert fused == pytest.approx(reference, abs=1e-12)

    def test_loss_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(5, 6))
        targets = rng.integers(0, 6, size=5)
        mask = np.array([1.0, 1, 1, 0, 1])

        loss, pullback = ad.masked_cross_entropy_logits(z, targets, mask)
        grads = {"z": pullback(np.ones_like(loss))}
        assert finite_diff_check(lambda: ad.masked_cross_entropy_logits(z, targets, mask)[0],
                                 grads, {"z": z}) < 1e-4

    def test_empty_mask_contract(self):
        with pytest.raises(ValueError):
            ad.masked_cross_entropy_logits(np.zeros((2, 3)), np.zeros(2, dtype=int), np.zeros(2))


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = np.array([1.0, 2.0])
        state = ad.AdamState()
        ad.adam_step({"p": p}, {"p": np.zeros(2)}, state, lr=0.1)
        assert np.array_equal(p, [1.0, 2.0])
        assert state.step == 1

    def test_first_step_approximates_signed_lr(self):
        p = np.array([0.0, 0.0])
        ad.adam_step({"p": p}, {"p": np.array([0.5, -0.03])}, ad.AdamState(), lr=0.01)
        assert np.allclose(p, [-0.01, 0.01], atol=1e-8)

    def test_two_steps_match_hand_recurrence(self):
        p = np.array([0.7])
        state = ad.AdamState()
        theta, m, v = 0.7, 0.0, 0.0
        for t, g in enumerate([0.3, -0.8], start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            theta -= 0.01 * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
            ad.adam_step({"p": p}, {"p": np.array([g])}, state, lr=0.01)
        assert abs(p[0] - theta) < 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_halves_keep_the_bits_of_whole_tensors(self, dtype):
        # every tensor's two row halves update at once, with the bits of a
        # plain loop over whole tensors; paper shapes, with the 1-D biases
        # and the 4-row word_specials
        rng = np.random.default_rng(21)
        shapes = param_shapes(TrainingConfig(), 110)
        start = {name: rng.uniform(-0.1, 0.1, shape).astype(dtype)
                 for name, shape in shapes.items()}
        steps = [{name: rng.normal(size=shape).astype(dtype) for name, shape in shapes.items()}
                 for _ in range(2)]

        def adam():
            params, state = {name: p.copy() for name, p in start.items()}, ad.AdamState()
            for grads in steps:
                ad.adam_step(params, grads, state, lr=0.01)
            return state.step, params, state.m, state.v

        def whole_tensors():
            params = {name: p.copy() for name, p in start.items()}
            m = {name: np.zeros_like(p) for name, p in start.items()}
            v = {name: np.zeros_like(p) for name, p in start.items()}
            for t, grads in enumerate(steps, start=1):
                for name, g in grads.items():
                    m[name] = ad.ADAM_BETA1 * m[name] + (1.0 - ad.ADAM_BETA1) * g
                    v[name] = ad.ADAM_BETA2 * v[name] + (1.0 - ad.ADAM_BETA2) * g * g
                    m_hat = m[name] / (1.0 - ad.ADAM_BETA1**t)
                    v_hat = v[name] / (1.0 - ad.ADAM_BETA2**t)
                    params[name] = params[name] - 0.01 * m_hat / (np.sqrt(v_hat) + ad.ADAM_EPS)
            return len(steps), params, m, v

        def as_bytes(step, *tensors):
            return step, [{name: (a.dtype, a.shape, a.tobytes()) for name, a in d.items()}
                          for d in tensors]

        want = as_bytes(*whole_tensors())
        assert as_bytes(*adam()) == want


    def test_gradient_order_does_not_matter(self):
        # training's threads fill the gradient dict in either order
        rng = np.random.default_rng(13)
        params = {name: rng.normal(size=size) for name, size in (("a", 5), ("b", 9), ("c", 2))}
        grads = {name: rng.normal(size=p.shape) for name, p in params.items()}
        results = []
        for order in (list(grads), list(reversed(grads))):
            copies = {name: p.copy() for name, p in params.items()}
            state = ad.AdamState()
            for _ in range(2):
                ad.adam_step(copies, {name: grads[name] for name in order}, state, lr=0.01)
            results.append({name: p.tobytes() for name, p in copies.items()})
        assert results[0] == results[1]


class TestBoth:
    def test_runs_second_on_the_worker(self):
        threads = ad.both(threading.get_ident, threading.get_ident)
        assert threads[0] == threading.get_ident() != threads[1]

    def test_second_runs_under_the_callers_error_state(self):
        # numpy's error handling is per thread: the worker takes the caller's
        with np.errstate(over="ignore", invalid="raise"):
            here, there = ad.both(np.geterr, np.geterr)
            assert here == there == np.geterr()
            big = np.float32(3e38)
            assert ad.both(lambda: big * 10, lambda: big * 10) == (np.inf, np.inf)

    def test_first_exception_wins_once_both_stopped(self):
        done = []

        def first():
            raise KeyError("first")

        def second():
            time.sleep(0.05)
            done.append(True)
            raise ValueError("second")

        with pytest.raises(KeyError, match="first"):
            ad.both(first, second)
        assert done == [True]
        with pytest.raises(ValueError, match="second"):
            ad.both(lambda: None, second)
        assert ad.both(lambda: 1, lambda: 2) == (1, 2)

    # a child that the parent forks after a ``both`` call has no copy of the
    # parent's worker thread, so it must make its own pool or wait forever;
    # the alarm ends such a child
    FORK = ("import os, signal, warnings\n"
            "warnings.simplefilter('ignore', DeprecationWarning)  # fork() with threads\n"
            "from csner import autodiff as ad\n"
            "assert ad.both(lambda: 1, lambda: 2) == (1, 2)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(30)\n"
            "    os._exit(0 if ad.both(lambda: 3, lambda: 4) == (3, 4) else 1)\n"
            "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n")

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_makes_its_own_pool(self):
        src = pathlib.Path(ad.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        run = subprocess.run([sys.executable, "-c", self.FORK], env=env, capture_output=True,
                             text=True, timeout=60)
        assert (run.returncode, run.stdout, run.stderr) == (0, "0\n", "")


class TestFiniteDiff:
    def test_linear_loss_near_machine_epsilon(self):
        x = np.array([1.0, -2.0, 3.0])
        w = np.array([2.0, 0.5, -1.0])
        assert finite_diff_check(lambda: float(x @ w), {"x": w}, {"x": x}, floor=1.0) < 1e-10

    def test_zero_step_contract(self):
        x = np.array([1.0])
        with pytest.raises(ValueError):
            finite_diff_check(lambda: float(x.sum()), {"x": np.ones(1)}, {"x": x}, h=0.0)


def test_every_public_engine_name_is_used_in_src():
    """The gradient code, the model and the trainer keep only what the
    package uses: each public function and class of ``csner.autodiff``,
    ``csner.model`` and ``csner.trainer`` is referenced somewhere in
    ``src/csner`` outside its own definition."""
    src = pathlib.Path(ad.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    for module in ("autodiff", "model", "trainer"):
        public = {node.name for node in trees[module].body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")}
        used = set()
        for name, tree in trees.items():
            if name == module:
                for stmt in tree.body:
                    own = getattr(stmt, "name", None)
                    used |= {n.id for n in ast.walk(stmt)
                             if isinstance(n, ast.Name) and n.id != own}
                continue
            imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level == 1]
            # ``from . import autodiff as ad`` and ``from .autodiff import X``
            aliases = {a.asname or a.name for n in imports if n.module is None
                       for a in n.names if a.name == module}
            names = {a.asname or a.name: a.name for n in imports if n.module == module
                     for a in n.names}
            for node in ast.walk(tree):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id in aliases):
                    used.add(node.attr)
                elif isinstance(node, ast.Name) and node.id in names:
                    used.add(names[node.id])
        assert sorted(public - used) == [], module
