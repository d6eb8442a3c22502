import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest

import lstm_reference
from csner import autodiff as ad
from csner.model import init_params


def fd_check(loss_fn, params, h=1e-4, floor=1e-3):
    return ad.finite_diff_check(loss_fn, params, h=h, floor=floor)


def weighted_sum(t, rng):
    w = ad.Tensor(rng.normal(size=t.data.shape))
    return ad.sum_all(ad.mul(t, w))


def lstm_direction(n_in, n, rng):
    """One float64 LSTM direction, initialized as the model initializes it."""
    return init_params(n_chars=1, word_dim=1, rng=rng, char_dim=n_in, char_hidden=n,
                       word_hidden=1, n_tags=1, dtype=np.float64).char_fwd


def length_mask(lengths):
    """(T, B) mask of sequences of the given lengths, longest first."""
    return (np.arange(max(lengths))[:, None] < np.asarray(lengths)).astype(np.float64)


def gate_probe(preactivations, hidden=1):
    """Hidden states of an LSTM whose gate pre-activations are the rows of
    ``preactivations`` (T, 4*hidden), blocked [i | f | g | o]."""
    z = np.asarray(preactivations, dtype=np.float64)
    p = ad.LstmParams(
        ad.param(np.eye(4 * hidden)),
        ad.param(np.zeros((hidden, 4 * hidden))),
        ad.param(np.zeros(4 * hidden)),
    )
    return ad.lstm_seq(ad.Tensor(z), np.ones((len(z), 1)), p).data


class TestPrimitives:
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
        out = ad.concat([ad.Tensor(np.array([1.0, 2.0])), ad.Tensor(np.array([3.0]))], axis=0)
        assert np.array_equal(out.data, [1.0, 2.0, 3.0])

    def test_matmul_gradient_oracle(self):
        rng = np.random.default_rng(0)
        a = ad.param(rng.normal(size=(3, 4)))
        b = ad.param(rng.normal(size=(4, 5)))
        w = ad.Tensor(rng.normal(size=(3, 5)))
        loss = lambda: ad.sum_all(ad.mul(ad.matmul(a, b), w))
        assert fd_check(loss, {"a": a, "b": b}, h=1e-5, floor=1.0) < 1e-6

    def test_matmul_shape_contract(self):
        with pytest.raises(ValueError):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 5))))

    def test_all_ops_pass_randomized_gradcheck(self):
        rng = np.random.default_rng(1)
        x = ad.param(rng.normal(size=(2, 5)))
        y = ad.param(rng.normal(size=(2, 5)))
        row = ad.param(rng.normal(size=(1, 5)))
        table = ad.param(rng.normal(size=(7, 3)))
        idx = rng.integers(0, 7, size=4)
        lstm = lstm_direction(5, 3, rng)
        cases = {
            "add": lambda: weighted_sum(ad.add(x, y), np.random.default_rng(2)),
            "add_broadcast": lambda: weighted_sum(ad.add(x, row), np.random.default_rng(3)),
            "mul": lambda: weighted_sum(ad.mul(x, y), np.random.default_rng(4)),
            "concat": lambda: weighted_sum(ad.concat([x, y], axis=1), np.random.default_rng(5)),
            "slice": lambda: weighted_sum(ad.slice_axis(x, 1, 1, 4), np.random.default_rng(6)),
            "lstm_seq": lambda: weighted_sum(
                ad.lstm_seq(x, np.ones((2, 1)), lstm), np.random.default_rng(7)
            ),
            "tanh": lambda: weighted_sum(ad.tanh(x), np.random.default_rng(8)),
            "embedding": lambda: weighted_sum(ad.embedding(table, idx), np.random.default_rng(9)),
        }
        params = {"x": x, "y": y, "row": row, "table": table}
        for name, loss in cases.items():
            err = fd_check(loss, params)
            assert err < 1e-4, f"{name}: {err}"

    def test_shared_subexpression_accumulates(self):
        x = ad.param(np.array([2.0]))
        out = ad.add(ad.mul(x, x), x)  # d/dx = 2x + 1 = 5
        ad.backward(out)
        assert np.allclose(x.grad, [5.0])


class TestLstm:
    def zero_params(self, n_in=3, n_hidden=2):
        return ad.LstmParams(
            ad.param(np.zeros((n_in, 4 * n_hidden))),
            ad.param(np.zeros((n_hidden, 4 * n_hidden))),
            ad.param(np.zeros(4 * n_hidden)),
        )

    def padded_case(self, seed, mask=None):
        """Random (T*B, 3) input with junk in the padding; lengths 4, 2, 1
        unless a (T, B) ``mask`` is given."""
        rng = np.random.default_rng(seed)
        mask = length_mask((4, 2, 1)) if mask is None else mask
        x = ad.param(rng.normal(size=(mask.size, 3)))
        w = ad.Tensor(rng.normal(size=(mask.size, 4)))
        return lstm_direction(3, 4, rng), x, mask, w

    def test_zero_fixed_point(self):
        p = self.zero_params()
        for reverse in (False, True):
            out = ad.lstm_seq(ad.Tensor(np.zeros((6, 3))), np.ones((3, 2)), p, reverse)
            assert np.array_equal(out.data, np.zeros((6, 2)))

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
            p, x, mask, w = self.padded_case(2)

            def loss():
                return ad.sum_all(ad.mul(ad.lstm_seq(x, mask, p, reverse), w))

            params = {"x": x, **p.tensors("lstm")}
            assert fd_check(loss, params) < 1e-4
            assert np.all(x.grad[mask.reshape(-1) == 0.0] == 0.0)

    def test_matches_per_step_reference(self):
        masks = [
            length_mask((4, 2, 1)),
            # read in reverse, rows join at steps 5, 3 (two at once), 1 and 0
            length_mask((6, 4, 4, 2, 1)),
            # rows 1 and 2 pause and resume, carrying their state through
            np.array([[1.0, 1, 1], [1, 0, 0], [1, 1, 0], [1, 1, 1]]),
        ]
        for mask, reverse in itertools.product(masks, (False, True)):
            p, x, mask, w = self.padded_case(3, mask)
            params = {"x": x, **p.tensors("lstm")}
            results = []
            for op in (ad.lstm_seq, lstm_reference.lstm_seq):
                ad.zero_grads(params)
                loss = ad.sum_all(ad.mul(op(x, mask, p, reverse), w))
                ad.backward(loss)
                results.append((float(loss.data), {k: t.grad.copy() for k, t in params.items()}))
            (fused_loss, fused), (ref_loss, ref) = results
            assert abs(fused_loss - ref_loss) < 1e-10
            for name in params:
                assert np.max(np.abs(fused[name] - ref[name])) < 1e-10, name

    def test_taped_and_untaped_forward_identical(self):
        for reverse in (False, True):
            p, x, mask, _ = self.padded_case(4)
            taped = ad.lstm_seq(x, mask, p, reverse)
            with ad.no_grad():
                untaped = ad.lstm_seq(x, mask, p, reverse)
            assert taped.requires_grad and not untaped.requires_grad
            assert np.array_equal(taped.data, untaped.data)

    def test_taped_history_holds_live_rows_only(self):
        # one 64-step sequence beside 63 one-step ones: 127 of 4,096 rows live
        mask = length_mask([64] + [1] * 63)
        rng = np.random.default_rng(6)
        n = 32
        p = lstm_direction(8, n, rng)
        x = ad.param(rng.normal(size=(mask.size, 8)))
        padded_history = mask.size * 5 * n * 8  # float64 gates and cells of every row
        for reverse in (False, True):
            tracemalloc.start()
            try:
                out = ad.lstm_seq(x, mask, p, reverse)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.requires_grad
            assert peak - out.data.nbytes < padded_history / 10

    def test_backward_runs_once_per_forward(self):
        p, x, mask, _ = self.padded_case(5)
        out = ad.lstm_seq(x, mask, p)
        out._backward(np.ones_like(out.data))
        with pytest.raises(RuntimeError):
            out._backward(np.ones_like(out.data))

    def test_mask_must_be_prefix(self):
        p = self.zero_params()
        # row 1 live while row 0 is not
        with pytest.raises(ValueError, match="prefix"):
            ad.lstm_seq(ad.Tensor(np.zeros((4, 3))), np.array([[1.0, 1.0], [0.0, 1.0]]), p)

    def test_input_width_contract(self):
        p = self.zero_params()
        with pytest.raises(ValueError):
            ad.lstm_seq(ad.Tensor(np.zeros((1, 5))), np.ones((1, 1)), p)

    def test_forget_bias_initialized_to_one(self):
        p = lstm_direction(3, 4, np.random.default_rng(0))
        assert np.all(p.b.data[4:8] == 1.0)
        assert np.all(np.abs(p.b.data[:4]) <= 0.1)


class TestDropout:
    def test_rate_zero_identity(self):
        x = ad.Tensor(np.ones((3, 3)))
        assert ad.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_inference_identity(self):
        x = ad.Tensor(np.ones((3, 3)))
        assert ad.dropout(x, 0.9) is x

    def test_rate_contract(self):
        x = ad.Tensor(np.ones(2))
        with pytest.raises(ValueError):
            ad.dropout(x, 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ad.dropout(x, -0.1, np.random.default_rng(0))

    def test_expectation_preserved(self):
        rng = np.random.default_rng(11)
        x = ad.Tensor(np.full(100_000, 2.5))
        out = ad.dropout(x, 0.4, rng)
        assert abs(out.data.mean() - 2.5) / 2.5 < 0.01


def cross_entropy(z, targets, mask):
    """The fused loss's value and its gradient times the unmasked count."""
    logits = ad.param(np.asarray(z, dtype=np.float64))
    loss = ad.masked_cross_entropy_logits(logits, np.asarray(targets), mask)
    ad.backward(loss)
    return float(loss.data), logits.grad * np.sum(mask)


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
        logits = ad.Tensor(1e3 * np.eye(4)[targets])
        loss = ad.masked_cross_entropy_logits(logits, targets, np.ones(3))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_loss_is_log19(self):
        logits = ad.Tensor(np.zeros((5, 19)))
        loss = ad.masked_cross_entropy_logits(logits, np.zeros(5, dtype=int), np.ones(5))
        assert float(loss.data) == pytest.approx(math.log(19.0), abs=1e-12)

    def test_padded_gradient_exactly_zero(self):
        rng = np.random.default_rng(5)
        logits = ad.param(rng.normal(size=(4, 7)))
        mask = np.array([1.0, 1.0, 0.0, 0.0])
        loss = ad.masked_cross_entropy_logits(logits, np.array([1, 2, 3, 4]), mask)
        ad.backward(loss)
        assert np.all(logits.grad[2:] == 0.0)

    def test_masked_positions_do_not_affect_value(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(4, 7))
        targets = np.array([1, 2, 3, 4])
        mask = np.array([1.0, 1.0, 0.0, 1.0])
        a = ad.masked_cross_entropy_logits(ad.Tensor(z), targets, mask)
        z2 = z.copy()
        z2[2] = 1e6  # arbitrary junk at the padded step
        b = ad.masked_cross_entropy_logits(ad.Tensor(z2), targets, mask)
        assert abs(float(a.data) - float(b.data)) < 1e-12

    def test_two_loss_routes_agree(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(6, 5))
        targets = rng.integers(0, 5, size=6)
        mask = np.array([1.0, 1, 0, 1, 1, 0])
        fused = ad.masked_cross_entropy_logits(ad.Tensor(z), targets, mask)
        probs = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)  # reference softmax
        reference = -(np.log(probs[np.arange(6), targets]) * mask).sum() / mask.sum()
        assert float(fused.data) == pytest.approx(reference, abs=1e-12)

    def test_loss_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        z = ad.param(rng.normal(size=(5, 6)))
        targets = rng.integers(0, 6, size=5)
        mask = np.array([1.0, 1, 1, 0, 1])
        loss = lambda: ad.masked_cross_entropy_logits(z, targets, mask)
        assert fd_check(loss, {"z": z}) < 1e-4

    def test_empty_mask_contract(self):
        with pytest.raises(ValueError):
            ad.masked_cross_entropy_logits(
                ad.Tensor(np.zeros((2, 3))), np.zeros(2, dtype=int), np.zeros(2)
            )


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = ad.param(np.array([1.0, 2.0]))
        p.grad = np.zeros(2)
        state = ad.AdamState()
        ad.adam_step({"p": p}, state, lr=0.1)
        assert np.array_equal(p.data, [1.0, 2.0])
        assert state.step == 1

    def test_first_step_approximates_signed_lr(self):
        p = ad.param(np.array([0.0, 0.0]))
        p.grad = np.array([0.5, -0.03])
        ad.adam_step({"p": p}, ad.AdamState(), lr=0.01)
        assert np.allclose(p.data, [-0.01, 0.01], atol=1e-8)

    def test_two_steps_match_hand_recurrence(self):
        p = ad.param(np.array([0.7]))
        state = ad.AdamState()
        theta, m, v = 0.7, 0.0, 0.0
        for t, g in enumerate([0.3, -0.8], start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            theta -= 0.01 * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
            p.grad = np.array([g])
            ad.adam_step({"p": p}, state, lr=0.01)
        assert abs(p.data[0] - theta) < 1e-12

    def test_non_finite_gradient_raises(self):
        p = ad.param(np.array([1.0]))
        p.grad = np.array([np.nan])
        with pytest.raises(ad.NonFiniteGradient):
            ad.adam_step({"p": p}, ad.AdamState(), lr=0.1)


class TestFiniteDiff:
    def test_linear_loss_near_machine_epsilon(self):
        x = ad.param(np.array([1.0, -2.0, 3.0]))
        w = ad.Tensor(np.array([2.0, 0.5, -1.0]))
        loss = lambda: ad.sum_all(ad.mul(x, w))
        assert fd_check(loss, {"x": x}, floor=1.0) < 1e-10

    def test_zero_step_contract(self):
        x = ad.param(np.array([1.0]))
        with pytest.raises(ValueError):
            ad.finite_diff_check(lambda: ad.sum_all(x), {"x": x}, h=0.0)


def test_no_grad_blocks_taping():
    x = ad.param(np.ones(3))
    with ad.no_grad():
        out = ad.mul(x, x)
    assert not out.requires_grad
    out2 = ad.mul(x, x)
    assert out2.requires_grad


def test_no_grad_is_per_thread():
    x = ad.param(np.ones((2, 3)))
    p = lstm_direction(3, 2, np.random.default_rng(0))
    inside, release = threading.Event(), threading.Event()
    seen = {}

    def infer():
        with ad.no_grad():
            inside.set()
            release.wait(timeout=10)
            seen["other_thread"] = ad.mul(x, x).requires_grad

    worker = threading.Thread(target=infer)
    worker.start()
    try:
        assert inside.wait(timeout=10)
        out = ad.lstm_seq(x, np.ones((2, 1)), p)
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert seen["other_thread"] is False
    assert out.requires_grad
    ad.backward(ad.sum_all(out))
    assert x.grad is not None and p.wh.grad is not None
