"""Tensor engine: primitives, tape, backward, AdamW, schedules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affground import tensor as T
from affground.errors import ContractError, NumericError, ShapeError
from affground.gradcheck import finite_difference_check, finite_difference_check_params
from affground.optim import AdamW, adamw_step, linear_lr


class TestMatmul:
    def test_identity(self):
        a = T.tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = T.tensor(np.eye(2, dtype=np.float32))
        np.testing.assert_array_equal((a @ eye).data, a.data)

    def test_hand_product(self):
        a = T.tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal((a @ b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch_reports_both_shapes(self):
        a = T.tensor(np.zeros((2, 3)))
        b = T.tensor(np.zeros((4, 5)))
        with pytest.raises(ShapeError, match=r"2, 3.*4, 5"):
            a @ b

    def test_dtype_mismatch(self):
        a = T.tensor(np.zeros((2, 2)), dtype=np.float32)
        b = T.tensor(np.zeros((2, 2)), dtype=np.float64)
        with pytest.raises(ShapeError):
            a @ b

    def test_gradcheck_5x7_7x3(self):
        rng = np.random.default_rng(0)
        a = T.tensor(rng.normal(size=(5, 7)), requires_grad=True, dtype=np.float64)
        b = T.tensor(rng.normal(size=(7, 3)), dtype=np.float64)

        err = finite_difference_check(lambda x: (x @ b).sum(), a, h=1e-5)
        assert err <= 1e-6
        err_b = finite_difference_check_params(
            lambda: (a @ bb).sum(), {"b": (bb := T.tensor(b.data, requires_grad=True,
                                                          dtype=np.float64))})
        assert err_b["b"] <= 1e-6


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax_lastdim(T.tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)

    def test_closed_form(self):
        out = T.softmax_lastdim(T.tensor([np.log(2.0), 0.0], dtype=np.float64))
        np.testing.assert_allclose(out.data, [2 / 3, 1 / 3], atol=1e-12)

    def test_large_logit_no_overflow(self):
        out = T.softmax_lastdim(T.tensor([1000.0, 0.0], dtype=np.float64))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)
        assert np.isfinite(out.data).all()

    def test_nan_input_raises(self):
        with pytest.raises(NumericError):
            T.softmax_lastdim(T.tensor([np.nan, 0.0]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8))
    def test_rows_sum_to_one(self, row):
        out = T.softmax_lastdim(T.tensor(np.array(row), dtype=np.float64))
        assert abs(out.data.sum() - 1.0) <= 1e-6
        assert (out.data >= 0).all()

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        x = T.tensor(rng.normal(size=(2, 5)), requires_grad=True, dtype=np.float64)
        w = T.tensor(rng.normal(size=(2, 5)), dtype=np.float64)
        err = finite_difference_check(
            lambda t: (T.softmax_lastdim(t) * w).sum(), x, h=1e-6)
        assert err <= 1e-6


class TestBackward:
    def test_grad_of_sum_is_ones(self):
        x = T.tensor([1.0, 2.0, 3.0], requires_grad=True)
        T.backward(x.sum())
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_grad_of_sum_of_squares(self):
        x = T.tensor([1.0, 2.0, 3.0], requires_grad=True)
        T.backward((x * x).sum())
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_non_scalar_loss_rejected(self):
        x = T.tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            T.backward(x * 2.0)

    def test_repeated_backward_accumulates(self):
        x = T.tensor([1.0, 2.0], requires_grad=True)
        loss = (x * x).sum()
        T.backward(loss)
        T.backward(loss)
        np.testing.assert_array_equal(x.grad, [4.0, 8.0])

    def test_tape_topological_order(self):
        x = T.tensor([1.0, 2.0], requires_grad=True)
        y = x * x
        z = (y + x).sum()
        tape = T.Tape.trace(z)
        pos = {id(n): i for i, n in enumerate(tape.nodes)}
        assert len(pos) == len(tape.nodes)  # each op recorded exactly once
        for node in tape.nodes:
            for parent in node._parents:
                assert pos[id(parent)] < pos[id(node)]

    def test_shared_subexpression_grad(self):
        # d/dx of (x*x + x*x) = 4x; the shared node must be visited once
        x = T.tensor([3.0], requires_grad=True, dtype=np.float64)
        y = x * x
        T.backward((y + y).sum())
        np.testing.assert_allclose(x.grad, [12.0])

    def test_no_grad_suppresses_recording(self):
        x = T.tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = (x * x).sum()
        assert y._backward is None and not y.requires_grad


class TestPrimitiveGradients:
    """Central-difference checks for every registered primitive."""

    TOL = 1e-6

    def _check(self, fn, shape=(3, 4), positive=False, seed=0):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=shape)
        if positive:
            data = np.abs(data) + 0.5
        x = T.tensor(data, requires_grad=True, dtype=np.float64)
        assert finite_difference_check(fn, x, h=1e-6) <= self.TOL

    def test_add(self):
        c = T.tensor(np.ones((3, 4)), dtype=np.float64)
        self._check(lambda x: (x + c).sum())

    def test_add_broadcast(self):
        c = T.tensor(np.ones((1, 4)), dtype=np.float64)
        self._check(lambda x: (x + c).sum())

    def test_broadcast_grad_on_small_operand(self):
        big = T.tensor(np.random.default_rng(1).normal(size=(3, 4)), dtype=np.float64)
        b = T.tensor(np.zeros((1, 4)), requires_grad=True, dtype=np.float64)
        T.backward((big + b).sum())
        np.testing.assert_allclose(b.grad, np.full((1, 4), 3.0))

    def test_sub(self):
        c = T.tensor(np.ones((3, 4)), dtype=np.float64)
        self._check(lambda x: (c - x).sum())

    def test_mul(self):
        c = T.tensor(np.full((3, 4), 2.5), dtype=np.float64)
        self._check(lambda x: (x * c * x).sum())

    def test_div(self):
        self._check(lambda x: (1.0 / x).sum(), positive=True)

    def test_power(self):
        self._check(lambda x: (x ** 3.0).sum(), positive=True)

    def test_relu(self):
        self._check(lambda x: T.relu(x).sum(), seed=5)

    def test_sigmoid(self):
        self._check(lambda x: T.sigmoid(x).sum())

    def test_exp(self):
        self._check(lambda x: T.exp(x).sum())

    def test_log(self):
        self._check(lambda x: T.log(x).sum(), positive=True)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(NumericError):
            T.log(T.tensor([0.0, 1.0]))

    def test_clip_interior(self):
        self._check(lambda x: T.clip(x, -0.5, 0.5).sum(), seed=7)

    def test_mean_axis(self):
        self._check(lambda x: x.mean(axis=0).sum())

    def test_sum_keepdims(self):
        self._check(lambda x: (x * x.sum(axis=1, keepdims=True)).sum())

    def test_max_reduce(self):
        self._check(lambda x: T.max_reduce(x, axis=1).sum(), seed=11)

    def test_max_reduce_3d(self):
        self._check(lambda x: T.max_reduce(x, axis=1).sum(), shape=(2, 3, 4))

    def test_reshape(self):
        self._check(lambda x: (x.reshape(2, 6) ** 2.0).sum())

    def test_transpose(self):
        c = T.tensor(np.random.default_rng(2).normal(size=(4, 3)), dtype=np.float64)
        self._check(lambda x: (x.T * c).sum())

    def test_concat(self):
        c = T.tensor(np.ones((3, 2)), dtype=np.float64)
        self._check(lambda x: (T.concat([x, c], axis=1) ** 2.0).sum())

    def test_gather_rows_with_duplicates(self):
        idx = np.array([0, 2, 2, 1])
        self._check(lambda x: (T.gather_rows(x, idx) ** 2.0).sum())

    def test_repeat_rows(self):
        w = T.tensor(np.random.default_rng(4).normal(size=(5, 4)), dtype=np.float64)
        self._check(lambda x: (T.repeat_rows(x, 5) * w).sum(), shape=(1, 4))

    def test_slice_cols(self):
        self._check(lambda x: (T.slice_cols(x, 1, 3) ** 2.0).sum())


class TestFiniteDifferenceHarness:
    def test_exact_quadratic(self):
        x = T.tensor(np.random.default_rng(0).normal(size=(6,)),
                     requires_grad=True, dtype=np.float64)
        err = finite_difference_check(lambda t: (t * t).sum(), x, h=1e-5)
        assert err <= 1e-8

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(1)
        logits = T.tensor(rng.normal(size=(1, 5)), requires_grad=True,
                          dtype=np.float64)

        def ce(z):
            p = T.softmax_lastdim(z)
            return -T.log(T.slice_cols(p, 2, 3)).sum()

        assert finite_difference_check(ce, logits, h=1e-6) <= 1e-6

    def test_detects_injected_fault(self):
        # a deliberately wrong backward rule (+10% on the gradient) must
        # be flagged with error >= 0.05
        x = T.tensor([1.0, 2.0, 3.0], requires_grad=True, dtype=np.float64)

        def bad_square(t):
            def backward(g):
                T._accumulate(t, 1.1 * g * 2.0 * t.data)
            return T._node(t.data * t.data, (t,), backward, "bad_square")

        err = finite_difference_check(lambda t: bad_square(t).sum(), x, h=1e-5)
        assert err >= 0.05


class TestAdamW:
    def test_first_step_is_lr_signed(self):
        p = T.tensor([1.0], requires_grad=True, dtype=np.float64)
        p.grad = np.array([4.0])
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        opt.step()
        np.testing.assert_allclose(p.data, [0.9], atol=1e-6)

    def test_zero_grad_zero_decay_is_identity(self):
        rng = np.random.default_rng(0)
        p = T.tensor(rng.normal(size=(3, 3)), requires_grad=True, dtype=np.float64)
        before = p.data.copy()
        opt = AdamW({"p": p}, lr=0.5, weight_decay=0.0)
        for _ in range(10):
            p.grad = np.zeros_like(p.data)
            opt.step()
        np.testing.assert_array_equal(p.data, before)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=1e-5, max_value=0.5),
           st.integers(min_value=1, max_value=5))
    def test_zero_grad_identity_property(self, lr, steps):
        p = T.tensor([[0.3, -1.2]], requires_grad=True, dtype=np.float64)
        before = p.data.copy()
        opt = AdamW({"p": p}, lr=lr, weight_decay=0.0)
        for _ in range(steps):
            opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_descent_on_quadratic(self):
        # 200 steps of f(theta) = (theta - 3)^2 at lr 0.1
        theta = T.tensor([0.0], requires_grad=True, dtype=np.float64)
        opt = AdamW({"theta": theta}, lr=0.1, weight_decay=0.0)
        for _ in range(200):
            opt.zero_grad()
            loss = ((theta - 3.0) ** 2.0).sum()
            T.backward(loss)
            opt.step()
        assert abs(theta.data[0] - 3.0) < 0.05

    def test_shape_mismatch_rejected(self):
        p = T.tensor([1.0, 2.0], requires_grad=True)
        p.grad = np.zeros((3,), dtype=np.float32)
        with pytest.raises(ContractError):
            AdamW({"p": p}).step()

    def test_functional_step_matches_class(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(4,))
        grad = rng.normal(size=(4,))
        p1 = T.tensor(data.copy(), requires_grad=True, dtype=np.float64)
        p1.grad = grad.copy()
        opt = AdamW({"p": p1}, lr=0.01, weight_decay=0.01)
        opt.step()

        p2 = T.tensor(data.copy(), requires_grad=True, dtype=np.float64)
        m = np.zeros_like(data)
        v = np.zeros_like(data)
        adamw_step(p2, grad, m, v, step=1, lr=0.01, weight_decay=0.01)
        np.testing.assert_array_equal(p1.data, p2.data)

    def test_fixed_gradients_follow_reference_arithmetic(self):
        # float32 training must not drift from this exact operation order
        rng = np.random.default_rng(10)
        p = T.tensor(rng.normal(size=(3, 5)).astype(np.float32),
                     requires_grad=True)
        ref = p.data.copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        opt = AdamW({"p": p}, lr=0.01, weight_decay=0.05)
        for t in range(1, 6):
            g = rng.normal(size=(3, 5)).astype(np.float32)
            p.grad = g
            opt.step(lr=0.01 / t)
            lr = 0.01 / t
            ref *= 1.0 - lr * 0.05
            m = m * 0.9 + (1.0 - 0.9) * g
            v = v * 0.999 + (1.0 - 0.999) * (g * g)
            update = (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
            ref -= (lr * update).astype(np.float32)
            np.testing.assert_array_equal(p.data, ref)


class TestLinearSchedule:
    def test_endpoints(self):
        assert linear_lr(1e-3, 0, 100) == pytest.approx(1e-3)
        assert linear_lr(1e-3, 100, 100) == 0.0
        assert linear_lr(1e-3, 50, 100) == pytest.approx(5e-4)

    def test_never_negative(self):
        assert linear_lr(1e-3, 250, 100) == 0.0

    def test_monotone_decay(self):
        values = [linear_lr(1.0, s, 10) for s in range(11)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestDeterminism:
    def test_identical_graph_identical_output(self):
        def build():
            rng = np.random.default_rng(42)
            x = T.tensor(rng.normal(size=(8, 8)), requires_grad=True,
                         dtype=np.float64)
            w = T.tensor(rng.normal(size=(8, 8)), requires_grad=True,
                         dtype=np.float64)
            loss = (T.relu(x @ w)).sum()
            T.backward(loss)
            return loss.data.copy(), x.grad.copy(), w.grad.copy()

        first = build()
        second = build()
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
