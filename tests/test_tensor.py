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

    def test_interpolate_with_repeated_and_unread_rows(self):
        idx = TestInterpolate.IDX
        self._check(lambda x: (T.interpolate(x, idx, TestInterpolate.W) ** 2.0).sum())

    def test_slice_rows(self):
        self._check(lambda x: (T.slice_rows(x, 1, 3) ** 2.0).sum())

    def test_slice_rows_views_the_buffer(self):
        x = T.tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        rows = T.slice_rows(x, 1, 3)
        assert np.shares_memory(rows.data, x.data)
        T.backward((rows * 2.0).sum())
        np.testing.assert_array_equal(x.grad, [[0] * 3, [2] * 3, [2] * 3, [0] * 3])

    def test_slice_cols(self):
        self._check(lambda x: (T.slice_cols(x, 1, 3) ** 2.0).sum())


def add_at_oracle(x_data, index, g):
    """The former gather_rows backward: np.add.at into zeros."""
    gx = np.zeros_like(x_data)
    np.add.at(gx, index, g)
    return gx


INDEX_KINDS = ("random", "skewed", "all_to_one", "unread_targets", "negative_zero")


def scatter_case(kind, n_rows, n_gathered, d, dtype, seed):
    """(index, upstream gradient) of one kind, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    if kind == "skewed":
        idx = np.minimum(rng.geometric(0.3, n_gathered) - 1, n_rows - 1)
    elif kind == "all_to_one":
        idx = np.full(n_gathered, rng.integers(n_rows))
    elif kind == "unread_targets":
        read = rng.choice(n_rows, size=max(1, n_rows // 3), replace=False)
        idx = rng.choice(read, size=n_gathered)
    else:
        idx = rng.integers(0, n_rows, n_gathered)
    # magnitudes spread over 8 decades, so the summation order shows
    g = rng.normal(size=(n_gathered, d)) * 10.0 ** rng.integers(-4, 4, (n_gathered, d))
    if kind == "negative_zero":
        g[rng.random((n_gathered, d)) < 0.3] = -0.0
        g[rng.random((n_gathered, d)) < 0.3] = 0.0
    return idx, g.astype(dtype)


class TestGatherRowsScatter:
    """gather_rows backward equals the np.add.at oracle byte for byte."""

    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(INDEX_KINDS),
           dtype=st.sampled_from([np.float32, np.float64]),
           n_rows=st.integers(1, 12), n_gathered=st.integers(0, 60),
           d=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
    def test_backward_equals_add_at(self, kind, dtype, n_rows, n_gathered, d, seed):
        idx, g = scatter_case(kind, n_rows, n_gathered, d, dtype, seed)
        x = T.tensor(np.ones((n_rows, d), dtype=dtype), requires_grad=True)
        out = T.gather_rows(x, idx)
        T.backward((out * T.tensor(g)).sum())
        expected = add_at_oracle(x.data, idx, g)
        assert x.grad.dtype == expected.dtype
        assert x.grad.tobytes() == expected.tobytes()
        assert T._scatter_rows(g, idx, x.data).tobytes() == expected.tobytes()

    def test_all_negative_zero_gradient_gives_positive_zero(self):
        x = T.tensor(np.ones((3, 2)), requires_grad=True, dtype=np.float32)
        T.backward((T.gather_rows(x, np.array([2, 0, 2])) *
                    T.tensor(np.full((3, 2), -0.0), dtype=np.float32)).sum())
        assert not np.signbit(x.grad).any()
        assert x.grad.tobytes() == np.zeros((3, 2), np.float32).tobytes()

    def test_busiest_target_sums_in_gather_order(self):
        # float32: (1e8 - 1e8) + 1 is 1, but (1 - 1e8) + 1e8 is 0
        x = T.tensor(np.zeros((2, 1)), requires_grad=True, dtype=np.float32)
        g = np.array([[1e8], [-1e8], [5.0], [1.0]], dtype=np.float32)
        T.backward((T.gather_rows(x, np.array([0, 0, 1, 0])) * T.tensor(g)).sum())
        np.testing.assert_array_equal(x.grad, [[1.0], [5.0]])

    def test_negative_indices_count_from_the_end(self):
        x = T.tensor(np.ones((4, 2)), requires_grad=True, dtype=np.float64)
        idx = np.array([-1, 3, 0, -4, 1])
        g = np.arange(10, dtype=np.float64).reshape(5, 2)
        T.backward((T.gather_rows(x, idx) * T.tensor(g)).sum())
        assert x.grad.tobytes() == add_at_oracle(x.data, idx, g).tobytes()


class TestInterpolate:
    IDX = np.array([[0, 0], [2, 0], [0, 2]])   # row 0 twice in a row, row 1 unread
    W = np.array([[0.7, 0.3], [0.25, 0.75], [0.5, 0.5]])

    def test_forward_is_weighted_row_sum(self):
        x = T.tensor(np.arange(6.0).reshape(3, 2), dtype=np.float64)
        out = T.interpolate(x, self.IDX, self.W)
        expected = (x.data[self.IDX] * self.W[..., None]).sum(axis=1)
        np.testing.assert_allclose(out.data, expected, rtol=1e-15)

    def test_unread_source_row_gets_zero_gradient(self):
        x = T.tensor(np.ones((3, 2)), requires_grad=True, dtype=np.float64)
        T.backward(T.interpolate(x, self.IDX, self.W).sum())
        np.testing.assert_array_equal(x.grad, [[2.25, 2.25], [0, 0], [0.75, 0.75]])

    def test_weights_take_the_input_dtype_and_get_no_gradient(self):
        x = T.tensor(np.ones((3, 2)), requires_grad=True, dtype=np.float32)
        out = T.interpolate(x, self.IDX, self.W)
        assert out.dtype == np.float32 and out._parents == (x,)

    @pytest.mark.parametrize("x_shape, idx, w", [
        ((3, 2), np.array([0, 1]), np.array([0.5, 0.5])),
        ((3, 2), np.array([[0, 1]]), np.array([[0.5, 0.25, 0.25]])),
        ((3,), np.array([[0, 1]]), np.array([[0.5, 0.5]])),
    ], ids=["1d_index", "weight_shape", "1d_source"])
    def test_rejects_bad_shapes(self, x_shape, idx, w):
        with pytest.raises(ShapeError):
            T.interpolate(T.tensor(np.ones(x_shape)), idx, w)


class TestAccumulateOwnsItsBuffer:
    """A first gradient write keeps 0 + grad in a buffer no other tensor holds."""

    def assert_grads_own_memory(self, tensors):
        for t in tensors:
            if t.grad is None:
                continue
            for other in tensors:
                assert not np.shares_memory(t.grad, other.data)
                if other is not t and other.grad is not None:
                    assert not np.shares_memory(t.grad, other.grad)

    def test_x_plus_x(self):
        x = T.tensor([1.0, -2.0], requires_grad=True)
        c = T.tensor([3.0, 0.5])
        loss = ((x + x) * c).sum()
        tensors = T.Tape.trace(loss).nodes
        T.backward(loss)
        np.testing.assert_array_equal(x.grad, [6.0, 1.0])
        self.assert_grads_own_memory(tensors)

    def test_shared_subexpression(self):
        a = T.tensor([1.0, 2.0], requires_grad=True)
        b = T.tensor([0.5, -1.0], requires_grad=True)
        s = a + b
        loss = (s * s + s).sum()
        tensors = T.Tape.trace(loss).nodes
        T.backward(loss)
        np.testing.assert_array_equal(a.grad, [4.0, 3.0])
        np.testing.assert_array_equal(b.grad, [4.0, 3.0])
        self.assert_grads_own_memory(tensors)

    def test_repeated_backward_accumulates_per_leaf(self):
        # a + b hands the same upstream buffer to both leaves; adding into
        # one leaf's gradient later must leave the other's untouched
        a = T.tensor([1.0, 2.0], requires_grad=True)
        b = T.tensor([3.0, 4.0], requires_grad=True)
        c = T.tensor([2.0, -1.0])
        loss = ((a + b) * c).sum()
        T.backward(loss)
        T.backward(loss)
        T.backward((a * c).sum())
        np.testing.assert_array_equal(a.grad, [6.0, -3.0])
        np.testing.assert_array_equal(b.grad, [4.0, -2.0])
        self.assert_grads_own_memory(T.Tape.trace(loss).nodes)

    def test_add_of_two_full_shape_leaves(self):
        # both operands would receive the upstream buffer itself
        a = T.tensor([1.0, 2.0], requires_grad=True)
        b = T.tensor([3.0, 4.0], requires_grad=True)
        loss = ((a + b) * T.tensor([2.0, -1.0])).sum()
        tensors = T.Tape.trace(loss).nodes
        T.backward(loss)
        np.testing.assert_array_equal(a.grad, [2.0, -1.0])
        np.testing.assert_array_equal(b.grad, [2.0, -1.0])
        self.assert_grads_own_memory(tensors)
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, [2.0, -1.0])

    def test_concat_of_one_tensor_twice(self):
        # both halves of one upstream buffer land in the same gradient
        x = T.tensor([[1.0, -2.0]], requires_grad=True)
        c = T.tensor([[3.0, 0.5, -1.0, 4.0]])
        loss = (T.concat([x, x], axis=1) * c).sum()
        tensors = T.Tape.trace(loss).nodes
        T.backward(loss)
        np.testing.assert_array_equal(x.grad, [[2.0, 4.5]])
        self.assert_grads_own_memory(tensors)

    def test_first_write_turns_negative_zero_positive(self):
        x = T.tensor([1.0, 2.0], requires_grad=True)
        T.backward((x * T.tensor([-0.0, 3.0])).sum())
        assert x.grad.tobytes() == np.array([0.0, 3.0], np.float32).tobytes()


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
