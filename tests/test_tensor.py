"""Tensor engine: primitives, tape and backward."""

import ast
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affground import tensor as T
from affground import train as train_module
from affground.config import ModelConfig, RunConfig
from affground.dataio import gen_synthetic_dataset, read_dataset
from affground.errors import ContractError, NumericError, ShapeError
from affground.gradcheck import finite_difference_check, finite_difference_check_params
from affground.model import AffordanceModel

from conftest import signed_zeros_and_negatives
from oracles import (
    clip,
    concat,
    div,
    exp,
    log,
    max_reduce,
    neg,
    padded_rows,
    power,
    relu,
    reshape,
    sigmoid,
    slice_cols,
    sub,
    tsum,
    unfused_linear,
)


class TestMatmul:
    def test_identity(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = T.Tensor(np.eye(2, dtype=np.float32))
        np.testing.assert_array_equal(T.matmul(a, eye).data, a.data)

    def test_hand_product(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch_reports_both_shapes(self):
        a = T.Tensor(np.zeros((2, 3)))
        b = T.Tensor(np.zeros((4, 5)))
        with pytest.raises(ShapeError, match=r"2, 3.*4, 5"):
            T.matmul(a, b)

    def test_dtype_mismatch(self):
        a = T.Tensor(np.zeros((2, 2)), dtype=np.float32)
        b = T.Tensor(np.zeros((2, 2)), dtype=np.float64)
        with pytest.raises(ShapeError):
            T.matmul(a, b)

    def test_gradcheck_5x7_7x3(self):
        rng = np.random.default_rng(0)
        a = T.Tensor(rng.normal(size=(5, 7)), requires_grad=True, dtype=np.float64)
        b = T.Tensor(rng.normal(size=(7, 3)), dtype=np.float64)

        err = finite_difference_check(lambda x: tsum(T.matmul(x, b)), a, h=1e-5)
        assert err <= 1e-6
        err_b = finite_difference_check_params(
            lambda: tsum(T.matmul(a, bb)), {"b": (bb := T.Tensor(b.data, requires_grad=True,
                                                          dtype=np.float64))})
        assert err_b["b"] <= 1e-6

    @pytest.mark.parametrize("rows", [1, 7, 256, 257, 1900])
    def test_weight_gradient_sums_blocks_of_rows(self, rows):
        rng = np.random.default_rng(rows)
        a = rng.normal(size=(rows, 5)).astype(np.float32)
        g = rng.normal(size=(rows, 3)).astype(np.float32)
        got = T._sum_over_rows(a, g)
        if rows <= 256:
            assert got.tobytes() == (a.T @ g).tobytes()
        want = sum(a[i:i + 256].T.astype(np.float64) @ g[i:i + 256]
                   for i in range(0, rows, 256))
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_weight_gradient_bytes_do_not_depend_on_blas_threads(self):
        # 1900 rows: a plain OpenBLAS product of this length sums its
        # blocks differently on one thread and on two
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from affground import tensor as T\n"
            "from oracles import tsum\n"
            "rng = np.random.default_rng(0)\n"
            "a = T.Tensor(rng.normal(size=(1900, 128)), dtype=np.float32)\n"
            "w = T.Tensor(rng.normal(size=(128, 96)), requires_grad=True,\n"
            "             dtype=np.float32)\n"
            "c = T.Tensor(rng.normal(size=(1900, 96)), dtype=np.float32)\n"
            "T.backward(tsum(T.matmul(a, w) * c))\n"
            "sys.stdout.buffer.write(w.grad.tobytes())\n")
        paths = os.pathsep.join([str(Path(T.__file__).resolve().parent.parent),
                                 str(Path(__file__).resolve().parent)])
        grads = [subprocess.run(
            [sys.executable, "-c", script], check=True, capture_output=True,
            env={**os.environ, "PYTHONPATH": paths, "OPENBLAS_NUM_THREADS": n,
                 "OMP_NUM_THREADS": n}).stdout for n in ("1", "2")]
        assert len(grads[0]) == 128 * 96 * 4 and grads[0] == grads[1]


class TestRankOneRecords:
    """A (1, K) row times a leaf weight records the row and its output
    gradient; the first read of the weight's ``grad`` forms their sum.
    One record's bytes are pinned in ``TestFormerRules.test_matmul_backward``."""

    DTYPES = [np.float32, np.float64]

    def walk_rows(self, w, rows, grads):
        for row, g in zip(rows, grads):
            T.matmul(T.Tensor(row), w)._backward(g.copy())

    def case(self, rng, b, dtype, k=7, n=5):
        rows = [signed_zeros_and_negatives(rng, (1, k), dtype) for _ in range(b)]
        grads = [signed_zeros_and_negatives(rng, (1, n), dtype) for _ in range(b)]
        return T.Tensor(np.zeros((k, n), dtype), requires_grad=True), rows, grads

    @pytest.mark.parametrize("b", [2, 3, 8])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_records_sum_within_the_stated_tolerance(self, b, dtype):
        rng = np.random.default_rng(b)
        w, rows, grads = self.case(rng, b, dtype, k=64, n=48)
        self.walk_rows(w, rows, grads)
        # the walk recorded and formed nothing
        assert len(w._rows) == b and w._grad is None
        terms = [r.T.astype(np.float64) * g.astype(np.float64)
                 for r, g in zip(rows, grads)]
        exact = sum(terms)
        bound = b * np.finfo(dtype).eps * sum(np.abs(t) for t in terms)
        got = w.grad
        assert got.dtype == dtype and w._rows is None
        assert (np.abs(got - exact) <= bound).all()
        assert not np.signbit(got[got == 0]).any()

    def test_bytes_do_not_depend_on_blas_threads(self):
        # paper-config shapes: lift stages, the contact projection and
        # the decoder's value row
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from affground import tensor as T\n"
            "from oracles import tsum\n"
            "rng = np.random.default_rng(0)\n"
            "for k, n, b in ((512, 2048, 8), (2048, 256, 8), (512, 256, 3)):\n"
            "    w = T.Tensor(np.zeros((k, n)), requires_grad=True,\n"
            "                 dtype=np.float32)\n"
            "    for _ in range(b):\n"
            "        row = T.Tensor(rng.normal(size=(1, k)), dtype=np.float32)\n"
            "        c = T.Tensor(rng.normal(size=(1, n)), dtype=np.float32)\n"
            "        T.backward(tsum(T.matmul(row, w) * c))\n"
            "    sys.stdout.buffer.write(w.grad.tobytes())\n")
        paths = os.pathsep.join([str(Path(T.__file__).resolve().parent.parent),
                                 str(Path(__file__).resolve().parent)])
        grads = [subprocess.run(
            [sys.executable, "-c", script], check=True, capture_output=True,
            env={**os.environ, "PYTHONPATH": paths, "OPENBLAS_NUM_THREADS": n,
                 "OMP_NUM_THREADS": n}).stdout for n in ("1", "2")]
        size = (512 * 2048 + 2048 * 256 + 512 * 256) * 4
        assert len(grads[0]) == size and grads[0] == grads[1]

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_a_record_then_a_full_contribution(self, dtype):
        # the full product is added in tape order, the records' sum last
        def run():
            rng = np.random.default_rng(5)
            w = T.Tensor(rng.normal(size=(6, 4)).astype(dtype), requires_grad=True)
            row = T.Tensor(rng.normal(size=(1, 6)).astype(dtype))
            rows = T.Tensor(rng.normal(size=(3, 6)).astype(dtype))
            c = T.Tensor(rng.normal(size=(1, 4)).astype(dtype))
            T.backward(tsum(T.matmul(row, w) * c) + tsum(T.matmul(rows, w)))
            full = T._sum_over_rows(rows.data, np.ones((3, 4), dtype))
            return w.grad, (0 + full) + row.data.T * c.data

        (got, want), (again, _) = run(), run()
        assert got.tobytes() == want.tobytes() == again.tobytes()

    def test_zero_grad_and_assignment_drop_the_records(self):
        rng = np.random.default_rng(2)
        w, rows, grads = self.case(rng, 3, np.float32)
        self.walk_rows(w, rows, grads)
        w.grad = None
        assert w._rows is None and w.grad is None
        self.walk_rows(w, rows[:1], grads[:1])
        assert w.grad.tobytes() == (0 + rows[0].T * grads[0]).tobytes()
        self.walk_rows(w, rows, grads)
        w.grad = np.ones(w.shape, np.float32)
        assert w._rows is None and (w.grad == 1).all()

    def test_interior_operand_gets_its_outer_product_at_once(self):
        w = T.Tensor(np.ones((3, 2)), requires_grad=True)
        row = T.Tensor(np.ones((1, 3)))
        T.backward(tsum(T.matmul(row, w * 2.0)))
        assert w._rows is None
        np.testing.assert_array_equal(w._grad, np.full((3, 2), 2.0))

    def test_records_keep_no_operand_buffer(self):
        # a record holds copies, not the row's (or its base's) buffer
        w = T.Tensor(np.ones((3, 2)), requires_grad=True, dtype=np.float32)
        block = np.ones((4, 3), np.float32)
        ref = weakref.ref(block)
        row = T.Tensor(block[:1])
        T.backward(tsum(T.matmul(row, w)))
        del block, row
        assert ref() is None and len(w._rows) == 1


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax_lastdim(T.Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)

    def test_closed_form(self):
        out = T.softmax_lastdim(T.Tensor([np.log(2.0), 0.0], dtype=np.float64))
        np.testing.assert_allclose(out.data, [2 / 3, 1 / 3], atol=1e-12)

    def test_large_logit_no_overflow(self):
        out = T.softmax_lastdim(T.Tensor([1000.0, 0.0], dtype=np.float64))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)
        assert np.isfinite(out.data).all()

    def test_nan_input_raises(self):
        with pytest.raises(NumericError):
            T.softmax_lastdim(T.Tensor([np.nan, 0.0]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8))
    def test_rows_sum_to_one(self, row):
        out = T.softmax_lastdim(T.Tensor(np.array(row), dtype=np.float64))
        assert abs(out.data.sum() - 1.0) <= 1e-6
        assert (out.data >= 0).all()

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        x = T.Tensor(rng.normal(size=(2, 5)), requires_grad=True, dtype=np.float64)
        w = T.Tensor(rng.normal(size=(2, 5)), dtype=np.float64)
        err = finite_difference_check(
            lambda t: tsum(T.softmax_lastdim(t) * w), x, h=1e-6)
        assert err <= 1e-6


class TestBackward:
    def test_grad_of_sum_is_ones(self):
        x = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
        T.backward(tsum(x))
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_grad_of_sum_of_squares(self):
        x = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
        T.backward(tsum(x * x))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            T.backward(x * 2.0)

    def test_repeated_backward_accumulates(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        loss = tsum(x * x)
        T.backward(loss)
        T.backward(loss)
        np.testing.assert_array_equal(x.grad, [4.0, 8.0])

    def test_tape_topological_order(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        y = x * x
        z = tsum(y + x)
        tape = T.Tape.trace(z)
        pos = {id(n): i for i, n in enumerate(tape.nodes)}
        assert len(pos) == len(tape.nodes)  # each op recorded exactly once
        for node in tape.nodes:
            for parent in node._parents:
                assert pos[id(parent)] < pos[id(node)]

    def test_shared_subexpression_grad(self):
        # d/dx of (x*x + x*x) = 4x; the shared node must be visited once
        x = T.Tensor([3.0], requires_grad=True, dtype=np.float64)
        y = x * x
        T.backward(tsum(y + y))
        np.testing.assert_allclose(x.grad, [12.0])

    def test_consumed_interior_gradient_is_released(self):
        # mul hands its parent a fresh buffer, so once z's rule has run
        # nothing but the walk could still hold z's gradient
        x = T.Tensor([1.0, -2.0], requires_grad=True)
        y = x * 2.0
        z = y * 3.0
        consumed = []
        dead_when_y_ran = []
        z_rule, y_rule = z._backward, y._backward

        def record_z(g):
            consumed.append(weakref.ref(g))
            z_rule(g)

        def check_y(g):
            dead_when_y_ran.append(consumed[0]() is None)
            y_rule(g)

        z._backward, y._backward = record_z, check_y
        T.backward(tsum(z))
        assert dead_when_y_ran == [True]
        assert y.grad is None and z.grad is None
        np.testing.assert_array_equal(x.grad, [6.0, 6.0])

    def test_no_grad_suppresses_recording(self):
        x = T.Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = tsum(x * x)
        assert y._backward is None and not y.requires_grad


class TestPrimitiveGradients:
    """Central-difference checks for every primitive, and for the oracles'
    former primitives."""

    TOL = 1e-6

    def _check(self, fn, shape=(3, 4), positive=False, seed=0):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=shape)
        if positive:
            data = np.abs(data) + 0.5
        x = T.Tensor(data, requires_grad=True, dtype=np.float64)
        assert finite_difference_check(fn, x, h=1e-6) <= self.TOL

    def test_add(self):
        c = T.Tensor(np.ones((3, 4)), dtype=np.float64)
        self._check(lambda x: tsum(x + c))

    def test_add_broadcast(self):
        c = T.Tensor(np.ones((1, 4)), dtype=np.float64)
        self._check(lambda x: tsum(x + c))

    def test_broadcast_grad_on_small_operand(self):
        big = T.Tensor(np.random.default_rng(1).normal(size=(3, 4)), dtype=np.float64)
        b = T.Tensor(np.zeros((1, 4)), requires_grad=True, dtype=np.float64)
        T.backward(tsum(big + b))
        np.testing.assert_allclose(b.grad, np.full((1, 4), 3.0))

    def test_sub(self):
        c = T.Tensor(np.ones((3, 4)), dtype=np.float64)
        self._check(lambda x: tsum(sub(c, x)))

    def test_mul(self):
        c = T.Tensor(np.full((3, 4), 2.5), dtype=np.float64)
        self._check(lambda x: tsum(x * c * x))

    def test_div(self):
        self._check(lambda x: tsum(div(1.0, x)), positive=True)

    def test_power(self):
        self._check(lambda x: tsum(power(x, 3.0)), positive=True)

    def test_relu(self):
        self._check(lambda x: tsum(relu(x)), seed=5)

    def test_sigmoid(self):
        self._check(lambda x: tsum(sigmoid(x)))

    def test_exp(self):
        self._check(lambda x: tsum(exp(x)))

    def test_log(self):
        self._check(lambda x: tsum(log(x)), positive=True)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(NumericError):
            log(T.Tensor([0.0, 1.0]))

    def test_clip_interior(self):
        self._check(lambda x: tsum(clip(x, -0.5, 0.5)), seed=7)

    def test_mean_axis(self):
        self._check(lambda x: tsum(T.tmean(x, axis=0)))

    def test_sum_keepdims(self):
        self._check(lambda x: tsum(x * tsum(x, axis=1, keepdims=True)))

    # max_reduce and concat are the oracles' own: check them as well

    def test_max_reduce(self):
        self._check(lambda x: tsum(max_reduce(x, axis=1)), seed=11)

    def test_max_reduce_3d(self):
        self._check(lambda x: tsum(max_reduce(x, axis=1)), shape=(2, 3, 4))

    def test_segment_max_on_segments_of_one_row(self):
        c = T.Tensor(np.random.default_rng(3).normal(size=(3, 4)), dtype=np.float64)
        self._check(lambda x: tsum(T.segment_max(x, np.arange(3)) * c), seed=12)

    def test_segment_max_on_uneven_segments(self):
        c = T.Tensor(np.random.default_rng(4).normal(size=(3, 4)), dtype=np.float64)
        self._check(lambda x: tsum(T.segment_max(x, [0, 1, 4]) * c),
                    shape=(6, 4), seed=13)

    def test_segment_max_on_tied_maxima(self):
        # repeated rows, as a group that holds one member twice: every copy
        # moves with its source, so the maxima stay tied under perturbation
        idx = np.array([0, 1, 0, 2, 2, 3, 0, 3])
        c = T.Tensor(np.random.default_rng(5).normal(size=(3, 4)), dtype=np.float64)
        self._check(lambda x: tsum(T.segment_max(T.gather_rows(x, idx), [0, 3, 5])
                                   * c), shape=(4, 4), seed=14)

    def test_reshape(self):
        self._check(lambda x: tsum(power(reshape(x, (2, 6)), 2.0)))

    def test_transpose(self):
        c = T.Tensor(np.random.default_rng(2).normal(size=(4, 3)), dtype=np.float64)
        self._check(lambda x: tsum(T.transpose(x) * c))

    def test_concat(self):
        c = T.Tensor(np.ones((3, 2)), dtype=np.float64)
        self._check(lambda x: tsum(power(concat([x, c], axis=1), 2.0)))

    def test_gather_rows_with_duplicates(self):
        idx = np.array([0, 2, 2, 1])
        self._check(lambda x: tsum(power(T.gather_rows(x, idx), 2.0)))

    def test_interpolate_with_repeated_and_unread_rows(self):
        idx = TestInterpolate.IDX
        self._check(lambda x: tsum(power(T.interpolate(x, idx, TestInterpolate.W), 2.0)))

    def test_slice_cols(self):
        self._check(lambda x: tsum(power(slice_cols(x, 1, 3), 2.0)))


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
        x = T.Tensor(np.ones((n_rows, d), dtype=dtype), requires_grad=True)
        out = T.gather_rows(x, idx)
        T.backward(tsum(out * T.Tensor(g)))
        expected = add_at_oracle(x.data, idx, g)
        assert x.grad.dtype == expected.dtype
        assert x.grad.tobytes() == expected.tobytes()
        assert T._scatter_rows(g, idx, x.shape, x.dtype).tobytes() == expected.tobytes()

    def test_all_negative_zero_gradient_gives_positive_zero(self):
        x = T.Tensor(np.ones((3, 2)), requires_grad=True, dtype=np.float32)
        T.backward(tsum(T.gather_rows(x, np.array([2, 0, 2])) *
                        T.Tensor(np.full((3, 2), -0.0), dtype=np.float32)))
        assert not np.signbit(x.grad).any()
        assert x.grad.tobytes() == np.zeros((3, 2), np.float32).tobytes()

    def test_busiest_target_sums_in_gather_order(self):
        # float32: (1e8 - 1e8) + 1 is 1, but (1 - 1e8) + 1e8 is 0
        x = T.Tensor(np.zeros((2, 1)), requires_grad=True, dtype=np.float32)
        g = np.array([[1e8], [-1e8], [5.0], [1.0]], dtype=np.float32)
        T.backward(tsum(T.gather_rows(x, np.array([0, 0, 1, 0])) * T.Tensor(g)))
        np.testing.assert_array_equal(x.grad, [[1.0], [5.0]])

    def test_negative_indices_count_from_the_end(self):
        x = T.Tensor(np.ones((4, 2)), requires_grad=True, dtype=np.float64)
        idx = np.array([-1, 3, 0, -4, 1])
        g = np.arange(10, dtype=np.float64).reshape(5, 2)
        T.backward(tsum(T.gather_rows(x, idx) * T.Tensor(g)))
        assert x.grad.tobytes() == add_at_oracle(x.data, idx, g).tobytes()


def old_slice_rule(x, cols):
    """The oracle slice backward: the block written into a full zero
    buffer, accumulated whole."""
    def backward(g):
        gx = np.zeros_like(x.data)
        gx[:, cols] = g
        T._accumulate(x, gx)

    return backward


def new_slice_rule(x, cols):
    return slice_cols(x, cols.start, cols.stop)._backward


def with_negative_zeros(rng, shape, dtype):
    g = rng.normal(size=shape).astype(dtype)
    g[rng.random(shape) < 0.3] = -0.0
    g.flat[0] = -0.0
    return g


class TestSliceGradient:
    """The oracles' slice_cols backward equals the whole-buffer rule byte for
    byte, negative zeros included.

    The rules are called directly: inside a walk, ``_accumulate`` has
    already turned every -0.0 of the upstream gradient into +0.0.
    """

    @staticmethod
    def contributions(dtype, seed):
        """Whole-tensor and block gradients, in the order they arrive."""
        rng = np.random.default_rng(seed)
        shape = (5, 4)
        out = []
        for _ in range(rng.integers(1, 6)):
            if rng.random() < 0.3:
                out.append((None, with_negative_zeros(rng, shape, dtype)))
                continue
            a, b = sorted(rng.choice(shape[1] + 1, size=2, replace=False))
            out.append((np.s_[a:b], with_negative_zeros(rng, (shape[0], b - a),
                                                         dtype)))
        return shape, out

    @staticmethod
    def grad(make_rule, shape, contributions, dtype):
        x = T.Tensor(np.ones(shape, dtype=dtype), requires_grad=True)
        for cols, g in contributions:
            if cols is None:
                T._accumulate(x, g.copy())
            else:
                make_rule(x, cols)(g.copy())
        return x.grad

    @settings(max_examples=150, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_the_former_rule(self, dtype, seed):
        shape, contributions = self.contributions(dtype, seed)
        want = self.grad(old_slice_rule, shape, contributions, dtype)
        got = self.grad(new_slice_rule, shape, contributions, dtype)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cols", [np.s_[1:3]], ids=["cols"])
    def test_negative_zero_first_write_gives_positive_zero(self, cols):
        g = np.full((3, 2), -0.0, np.float32)
        got = self.grad(new_slice_rule, (3, 3), [(cols, g)], np.float32)
        assert got.tobytes() == np.zeros((3, 3), np.float32).tobytes()


class TestInterpolate:
    IDX = np.array([[0, 0], [2, 0], [0, 2]])   # row 0 twice in a row, row 1 unread
    W = np.array([[0.7, 0.3], [0.25, 0.75], [0.5, 0.5]])

    def test_forward_is_weighted_row_sum(self):
        x = T.Tensor(np.arange(6.0).reshape(3, 2), dtype=np.float64)
        out = T.interpolate(x, self.IDX, self.W)
        expected = (x.data[self.IDX] * self.W[..., None]).sum(axis=1)
        np.testing.assert_allclose(out.data, expected, rtol=1e-15)

    def test_unread_source_row_gets_zero_gradient(self):
        x = T.Tensor(np.ones((3, 2)), requires_grad=True, dtype=np.float64)
        T.backward(tsum(T.interpolate(x, self.IDX, self.W)))
        np.testing.assert_array_equal(x.grad, [[2.25, 2.25], [0, 0], [0.75, 0.75]])

    def test_weights_take_the_input_dtype_and_get_no_gradient(self):
        x = T.Tensor(np.ones((3, 2)), requires_grad=True, dtype=np.float32)
        out = T.interpolate(x, self.IDX, self.W)
        assert out.dtype == np.float32 and out._parents == (x,)

    @settings(max_examples=120, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           n_src=st.integers(1, 5), n=st.integers(1, 12), k=st.integers(1, 8),
           d=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
    def test_backward_equals_the_former_per_row_rule(self, dtype, n_src, n, k,
                                                     d, seed):
        # k may exceed the source count, and every row names a neighbour twice
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, n_src, (n, k))
        idx[:, -1] = idx[:, 0]
        w = with_negative_zeros(rng, (n, k), dtype)
        # magnitudes spread over 8 decades, so the summation order shows
        g = with_negative_zeros(rng, (n, d), dtype) * dtype(10.0) ** rng.integers(
            -4, 4, (n, d)).astype(dtype)
        x = T.Tensor(np.ones((n_src, d), dtype), requires_grad=True)
        T.interpolate(x, idx, w)._backward(g.copy())
        want = former_interpolate_backward(g, idx, w.astype(dtype), x.shape)
        assert x.grad.dtype == want.dtype
        assert x.grad.tobytes() == np.add(want, 0).tobytes()
        assert T._scatter_rows(g, idx, x.shape, x.dtype, w).tobytes() == \
            want.tobytes()

    @pytest.mark.parametrize("x_shape, idx, w", [
        ((3, 2), np.array([0, 1]), np.array([0.5, 0.5])),
        ((3, 2), np.array([[0, 1]]), np.array([[0.5, 0.25, 0.25]])),
        ((3,), np.array([[0, 1]]), np.array([[0.5, 0.5]])),
    ], ids=["1d_index", "weight_shape", "1d_source"])
    def test_rejects_bad_shapes(self, x_shape, idx, w):
        with pytest.raises(ShapeError):
            T.interpolate(T.Tensor(np.ones(x_shape)), idx, w)


def former_interpolate_backward(g, idx, w, shape):
    """The former interpolate backward: every ``g[i] * w[i, c]`` formed
    as one (n * k, C) array, then scattered onto ``idx`` in (i, c) order."""
    n, k = idx.shape
    per_row = (g[:, None, :] * w[:, :, None]).reshape(n * k, g.shape[1])
    return T._scatter_rows(per_row, idx.reshape(-1), shape, w.dtype)


class TestRelease:
    """``release`` drops a gathered or interpolated product's buffer and
    changes no gradient."""

    IDX = np.array([2, 0, 2, 1, 2])
    NN = np.array([[0, 2], [2, 1], [1, 1]])
    NN_W = np.array([[0.25, 0.75], [0.5, 0.5], [1.0, 0.0]])
    OPS = {"gather_rows": lambda p, release: T.gather_rows(
               p, TestRelease.IDX, release=release),
           "interpolate": lambda p, release: T.interpolate(
               p, TestRelease.NN, TestRelease.NN_W, release=release)}

    @pytest.mark.parametrize("op", OPS)
    def test_product_buffer_is_dropped_and_gradients_kept(self, op):
        grads = []
        for release in (False, True):
            rng = np.random.default_rng(3)
            x = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            w = T.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
            product = T.matmul(x, w)
            ref = weakref.ref(product.data)
            out = self.OPS[op](product, release)
            loss = tsum(out * T.Tensor(rng.normal(size=out.shape)))
            assert (ref() is None) == release   # while the graph is alive
            if release:
                assert product.shape == (3, 5) and product.dtype == x.dtype
                assert not product.data.any() and not any(product.data.strides)
            T.backward(loss)
            grads.append((out.data, x.grad, w.grad))
        for kept, released in zip(*grads):
            assert kept.tobytes() == released.tobytes()

    @pytest.mark.parametrize("op", OPS)
    def test_relu_free_layer_is_released_and_relu_layer_refused(self, op):
        grads = []
        for release in (False, True):
            rng = np.random.default_rng(4)
            x = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            w = T.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
            b = T.Tensor(rng.normal(size=(1, 5)), requires_grad=True)
            layer = T.linear(x, w, (b,))
            out = self.OPS[op](layer, release)
            if release:
                for t in (layer, layer._parents[0]):
                    assert t.shape == (3, 5) and not any(t.data.strides)
            T.backward(tsum(out * T.Tensor(rng.normal(size=out.shape))))
            grads.append((out.data, x.grad, w.grad, b.grad))
        for kept, released in zip(*grads):
            assert kept.tobytes() == released.tobytes()
        relu_layer = T.linear(x, w, (b,), relu=True)
        with pytest.raises(ContractError, match=f"{op}: only a matmul output"):
            self.OPS[op](relu_layer, True)
        assert relu_layer.data.base is None

    @pytest.mark.parametrize("op", OPS)
    def test_only_a_product_can_be_released(self, op):
        x = T.Tensor(np.ones((3, 4)), requires_grad=True)
        with pytest.raises(ContractError, match=f"{op}: only a matmul output"):
            self.OPS[op](x, True)
        assert x.data.base is None and (x.data == 1).all()


class TestSegmentMaxRecord:
    """A recorded ``segment_max`` keeps each column's first-max rows, not
    its input, and with ``release`` the graph keeps no buffer of a pooled
    layer; the bytes are the former rule's."""

    # segments of three, one, four and two rows
    STARTS = np.array([0, 3, 4, 8])
    KINDS = ("ties", "signed_zeros", "nan_max")

    def values(self, kind, dtype, seed):
        rng = np.random.default_rng(seed)
        # few distinct values, so most maxima are tied
        data = rng.integers(-2, 3, size=(10, 6)).astype(dtype) * 0.5
        if kind == "signed_zeros":
            # at most zero, so many maxima are zeros of either sign
            data = -np.abs(data)
            data[(data == 0) & (rng.random(data.shape) < 0.5)] = -0.0
        elif kind == "nan_max":
            # NaN in segments' first rows, where the former rule's first
            # NaN is the segment's first row too
            data[self.STARTS[[0, 2]], 1] = np.nan
            data[self.STARTS[1:], 4] = np.nan
        return data

    def pooled(self, data, release):
        """``data`` pooled as the output of a ReLU-free layer, whose (rows,
        C) addend is a leaf and so gets the pool's input gradient; with a
        weak reference to the layer's buffer."""
        a = T.Tensor(np.ones((data.shape[0], 2), data.dtype), requires_grad=True)
        w = T.Tensor(np.ones((2, data.shape[1]), data.dtype), requires_grad=True)
        addend = T.Tensor(np.zeros_like(data), requires_grad=True)
        layer = T.linear(a, w, (addend,))
        layer.data[...] = data   # the values to pool, in the layer's buffer
        buffer = weakref.ref(layer.data)
        out = T.segment_max(layer, self.STARTS, release=release)
        return layer, addend, out, buffer

    @pytest.mark.parametrize("release", [False, True], ids=["kept", "released"])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_the_former_rule(self, release, kind, dtype, seed):
        data = self.values(kind, dtype, seed)
        g = with_negative_zeros(np.random.default_rng(seed + 10), (4, 6), dtype)
        leaf = T.Tensor(data.copy(), requires_grad=True)
        want = former_segment_max(leaf, self.STARTS)
        T.backward(tsum(want * T.Tensor(g)))
        layer, addend, got, buffer = self.pooled(data, release)
        loss = tsum(got * T.Tensor(g))
        assert (buffer() is None) == release   # while the graph is alive
        T.backward(loss)
        if release:
            for t in (layer, layer._parents[0]):
                assert t.shape == data.shape and t.dtype == dtype
                assert not t.data.any() and not any(t.data.strides)
        assert got.data.dtype == dtype
        assert got.data.tobytes() == want.data.tobytes()
        assert addend.grad.tobytes() == leaf.grad.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_nan_anywhere_gives_the_kept_bytes(self, kind):
        data = self.values(kind, np.float64, 5)
        data[[2, 5, 9], [0, 3, 5]] = np.nan
        grads = []
        for release in (False, True):
            _, addend, out, _ = self.pooled(data, release)
            T.backward(tsum(out))
            grads.append((out.data.tobytes(), addend.grad.tobytes()))
        assert grads[0] == grads[1]

    def test_a_plain_product_is_released(self):
        x = T.Tensor(np.ones((4, 2)), requires_grad=True)
        product = T.matmul(x, T.Tensor(np.ones((2, 3))))
        T.backward(tsum(T.segment_max(product, [0, 1], release=True)))
        assert not any(product.data.strides)
        np.testing.assert_array_equal(x.grad, [[3, 3], [3, 3], [0, 0], [0, 0]])

    @pytest.mark.parametrize("make", [
        lambda x, w: T.linear(x, w, (T.Tensor(np.ones((1, 3))),), relu=True),
        lambda x, w: x,
        lambda x, w: T.matmul(x, w) + 1.0,
        lambda x, w: T.gather_rows(T.matmul(x, w), [0, 1, 2, 3]),
    ], ids=["relu_layer", "leaf", "add", "gather_rows"])
    def test_release_refuses_all_but_a_product_or_a_relu_free_layer(self, make):
        x = T.Tensor(np.ones((4, 3)), requires_grad=True)
        pooled = make(x, T.Tensor(np.ones((3, 3))))
        buffer = pooled.data
        with pytest.raises(ContractError, match="segment_max: only a matmul output "
                                                "or a linear output without ReLU"):
            T.segment_max(pooled, [0, 2], release=True)
        assert pooled.data is buffer and buffer.base is None

    def test_first_rows_are_formed_once_and_only_where_recorded(self, monkeypatch):
        calls = []
        real = T._first_rows
        monkeypatch.setattr(T, "_first_rows",
                            lambda *args: calls.append(1) or real(*args))
        positive = np.random.default_rng(0).random((10, 6)) + 1.0
        with T.no_grad():
            T.segment_max(T.Tensor(positive, requires_grad=True), self.STARTS)
        T.segment_max(T.Tensor(positive), self.STARTS)
        assert calls == []
        x = T.Tensor(positive, requires_grad=True)
        out = T.segment_max(x, self.STARTS)
        T.backward(tsum(out))
        assert len(calls) == 1 and x.grad.sum() == out.size
        # a zero maximum's sign comes from the same rows
        zeros = self.values("signed_zeros", np.float64, 0)
        T.segment_max(T.Tensor(zeros, requires_grad=True), self.STARTS)
        assert len(calls) == 2
        with T.no_grad():
            T.segment_max(T.Tensor(zeros), self.STARTS)
        assert len(calls) == 3


def former_relu(x):
    """The former relu: the mask built in the forward, output by np.where."""
    mask = x.data > 0

    def backward(g):
        T._accumulate(x, g * mask)

    return T._node(np.where(mask, x.data, 0), (x,), backward, "relu")


def former_max_reduce(x, axis, keepdims=False):
    """The former max_reduce: argmax in the forward, then take_along_axis."""
    idx = np.argmax(x.data, axis=axis)
    out = np.take_along_axis(x.data, np.expand_dims(idx, axis), axis=axis)
    if not keepdims:
        out = np.squeeze(out, axis=axis)

    def backward(g):
        gx = np.zeros_like(x.data)
        expanded = g if keepdims else np.expand_dims(g, axis)
        np.put_along_axis(gx, np.expand_dims(idx, axis), expanded, axis=axis)
        T._accumulate(x, gx)

    return T._node(out, (x,), backward, "max")


def former_segment_max(x, starts, release=False):
    """segment_max as the former padded pool: every segment padded to the
    longest with copies of its first row, then ``former_max_reduce``.
    It keeps its input, so ``release`` changes nothing."""
    longest = int(np.diff(starts, append=x.shape[0]).max())
    rows = padded_rows(starts, x.shape[0], longest)
    padded = T.gather_rows(x, rows.reshape(-1))
    return former_max_reduce(reshape(padded, rows.shape + x.shape[1:]), axis=1)


def gemm_matmul(a, b):
    """The former matmul: every backward product as a GEMM, K=1 included."""
    def backward(g):
        if a.requires_grad:
            T._accumulate(a, g @ b.data.T)
        if b.requires_grad:
            T._accumulate(b, a.data.T @ g)

    return T._node(a.data @ b.data, (a, b), backward, "matmul")


def former_matmul(a, b):
    """``gemm_matmul``, except that a (1, K) row times a leaf is recorded
    as ``matmul`` records it, so a whole model's gradients differ from
    the current rules' only where the other former rules do."""
    def backward(g):
        if a.requires_grad:
            T._accumulate(a, g @ b.data.T)
        if b.requires_grad:
            if a.shape[0] == 1 and b._backward is None:
                T._record(b, a.data.copy(), g.copy())
            else:
                T._accumulate(b, a.data.T @ g)

    return T._node(a.data @ b.data, (a, b), backward, "matmul")


class TestFormerRules:
    """The oracles' relu and max_reduce, segment_max and matmul's backward
    equal their former numpy forms byte for byte; the former forms stay
    here as oracles."""

    DTYPES = [np.float32, np.float64]

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("seed", range(4))
    def test_relu(self, dtype, seed):
        rng = np.random.default_rng(seed)
        data = signed_zeros_and_negatives(rng, (7, 33), dtype)
        data[0, :3] = [-0.0, 0.0, -1.5]
        g = T.Tensor(rng.normal(size=(7, 33)).astype(dtype))
        grads = []
        for rule in (former_relu, relu):
            x = T.Tensor(data.copy(), requires_grad=True)
            out = rule(x)
            T.backward(tsum(out * g))
            grads.append((out.data, x.grad))
        (want_out, want_grad), (got_out, got_grad) = grads
        assert not np.signbit(got_out).any()
        assert got_out.dtype == want_out.dtype
        assert got_out.tobytes() == want_out.tobytes()
        assert got_grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("keepdims", [False, True])
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_max_reduce_with_tied_maxima(self, axis, keepdims, dtype, seed):
        rng = np.random.default_rng(seed)
        # few distinct values, so most maxima are tied; +0.0 among them
        data = rng.integers(-2, 3, size=(4, 5, 6)).astype(dtype) * 0.5
        # a padded group: one member repeated along the reduced axis
        lead = np.take(data, [0], axis=axis)
        np.copyto(data, lead, where=np.arange(data.shape[axis]).reshape(
            [-1 if a == axis else 1 for a in range(3)]) >= 3)
        out_shape = np.zeros_like(data).max(axis=axis, keepdims=keepdims).shape
        g = T.Tensor(rng.normal(size=out_shape).astype(dtype))
        grads = []
        for rule in (former_max_reduce, max_reduce):
            x = T.Tensor(data.copy(), requires_grad=True)
            out = rule(x, axis, keepdims=keepdims)
            T.backward(tsum(out * g))
            grads.append((out.data, x.grad))
        (want_out, want_grad), (got_out, got_grad) = grads
        assert got_out.shape == want_out.shape
        assert got_out.tobytes() == want_out.tobytes()
        assert got_grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("seed", range(4))
    def test_segment_max_equals_former_max_reduce(self, dtype, seed):
        rng = np.random.default_rng(seed)
        m, k, c = 6, 5, 7
        # few distinct values, so most maxima are tied, zeros of both signs
        data = rng.integers(-2, 3, size=(m, k, c)).astype(dtype) * 0.5
        data[(data == 0) & (rng.random(data.shape) < 0.5)] = -0.0
        # padded groups: members past the third repeat the first
        data[:, 3:] = data[:, :1]
        g = rng.normal(size=(m, c)).astype(dtype)
        g[rng.random(g.shape) < 0.2] = -0.0
        want_x = T.Tensor(data.copy(), requires_grad=True)
        want = former_max_reduce(want_x, axis=1)
        T.backward(tsum(want * T.Tensor(g)))
        got_x = T.Tensor(data.reshape(m * k, c), requires_grad=True)
        got = T.segment_max(got_x, np.arange(m) * k)
        T.backward(tsum(got * T.Tensor(g)))
        assert np.signbit(want.data).any() and not np.signbit(want.data).all()
        assert got.data.dtype == dtype
        assert got.data.tobytes() == want.data.tobytes()
        assert got_x.grad.tobytes() == want_x.grad.reshape(m * k, c).tobytes()

    def test_segment_max_nan_goes_to_the_first_row(self):
        data = np.array([[1.0, 5.0], [np.nan, 2.0], [3.0, np.nan],
                         [4.0, 0.5], [np.nan, -1.0]])
        x = T.Tensor(data, requires_grad=True, dtype=np.float64)
        out = T.segment_max(x, [0, 3])
        T.backward(tsum(out))
        assert np.isnan(out.data).tolist() == [[True, True], [True, False]]
        np.testing.assert_array_equal(out.data[1, 1], 0.5)
        np.testing.assert_array_equal(
            x.grad, [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((1, 5), (5, 4)), ((6, 5), (5, 1)), ((1, 5), (5, 1)), ((6, 5), (5, 4)),
    ], ids=["one_row", "one_column", "one_row_and_column", "general"])
    @pytest.mark.parametrize("existing", [False, True],
                             ids=["first_contribution", "added"])
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_matmul_backward(self, a_shape, b_shape, existing, dtype, seed):
        rng = np.random.default_rng(seed)
        a_data = signed_zeros_and_negatives(rng, a_shape, dtype)
        b_data = signed_zeros_and_negatives(rng, b_shape, dtype)
        g = signed_zeros_and_negatives(rng, (a_shape[0], b_shape[1]), dtype)
        earlier = [signed_zeros_and_negatives(rng, s, dtype)
                   for s in (a_shape, b_shape)]
        grads = []
        for rule in (gemm_matmul, T.matmul):
            a = T.Tensor(a_data.copy(), requires_grad=True)
            b = T.Tensor(b_data.copy(), requires_grad=True)
            if existing:
                T._accumulate(a, earlier[0].copy())
                T._accumulate(b, earlier[1].copy())
            out = rule(a, b)
            out._backward(g.copy())
            grads.append((out.data, a.grad, b.grad))
        for want, got in zip(*grads):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def walk(root, g):
    """``T.backward`` from ``root`` with upstream gradient ``g`` as given,
    -0.0 and NaN included (``backward`` would start from a scalar)."""
    root.grad = g.copy()
    for node in reversed(T.Tape.trace(root).nodes):
        grad = node.grad
        if node._backward is not None and grad is not None:
            node.grad = None
            node._backward(grad)


class TestLinear:
    """``linear`` against ``matmul``, one ``add`` per addend and the
    oracles' relu: the same bytes forward and backward, in one buffer."""

    # addend shapes, each with whether it needs a gradient
    CASES = {
        "product_only": [],
        "bias": [((1, 6), True)],
        "two_addends": [((5, 6), True), ((1, 6), True)],
        "constant_addend": [((5, 6), False), ((1, 6), True)],
        "row_vector_bias": [((6,), True)],
    }

    def leaves(self, case, dtype, seed, x_grad=True):
        rng = np.random.default_rng(seed)
        x = signed_zeros_and_negatives(rng, (5, 4), dtype)
        x[0, 0], x[3, :] = np.nan, 0.0
        w = signed_zeros_and_negatives(rng, (4, 6), dtype)
        product = x @ w
        addends = []
        for shape, grad in self.CASES[case]:
            a = signed_zeros_and_negatives(rng, shape, dtype)
            if a.shape == product.shape:
                # cancel some sums exactly: the ReLU's kink at +0.0
                cancel = rng.random(shape) < 0.3
                a[cancel] = -product[cancel]
            addends.append((a, grad))
        g = signed_zeros_and_negatives(rng, product.shape, dtype)
        g[1, 1] = np.nan

        def make():
            return (T.Tensor(x, requires_grad=x_grad),
                    T.Tensor(w, requires_grad=True),
                    [T.Tensor(a, requires_grad=grad) for a, grad in addends])
        return make, g

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("relu_on", [False, True], ids=["plain", "relu"])
    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_the_unfused_chain(self, case, relu_on, dtype, seed):
        make, g = self.leaves(case, dtype, seed)
        results = []
        for rule in (unfused_linear, T.linear):
            x, w, addends = make()
            out = rule(x, w, addends, relu=relu_on)
            walk(out, g)
            results.append([out.data.copy(), x.grad, w.grad]
                           + [a.grad for a in addends])
        want, got = results
        assert np.isnan(want[0]).any() and (want[0] == 0).any()
        for i, (a, b) in enumerate(zip(want, got)):
            if a is None:
                assert b is None, i
                continue
            assert b.dtype == a.dtype == dtype, i
            assert b.tobytes() == a.tobytes(), i

    def test_addend_without_gradient_gets_none(self):
        make, g = self.leaves("constant_addend", np.float64, 0, x_grad=False)
        x, w, (full, bias) = make()
        walk(T.linear(x, w, (full, bias), relu=True), g)
        assert x.grad is None and full.grad is None
        assert w.grad is not None and bias.grad is not None

    def test_output_is_the_products_buffer(self):
        make, _ = self.leaves("two_addends", np.float32, 0)
        x, w, addends = make()
        out = T.linear(x, w, addends, relu=True)
        product = out._parents[0]
        assert product._op == "matmul" and out._op == "linear_relu"
        assert out._parents[1:] == tuple(addends)
        assert np.shares_memory(out.data, product.data)
        # no addend and no ReLU: the product is the whole layer
        assert T.linear(x, w)._op == "matmul"

    @pytest.mark.parametrize("relu_on", [False, True], ids=["plain", "relu"])
    def test_each_operand_gets_a_gradient_buffer_of_its_own(self, relu_on):
        make, g = self.leaves("two_addends", np.float64, 2)
        x, w, addends = make()
        out = T.linear(x, w, addends, relu=relu_on)
        product = out._parents[0]
        out._backward(g.copy())
        grads = [product.grad] + [a.grad for a in addends]
        for i, a in enumerate(grads):
            for b in grads[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_no_grad_output_is_the_products_buffer(self):
        make, _ = self.leaves("bias", np.float32, 1)
        x, w, addends = make()
        with T.no_grad():
            out = T.linear(x, w, addends, relu=True)
        assert out._parents == () and not out.requires_grad
        np.testing.assert_array_equal(
            out.data, np.maximum(x.data @ w.data + addends[0].data, 0))

    @pytest.mark.parametrize("shape, dtype", [
        ((1, 6), np.float64), ((2, 6), np.float32), ((5, 7), np.float32),
        ((1, 5, 6), np.float32),
    ], ids=["dtype", "rows", "columns", "rank"])
    def test_rejects_an_addend(self, shape, dtype):
        x = T.Tensor(np.ones((5, 4)), requires_grad=True, dtype=np.float32)
        w = T.Tensor(np.ones((4, 6)), requires_grad=True, dtype=np.float32)
        addend = T.Tensor(np.ones(shape), dtype=dtype)
        with pytest.raises(ShapeError):
            T.linear(x, w, (addend,))
        if dtype != np.float32:
            with pytest.raises(ShapeError):     # as add refuses it
                T.matmul(x, w) + addend


    @pytest.mark.parametrize("relu_on", [False, True], ids=["plain", "relu"])
    def test_a_spent_addend_keeps_no_buffer(self, relu_on):
        make, g = self.leaves("two_addends", np.float32, 3)
        results = []
        for spend in (False, True):
            x, w, (full, bias) = make()
            full.data = full.data.copy()    # a buffer only the addend holds
            buffer = weakref.ref(full.data)
            out = T.linear(x, w, (full, bias), relu=relu_on,
                           spent=(full,) if spend else ())
            assert (buffer() is None) == spend
            walk(out, g)
            results.append([out.data, x.grad, w.grad, full.grad, bias.grad])
        assert np.shares_memory(full.data, out.data)
        assert not full.data.flags.writeable and full.shape == out.shape
        for want, got in zip(*results):
            assert got.tobytes() == want.tobytes()

    def test_rejects_a_spent_tensor_it_does_not_fill(self):
        make, _ = self.leaves("two_addends", np.float32, 0)
        x, w, (full, bias) = make()
        other = T.Tensor(np.ones((5, 6), dtype=np.float32))
        for spent in ((other,), (bias,)):
            with pytest.raises(ContractError):
                T.linear(x, w, (full, bias), spent=spent)


@pytest.mark.parametrize("op", [T.add, sub, T.mul, div],
                         ids=["add", "sub", "mul", "div"])
@pytest.mark.parametrize("operand", ["tensor", "constant"])
def test_operands_that_do_not_broadcast_raise_shape_error(op, operand):
    a = T.Tensor(np.ones((5, 6)))
    b = np.ones((2, 6))
    if operand == "tensor":
        b = T.Tensor(b)
    for left, right in ((a, b), (b, a)):
        with pytest.raises(ShapeError, match=r"\(5, 6\).*\(2, 6\)|\(2, 6\).*\(5, 6\)"):
            op(left, right)


class TestHandingOff:
    """A walk inside ``handing_off``: jobs for the handed-off leaves, run
    afterwards in order, give the one walk's gradients bitwise."""

    def graph(self):
        rng = np.random.default_rng(7)

        def leaf(shape, grad=True):
            return T.Tensor(signed_zeros_and_negatives(rng, shape, np.float32),
                            requires_grad=grad)

        x, z = leaf((300, 4), grad=False), leaf((300, 3), grad=False)
        w1, b1, kept = leaf((4, 6)), leaf((1, 6)), leaf((5, 1))
        w_h, w_z = leaf((6, 5)), leaf((3, 5))   # one weight per input part
        row, w_row = leaf((1, 2)), leaf((2, 5))
        h = T.linear(x, w1, (b1,), relu=True)
        shift = T.linear(row, w_row)                      # a K=1 product
        h2 = T.linear(h, w_h, (T.matmul(z, w_z), shift), relu=True)
        loss = tsum(T.matmul(h2, kept)) + T.tmean(h2 * h2)
        return loss, {"w1": w1, "b1": b1, "w_h": w_h, "w_z": w_z,
                      "kept": kept, "row": row, "w_row": w_row}

    def test_jobs_in_order_give_the_sequential_gradients(self):
        loss, want = self.graph()
        T.backward(loss)
        loss, got = self.graph()
        jobs = []
        with T.handing_off(jobs.append, keep=[got["kept"]]):
            T.backward(loss)
        # the walk itself wrote only the kept leaf
        assert {name for name, p in got.items() if p.grad is not None} == {"kept"}
        for job in jobs:
            job()
        for name, p in want.items():
            assert got[name].grad.tobytes() == p.grad.tobytes(), name

    def test_walks_outside_the_block_do_all_their_work(self):
        jobs = []
        with T.handing_off(jobs.append):
            pass
        loss, params = self.graph()
        T.backward(loss)
        assert not jobs and all(p.grad is not None for p in params.values())

    @pytest.mark.parametrize("use", [
        lambda w, x: w * x,
        lambda w, x: T.matmul(T.transpose(w), x),
        lambda w, x: T.matmul(T.transpose(x), w) + tsum(w * x),
    ], ids=["mul", "transpose", "matmul_and_mul"])
    def test_a_handed_off_leaf_in_any_op_gets_the_sequential_bytes(self, use):
        def leaves():
            rng = np.random.default_rng(11)
            return [T.Tensor(signed_zeros_and_negatives(rng, (3, 4), np.float32),
                             requires_grad=True) for _ in range(2)]

        want = leaves()
        T.backward(tsum(use(*want)))
        w, x = leaves()
        loss = tsum(use(w, x))
        jobs = []
        with T.handing_off(jobs.append, keep=[x]):
            T.backward(loss)
        # the walk wrote the kept leaf, and every write to w is a job
        assert jobs and w._grad is None and w._rows is None
        assert x._grad is not None
        for job in jobs:
            job()
        for got, p in zip((w, x), want, strict=True):
            assert got.grad.tobytes() == p.grad.tobytes()


def _patch_former_rules(monkeypatch):
    """Put the unfused linear chain, the former max pool and matmul in
    every affground module that imported the current ones."""
    for name, former in (("linear", unfused_linear),
                         ("segment_max", former_segment_max),
                         ("matmul", former_matmul)):
        current = getattr(T, name)
        for module_name, module in list(sys.modules.items()):
            if (module_name.startswith("affground") and module is not None
                    and getattr(module, name, None) is current):
                monkeypatch.setattr(module, name, former)


def test_toy_model_gradients_equal_the_former_rules(tmp_path, monkeypatch):
    toy = {"n_points": 128, "d": 16, "d_h": 32, "seq_len": 4,
           "cont_width": 16, "k_max": [8, 8, 8]}
    manifest = gen_synthetic_dataset(tmp_path / "data", 1, 2, 2, toy["n_points"],
                                     seed=4, d_h=toy["d_h"], seq_len=toy["seq_len"])
    config = RunConfig(model=ModelConfig(**toy))

    def run():
        model = AffordanceModel(config)
        samples = train_module.load_samples(read_dataset(manifest), model)
        for sample in samples[:3]:
            result = model.forward(sample.hidden, sample.plan)
            total, _, _ = model.loss(result, sample.cloud, sample.hidden)
            T.backward(total * (1.0 / 3.0))
        scores = [model.predict(s.hidden, s.plan) for s in samples]
        return {name: p.grad for name, p in model.params.items()}, scores

    got_grads, got_scores = run()
    _patch_former_rules(monkeypatch)
    assert T.matmul is former_matmul
    assert sys.modules["affground.nn"].linear is unfused_linear
    assert sys.modules["affground.backbone"].segment_max is former_segment_max
    want_grads, want_scores = run()
    assert got_grads.keys() == want_grads.keys()
    for name, want in want_grads.items():
        assert got_grads[name].tobytes() == want.tobytes(), name
    for got, want in zip(got_scores, want_scores, strict=True):
        assert got.tobytes() == want.tobytes()


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
        x = T.Tensor([1.0, -2.0], requires_grad=True)
        c = T.Tensor([3.0, 0.5])
        loss = tsum((x + x) * c)
        tensors = T.Tape.trace(loss).nodes
        T.backward(loss)
        np.testing.assert_array_equal(x.grad, [6.0, 1.0])
        self.assert_grads_own_memory(tensors)

    def test_shared_subexpression(self):
        a = T.Tensor([1.0, 2.0], requires_grad=True)
        b = T.Tensor([0.5, -1.0], requires_grad=True)
        s = a + b
        loss = tsum(s * s + s)
        tensors = T.Tape.trace(loss).nodes
        T.backward(loss)
        np.testing.assert_array_equal(a.grad, [4.0, 3.0])
        np.testing.assert_array_equal(b.grad, [4.0, 3.0])
        self.assert_grads_own_memory(tensors)

    def test_repeated_backward_accumulates_per_leaf(self):
        # a + b hands the same upstream buffer to both leaves; adding into
        # one leaf's gradient later must leave the other's untouched
        a = T.Tensor([1.0, 2.0], requires_grad=True)
        b = T.Tensor([3.0, 4.0], requires_grad=True)
        c = T.Tensor([2.0, -1.0])
        loss = tsum((a + b) * c)
        T.backward(loss)
        T.backward(loss)
        T.backward(tsum(a * c))
        np.testing.assert_array_equal(a.grad, [6.0, -3.0])
        np.testing.assert_array_equal(b.grad, [4.0, -2.0])
        self.assert_grads_own_memory(T.Tape.trace(loss).nodes)

    def test_add_of_two_full_shape_leaves(self):
        # both operands would receive the upstream buffer itself
        a = T.Tensor([1.0, 2.0], requires_grad=True)
        b = T.Tensor([3.0, 4.0], requires_grad=True)
        loss = tsum((a + b) * T.Tensor([2.0, -1.0]))
        tensors = T.Tape.trace(loss).nodes
        T.backward(loss)
        np.testing.assert_array_equal(a.grad, [2.0, -1.0])
        np.testing.assert_array_equal(b.grad, [2.0, -1.0])
        self.assert_grads_own_memory(tensors)
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, [2.0, -1.0])

    def test_concat_of_one_tensor_twice(self):
        # both halves of one upstream buffer land in the same gradient
        x = T.Tensor([[1.0, -2.0]], requires_grad=True)
        c = T.Tensor([[3.0, 0.5, -1.0, 4.0]])
        loss = tsum(concat([x, x], axis=1) * c)
        tensors = T.Tape.trace(loss).nodes
        T.backward(loss)
        np.testing.assert_array_equal(x.grad, [[2.0, 4.5]])
        self.assert_grads_own_memory(tensors)

    def test_first_write_turns_negative_zero_positive(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        T.backward(tsum(x * T.Tensor([-0.0, 3.0])))
        assert x.grad.tobytes() == np.array([0.0, 3.0], np.float32).tobytes()


class TestFiniteDifferenceHarness:
    def test_exact_quadratic(self):
        x = T.Tensor(np.random.default_rng(0).normal(size=(6,)),
                     requires_grad=True, dtype=np.float64)
        err = finite_difference_check(lambda t: tsum(t * t), x, h=1e-5)
        assert err <= 1e-8

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(1)
        logits = T.Tensor(rng.normal(size=(1, 5)), requires_grad=True,
                          dtype=np.float64)

        def ce(z):
            p = T.softmax_lastdim(z)
            return tsum(neg(log(slice_cols(p, 2, 3))))

        assert finite_difference_check(ce, logits, h=1e-6) <= 1e-6

    def test_detects_injected_fault(self):
        # a deliberately wrong backward rule (+10% on the gradient) must
        # be flagged with error >= 0.05
        x = T.Tensor([1.0, 2.0, 3.0], requires_grad=True, dtype=np.float64)

        def bad_square(t):
            def backward(g):
                T._accumulate(t, 1.1 * g * 2.0 * t.data)
            return T._node(t.data * t.data, (t,), backward, "bad_square")

        err = finite_difference_check(lambda t: tsum(bad_square(t)), x, h=1e-5)
        assert err >= 0.05


class TestDeterminism:
    def test_identical_graph_identical_output(self):
        def build():
            rng = np.random.default_rng(42)
            x = T.Tensor(rng.normal(size=(8, 8)), requires_grad=True,
                         dtype=np.float64)
            w = T.Tensor(rng.normal(size=(8, 8)), requires_grad=True,
                         dtype=np.float64)
            loss = tsum(T.linear(x, w, relu=True))
            T.backward(loss)
            return loss.data.copy(), x.grad.copy(), w.grad.copy()

        first = build()
        second = build()
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


# the Tensor methods that each operator invokes
_OPERATORS = {ast.Add: ("__add__", "__radd__"), ast.Sub: ("__sub__", "__rsub__"),
              ast.Mult: ("__mul__", "__rmul__"), ast.Div: ("__truediv__",),
              ast.MatMult: ("__matmul__",), ast.Pow: ("__pow__",),
              ast.USub: ("__neg__",)}


def test_every_public_tensor_function_has_a_caller_under_src():
    # Every public function and class of tensor.py, and every method of
    # Tensor, needs a caller in a module under src other than gradcheck.py,
    # which checks the primitives rather than running them; the Tensor
    # class's own body is not searched. A function or class is called by name
    # (``f`` or ``T.f``) or through an operator that a Tensor method
    # forwards to it (``a + b``). A method is called through its operator,
    # by attribute (``x.item()``), by the class's name (``__init__``), or
    # by ``repr`` and ``!r`` (``__repr__``). ast does not know operand
    # types, so operators and attributes count wherever they appear: a
    # numpy ``.sum()`` would count for a ``Tensor.sum``, but not for a
    # function that only such a method forwards to.
    src = Path(T.__file__).parent
    tensor_tree = ast.parse(Path(T.__file__).read_text())
    public = {node.name for node in tensor_tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    (tensor_class,) = [node for node in tensor_tree.body
                       if isinstance(node, ast.ClassDef) and node.name == "Tensor"]
    methods = {node.name for node in tensor_class.body
               if isinstance(node, ast.FunctionDef)} | {
        target.id for node in tensor_class.body if isinstance(node, ast.Assign)
        for target in node.targets if target.id != "__slots__"}
    forwards = {method.name: {n.id for n in ast.walk(method) if isinstance(n, ast.Name)}
                for method in tensor_class.body if isinstance(method, ast.FunctionDef)}
    forwards["__radd__"], forwards["__rmul__"] = forwards["__add__"], forwards["__mul__"]

    called, methods_called = set(), set()
    for path in sorted(src.glob("*.py")):
        if path.name == "gradcheck.py":
            continue
        tree = tensor_tree if path.name == "tensor.py" else ast.parse(path.read_text())
        aliases = {a.asname or a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for a in node.names
                   if a.name == "tensor"}
        stack = [tree]
        while stack:
            node = stack.pop()
            if node is tensor_class:
                continue
            if isinstance(node, ast.Name):
                called.add(node.id)
            elif isinstance(node, ast.Attribute):
                methods_called.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    called.add(node.attr)
            elif isinstance(node, ast.FormattedValue) and node.conversion == ord("r"):
                methods_called.add("__repr__")
            elif isinstance(node, (ast.BinOp, ast.UnaryOp)):
                for method in _OPERATORS.get(type(node.op), ()):
                    methods_called.add(method)
                    called |= forwards.get(method, set())
            stack.extend(ast.iter_child_nodes(node))
    methods_called |= {"__init__"} if "Tensor" in called else set()
    methods_called |= {"__repr__"} if "repr" in called else set()
    assert sorted(public - called) == []
    assert sorted(methods - methods_called) == []
