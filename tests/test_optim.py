"""AdamW: its arithmetic, its update in two parameter groups, its
finiteness checks, and its memory: moments made at a parameter's first
update, gradients dropped once the update has read them, and a restore
that allocates no moment. Also the chunked update against the
whole-array form, and the linear learning-rate schedule."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affground import tensor as T
from affground.config import ModelConfig, RunConfig
from affground.dataio import all_finite
from affground.errors import CheckpointError, ContractError, NumericError
from affground.model import AffordanceModel
from affground.optim import AdamW, adamw_step, linear_lr

from conftest import signed_zeros_and_negatives


def traced(fn):
    """``(result, rise of the traced peak, rise of traced memory)`` of
    ``fn()``, over what was traced just before it."""
    assert tracemalloc.is_tracing()
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    result = fn()
    now, peak = tracemalloc.get_traced_memory()
    return result, peak - before, now - before


@pytest.fixture
def tracing():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def float_params(seed=0):
    """Parameters of both dtypes, one of them over three chunks long."""
    rng = np.random.default_rng(seed)
    shapes = {"a.w": ((512, 385), np.float32), "a.b": ((385,), np.float32),
              "b.w": ((64, 48), np.float64), "c.w": ((1, 1), np.float32)}
    return {name: T.tensor(rng.normal(size=shape).astype(dtype),
                           requires_grad=True)
            for name, (shape, dtype) in shapes.items()}


def saved_state(params, step=2):
    return {"step": step,
            **{moment: {name: np.full(p.shape, 0.5, p.dtype)
                        for name, p in params.items()}
               for moment in ("exp_avg", "exp_avg_sq")}}


class TestStateOnDemand:
    def test_set_up_allocates_no_moments(self, tracing):
        params = float_params()
        opt, peak, _ = traced(lambda: AdamW(params))
        assert peak < params["b.w"].data.nbytes, peak   # a 24 KB moment
        assert opt.exp_avg == {} and opt.exp_avg_sq == {}

    def test_step_consumes_every_gradient(self):
        params = float_params()
        rng = np.random.default_rng(1)
        for name, p in params.items():
            if name != "a.b":   # a missing gradient counts as zeros
                p.grad = rng.normal(size=p.shape).astype(p.dtype)
        opt = AdamW(params, lr=0.01)
        opt.step()
        assert all(p.grad is None for p in params.values())
        assert list(opt.exp_avg) == list(params) == list(opt.exp_avg_sq)

    def test_step_consumes_recorded_rank_one_rows(self):
        w = T.tensor(np.ones((3, 4), np.float32), requires_grad=True)
        row = T.tensor(np.arange(3, dtype=np.float32).reshape(1, 3))
        T.backward((row @ w).sum())
        assert w._rows is not None
        AdamW({"w": w}).step()
        assert w.grad is None and w._rows is None

    def test_first_step_holds_the_moments_in_place_of_the_gradients(
            self, tracing):
        # the small benchmark config; all its memory is traced
        config = RunConfig(model=ModelConfig(n_points=1024, d=128, d_h=256,
                                             seq_len=8))
        params = AffordanceModel(config).params
        rng = np.random.default_rng(2)
        for p in params.values():
            p.grad = rng.normal(size=p.shape).astype(p.dtype)
        param_bytes = sum(p.data.nbytes for p in params.values())
        largest = max(p.data.nbytes for p in params.values())
        chunk = adamw_step.__globals__["_CHUNK"]
        scratch = 2 * min(largest, 4 * chunk)   # float32
        _, peak, held = traced(lambda: AdamW(params).step())
        # one tensor in flight (its moments, its new value and the
        # scratch) over the moments made so far less the gradients used;
        # with moments made at set-up and gradients kept this read 2.25x
        assert peak <= param_bytes + 3 * largest + scratch, \
            peak / param_bytes
        assert held <= 1.02 * param_bytes, held / param_bytes

    def test_state_before_any_update_is_zero_moments(self):
        params = float_params()
        opt = AdamW(params)
        state = opt.state_arrays()
        assert state["step"] == 0
        for moment in ("exp_avg", "exp_avg_sq"):
            assert list(state[moment]) == list(params)
            for name, p in params.items():
                arr = state[moment][name]
                assert arr.shape == p.shape and arr.dtype == p.dtype, name
                assert not arr.any() and arr.flags.writeable, name

    def test_restore_allocates_no_moment(self, tracing):
        params = float_params()
        saved = saved_state(params)
        _, peak, _ = traced(lambda: AdamW(params).restore(saved))
        assert peak < params["b.w"].data.nbytes, peak   # a 24 KB moment

    @pytest.mark.parametrize("updated", [False, True],
                             ids=["before_an_update", "after_an_update"])
    def test_refused_restore_leaves_the_state(self, updated):
        params = float_params()
        opt = AdamW(params, lr=0.01)
        if updated:
            for p in params.values():
                p.grad = np.ones_like(p.data)
            opt.step()
        before = {moment: {name: arr.copy() for name, arr in
                           getattr(opt, moment).items()}
                  for moment in ("exp_avg", "exp_avg_sq")}
        saved = saved_state(params, step=7)
        saved["exp_avg_sq"]["b.w"] = np.ones((48, 64))
        with pytest.raises(CheckpointError, match="exp_avg_sq entry b.w"):
            opt.restore(saved)
        assert opt.step_count == int(updated)
        for moment, arrays in before.items():
            live = getattr(opt, moment)
            assert list(live) == list(arrays)
            for name, arr in arrays.items():
                assert live[name].tobytes() == arr.tobytes(), (moment, name)

    def test_three_steps_equal_moments_made_up_front(self):
        params, ref = float_params(3), float_params(3)
        moments = {name: (np.zeros(p.shape, p.dtype), np.zeros(p.shape, p.dtype))
                   for name, p in ref.items()}
        rng = np.random.default_rng(4)
        # a.b has no gradient at its first update
        grads = [{name: rng.normal(size=p.shape).astype(p.dtype)
                  for name, p in params.items() if (name, step) != ("a.b", 1)}
                 for step in range(1, 4)]
        opt = AdamW(params, lr=0.01, weight_decay=0.05)
        for step, drawn in enumerate(grads, 1):
            lr = 0.01 / step
            for name, g in drawn.items():
                params[name].grad = g.copy()
            opt.step(lr)
            for name, p in ref.items():
                adamw_step(p, drawn.get(name, np.zeros_like(p.data)),
                           *moments[name], step, lr, weight_decay=0.05)
        for name, p in ref.items():
            assert params[name].data.tobytes() == p.data.tobytes(), name
            got = (opt.exp_avg[name], opt.exp_avg_sq[name])
            for a, b in zip(got, moments[name]):
                assert a.tobytes() == b.tobytes(), name


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
            error = theta + -3.0
            loss = (error * error).sum()
            T.backward(loss)
            opt.step()
            assert theta.grad is None
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

    def test_restore_takes_the_moment_arrays(self):
        params = {"a": T.tensor(np.ones((2, 3), np.float32), requires_grad=True),
                  "b": T.tensor(np.ones(4, np.float32), requires_grad=True)}
        opt = AdamW(params, lr=0.1)
        saved = {"step": 3,
                 "exp_avg": {"a": np.full((2, 3), 0.5, np.float32),
                             "b": np.full(4, 0.25, np.float32)},
                 "exp_avg_sq": {"a": np.full((2, 3), 0.5, np.float32),
                                "b": np.full(4, 0.125)}}   # float64: cast once
        opt.restore(saved)
        assert opt.step_count == 3
        assert opt.exp_avg["a"] is saved["exp_avg"]["a"]
        assert opt.exp_avg_sq["a"] is saved["exp_avg_sq"]["a"]
        cast = opt.exp_avg_sq["b"]
        assert cast.dtype == np.float32 and (cast == 0.125).all()
        for p in params.values():
            p.grad = np.ones_like(p.data)
        opt.step()
        # the step updates the taken arrays in place
        assert opt.exp_avg["a"] is saved["exp_avg"]["a"]
        assert not (saved["exp_avg"]["a"] == 0.5).any()
        assert opt.exp_avg_sq["b"] is cast

    def test_refused_restore_leaves_the_optimizer(self):
        p = T.tensor(np.ones((2, 3), np.float32), requires_grad=True)
        opt = AdamW({"p": p})
        before = opt.state_arrays()
        # the first moment would pass; the second is saved misshapen
        saved = {"step": 3, "exp_avg": {"p": np.ones((2, 3), np.float32)},
                 "exp_avg_sq": {"p": np.ones((3, 2), np.float32)}}
        with pytest.raises(CheckpointError, match="exp_avg_sq entry p"):
            opt.restore(saved)
        assert opt.step_count == 0
        for moment in ("exp_avg", "exp_avg_sq"):
            assert getattr(opt, moment) is before[moment]
            assert not getattr(opt, moment)["p"].any()

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


def with_gradients(params, seed, missing=()):
    """Give every parameter outside ``missing`` a fresh normal gradient."""
    rng = np.random.default_rng(seed)
    for name, p in params.items():
        p.grad = (None if name in missing
                  else rng.normal(size=p.shape).astype(p.dtype))


class TestTwoGroupStep:
    @pytest.mark.parametrize("first", [["a.w"], ["a.b", "c.w"],
                                       ["a.w", "a.b", "b.w", "c.w"], []],
                             ids=["one", "two", "all", "none"])
    def test_equals_the_one_group_step(self, first):
        params, ref = float_params(5), float_params(5)
        opt = AdamW(params, lr=0.01, weight_decay=0.05)
        want = AdamW(ref, lr=0.01, weight_decay=0.05)
        for step in range(1, 4):
            missing = ("a.b",) if step == 1 else ()
            with_gradients(params, step, missing)
            with_gradients(ref, step, missing)
            want.step(0.01 / step)
            rest = opt.step(0.01 / step, first=[params[n] for n in first])
            rest()
            assert opt.step_count == want.step_count == step
            assert all(p.grad is None for p in params.values())
        for name, p in ref.items():
            assert params[name].data.tobytes() == p.data.tobytes(), name
            for moment in ("exp_avg", "exp_avg_sq"):
                assert getattr(opt, moment)[name].tobytes() == \
                    getattr(want, moment)[name].tobytes(), (moment, name)

    def test_returns_once_the_first_group_is_updated(self):
        params = float_params(6)
        with_gradients(params, 7)
        before = {name: p.data for name, p in params.items()}
        opt = AdamW(params, lr=0.01)
        rest = opt.step(first=[params["b.w"]])
        assert opt.step_count == 1
        assert params["b.w"].data is not before["b.w"]
        assert params["b.w"].grad is None
        for name in ("a.w", "a.b", "c.w"):
            assert params[name].data is before[name], name
            assert params[name].grad is not None, name
        rest()
        assert opt.step_count == 1
        assert all(params[n].data is not before[n] for n in params)
        assert all(p.grad is None for p in params.values())

    # a.w, a.b, b.w, c.w in order; b.w is the first group
    @pytest.mark.parametrize("failing, named", [
        (["a.b", "b.w"], "a.b"),   # one before the first group's failure
        (["b.w", "c.w"], "b.w"),
        (["b.w"], "b.w"),
        (["c.w"], "c.w"),          # raised by the second call
    ])
    def test_failure_names_the_first_parameter_in_order(self, failing, named):
        params = float_params(8)
        with_gradients(params, 9)
        for name in failing:
            params[name].grad.flat[0] = np.nan
        want = AdamW(float_params(8), lr=0.01)
        with_gradients(want.params, 9)
        for name in failing:
            want.params[name].grad.flat[0] = np.nan
        with pytest.raises(NumericError) as expected:
            want.step()
        opt = AdamW(params, lr=0.01)
        with pytest.raises(NumericError) as info:
            opt.step(first=[params["b.w"]])()
        assert str(info.value) == str(expected.value) == \
            f"non-finite AdamW update in {named}"


class TestFiniteness:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_finite_elements_whose_sum_overflows_pass(self, dtype):
        # the sum of squares overflows from elements far smaller than these
        big = np.full(1000, np.finfo(dtype).max / 2, dtype)
        with np.errstate(over="ignore"):
            assert not np.isfinite(big.sum())
        assert all_finite(big) and all_finite(-big)
        assert all_finite(np.full((3, 7), np.sqrt(np.finfo(dtype).max), dtype))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("at", [0, 500, -1])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_non_finite_element_fails(self, value, at, dtype):
        a = np.ones(1001, dtype)
        a[at] = value
        assert not all_finite(a)
        big = np.full(1001, np.finfo(dtype).max / 2, dtype)
        big[at] = value
        assert not all_finite(big)

    def test_empty_array_passes(self):
        assert all_finite(np.zeros(0, np.float32))

    def test_update_whose_sum_overflows_passes(self):
        # each new value is finite; their sum is not
        size = 3 * adamw_step.__globals__["_CHUNK"] + 7
        big = np.finfo(np.float32).max / 2
        p = T.tensor(np.full(size, big, np.float32), requires_grad=True)
        grad = np.ones(size, np.float32)
        m, v = np.zeros(size, np.float32), np.zeros(size, np.float32)
        adamw_step(p, grad, m, v, step=1, lr=1e-3, name="w")
        with np.errstate(over="ignore"):
            assert np.isfinite(p.data).all() and not np.isfinite(p.data.sum())

    # TestChunkedAdamW covers a NaN
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_non_finite_update_in_the_last_chunk_raises(self, value):
        size = 3 * adamw_step.__globals__["_CHUNK"] + 7
        p = T.tensor(np.ones(size, np.float32), requires_grad=True)
        before = p.data
        grad = np.ones(size, np.float32)
        grad[-1] = value
        m, v = np.zeros(size, np.float32), np.zeros(size, np.float32)
        with pytest.raises(NumericError, match="non-finite AdamW update in w"):
            adamw_step(p, grad, m, v, step=1, lr=0.1, name="w")
        assert p.data is before


def whole_array_adamw(param, grad, m, v, step, lr, betas=(0.9, 0.999),
                      eps=1e-8, weight_decay=0.0):
    """The former adamw_step: one whole-array expression per line."""
    b1, b2 = betas
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * (grad * grad)
    update = (m / (1.0 - b1 ** step)) / (np.sqrt(v / (1.0 - b2 ** step)) + eps)
    new = param.data * (1.0 - lr * weight_decay)
    new -= (lr * update).astype(param.data.dtype, copy=False)
    param.data = new


class TestChunkedAdamW:
    CHUNK = adamw_step.__globals__["_CHUNK"]
    SIZES = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_whole_array_form(self, size, dtype):
        rng = np.random.default_rng(size)
        data = rng.normal(size=(size,)).astype(dtype)
        want, got = T.tensor(data.copy()), T.tensor(data.copy())
        moments = [np.zeros(size, dtype) for _ in range(4)]
        for step in range(1, 4):
            grad = signed_zeros_and_negatives(rng, (size,), dtype)
            grad[rng.random(size) < 0.1] *= 1e-30   # v/bias near underflow
            lr = 0.01 / step
            whole_array_adamw(want, grad, *moments[:2], step, lr,
                              weight_decay=0.05)
            adamw_step(got, grad, *moments[2:], step, lr, weight_decay=0.05)
            assert got.data.dtype == dtype
            assert got.data.tobytes() == want.data.tobytes()
            for a, b in zip(moments[:2], moments[2:]):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("at", [0, -1], ids=["first_chunk", "last_chunk"])
    def test_non_finite_update_raises_and_keeps_the_parameter(self, at):
        size = 3 * self.CHUNK + 7
        p = T.tensor(np.ones(size, np.float32), requires_grad=True)
        before = p.data
        grad = np.ones(size, np.float32)
        grad[at] = np.nan
        m, v = np.zeros(size, np.float32), np.zeros(size, np.float32)
        with pytest.raises(NumericError, match="non-finite AdamW update in w"):
            adamw_step(p, grad, m, v, step=1, lr=0.1, name="w")
        assert p.data is before and (before == 1).all()
        # every chunk's moments were updated, as the whole-array form does
        assert (m[:-1] != 0).all() and (v[1:] != 0).all()


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
