"""AdamW's memory: moments made at a parameter's first update,
gradients dropped once the update has read them, and a restore that
allocates no moment."""

import tracemalloc

import numpy as np
import pytest

from affground import tensor as T
from affground.config import ModelConfig, RunConfig
from affground.errors import CheckpointError
from affground.model import AffordanceModel
from affground.optim import AdamW, adamw_step


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
