"""Loss terms: hand-evaluated values, oracles, and gradients.

The score-based focal and dice terms are the oracles' (``tests/oracles.py``):
the model's objective is :func:`affground.losses.map_loss` on logits and
:func:`affground.losses.cross_entropy`, one node each, checked here against
that chain.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affground import tensor as T
from affground.errors import ConfigError, ContractError
from affground.gradcheck import finite_difference_check, finite_difference_check_params
from affground.losses import LossWeights, cross_entropy, map_loss, sigmoid, total_loss

from oracles import affordance_loss, cross_entropy_chain, dice_loss, focal_loss
from oracles import sigmoid as sigmoid_node


class TestFocalLoss:
    def test_single_positive_point_nine(self):
        p = T.tensor(np.array([0.9]), dtype=np.float64)
        value = focal_loss(p, np.array([1.0])).item()
        assert value == pytest.approx(0.25 * 0.01 * -np.log(0.9), rel=1e-6)
        assert value == pytest.approx(2.634e-4, rel=1e-3)

    def test_single_positive_point_five(self):
        p = T.tensor(np.array([0.5]), dtype=np.float64)
        value = focal_loss(p, np.array([1.0])).item()
        assert value == pytest.approx(0.25 * 0.25 * np.log(2.0), rel=1e-9)
        assert value == pytest.approx(0.043322, abs=1e-6)

    def test_reduces_to_half_balanced_bce(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.05, 0.95, size=32)
        y = (rng.uniform(size=32) > 0.5).astype(np.float64)
        value = focal_loss(T.tensor(p, dtype=np.float64), y,
                           alpha=0.5, gamma=0.0).item()
        bce = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
        assert value == pytest.approx(0.5 * bce, abs=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        p = T.tensor(rng.uniform(0.01, 0.99, size=50), dtype=np.float64)
        y = rng.uniform(size=50)
        assert focal_loss(p, y).item() >= 0.0


class TestDiceLoss:
    def test_perfect_binary_match(self):
        p = T.tensor(np.array([1.0, 1.0, 0.0, 0.0]), dtype=np.float64)
        assert dice_loss(p, np.array([1.0, 1.0, 0.0, 0.0])).item() == \
            pytest.approx(0.0, abs=1e-12)

    def test_total_miss(self):
        p = T.tensor(np.array([0.0, 0.0]), dtype=np.float64)
        assert dice_loss(p, np.array([1.0, 1.0])).item() == \
            pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            p = rng.uniform(0.0, 1.0, size=n)
            y = (rng.uniform(size=n) > 0.6).astype(np.float64)
            value = dice_loss(T.tensor(p, dtype=np.float64), y).item()
            expected = 1.0 - (2.0 * (p * y).sum() + 1.0) / (p.sum() + y.sum() + 1.0)
            assert value == pytest.approx(expected, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(3)
        p = T.tensor(rng.uniform(size=30), dtype=np.float64)
        y = rng.uniform(size=30)
        assert 0.0 <= dice_loss(p, y).item() <= 1.0


class TestAffordanceLoss:
    """:func:`map_loss` on logits: the focal plus dice of their sigmoid."""

    def test_perfect_prediction_near_zero(self):
        y = np.array([1.0, 1.0, 0.0, 0.0, 1.0])
        z = np.where(y > 0, 20.0, -20.0)
        assert map_loss(T.tensor(z, dtype=np.float64), y, LossWeights()).item() < 1e-5

    def test_equals_sum_of_components(self):
        rng = np.random.default_rng(4)
        z = rng.uniform(-4.6, 4.6, size=25)
        y = rng.uniform(size=25)
        total = map_loss(T.tensor(z, dtype=np.float64), y, LossWeights()).item()
        p = T.tensor(sigmoid(z), dtype=np.float64)
        parts = focal_loss(p, y).item() + dice_loss(p, y).item()
        assert total == pytest.approx(parts, abs=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        y = (rng.uniform(size=12) > 0.5).astype(np.float64)
        logits = T.tensor(rng.normal(size=(12, 1)), requires_grad=True,
                          dtype=np.float64)
        err = finite_difference_check(
            lambda z: map_loss(z, y, LossWeights()), logits, h=1e-6)
        assert err <= 1e-4


class TestMapLoss:
    """The one-node map loss against the score-based chain, and its
    contract on logits."""

    @settings(max_examples=300, deadline=None)
    @given(z=st.lists(st.floats(-15.0, 15.0), min_size=1, max_size=64),
           seed=st.integers(0, 2 ** 32 - 1),
           alpha=st.floats(0.01, 0.99),
           gamma=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
           eps=st.floats(1e-3, 10.0),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_equals_the_score_chain(self, z, seed, alpha, gamma, eps, dtype):
        # |z| <= 15 keeps every score inside the chain's clamp. The reference
        # is the chain in float64 on the same logits: the float32 chain
        # rounds 1 - sigmoid(z), which at |z| = 15 moves -log of it by up
        # to 0.1 nats, so it is no reference for the float32 node.
        # Tolerances: float64 1e-9 relative; float32 1e-5 relative plus
        # 4e-6 absolute on the value and 1e-5 / N on each gradient element.
        rng = np.random.default_rng(seed)
        n = len(z)
        logits = np.asarray(z, dtype=dtype).reshape(n, 1)
        y = rng.uniform(size=n) * (rng.uniform(size=n) < rng.uniform())
        w = LossWeights(focal_alpha=alpha, focal_gamma=gamma, dice_eps=eps)
        got = T.tensor(logits, requires_grad=True)
        value = map_loss(got, y, w)
        T.backward(value)
        ref = T.tensor(logits.astype(np.float64), requires_grad=True)
        want = affordance_loss(sigmoid_node(ref), y, w)
        T.backward(want)
        assert value.dtype == got.grad.dtype == dtype
        if dtype == np.float64:
            rtol, atol, gtol = 1e-9, 1e-12, 1e-9 * np.abs(ref.grad).max()
        else:
            rtol, atol, gtol = 1e-5, 4e-6, 1e-5 / n
        assert abs(value.item() - want.item()) <= rtol * abs(want.item()) + atol
        assert np.abs(got.grad - ref.grad).max() <= gtol + 1e-15

    @pytest.mark.parametrize("gamma", [0.0, 2.0])
    def test_confidently_wrong_point_gets_its_focal_gradient(self, gamma):
        # the clamped score chain gives this point a focal gradient of
        # exactly 0.0: its score sits below the clamp's lower edge
        z = np.array([[-20.0], [0.3], [-1.0], [2.0]])
        y = np.array([1.0, 0.0, 0.0, 1.0])
        w = LossWeights(focal_gamma=gamma)
        logits = T.tensor(z, requires_grad=True, dtype=np.float64)
        T.backward(map_loss(logits, y, w))
        n, alpha = len(y), w.focal_alpha
        q = 1.0 / (1.0 + np.exp(-20.0))
        soft = 20.0 + np.log1p(np.exp(-20.0))
        focal = -(alpha / n) * q ** gamma * (gamma * (1.0 - q) * soft + q)
        p = sigmoid(z.reshape(-1))
        overlap, total = 2.0 * (p * y).sum() + 1.0, p.sum() + y.sum() + 1.0
        dice = -(2.0 * total - overlap) / total ** 2 * p[0] * (1.0 - p[0])
        assert logits.grad[0, 0] == pytest.approx(focal + dice, rel=1e-12)
        assert logits.grad[0, 0] == pytest.approx(-alpha / n, rel=1e-6)

        clamped = T.tensor(z, requires_grad=True, dtype=np.float64)
        T.backward(focal_loss(sigmoid_node(clamped), y, alpha, gamma))
        assert clamped.grad[0, 0] == 0.0

    def test_rejects_logits_that_are_not_one_per_point(self):
        y = np.array([1.0, 0.0])
        for bad in (np.zeros((2, 2)), np.zeros((1, 2)), np.zeros((2, 1, 1))):
            with pytest.raises(ContractError):
                map_loss(T.tensor(bad, dtype=np.float64), y, LossWeights())
        with pytest.raises(ContractError):
            map_loss(T.tensor(np.zeros(3), dtype=np.float64), y, LossWeights())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_extreme_logits_stay_finite_without_warnings(self, dtype):
        z = np.array([[1e4], [-1e4], [1e4], [-1e4], [0.0]], dtype=dtype)
        y = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
        logits = T.tensor(z, requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = map_loss(logits, y, LossWeights())
            T.backward(loss)
        assert np.isfinite(loss.item()) and np.isfinite(logits.grad).all()
        # the two wrong points cost alpha_t * 1e4 each, over N = 5
        assert loss.item() == pytest.approx((0.25 + 0.75) * 1e4 / 5, rel=1e-3)
        np.testing.assert_allclose(logits.grad[1:4, 0], [0.0, 0.75 / 5, -0.25 / 5],
                                   atol=1e-3)

    def test_nan_logit_gives_nan_loss(self):
        z = np.array([[0.5], [np.nan], [-0.5]])
        loss = map_loss(T.tensor(z, dtype=np.float64), np.array([1.0, 0.0, 1.0]),
                        LossWeights())
        assert np.isnan(loss.item())


class TestTotalLoss:
    def test_weighted_sum_defaults(self):
        w = LossWeights()
        l_txt = T.tensor(np.array(0.7), dtype=np.float64)
        l_aff = T.tensor(np.array(0.3), dtype=np.float64)
        assert total_loss(l_txt, l_aff, w).item() == pytest.approx(1.3, abs=1e-12)

    def test_zero_text_weight_blocks_gradient(self):
        w = LossWeights(lambda_txt=0.0)
        l_txt = T.tensor(np.array(0.7), requires_grad=True, dtype=np.float64)
        l_aff = T.tensor(np.array(0.3), requires_grad=True, dtype=np.float64)
        T.backward(total_loss(l_txt, l_aff, w))
        assert l_txt.grad is None or np.all(l_txt.grad == 0.0)
        np.testing.assert_allclose(l_aff.grad, 2.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigError):
            LossWeights(lambda_txt=-0.1)

    def test_gradcheck_full_objective(self):
        rng = np.random.default_rng(6)
        y = (rng.uniform(size=10) > 0.5).astype(np.float64)
        w = LossWeights()
        params = {
            "label": T.tensor(rng.normal(size=(1, 4)), requires_grad=True,
                              dtype=np.float64),
            "map": T.tensor(rng.normal(size=(10, 1)), requires_grad=True,
                            dtype=np.float64),
        }

        def objective():
            l_txt = cross_entropy(params["label"], 2)
            l_aff = map_loss(params["map"], y, w)
            return total_loss(l_txt, l_aff, w)

        errs = finite_difference_check_params(objective, params, h=1e-6)
        assert max(errs.values()) <= 1e-4


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = T.tensor(np.zeros((1, 4)), dtype=np.float64)
        assert cross_entropy(logits, 1).item() == pytest.approx(np.log(4.0))

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(1, 6)) * 3
        value = cross_entropy(T.tensor(z, dtype=np.float64), 4).item()
        probs = np.exp(z) / np.exp(z).sum()
        assert value == pytest.approx(-np.log(probs[0, 4]), rel=1e-10)

    def test_extreme_logits_stay_finite(self):
        z = T.tensor(np.array([[1000.0, 0.0, -1000.0]]), dtype=np.float64)
        assert np.isfinite(cross_entropy(z, 0).item())

    def test_bad_target_rejected(self):
        with pytest.raises(ContractError):
            cross_entropy(T.tensor(np.zeros((1, 3)), dtype=np.float64), 3)

    @settings(max_examples=200, deadline=None)
    @given(z=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=8),
           pick=st.integers(0, 7), scale=st.floats(-4.0, 4.0),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_equals_the_composed_chain_bytewise(self, z, pick, scale, dtype):
        target = pick % len(z)
        out = []
        for loss_fn in (cross_entropy, cross_entropy_chain):
            logits = T.tensor(np.asarray([z], dtype=dtype), requires_grad=True)
            loss = loss_fn(logits, target)
            T.backward(loss * scale)
            out.append((np.asarray(loss.data).tobytes(), logits.grad.tobytes()))
        assert out[0] == out[1]
