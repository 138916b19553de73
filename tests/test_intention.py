"""Hidden-state fixtures and intention projections."""

import numpy as np
import pytest

from affground import tensor as T
from affground.errors import ContractError
from affground.gradcheck import finite_difference_check_params
from affground.intention import (
    HiddenStates,
    IntentionHead,
    extract_cont,
    synth_fixture,
)
from affground.losses import cross_entropy
from affground.rng import rng_for

from oracles import tsum


def make_head(params, d_h=16, d=8, k=3, cont_width=6, dtype=np.float64, seed=0):
    return IntentionHead(params, "intention", rng_for(seed, "init"), d_h, d,
                         n_affordances=k, cont_width=cont_width, dtype=dtype)


class TestExtractCont:
    def test_selects_row(self):
        states = np.arange(8, dtype=np.float32).reshape(2, 4)
        h = HiddenStates(states, cont_index=1)
        np.testing.assert_array_equal(extract_cont(h), states[1])

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            HiddenStates(np.zeros((2, 4)), cont_index=2)

    def test_minimum_two_tokens(self):
        HiddenStates(np.zeros((2, 4)), cont_index=1)
        with pytest.raises(ContractError):
            HiddenStates(np.zeros((1, 4)), cont_index=0)


class TestProjections:
    def test_zero_input_zero_biases_zero_output(self):
        params = {}
        head = make_head(params)
        for name, p in params.items():
            if name.endswith(".b"):
                p.data[:] = 0.0
        h = HiddenStates(np.zeros((4, 16)), cont_index=3)
        np.testing.assert_array_equal(head.project_cont(h).data, 0.0)

    def test_output_width_matches_pipeline(self):
        params = {}
        head = make_head(params, d_h=32, d=512, cont_width=256)
        h = HiddenStates(np.random.default_rng(0).normal(size=(4, 32)), 3)
        assert head.project_cont(h).shape == (1, 512)

    def test_cont_depends_only_on_cont_row(self):
        params = {}
        head = make_head(params)
        rng = np.random.default_rng(1)
        states = rng.normal(size=(5, 16)).astype(np.float32)
        h = HiddenStates(states.copy(), cont_index=2)
        base = head.project_cont(h).data.copy()

        perturbed = states.copy()
        perturbed[0] += 3.0
        perturbed[4] -= 1.0
        h2 = HiddenStates(perturbed, cont_index=2)
        np.testing.assert_array_equal(head.project_cont(h2).data, base)

    def test_hidden_rows_map_independently(self):
        params = {}
        head = make_head(params)
        rng = np.random.default_rng(2)
        states = rng.normal(size=(5, 16)).astype(np.float32)
        base = head.project_hidden(HiddenStates(states, 0)).data.copy()

        perturbed = states.copy()
        perturbed[3] += 1.0
        out = head.project_hidden(HiddenStates(perturbed, 0)).data
        np.testing.assert_array_equal(out[[0, 1, 2, 4]], base[[0, 1, 2, 4]])
        assert not np.array_equal(out[3], base[3])

    def test_row_permutation_permutes_output(self):
        params = {}
        head = make_head(params)
        rng = np.random.default_rng(3)
        states = rng.normal(size=(6, 16)).astype(np.float32)
        perm = np.array([4, 0, 5, 2, 1, 3])
        out = head.project_hidden(HiddenStates(states, 0)).data
        out_perm = head.project_hidden(HiddenStates(states[perm], 0)).data
        np.testing.assert_array_equal(out_perm, out[perm])

    def test_width_mismatch_rejected(self):
        params = {}
        head = make_head(params, d_h=16)
        h = HiddenStates(np.zeros((3, 8)), cont_index=1)
        with pytest.raises(ContractError):
            head.project_cont(h)
        with pytest.raises(ContractError):
            head.project_hidden(h)

    def test_gradcheck_cont_and_hidden(self):
        params = {}
        head = make_head(params)
        rng = np.random.default_rng(4)
        h = HiddenStates(rng.normal(size=(3, 16)).astype(np.float32), 2)
        w = T.Tensor(rng.normal(size=(3, 8)), dtype=np.float64)

        errs = finite_difference_check_params(
            lambda: (tsum(head.project_cont(h))
                     + tsum(head.project_hidden(h) * w)), params)
        assert max(errs.values()) <= 1e-4


class TestAuxHead:
    def test_zero_weights_give_log_k_loss(self):
        params = {}
        head = make_head(params, k=2)
        params["intention.aux.w"].data[:] = 0.0
        params["intention.aux.b"].data[:] = 0.0
        h = HiddenStates(np.random.default_rng(5).normal(size=(3, 16)), 2)
        logits = head.aux_affordance_logits(h)
        np.testing.assert_array_equal(logits.data, [[0.0, 0.0]])
        assert cross_entropy(logits, 0).item() == pytest.approx(np.log(2.0))

    def test_gradcheck_cross_entropy_through_head(self):
        params = {}
        head = make_head(params, k=3)
        h = HiddenStates(np.random.default_rng(6).normal(size=(3, 16)), 2)
        aux = {k: v for k, v in params.items() if ".aux" in k}
        errs = finite_difference_check_params(
            lambda: cross_entropy(head.aux_affordance_logits(h), 1), aux)
        assert max(errs.values()) <= 1e-4

    def test_trains_to_separate_synthetic_fixtures(self):
        # informative fixtures: a small head reaches 100% on 64 samples
        from affground.optim import AdamW
        from affground.tensor import backward

        params = {}
        head = make_head(params, d_h=64, k=2, dtype=np.float32, seed=7)
        fixtures = [synth_fixture(c, a, seed=100 + i, L=4, d_h=64)
                    for i, (c, a) in enumerate([(c, a) for c in range(4)
                                                for a in range(2)] * 8)]
        aux = {k: v for k, v in params.items() if ".aux" in k}
        opt = AdamW(aux, lr=1e-2, weight_decay=0.0)
        for _ in range(200):
            loss = None
            for h in fixtures[:16]:
                term = cross_entropy(head.aux_affordance_logits(h), h.affordance_id)
                loss = term if loss is None else loss + term
            backward(loss)
            opt.step()
            # the step consumed the gradients: the next backward starts clean
            assert all(p.grad is None for p in aux.values())
        correct = sum(
            int(np.argmax(head.aux_affordance_logits(h).data)) == h.affordance_id
            for h in fixtures)
        assert correct == len(fixtures)


class TestSynthFixture:
    def test_bitwise_determinism(self):
        a = synth_fixture(1, 0, seed=42, L=6, d_h=32)
        b = synth_fixture(1, 0, seed=42, L=6, d_h=32)
        assert a.states.tobytes() == b.states.tobytes()
        assert a.cont_index == b.cont_index == 5

    def test_different_affordance_changes_cont_row(self):
        a = synth_fixture(2, 0, seed=7, L=4, d_h=128)
        b = synth_fixture(2, 1, seed=7, L=4, d_h=128)
        gap = np.linalg.norm(a.states[a.cont_index] - b.states[b.cont_index])
        assert gap > 0.1

    def test_min_length_boundary(self):
        synth_fixture(0, 0, seed=0, L=2, d_h=16)
        with pytest.raises(ContractError):
            synth_fixture(0, 0, seed=0, L=1, d_h=16)

    def test_linear_probe_separates_affordances(self):
        # contact rows with sigma=0.1 noise stay linearly separable
        from affground.intention import _signal_vector

        d_h = 128
        rng = np.random.default_rng(9)
        rows, labels = [], []
        for i in range(200):
            c, a = int(rng.integers(4)), int(rng.integers(2))
            signal = _signal_vector("class", c, d_h) + \
                _signal_vector("affordance", a, d_h)
            rows.append(signal + rng.normal(scale=0.1, size=d_h))
            labels.append(a)
        rows = np.array(rows)
        labels = np.array(labels)
        train, test = slice(0, 100), slice(100, 200)
        target = np.where(labels[train] == 1, 1.0, -1.0)
        w, *_ = np.linalg.lstsq(
            np.hstack([rows[train], np.ones((100, 1))]), target, rcond=None)
        pred = (np.hstack([rows[test], np.ones((100, 1))]) @ w) > 0
        accuracy = (pred == (labels[test] == 1)).mean()
        assert accuracy >= 0.95
