"""Affordance decoding head.

``point_to_intention`` returns ``v(embedding) + b_head.0``, the row
``predict_map`` adds to ``feats @ W_head.0``. ``v`` is the product
``W_v @ W_head.0``; the tests compare the logits with the head run on the
explicit sum ``feats + embedding @ W_v``.
"""

import numpy as np
import pytest

from affground import tensor as T
from affground.decoder import AffordanceDecoder
from affground.errors import ShapeError
from affground.gradcheck import finite_difference_check_params
from affground.losses import LossWeights, map_loss, sigmoid
from affground.rng import rng_for

from oracles import relu


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def make_decoder(params, d=8, seed=0, dtype=np.float64):
    return AffordanceDecoder(params, "decoder", rng_for(seed, "init"), d, dtype)


def feats_of(x, dtype=np.float64):
    return T.Tensor(x, dtype=dtype)


class TestPointToIntention:
    def test_zero_value_projection_is_identity(self):
        params = {}
        dec = make_decoder(params)
        params["decoder.v.w"].data[:] = 0.0
        feats = feats_of(rand((5, 8), 1))
        emb = T.Tensor(rand((1, 8), 2), dtype=np.float64)
        row = dec.point_to_intention(emb)
        np.testing.assert_array_equal(row.data, params["decoder.head.0.b"].data)
        out = dec.predict_map(feats, row)
        np.testing.assert_array_equal(out.data, dec.head(feats).data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_single_key_attention_bitwise(self, dtype):
        # residual attention of every point over the one embedding token:
        # the softmax over a single logit is exactly 1, so the query and
        # key projections cannot change the output: every row gains v,
        # which is already in the head's first pre-activation space
        params = {}
        dec = make_decoder(params, d=8, seed=13, dtype=dtype)
        gen = np.random.default_rng(14)
        wq, wk = (gen.normal(size=(8, 8)).astype(dtype) for _ in range(2))
        feats = feats_of(rand((11, 8), 15), dtype=dtype)
        emb = T.Tensor(rand((1, 8), 16), dtype=dtype)
        q = T.matmul(feats, T.Tensor(wq))
        k = T.matmul(emb, T.Tensor(wk))
        v = T.matmul(emb, params["decoder.v.w"])
        scores = T.matmul(q, T.transpose(k)) * (1.0 / np.sqrt(8))
        attended = T.matmul(T.softmax_lastdim(scores), v)
        np.testing.assert_array_equal(attended.data,
                                      np.broadcast_to(v.data, (11, 4)))
        first = dec.head.layers[0]
        expected_row = T.Tensor(attended.data[:1]) + first.b
        row = dec.point_to_intention(emb)
        np.testing.assert_array_equal(row.data, expected_row.data)
        expected = dec.head.after_first(relu(T.matmul(feats, first.w) + expected_row))
        out = dec.predict_map(feats, row)
        np.testing.assert_array_equal(out.data, expected.data)

    def test_equals_the_factored_value_and_head(self):
        params = {}
        dec = make_decoder(params)
        w_v = rand((8, 8), 30)
        w_h, b_h = (params[f"decoder.head.0.{p}"].data for p in "wb")
        params["decoder.v.w"].data[:] = w_v @ w_h
        feats, emb = rand((6, 8), 31), rand((1, 8), 32)
        hidden = np.maximum((feats + emb @ w_v) @ w_h + b_h, 0.0)
        logits = hidden @ params["decoder.head.1.w"].data \
            + params["decoder.head.1.b"].data
        out = dec.predict_map(feats_of(feats),
                              dec.point_to_intention(feats_of(emb)))
        np.testing.assert_allclose(out.data, logits, rtol=1e-12, atol=1e-12)

    def test_identical_rows_identical_outputs(self):
        params = {}
        dec = make_decoder(params)
        row = rand((1, 8), 3)
        feats = feats_of(np.vstack([row, rand((2, 8), 4), row]))
        emb = T.Tensor(rand((1, 8), 5), dtype=np.float64)
        out = dec.predict_map(feats, dec.point_to_intention(emb))
        np.testing.assert_allclose(out.data[0], out.data[3], atol=1e-12)

    def test_width_mismatch_rejected(self):
        params = {}
        dec = make_decoder(params)
        row = dec.point_to_intention(T.Tensor(rand((1, 8)), dtype=np.float64))
        with pytest.raises(ShapeError):
            dec.predict_map(feats_of(rand((5, 4))), row)
        with pytest.raises(ShapeError):
            dec.point_to_intention(T.Tensor(rand((1, 4)), dtype=np.float64))

    def test_row_permutation_equivariance(self):
        params = {}
        dec = make_decoder(params)
        feats = rand((9, 8), 6)
        emb = T.Tensor(rand((1, 8), 7), dtype=np.float64)
        perm = np.random.default_rng(8).permutation(9)
        with T.no_grad():
            base = dec.predict_map(feats_of(feats), dec.point_to_intention(emb))
            permuted = dec.predict_map(feats_of(feats[perm]),
                                       dec.point_to_intention(emb))
        np.testing.assert_allclose(permuted.data, base.data[perm], atol=1e-6)


class TestPredictMap:
    def test_zero_everything_gives_half(self):
        params = {}
        dec = make_decoder(params)
        for name, p in params.items():
            if name.startswith("decoder.head"):
                p.data[:] = 0.0
        out = dec.predict_map(feats_of(rand((6, 8), 19)), dec.point_to_intention(
            T.Tensor(rand((1, 8), 20), dtype=np.float64)))
        np.testing.assert_array_equal(out.data, np.zeros((6, 1)))
        np.testing.assert_array_equal(sigmoid(out.data), np.full((6, 1), 0.5))

    def test_scores_strictly_inside_unit_interval(self):
        # sigmoid saturates to exact 0/1 in IEEE floats around |x| ~ 36;
        # probe the representable range
        params = {}
        dec = make_decoder(params)
        feats = feats_of(rand((20, 8), 9) * 3)
        with T.no_grad():
            out = dec.predict_map(feats, dec.point_to_intention(
                T.Tensor(rand((1, 8), 10), dtype=np.float64)))
        scores = sigmoid(out.data)
        assert (scores > 0).all() and (scores < 1).all()

    def test_gradcheck_through_losses(self):
        params = {}
        dec = make_decoder(params)
        feats = feats_of(rand((6, 8), 11))
        emb = T.Tensor(rand((1, 8), 12), dtype=np.float64)
        targets = np.array([1.0, 0.0, 0.6, 0.0, 1.0, 0.0])

        def loss():
            logits = dec.predict_map(feats, dec.point_to_intention(emb))
            return map_loss(logits, targets, LossWeights())

        errs = finite_difference_check_params(loss, params)
        assert max(errs.values()) <= 1e-4

