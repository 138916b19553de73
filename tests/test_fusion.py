"""Cross-modal integration stages."""

import numpy as np
import pytest

from affground import tensor as T
from affground.backbone import PointBackbone, normalize_unit_sphere
from affground.config import FusionConfig, ModelConfig, RunConfig
from affground.dataio import synth_cloud
from affground.errors import ShapeError
from affground.fusion import FusionModule
from affground.gradcheck import finite_difference_check_params
from affground.intention import synth_fixture
from affground.model import AffordanceModel
from affground.rng import rng_for

from conftest import TOY
from oracles import power, tsum


def make_fusion(params, d=8, dtype=np.float64, seed=0):
    return FusionModule(params, "fusion", rng_for(seed, "init"), d, dtype=dtype)


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def rows(x):
    return T.Tensor(x, dtype=np.float64)


class TestBottleneckCrossAttention:
    def test_single_token_output_ignores_queries(self):
        params = {}
        fusion = make_fusion(params)
        token = T.Tensor(rand((1, 8), 1), dtype=np.float64)
        q1 = T.Tensor(rand((4, 8), 2), dtype=np.float64)
        q2 = T.Tensor(rand((4, 8), 3), dtype=np.float64)
        out1 = fusion.bottleneck_cross_attention(q1, token)
        out2 = fusion.bottleneck_cross_attention(q2, token)
        np.testing.assert_allclose(out1.data, out2.data, atol=1e-12)
        w_v, w_o = rand((8, 8), 8), rand((8, 8), 9)
        params["fusion.attn.v.w"].data[:] = w_v @ w_o
        out1 = fusion.bottleneck_cross_attention(q1, token)
        expected = (token.data @ w_v) @ w_o
        for row in out1.data:
            np.testing.assert_allclose(row, expected[0], atol=1e-12)

    def test_equals_the_factored_attention(self):
        # q is W_q W_k^T and v is W_v W_o
        params = {}
        fusion = make_fusion(params)
        w_q, w_k, w_v, w_o = (rand((8, 8), 40 + i) for i in range(4))
        params["fusion.attn.q.w"].data[:] = w_q @ w_k.T
        params["fusion.attn.v.w"].data[:] = w_v @ w_o
        points, tokens = rand((5, 8), 44), rand((3, 8), 45)
        logits = (points @ w_q) @ (tokens @ w_k).T / np.sqrt(8)
        attn = np.exp(logits - logits.max(axis=1, keepdims=True))
        attn /= attn.sum(axis=1, keepdims=True)
        out = fusion.bottleneck_cross_attention(rows(points), rows(tokens))
        np.testing.assert_allclose(out.data, (attn @ (tokens @ w_v)) @ w_o,
                                   rtol=1e-12)

    def test_identical_tokens_identical_outputs(self):
        params = {}
        fusion = make_fusion(params)
        token_row = rand((1, 8), 4)
        tokens = T.Tensor(np.repeat(token_row, 5, axis=0), dtype=np.float64)
        queries = T.Tensor(rand((3, 8), 5), dtype=np.float64)
        out = fusion.bottleneck_cross_attention(queries, tokens)
        np.testing.assert_allclose(out.data[0], out.data[1], atol=1e-12)
        np.testing.assert_allclose(out.data[0], out.data[2], atol=1e-12)

    def test_width_mismatch_rejected(self):
        params = {}
        fusion = make_fusion(params)
        with pytest.raises(ShapeError):
            fusion.bottleneck_cross_attention(
                T.Tensor(rand((3, 4)), dtype=np.float64),
                T.Tensor(rand((2, 8)), dtype=np.float64))

    def test_gradcheck(self):
        params = {}
        fusion = make_fusion(params)
        queries = T.Tensor(rand((4, 8), 6), dtype=np.float64)
        tokens = T.Tensor(rand((3, 8), 7), dtype=np.float64)
        attn_params = {k: v for k, v in params.items() if ".attn" in k}
        errs = finite_difference_check_params(
            lambda: tsum(power(fusion.bottleneck_cross_attention(queries, tokens), 2.0)),
            attn_params)
        assert max(errs.values()) <= 1e-4


class TestGatedDescriptor:
    def test_zero_gate_gives_token_mean(self):
        params = {}
        fusion = make_fusion(params)
        params["fusion.gate.w"].data[:] = 0.0
        tokens = T.Tensor(rand((6, 8), 12), dtype=np.float64)
        desc = fusion.gated_global_descriptor(tokens)
        np.testing.assert_allclose(desc.data[0], tokens.data.mean(axis=0),
                                   atol=1e-12)

    def test_single_token_identity(self):
        params = {}
        fusion = make_fusion(params)
        tokens = T.Tensor(rand((1, 8), 13), dtype=np.float64)
        np.testing.assert_allclose(fusion.gated_global_descriptor(tokens).data,
                                   tokens.data, atol=1e-12)

    def test_saturated_gate_selects_token(self):
        params = {}
        fusion = make_fusion(params)
        tokens = rand((4, 8), 14)
        gate = params["fusion.gate.w"].data
        # push token 2's score 1000 above the others
        scores = tokens @ gate
        tokens[2] += gate[:, 0] * (1000.0 + scores.max() - scores[2, 0]) \
            / (gate[:, 0] @ gate[:, 0])
        desc = fusion.gated_global_descriptor(T.Tensor(tokens, dtype=np.float64))
        np.testing.assert_allclose(desc.data[0], tokens[2], atol=1e-6)

    def test_weights_sum_to_one_and_nonnegative(self):
        params = {}
        fusion = make_fusion(params)
        tokens = T.Tensor(rand((7, 8), 15) * 10, dtype=np.float64)
        scores = T.matmul(tokens, params["fusion.gate.w"])
        weights = T.softmax_lastdim(T.transpose(scores))
        assert abs(weights.data.sum() - 1.0) <= 1e-6
        assert (weights.data >= 0).all()

    def test_token_permutation_invariance(self):
        params = {}
        fusion = make_fusion(params)
        tokens = rand((6, 8), 16)
        perm = np.array([3, 1, 5, 0, 4, 2])
        d1 = fusion.gated_global_descriptor(T.Tensor(tokens, dtype=np.float64))
        d2 = fusion.gated_global_descriptor(T.Tensor(tokens[perm], dtype=np.float64))
        np.testing.assert_allclose(d1.data, d2.data, atol=1e-6)


class TestDuplicateAndFuse:
    def test_constructed_identity_passthrough(self):
        params = {}
        fusion = make_fusion(params)
        d = 8
        # the layer picks the point part
        params["fusion.fuse.w_row"].data[:] = np.eye(d)
        params["fusion.fuse.w_desc"].data[:] = 0.0
        params["fusion.fuse.b"].data[:] = 0.0
        feats = np.abs(rand((5, d), 20))  # non-negative so relu is identity
        out = fusion.fuse_full_res(rows(feats),
                                   T.Tensor(rand((1, d), 26), dtype=np.float64))
        np.testing.assert_allclose(out.data, feats, atol=1e-12)

    def test_row_permutation_equivariance(self):
        params = {}
        fusion = make_fusion(params)
        feats = rand((9, 8), 21)
        desc = T.Tensor(rand((1, 8), 22), dtype=np.float64)
        perm = np.random.default_rng(23).permutation(9)
        out = fusion.fuse_full_res(rows(feats), desc)
        out_perm = fusion.fuse_full_res(rows(feats[perm]), desc)
        np.testing.assert_allclose(out_perm.data, out.data[perm], atol=1e-12)

    def test_gradcheck_descriptor_and_fuse(self):
        params = {}
        fusion = make_fusion(params)
        tokens = T.Tensor(rand((3, 8), 24), dtype=np.float64)
        feats = rows(rand((4, 8), 25))

        def loss():
            desc = fusion.gated_global_descriptor(tokens)
            fused = fusion.fuse_full_res(feats, desc)
            return tsum(fused * fused)

        stage2 = {k: v for k, v in params.items()
                  if ".gate" in k or ".fuse" in k}
        errs = finite_difference_check_params(loss, stage2)
        assert max(errs.values()) <= 1e-4


class TestIntegrate:
    """The stages as ``AffordanceModel.integrate`` runs them around the backbone.

    ``integrate`` is the part of the forward that ``pca-viz`` runs.
    """

    def _setup(self, seed=0, **stages):
        config = RunConfig(model=ModelConfig(**TOY), fusion=FusionConfig(**stages),
                           seed=seed)
        model = AffordanceModel(config, dtype=np.float64)
        cloud = synth_cloud(seed % 4, 0, seed=seed, n=TOY["n_points"])
        hidden = synth_fixture(seed % 4, 0, seed=seed + 1, L=TOY["seq_len"],
                               d_h=TOY["d_h"])
        return model, cloud, hidden, model.build_plan(cloud)

    def test_both_stages_off_returns_decoder_output(self):
        model, cloud, hidden, plan = self._setup(stage1=False, stage2=False)
        with T.no_grad():
            fused, _ = model.integrate(hidden, plan)
            expected, _ = model.backbone.decode(*model.backbone.encode(plan), plan)
        np.testing.assert_array_equal(fused.data, expected.data)

    def test_stage1_off_means_decoder_sees_raw_bottleneck(self):
        model, cloud, hidden, plan = self._setup(1, stage1=False)
        with T.no_grad():
            fused, _ = model.integrate(hidden, plan)
            full_res, _ = model.backbone.decode(*model.backbone.encode(plan), plan)
            tokens = model.intention.project_hidden(hidden)
            expected = model.fusion.fuse_full_res(
                full_res, model.fusion.gated_global_descriptor(tokens))
        np.testing.assert_array_equal(fused.data, expected.data)

    def test_disabled_stage_gets_zero_gradient(self):
        # a stage that is off builds no weights; the other one still trains
        model, cloud, hidden, plan = self._setup(2, stage1=False)
        result = model.forward(hidden, plan)
        T.backward(model.loss(result, cloud, hidden)[0])
        assert not any(".attn" in name for name in model.params)
        fuse = [p for name, p in model.params.items() if ".fuse" in name]
        assert fuse and all(p.grad is not None for p in fuse)

    def test_full_pipeline_shape_at_defaults(self):
        params = {}
        backbone = PointBackbone(params, "backbone", rng_for(3, "init"), d=512,
                                 stage_points=[512, 128, 32])
        fusion = FusionModule(params, "fusion", rng_for(3, "init2"), 512)
        coords = normalize_unit_sphere(rand((2048, 3), 30))
        plan = backbone.build_plan(coords)
        tokens = T.Tensor(rand((4, 512), 31).astype(np.float32))
        with T.no_grad():
            bottleneck, skips = backbone.encode(plan)
            bottleneck = fusion.bottleneck_cross_attention(bottleneck, tokens)
            full_res, scales = backbone.decode(bottleneck, skips, plan)
            fused = fusion.fuse_full_res(full_res,
                                         fusion.gated_global_descriptor(tokens))
        assert fused.shape == (2048, 512)
        assert [s.shape for s in scales] == [(32, 512), (128, 512), (512, 512)]
