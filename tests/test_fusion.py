"""Cross-modal integration stages."""

import numpy as np
import pytest

from affground import tensor as T
from affground.backbone import PointBackbone, normalize_unit_sphere
from affground.errors import ShapeError
from affground.fusion import FusionModule, integrate
from affground.gradcheck import finite_difference_check_params
from affground.rng import rng_for


def make_fusion(params, d=8, n_heads=1, residual=False, dtype=np.float64, seed=0):
    return FusionModule(params, "fusion", rng_for(seed, "init"), d,
                        n_heads=n_heads, residual=residual, dtype=dtype)


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestBottleneckCrossAttention:
    def test_single_token_output_ignores_queries(self):
        params = {}
        fusion = make_fusion(params)
        token = T.tensor(rand((1, 8), 1), dtype=np.float64)
        q1 = T.tensor(rand((4, 8), 2), dtype=np.float64)
        q2 = T.tensor(rand((4, 8), 3), dtype=np.float64)
        out1 = fusion.bottleneck_cross_attention(q1, token)
        out2 = fusion.bottleneck_cross_attention(q2, token)
        np.testing.assert_allclose(out1.data, out2.data, atol=1e-12)
        expected = (token.data @ params["fusion.attn.v.w"].data) \
            @ params["fusion.attn.out.w"].data
        for row in out1.data:
            np.testing.assert_allclose(row, expected[0], atol=1e-12)

    def test_identical_tokens_identical_outputs(self):
        params = {}
        fusion = make_fusion(params)
        token_row = rand((1, 8), 4)
        tokens = T.tensor(np.repeat(token_row, 5, axis=0), dtype=np.float64)
        queries = T.tensor(rand((3, 8), 5), dtype=np.float64)
        out = fusion.bottleneck_cross_attention(queries, tokens)
        np.testing.assert_allclose(out.data[0], out.data[1], atol=1e-12)
        np.testing.assert_allclose(out.data[0], out.data[2], atol=1e-12)

    def test_width_mismatch_rejected(self):
        params = {}
        fusion = make_fusion(params)
        with pytest.raises(ShapeError):
            fusion.bottleneck_cross_attention(
                T.tensor(rand((3, 4)), dtype=np.float64),
                T.tensor(rand((2, 8)), dtype=np.float64))

    def test_gradcheck(self):
        params = {}
        fusion = make_fusion(params)
        queries = T.tensor(rand((4, 8), 6), dtype=np.float64)
        tokens = T.tensor(rand((3, 8), 7), dtype=np.float64)
        attn_params = {k: v for k, v in params.items() if ".attn" in k}
        errs = finite_difference_check_params(
            lambda: (fusion.bottleneck_cross_attention(queries, tokens) ** 2.0).sum(),
            attn_params)
        assert max(errs.values()) <= 1e-4

    def test_two_heads_supported(self):
        params = {}
        fusion = make_fusion(params, n_heads=2)
        out = fusion.bottleneck_cross_attention(
            T.tensor(rand((4, 8), 8), dtype=np.float64),
            T.tensor(rand((3, 8), 9), dtype=np.float64))
        assert out.shape == (4, 8)

    def test_residual_flag(self):
        params = {}
        fusion = make_fusion(params, residual=True)
        for k in params:
            if ".attn.v" in k or ".attn.out" in k:
                params[k].data[:] = 0.0
        queries = T.tensor(rand((4, 8), 10), dtype=np.float64)
        tokens = T.tensor(rand((2, 8), 11), dtype=np.float64)
        out = fusion.bottleneck_cross_attention(queries, tokens)
        np.testing.assert_array_equal(out.data, queries.data)


class TestGatedDescriptor:
    def test_zero_gate_gives_token_mean(self):
        params = {}
        fusion = make_fusion(params)
        params["fusion.gate.w"].data[:] = 0.0
        tokens = T.tensor(rand((6, 8), 12), dtype=np.float64)
        desc = fusion.gated_global_descriptor(tokens)
        np.testing.assert_allclose(desc.data[0], tokens.data.mean(axis=0),
                                   atol=1e-12)

    def test_single_token_identity(self):
        params = {}
        fusion = make_fusion(params)
        tokens = T.tensor(rand((1, 8), 13), dtype=np.float64)
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
        desc = fusion.gated_global_descriptor(T.tensor(tokens, dtype=np.float64))
        np.testing.assert_allclose(desc.data[0], tokens[2], atol=1e-6)

    def test_weights_sum_to_one_and_nonnegative(self):
        params = {}
        fusion = make_fusion(params)
        tokens = T.tensor(rand((7, 8), 15) * 10, dtype=np.float64)
        scores = T.matmul(tokens, params["fusion.gate.w"])
        weights = T.softmax_lastdim(T.transpose(scores))
        assert abs(weights.data.sum() - 1.0) <= 1e-6
        assert (weights.data >= 0).all()

    def test_token_permutation_invariance(self):
        params = {}
        fusion = make_fusion(params)
        tokens = rand((6, 8), 16)
        perm = np.array([3, 1, 5, 0, 4, 2])
        d1 = fusion.gated_global_descriptor(T.tensor(tokens, dtype=np.float64))
        d2 = fusion.gated_global_descriptor(T.tensor(tokens[perm], dtype=np.float64))
        np.testing.assert_allclose(d1.data, d2.data, atol=1e-6)


class TestDuplicateAndFuse:
    def test_constructed_identity_passthrough(self):
        params = {}
        fusion = make_fusion(params)
        d = 8
        w0 = np.zeros((2 * d, d))
        w0[:d] = np.eye(d)  # first layer picks the point half
        params["fusion.fuse.0.w"].data[:] = w0
        params["fusion.fuse.0.b"].data[:] = 0.0
        params["fusion.fuse.1.w"].data[:] = np.eye(d)
        params["fusion.fuse.1.b"].data[:] = 0.0
        feats = np.abs(rand((5, d), 20))  # non-negative so relu is identity
        out = fusion.fuse_full_res(T.tensor(feats, dtype=np.float64),
                                   T.tensor(np.zeros((1, d)), dtype=np.float64))
        np.testing.assert_allclose(out.data, feats, atol=1e-12)

    def test_row_permutation_equivariance(self):
        params = {}
        fusion = make_fusion(params)
        feats = rand((9, 8), 21)
        desc = T.tensor(rand((1, 8), 22), dtype=np.float64)
        perm = np.random.default_rng(23).permutation(9)
        out = fusion.fuse_full_res(T.tensor(feats, dtype=np.float64), desc)
        out_perm = fusion.fuse_full_res(T.tensor(feats[perm], dtype=np.float64), desc)
        np.testing.assert_allclose(out_perm.data, out.data[perm], atol=1e-12)

    def test_gradcheck_descriptor_and_fuse(self):
        params = {}
        fusion = make_fusion(params)
        tokens = T.tensor(rand((3, 8), 24), dtype=np.float64)
        feats = T.tensor(rand((4, 8), 25), dtype=np.float64)

        def loss():
            desc = fusion.gated_global_descriptor(tokens)
            return (fusion.fuse_full_res(feats, desc) ** 2.0).sum()

        stage2 = {k: v for k, v in params.items()
                  if ".gate" in k or ".fuse" in k}
        errs = finite_difference_check_params(loss, stage2)
        assert max(errs.values()) <= 1e-4


class TestIntegrate:
    def _setup(self, seed=0):
        params = {}
        backbone = PointBackbone(params, "backbone", rng_for(seed, "init"), d=8,
                                 stage_points=[8, 4, 2], radii=[0.35, 0.6, 1.0],
                                 k_max=[4, 4, 2], dtype=np.float64)
        fusion = make_fusion(params, seed=seed)
        coords = normalize_unit_sphere(rand((16, 3), seed))
        plan = backbone.build_plan(coords)
        tokens = T.tensor(rand((3, 8), seed + 1), dtype=np.float64)
        return params, backbone, fusion, plan, tokens

    def test_both_stages_off_returns_decoder_output(self):
        params, backbone, fusion, plan, tokens = self._setup()
        with T.no_grad():
            fused, ms = integrate(backbone, fusion, plan, tokens,
                                  stage1=False, stage2=False)
        np.testing.assert_array_equal(fused.data, ms.full_res.data)

    def test_stage1_off_means_decoder_sees_raw_bottleneck(self):
        params, backbone, fusion, plan, tokens = self._setup(1)
        with T.no_grad():
            bottleneck, skips = backbone.encode(plan)
            expected = backbone.decode(bottleneck, skips, plan).full_res
            fused, _ = integrate(backbone, fusion, plan, tokens,
                                 stage1=False, stage2=False)
        np.testing.assert_array_equal(fused.data, expected.data)

    def test_disabled_stage_gets_zero_gradient(self):
        params, backbone, fusion, plan, tokens = self._setup(2)
        fused, _ = integrate(backbone, fusion, plan, tokens,
                             stage1=False, stage2=True)
        T.backward((fused ** 2.0).sum())
        for name, p in params.items():
            if ".attn" in name:
                assert p.grad is None, name
            if ".fuse" in name:
                assert p.grad is not None, name

    def test_full_pipeline_shape_at_defaults(self):
        params = {}
        backbone = PointBackbone(params, "backbone", rng_for(3, "init"), d=512,
                                 stage_points=[512, 128, 32])
        fusion = FusionModule(params, "fusion", rng_for(3, "init2"), 512)
        coords = normalize_unit_sphere(rand((2048, 3), 30))
        plan = backbone.build_plan(coords)
        tokens = T.tensor(rand((4, 512), 31).astype(np.float32))
        with T.no_grad():
            fused, ms = integrate(backbone, fusion, plan, tokens)
        assert fused.shape == (2048, 512)
        assert [s[1].shape[0] for s in ms.scales] == [32, 128, 512]
