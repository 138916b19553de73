"""Geometry lifting stages and strategy modes."""

import numpy as np
import pytest

from affground import tensor as T
from affground.errors import ConfigError, ContractError, ShapeError
from affground.gradcheck import finite_difference_check_params
from affground.lifting import GeometryLifting, LiftStage
from affground.rng import rng_for

from oracles import power


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def make_lifting(params, d=8, mode="multi", seed=0, dtype=np.float64):
    return GeometryLifting(params, "lifting", rng_for(seed, "init"), d,
                           mode=mode, dtype=dtype)


def scales_for(d=8, seed=0, counts=(2, 4, 8)):
    return [T.tensor(rand((n, d), seed + 10 + i), dtype=np.float64)
            for i, n in enumerate(counts)]


class TestLiftStage:
    def test_zero_branches_make_identity(self):
        params = {}
        stage = LiftStage(params, "stage", rng_for(0, "init"), 8, dtype=np.float64)
        params["stage.v.w"].data[:] = 0.0
        params["stage.ffn.1.w"].data[:] = 0.0
        params["stage.ffn.1.b"].data[:] = 0.0
        emb = T.tensor(rand((1, 8), 1), dtype=np.float64)
        out = stage(emb, T.tensor(rand((5, 8), 2), dtype=np.float64))
        np.testing.assert_array_equal(out.data, emb.data)

    def test_single_point_adds_projected_feature(self):
        params = {}
        stage = LiftStage(params, "stage", rng_for(1, "init"), 8, dtype=np.float64)
        params["stage.ffn.1.w"].data[:] = 0.0
        params["stage.ffn.1.b"].data[:] = 0.0
        emb = rand((1, 8), 3)
        feat = rand((1, 8), 4)
        out = stage(T.tensor(emb, dtype=np.float64), T.tensor(feat, dtype=np.float64))
        expected = emb + feat @ params["stage.v.w"].data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_equals_the_factored_attention(self):
        # q is W_q W_k^T
        params = {}
        stage = LiftStage(params, "stage", rng_for(6, "init"), 8, dtype=np.float64)
        w_q, w_k = rand((8, 8), 50), rand((8, 8), 51)
        params["stage.q.w"].data[:] = w_q @ w_k.T
        emb, feats = rand((1, 8), 52), rand((6, 8), 53)
        logits = (emb @ w_q) @ (feats @ w_k).T / np.sqrt(8)
        attn = np.exp(logits - logits.max())
        attn /= attn.sum()
        updated = emb + attn @ (feats @ params["stage.v.w"].data)
        hidden = np.maximum(updated @ params["stage.ffn.0.w"].data
                            + params["stage.ffn.0.b"].data, 0.0)
        expected = updated + hidden @ params["stage.ffn.1.w"].data \
            + params["stage.ffn.1.b"].data
        out = stage(T.tensor(emb, dtype=np.float64),
                    T.tensor(feats, dtype=np.float64))
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_point_permutation_invariance(self):
        params = {}
        stage = LiftStage(params, "stage", rng_for(2, "init"), 8, dtype=np.float64)
        emb = T.tensor(rand((1, 8), 5), dtype=np.float64)
        feats = rand((7, 8), 6)
        perm = np.random.default_rng(7).permutation(7)
        out = stage(emb, T.tensor(feats, dtype=np.float64))
        out_perm = stage(emb, T.tensor(feats[perm], dtype=np.float64))
        np.testing.assert_allclose(out.data, out_perm.data, atol=1e-6)

    def test_finite_for_any_parameters(self):
        params = {}
        stage = LiftStage(params, "stage", rng_for(3, "init"), 8, dtype=np.float64)
        for p in params.values():
            p.data *= 50.0
        out = stage(T.tensor(rand((1, 8), 8), dtype=np.float64),
                    T.tensor(rand((4, 8), 9), dtype=np.float64))
        assert np.isfinite(out.data).all()

    def test_width_mismatch_rejected(self):
        params = {}
        stage = LiftStage(params, "stage", rng_for(4, "init"), 8, dtype=np.float64)
        with pytest.raises(ShapeError):
            stage(T.tensor(rand((1, 4)), dtype=np.float64),
                  T.tensor(rand((4, 8)), dtype=np.float64))

    def test_gradcheck(self):
        params = {}
        stage = LiftStage(params, "stage", rng_for(5, "init"), 8, dtype=np.float64)
        emb = T.tensor(rand((1, 8), 10), dtype=np.float64)
        feats = T.tensor(rand((5, 8), 11), dtype=np.float64)
        errs = finite_difference_check_params(
            lambda: power(stage(emb, feats), 2.0).sum(), params)
        assert max(errs.values()) <= 1e-4


class TestLiftingModes:
    def test_multi_zero_branched_is_identity(self):
        params = {}
        lifting = make_lifting(params)
        for name, p in params.items():
            if ".v.w" in name or ".ffn.1" in name:
                p.data[:] = 0.0
        emb = T.tensor(rand((1, 8), 12), dtype=np.float64)
        out = lifting.lift_all(emb, scales_for())
        np.testing.assert_array_equal(out.data, emb.data)

    def test_single_mode_ignores_coarse_scales(self):
        params = {}
        lifting = make_lifting(params, mode="single")
        emb = T.tensor(rand((1, 8), 13), dtype=np.float64)
        scales = scales_for(seed=20)
        out = lifting.lift_all(emb, scales)

        perturbed = [scales[0] + 5.0, scales[1] * 3.0, scales[2]]
        out2 = lifting.lift_all(emb, perturbed)
        np.testing.assert_array_equal(out.data, out2.data)

    def test_output_width_512_at_defaults(self):
        params = {}
        lifting = GeometryLifting(params, "lifting", rng_for(6, "init"), 512)
        emb = T.tensor(rand((1, 512), 14).astype(np.float32))
        scales = [T.tensor(rand((n, 512), n).astype(np.float32)) for n in (4, 8, 16)]
        with T.no_grad():
            assert lifting.lift_all(emb, scales).shape == (1, 512)

    def test_concat_mode_uses_mean_pool(self):
        params = {}
        lifting = make_lifting(params, mode="concat")
        emb = rand((1, 8), 15)
        scales = scales_for(seed=30)
        out = lifting.lift_all(T.tensor(emb, dtype=np.float64), scales)
        pooled = scales[-1].data.mean(axis=0, keepdims=True)
        joint = np.hstack([emb, pooled])
        w = np.vstack([params[f"lifting.concat.{part}"].data
                       for part in ("w_embedding", "w_pooled")])
        expected = joint @ w + params["lifting.concat.b"].data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_mode_independence_of_gradients(self):
        # each mode builds only the weights it uses, and all of them train
        built = {"multi": {"stage1", "stage2", "stage3"},
                 "single": {"stage1"},
                 "concat": {"concat"}}
        for mode, expected in built.items():
            params = {}
            lifting = make_lifting(params, mode=mode)
            assert {name.split(".")[1] for name in params} == expected, mode
            emb = T.tensor(rand((1, 8), 16), dtype=np.float64)
            out = lifting.lift_all(emb, scales_for(seed=40))
            T.backward((out * out).sum())
            for name, p in params.items():
                assert p.grad is not None and np.any(p.grad != 0), name

    def test_multi_runs_stage_i_on_scale_i_coarse_to_fine(self):
        params = {}
        lifting = make_lifting(params, seed=18)
        emb = T.tensor(rand((1, 8), 18), dtype=np.float64)
        scales = scales_for(seed=60)
        expected = emb
        for stage, feats in zip(lifting.stages, scales):
            expected = stage(expected, feats)
        np.testing.assert_array_equal(lifting.lift_all(emb, scales).data,
                                      expected.data)

    def test_every_mode_needs_three_scales(self):
        emb = T.tensor(rand((1, 8), 17), dtype=np.float64)
        for mode in ("multi", "single", "concat"):
            lifting = make_lifting({}, mode=mode)
            for scales in (scales_for()[1:], scales_for() + scales_for()[:1]):
                with pytest.raises(ContractError, match="expects 3 scales"):
                    lifting.lift_all(emb, scales)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError):
            make_lifting({}, mode="pyramid")

    def test_gradcheck_all_modes(self):
        for mode in ("multi", "single", "concat"):
            params = {}
            lifting = make_lifting(params, mode=mode, seed=19)
            emb = T.tensor(rand((1, 8), 19), dtype=np.float64)
            scales = scales_for(seed=70)
            errs = finite_difference_check_params(
                lambda: power(lifting.lift_all(emb, scales), 2.0).sum(), params)
            assert max(errs.values()) <= 1e-4, mode
