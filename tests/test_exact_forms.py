"""The exact-algebra layer forms against the repeated-row forms they replace.

Set abstraction, feature propagation, Stage II fusion, the decoder's
intention add and lifting compute each first linear layer on distinct
rows only (see the module docstrings). The oracles below are the forms
that build the repeated rows and multiply them:

- ``sa_call_oracle``: every group padded to ``k_max`` rows, the member
  features gathered, then concatenated;
- ``encode_oracle``: the coordinates fed to the first stage as features;
- ``fp_call_oracle``: interpolate, then concatenate the skip;
- ``decode_oracle``: every FP stage on its concatenated rows;
- ``fuse_full_res_oracle``: tile the descriptor, concatenate, and project;
- ``point_to_intention_oracle``: the (1, d/2) value row ``wv(embedding)``,
  without the head's bias;
- ``predict_map_oracle``: run the head's first layer on every (N, d) row,
  then add the tiled value row;
- ``cross_attention_oracle``: Stage I's former form, the query projection
  of every query row and the value projection of every context row;
- ``lift_stage_oracle``: the (N, d) x (d, d) value projection of every
  point, and the query row against every point row;
- ``concat_lift_oracle``: concatenate the embedding and the pooled finest
  scale, then project.

Both are equal in exact arithmetic. In floating point every output must
lie within ``TOL[dtype]`` times the largest output magnitude, and every
gradient within ``TOL[dtype]`` times the largest gradient magnitude over
all parameters and inputs. ``former_lift_stage`` is the lift stage as it
was before it used ``nn.CrossAttention``; the lifting must equal it bit
for bit.

Set abstraction runs its MLP on each group's real members only.
``padded_sa_call`` is the former stage, which padded every group to
``k_max`` rows with copies of its first member and pooled with
``max_reduce``; outputs must equal it bit for bit, and gradients (whose
products sum other rows) lie within ``TOL``.
"""

import sys

import numpy as np
import pytest

from affground import tensor as T
from affground.backbone import PointBackbone, normalize_unit_sphere
from affground.cli import main
from affground.config import FusionConfig, ModelConfig, RunConfig
from affground.dataio import read_dataset, read_tensor, synth_cloud
from affground.decoder import AffordanceDecoder
from affground.errors import ContractError
from affground.fusion import FusionModule
from affground.intention import synth_fixture
from affground.lifting import GeometryLifting, LiftStage
from affground.metrics import pca_project
from affground.model import AffordanceModel
from affground.nn import CrossAttention, make_mlp
from affground.rng import rng_for
from affground.train import load_model

from conftest import TOY, TOY_MODEL_SETS
from oracles import concat, max_reduce, padded_rows, relu, reshape

TOL = {np.float64: 1e-13, np.float32: 1e-5}
DTYPES = [np.float64, np.float32]


def on_concat(layer, x, relu=False):
    """``layer`` on its concatenated input ``x``: one product with the
    weights of its input parts joined in input order."""
    w = concat(layer.w, axis=0) if isinstance(layer.w, tuple) else layer.w
    return T.linear(x, w, (layer.b,), relu)


def mlp_on_concat(mlp, x):
    """``mlp`` on its concatenated input ``x`` (see :func:`on_concat`)."""
    return mlp.after_first(on_concat(mlp.layers[0], x, len(mlp.layers) > 1))


def pad_sa_plan(plan, k):
    """The former (m, k) group indices and (m, k, g) geometry of a stage:
    each group's members, then copies of its first member up to k."""
    rows = padded_rows(plan.starts, len(plan.group_idx), k)
    return plan.group_idx[rows], plan.geometry[rows]


def padded_sa_call(stage, feats, plan, k):
    """The former SetAbstraction: the exact form on groups padded to k."""
    group_idx, geometry = pad_sa_plan(plan, k)
    m, k, g = geometry.shape
    first = stage.mlp.layers[0]
    w_geo, w_feat = (first.w, None) if feats is None else first.w
    h = T.matmul(T.Tensor(geometry.reshape(m * k, g).astype(stage.dtype)), w_geo)
    if feats is not None:
        h = h + T.gather_rows(T.matmul(feats, w_feat), group_idx.reshape(-1))
    h = h + first.b
    encoded = reshape(stage.mlp.after_first(relu(h)), (m, k, stage.out_dim))
    return max_reduce(encoded, axis=1)


def sa_call_oracle(stage, feats, plan, k):
    """SetAbstraction: pad the groups, gather member features, concatenate,
    run the MLP."""
    group_idx, geometry = pad_sa_plan(plan, k)
    m, k, _ = geometry.shape
    rel = T.Tensor(geometry[:, :, :3].reshape(m * k, 3).astype(stage.dtype))
    member = T.gather_rows(feats, group_idx.reshape(-1))
    encoded = mlp_on_concat(stage.mlp, concat([rel, member], axis=1))
    return max_reduce(reshape(encoded, (m, k, stage.out_dim)), axis=1)


def padded_encode(backbone, plan):
    """PointBackbone.encode with every stage on groups padded to k_max."""
    feats = None
    skips = [T.Tensor(plan.level_coords[0].astype(backbone.dtype))]
    for stage, sa_plan, k in zip(backbone.sa_stages, plan.sa, backbone.k_max):
        feats = padded_sa_call(stage, feats, sa_plan, k)
        skips.append(feats)
    return feats, skips[:-1]


def encode_oracle(backbone, plan):
    """PointBackbone.encode with the coordinates as the first stage's features."""
    feats = T.Tensor(plan.level_coords[0].astype(backbone.dtype))
    skips = [feats]
    for stage, sa_plan, k in zip(backbone.sa_stages, plan.sa, backbone.k_max):
        feats = sa_call_oracle(stage, feats, sa_plan, k)
        skips.append(feats)
    return feats, skips[:-1]


def fp_call_oracle(fp, src_feats, plan, skip_feats):
    """FeaturePropagation: interpolate, concatenate the skip, run the MLP,
    and ReLU the output of a one-layer MLP (FP3)."""
    mixed = T.interpolate(src_feats, plan.nn_idx, plan.weights)
    out = mlp_on_concat(fp.mlp, concat([mixed, skip_feats], axis=1))
    return relu(out) if len(fp.mlp.layers) == 1 else out


def decode_oracle(backbone, bottleneck, skips, plan):
    """PointBackbone.decode with every FP stage on its concatenated rows."""
    scales = [bottleneck]
    for fp, fp_plan, skip in zip(backbone.fp_stages, plan.fp, reversed(skips)):
        scales.append(fp_call_oracle(fp, scales[-1], fp_plan, skip))
    return scales.pop(), scales


def repeat_rows_oracle(x, n):
    """n copies of a (1, d) row; the backward sums the rows' gradients."""
    def backward(g):
        T._accumulate(x, g.sum(axis=0, keepdims=True))

    data = np.broadcast_to(x.data, (n, x.shape[1])).copy()
    return T._node(data, (x,), backward, "repeat_rows")


def fuse_full_res_oracle(fusion, full_res, descriptor):
    """Stage II: tile the descriptor, concatenate, run the layer."""
    tiled = repeat_rows_oracle(descriptor, full_res.shape[0])
    return relu(on_concat(fusion.fuse, concat([full_res, tiled], axis=1)))


def point_to_intention_oracle(decoder, embedding):
    """The value-projected embedding, without the head's bias."""
    return decoder.wv(embedding)


def predict_map_oracle(decoder, point_feats, value):
    """The head's first layer on every (N, d) row plus ``value`` tiled over
    the rows, then the rest of the head."""
    tiled = repeat_rows_oracle(value, point_feats.shape[0])
    first = decoder.head.layers[0](point_feats) + tiled
    return decoder.head.after_first(relu(first))


def cross_attention_oracle(attn, queries, context):
    """CrossAttention as ``softmax(q(queries) @ context.T) @ v(context)``."""
    scale = 1.0 / np.sqrt(attn.d)
    logits = T.matmul(attn.wq(queries), T.transpose(context)) * scale
    return T.matmul(T.softmax_lastdim(logits), attn.wv(context))


def lift_stage_oracle(stage, embedding, point_feats):
    """LiftStage with the value projection of every point."""
    updated = embedding + cross_attention_oracle(stage.attn, embedding,
                                                 point_feats)
    return updated + stage.ffn(updated)


def former_lift_stage(stage, embedding, point_feats):
    """LiftStage as it was written before it used CrossAttention."""
    wq, wv, d = stage.attn.wq, stage.attn.wv, stage.attn.d
    logits = T.transpose(T.matmul(point_feats, T.transpose(wq(embedding))))
    attn = T.softmax_lastdim(logits * (1.0 / np.sqrt(d)))
    updated = embedding + wv(T.matmul(attn, point_feats))
    return updated + stage.ffn(updated)


def former_lift_all(lifting, embedding, scales):
    """The former ``multi`` loop and ``single`` branch."""
    if len(lifting.stages) == 1:
        return former_lift_stage(lifting.stages[0], embedding, scales[-1])
    out = embedding
    for stage, feats in zip(lifting.stages, scales):
        out = former_lift_stage(stage, out, feats)
    return out


def concat_lift_oracle(lifting, embedding, scales):
    """``concat`` lifting: concatenate, then project."""
    pooled = T.tmean(scales[-1], axis=0, keepdims=True)
    return on_concat(lifting.concat_proj, concat([embedding, pooled], axis=1))


def assert_within(got: dict, want: dict, tol: float):
    """Every array within tol x the largest magnitude over all of ``want``."""
    assert sorted(got) == sorted(want)
    scale = max(float(np.abs(w).max()) for w in want.values())
    assert scale > 0
    for name, w in want.items():
        assert got[name].shape == w.shape and got[name].dtype == w.dtype, name
        err = float(np.abs(got[name].astype(np.float64) - w).max())
        assert err <= tol * scale, (name, err / scale)


def run(form, inputs: dict, params: dict, seed: int):
    """Output and every gradient of ``sum(form(*inputs) * c)``, c random."""
    leaves = {**params, **inputs}
    for t in leaves.values():
        t.grad = None
    out = form(*inputs.values())
    c = np.random.default_rng(seed).normal(size=out.shape)
    T.backward((out * T.tensor(c, dtype=out.dtype)).sum())
    return out.data.copy(), {k: t.grad.copy() for k, t in leaves.items()}


def check_against_oracle(new, oracle, inputs, params, dtype, seed):
    out, grads = run(new, inputs, params, seed)
    want_out, want_grads = run(oracle, inputs, params, seed)
    assert_within({"out": out}, {"out": want_out}, TOL[dtype])
    assert_within(grads, want_grads, TOL[dtype])


def leaf(rng, shape, dtype):
    return T.tensor(rng.normal(size=shape), requires_grad=True, dtype=dtype)


def real_plan(d, dtype):
    """A backbone and the plan of a cloud whose groups are short of k_max."""
    params = {}
    backbone = PointBackbone(params, "backbone", rng_for(0, "init"), d=d,
                             stage_points=[64, 16, 4], k_max=[8, 8, 8],
                             dtype=dtype)
    coords = normalize_unit_sphere(np.random.default_rng(41).normal(size=(160, 3)))
    plan = backbone.build_plan(coords)
    for sa in plan.sa:
        assert len(sa.group_idx) < 8 * len(sa.starts)
    return params, backbone, plan


def stage_params(params, prefix):
    return {k: v for k, v in params.items() if k.startswith(prefix + ".")}


def check_stage(i, dtype, oracle):
    """SA stage i against ``oracle(stage, feats, plan, k)``: returns the
    outputs and gradients of both."""
    params, backbone, plan = real_plan(16, dtype)
    stage, k = backbone.sa_stages[i], backbone.k_max[i]
    sa_params = stage_params(params, f"backbone.sa{i + 1}")
    if i == 0:
        # the first stage's features are the constant coordinates, which
        # it reads from its plan's (rows, 6) member rows; the oracle
        # gathers them from the coordinates
        coords = T.Tensor(plan.level_coords[0].astype(dtype))
        got = run(lambda: stage(None, plan.sa[0]), {}, sa_params, i)
        want = run(lambda: oracle(stage, coords, plan.sa[0], k), {}, sa_params, i)
        return got, want
    in_dim = stage.mlp.layers[0].w[1].shape[0]     # w_feat's rows
    rng = np.random.default_rng(42 + i)
    inputs = {"feats": leaf(rng, (len(plan.level_coords[i]), in_dim), dtype)}
    got = run(lambda f: stage(f, plan.sa[i]), inputs, sa_params, i)
    want = run(lambda f: oracle(stage, f, plan.sa[i], k), inputs, sa_params, i)
    return got, want


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("i", [0, 1, 2])
def test_set_abstraction_matches_gather_concat(i, dtype):
    (out, grads), (want_out, want_grads) = check_stage(i, dtype, sa_call_oracle)
    assert_within({"out": out}, {"out": want_out}, TOL[dtype])
    assert_within(grads, want_grads, TOL[dtype])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("i", [0, 1, 2])
def test_set_abstraction_equals_the_padded_groups(i, dtype):
    def padded(stage, feats, plan, k):
        # the first stage reads its features from the geometry as well
        return padded_sa_call(stage, None if i == 0 else feats, plan, k)

    (out, grads), (want_out, want_grads) = check_stage(i, dtype, padded)
    assert out.dtype == dtype
    np.testing.assert_array_equal(out, want_out)
    assert_within(grads, want_grads, TOL[dtype])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("i", [0, 1, 2])
def test_feature_propagation_matches_interpolate_concat(i, dtype):
    params, backbone, plan = real_plan(16, dtype)
    fp = backbone.fp_stages[i]
    fp_plan = plan.fp[i]
    skip_dim = fp.mlp.layers[0].w[1].shape[0]      # w_skip's rows
    rng = np.random.default_rng(45 + i)
    inputs = {"src": leaf(rng, (int(fp_plan.nn_idx.max()) + 1, 16), dtype),
              "skip": leaf(rng, (len(fp_plan.nn_idx), skip_dim), dtype)}
    check_against_oracle(lambda s, k: fp(s, fp_plan, k),
                         lambda s, k: fp_call_oracle(fp, s, fp_plan, k),
                         inputs, stage_params(params, f"backbone.fp{i + 1}"),
                         dtype, 3 + i)


def test_mlp_needs_an_input_and_an_output_width():
    # FP3 is a one-layer MLP: that layer alone, with no activation after it
    params = {}
    mlp = make_mlp(params, "mlp", rng_for(0, "init"), [4, 2], np.float64)
    assert sorted(params) == ["mlp.0.b", "mlp.0.w"]
    x = T.tensor(np.random.default_rng(1).normal(size=(3, 4)))
    np.testing.assert_array_equal(
        mlp(x).data, x.data @ params["mlp.0.w"].data + params["mlp.0.b"].data)
    for widths in ([4], []):
        with pytest.raises(ContractError):
            make_mlp({}, "mlp", rng_for(0, "init"), widths)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n_rows", [1, 50])
def test_fuse_full_res_matches_tile_concat(n_rows, dtype):
    params = {}
    fusion = FusionModule(params, "fusion", rng_for(1, "init"), 16, dtype=dtype)
    rng = np.random.default_rng(48)
    inputs = {"full_res": leaf(rng, (n_rows, 16), dtype),
              "descriptor": leaf(rng, (1, 16), dtype)}
    check_against_oracle(
        fusion.fuse_full_res,
        lambda x, dsc: fuse_full_res_oracle(fusion, x, dsc),
        inputs, stage_params(params, "fusion.fuse"), dtype, 6)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n_rows", [1, 50])
def test_decoder_matches_unfolded_rows(n_rows, dtype):
    params = {}
    decoder = AffordanceDecoder(params, "decoder", rng_for(3, "init"), 16,
                                dtype=dtype)
    rng = np.random.default_rng(50)
    inputs = {"feats": leaf(rng, (n_rows, 16), dtype),
              "embedding": leaf(rng, (1, 16), dtype)}

    def shifted_bias(x, e):
        return decoder.predict_map(x, decoder.point_to_intention(e))

    def oracle(x, e):
        return predict_map_oracle(decoder, x,
                                  point_to_intention_oracle(decoder, e))

    check_against_oracle(shifted_bias, oracle, inputs, params, dtype, 8)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n_points", [1, 7, 64])
def test_lift_stage_matches_key_value_projections(n_points, dtype):
    params = {}
    stage = LiftStage(params, "stage", rng_for(2, "init"), 16, dtype=dtype)
    rng = np.random.default_rng(49)
    inputs = {"embedding": leaf(rng, (1, 16), dtype),
              "point_feats": leaf(rng, (n_points, 16), dtype)}
    check_against_oracle(stage,
                         lambda e, p: lift_stage_oracle(stage, e, p),
                         inputs, params, dtype, 7)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n_rows", [1, 50])
def test_stage1_matches_the_value_projection_of_every_token(n_rows, dtype):
    params = {}
    fusion = FusionModule(params, "fusion", rng_for(4, "init"), 16, dtype=dtype)
    rng = np.random.default_rng(51)
    inputs = {"points": leaf(rng, (n_rows, 16), dtype),
              "tokens": leaf(rng, (4, 16), dtype)}
    check_against_oracle(
        fusion.bottleneck_cross_attention,
        lambda p, t: cross_attention_oracle(fusion.attn, p, t),
        inputs, stage_params(params, "fusion.attn"), dtype, 9)


def lift_inputs(dtype, seed):
    """A (1, d) embedding and three scales, coarse to fine."""
    rng = np.random.default_rng(seed)
    return (leaf(rng, (1, 16), dtype),
            [leaf(rng, (n, 16), dtype) for n in (4, 16, 64)])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("mode", ["multi", "single"])
def test_lifting_equals_the_former_stages_bitwise(mode, dtype):
    params = {}
    lifting = GeometryLifting(params, "lifting", rng_for(5, "init"), 16,
                              mode=mode, dtype=dtype)
    embedding, scales = lift_inputs(dtype, 52)
    # the leaves that get a gradient: single mode reads only the finest scale
    read = {"embedding": embedding, "finest": scales[-1]}
    if mode == "multi":
        read.update(coarse=scales[0], middle=scales[1])
    out, grads = run(lambda *_: lifting.lift_all(embedding, scales),
                     read, params, 10)
    want_out, want_grads = run(
        lambda *_: former_lift_all(lifting, embedding, scales), read, params, 10)
    np.testing.assert_array_equal(out, want_out)
    assert out.dtype == dtype and grads.keys() == want_grads.keys()
    for name, grad in grads.items():
        np.testing.assert_array_equal(grad, want_grads[name], err_msg=name)


@pytest.mark.parametrize("dtype", DTYPES)
def test_concat_lifting_matches_concat_then_project(dtype):
    params = {}
    lifting = GeometryLifting(params, "lifting", rng_for(6, "init"), 16,
                              mode="concat", dtype=dtype)
    embedding, scales = lift_inputs(dtype, 53)
    check_against_oracle(
        lambda e, f: lifting.lift_all(e, scales[:-1] + [f]),
        lambda e, f: concat_lift_oracle(lifting, e, scales[:-1] + [f]),
        {"embedding": embedding, "finest": scales[-1]}, params, dtype, 11)


def toy_samples():
    return [(synth_cloud(c, a, seed=5 + c, n=TOY["n_points"]),
             synth_fixture(c, a, seed=7 + c, L=TOY["seq_len"], d_h=TOY["d_h"]))
            for c, a in [(0, 1), (2, 0)]]


def patch_in_oracles(m):
    m.setattr(PointBackbone, "encode", encode_oracle)
    m.setattr(PointBackbone, "decode", decode_oracle)
    m.setattr(FusionModule, "fuse_full_res", fuse_full_res_oracle)
    m.setattr(CrossAttention, "__call__", cross_attention_oracle)
    m.setattr(LiftStage, "__call__", lift_stage_oracle)
    m.setattr(AffordanceDecoder, "point_to_intention", point_to_intention_oracle)
    m.setattr(AffordanceDecoder, "predict_map", predict_map_oracle)


def accumulated(config, dtype):
    """Losses and logits of the toy samples, and the summed gradients."""
    model = AffordanceModel(config, dtype=dtype)
    outputs = {}
    for j, (cloud, hidden) in enumerate(toy_samples()):
        result = model.forward(cloud, hidden)
        total, _, _ = model.loss(result, cloud, hidden)
        T.backward(total)
        outputs[f"loss{j}"] = total.data.copy()
        outputs[f"logits{j}"] = result.logits.data.copy()
    # with Stage II off its parameters get no gradient in either form
    return outputs, {k: p.grad for k, p in model.params.items()
                     if p.grad is not None}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("stage2", [True, False], ids=["stage2", "no_stage2"])
def test_model_matches_the_repeated_row_forms(stage2, dtype, monkeypatch):
    config = RunConfig(model=ModelConfig(**TOY),
                       fusion=FusionConfig(stage2=stage2))
    outputs, grads = accumulated(config, dtype)
    with monkeypatch.context() as m:
        patch_in_oracles(m)
        want_outputs, want_grads = accumulated(config, dtype)
    for name in outputs:
        assert_within({name: outputs[name]}, {name: want_outputs[name]}, TOL[dtype])
    assert_within(grads, want_grads, TOL[dtype])


@pytest.mark.parametrize("dtype", DTYPES)
def test_model_equals_the_padded_groups(dtype, monkeypatch):
    config = RunConfig(model=ModelConfig(**TOY))
    outputs, grads = accumulated(config, dtype)
    with monkeypatch.context() as m:
        m.setattr(PointBackbone, "encode", padded_encode)
        want_outputs, want_grads = accumulated(config, dtype)
    for name, want in want_outputs.items():
        assert outputs[name].dtype == dtype
        np.testing.assert_array_equal(outputs[name], want, err_msg=name)
    assert_within(grads, want_grads, TOL[dtype])


def test_forward_multiplies_fewer_rows(monkeypatch):
    """The model's forward does fewer multiply-adds than the oracle forms:
    the SA MLPs run on real member rows, not on groups padded to k_max."""
    cloud, hidden = toy_samples()[0]
    model = AffordanceModel(RunConfig(model=ModelConfig(**TOY)))
    plan = model.build_plan(cloud)
    matmul = T.matmul
    macs = []

    def counting(a, b):
        macs[-1] += a.shape[0] * a.shape[1] * b.shape[1]
        return matmul(a, b)

    def forward_macs():
        macs.append(0)
        with T.no_grad():
            model.forward(cloud, hidden, plan)
        return macs[-1]

    # every module that multiplies through tensor.matmul, as perfbench
    # counts; tensor.linear makes its products in affground.tensor
    patched = {name for name, module in list(sys.modules.items())
               if name.startswith("affground.")
               and getattr(module, "matmul", None) is matmul}
    assert {"affground.tensor", "affground.nn"} <= patched
    for name in patched:
        monkeypatch.setattr(f"{name}.matmul", counting)
    new = forward_macs()
    monkeypatch.setattr(PointBackbone, "encode", padded_encode)
    padded = forward_macs()
    # both SA layers skip the padded rows: the first on its g geometry
    # columns, the second on its whole input
    saved = 0
    for stage, sa, k in zip(model.backbone.sa_stages, plan.sa,
                            model.backbone.k_max):
        _, second = stage.mlp.layers
        g, (width, out) = sa.geometry.shape[1], second.w.shape
        saved += (k * len(sa.starts) - len(sa.group_idx)) * (g + out) * width
    assert saved > 0 and padded - new == saved
    patch_in_oracles(monkeypatch)
    assert padded < forward_macs()


def test_pca_viz_matches_the_unfolded_features(tmp_path, monkeypatch):
    """What ``pca-viz`` writes is the projection of the oracle's fused rows."""
    data, run, out = tmp_path / "data", tmp_path / "run", tmp_path / "pca.htns"
    assert main(["gen-data", "--out", str(data), "--classes", "1",
                 "--affordances", "2", "--samples-per", "1", "--points", "128",
                 "--d-h", "32", "--seq-len", "4"]) == 0
    manifest = str(data / "manifest.jsonl")
    assert main(["train", "--data", manifest, "--out", str(run)] + TOY_MODEL_SETS
                + ["--set", "optimizer.epochs=1"]) == 0
    dataset = read_dataset(manifest)
    record = dataset.records[0]
    assert main(["pca-viz", "--checkpoint", str(run / "checkpoint"),
                 "--data", manifest, "--sample", record.id,
                 "--out", str(out)]) == 0
    model, _, _ = load_model(run / "checkpoint")
    cloud, hidden = dataset.load_cloud(record), dataset.load_hidden(record)
    written = read_tensor(out)
    with monkeypatch.context() as m:
        m.setattr(PointBackbone, "encode", padded_encode)
        with T.no_grad():
            fused, _ = model.integrate(hidden, model.build_plan(cloud))
    padded = pca_project(fused.data, k=3).projection.astype(np.float32)
    np.testing.assert_array_equal(written, padded)
    patch_in_oracles(monkeypatch)
    with T.no_grad():
        fused, _ = model.integrate(hidden, model.build_plan(cloud))
    want = pca_project(fused.data, k=3).projection.astype(np.float32)
    assert_within({"projection": written}, {"projection": want},
                  TOL[np.float32])
