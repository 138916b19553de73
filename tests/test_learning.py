"""The model learns the task, and its map follows the intention.

The synthetic data labels a part of the object for even affordance ids
and its top for odd ones, so the cloud alone cannot tell which region is
asked for: only the hidden states can. A toy model trained on 2 classes
x 2 affordances must reach a held-out result, and with each held-out
record's hidden states swapped for the other affordance's (same class)
its map must move to the other region.
"""

import numpy as np

from affground.config import ModelConfig, OptimConfig, RunConfig
from affground.dataio import gen_synthetic_dataset, read_dataset
from affground.metrics import aiou
from affground.train import evaluate, load_model, load_samples, train

TOY = {"n_points": 256, "d": 32, "d_h": 32, "seq_len": 4, "cont_width": 16,
       "k_max": [16, 16, 16]}


def other_affordance(dataset):
    """Record index -> the index of the same class's record, at the same
    position, for the other of its two affordances."""
    by_pair = {}
    for i, r in enumerate(dataset.records):
        by_pair.setdefault((r.class_name, r.affordance_id), []).append(i)
    return [by_pair[(r.class_name, 1 - r.affordance_id)][
                by_pair[(r.class_name, r.affordance_id)].index(i)]
            for i, r in enumerate(dataset.records)]


def test_held_out_maps_follow_the_intention(tmp_path):
    data = {"d_h": TOY["d_h"], "seq_len": TOY["seq_len"]}
    manifest = gen_synthetic_dataset(tmp_path / "train", 2, 2, 4,
                                     TOY["n_points"], seed=0, **data)
    held_out = gen_synthetic_dataset(tmp_path / "held_out", 2, 2, 2,
                                     TOY["n_points"], seed=1, **data)
    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=60, lr=3e-3, batch_size=4))
    result = train(config, manifest, tmp_path / "run")
    model, _, ckpt = load_model(result.checkpoint_dir)

    overall = evaluate(model, held_out, expected_vocab=ckpt.vocab).summary()["overall"]
    assert overall["aiou_n"] == overall["auc_n"] == 8
    assert overall["aiou"] > 0.5 and overall["auc"] > 0.9

    samples = load_samples(read_dataset(held_out), model)
    swapped = [aiou(model.predict(samples[j].hidden, s.plan),
                    s.cloud.labels)
               for s, j in zip(samples, other_affordance(read_dataset(held_out)))]
    assert len(swapped) == 8 and np.mean(swapped) < 0.1
