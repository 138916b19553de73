"""Training and evaluation loops.

Training is a pure function of (config, dataset, seed): sample order per
epoch comes from a counter-based stream, gradients accumulate over each
batch on per-sample graphs, and AdamW steps under a linear learning-rate
decay. Checkpoints carry parameters, optimizer moments, counters, and
the config, so a resumed run reproduces the uninterrupted one bitwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig, config_from_dict, drop_retired
from .dataio import (
    Dataset,
    load_checkpoint,
    read_dataset,
    restore_params,
    save_checkpoint,
)
from .errors import ConfigError, NumericError, TrainingDiverged
from .metrics import MetricReport, evaluate_sample
from .model import AffordanceModel
from .optim import AdamW, linear_lr
from .rng import rng_for
from .tensor import backward


@dataclass
class LoadedSample:
    cloud: object
    hidden: object
    plan: object


def load_samples(dataset: Dataset, model: AffordanceModel) -> list:
    """Eagerly load every sample; plans are precomputed once per cloud."""
    samples = []
    for record in dataset.records:
        cloud = dataset.load_cloud(record)
        samples.append(LoadedSample(cloud=cloud, hidden=dataset.load_hidden(record),
                                    plan=model.build_plan(cloud)))
    return samples


def _check_dataset_compat(config: RunConfig, dataset: Dataset):
    n_aff = len(dataset.vocab["affordances"])
    if n_aff != config.model.n_affordances:
        raise ConfigError(
            f"dataset has {n_aff} affordances but the model expects "
            f"{config.model.n_affordances}")
    if dataset.vocab.get("d_h") not in (None, config.model.d_h):
        raise ConfigError(
            f"dataset hidden width {dataset.vocab['d_h']} != model "
            f"d_h {config.model.d_h}")


@dataclass
class TrainResult:
    checkpoint_dir: Path
    log_path: Path
    steps: int
    last: dict


def train(config: RunConfig, manifest_path, out_dir, resume=None,
          log_fn=None) -> TrainResult:
    config.validate()
    dataset = read_dataset(manifest_path)
    if not dataset.records:
        raise ConfigError(f"{manifest_path}: dataset has no samples")
    _check_dataset_compat(config, dataset)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ckpt_dir = out / "checkpoint"
    log_path = out / "log.jsonl"

    model = AffordanceModel(config)
    opt_cfg = config.optimizer
    optimizer = AdamW(model.params, lr=opt_cfg.lr,
                      betas=(opt_cfg.beta1, opt_cfg.beta2), eps=opt_cfg.eps,
                      weight_decay=opt_cfg.weight_decay)

    start_step = 0
    if resume is not None:
        ckpt = load_checkpoint(resume)
        if drop_retired(ckpt.config) != config.to_dict():
            raise ConfigError("resume checkpoint was written with a different config")
        restore_params(model.params, ckpt.params)
        if ckpt.optimizer is not None:
            optimizer.load_state_arrays(ckpt.optimizer)
        start_step = ckpt.step

    samples = load_samples(dataset, model)
    n = len(samples)
    batch = opt_cfg.batch_size * opt_cfg.grad_accum
    steps_per_epoch = max(1, math.ceil(n / batch))
    total_steps = opt_cfg.epochs * steps_per_epoch

    if resume is not None and log_path.exists():
        # one row per step, in step order: keep the rows the checkpoint covers
        rows = log_path.read_text(encoding="utf-8").splitlines(keepends=True)
        log_path.write_text("".join(rows[:start_step]), encoding="utf-8")
    log_file = open(log_path, "a" if resume is not None else "w",
                    encoding="utf-8")
    last = {}
    try:
        for step in range(start_step, total_steps):
            epoch = step // steps_per_epoch
            slot = step % steps_per_epoch
            order = rng_for(config.seed, "order", epoch).permutation(n)
            members = order[slot * batch:(slot + 1) * batch]

            optimizer.zero_grad()
            sums = {"l_txt": 0.0, "l_aff": 0.0, "total": 0.0}
            scale = 1.0 / len(members)
            try:
                for i in members:
                    sample = samples[i]
                    result = model.forward(sample.cloud, sample.hidden,
                                           sample.plan)
                    total, l_txt, l_aff = model.loss(result, sample.cloud,
                                                     sample.hidden)
                    backward(total * scale)
                    sums["l_txt"] += l_txt.item() * scale
                    sums["l_aff"] += l_aff.item() * scale
                    sums["total"] += total.item() * scale
            except NumericError as exc:
                _abort_diverged(log_file, step, sums, str(exc), exc)

            if not all(np.isfinite(v) for v in sums.values()):
                _abort_diverged(log_file, step, sums, "non-finite loss")
            bad = next((name for name, p in model.params.items()
                        if p.grad is not None and not np.isfinite(p.grad).all()),
                       None)
            if bad is not None:
                _abort_diverged(log_file, step, sums,
                                f"non-finite gradient in {bad}")

            lr = linear_lr(opt_cfg.lr, step, total_steps)
            optimizer.step(lr)

            last = {"step": step, "lr": lr, **sums}
            log_file.write(json.dumps(last, sort_keys=True) + "\n")
            if log_fn is not None:
                log_fn(last)
            done = step + 1
            if config.checkpoint_every and done % config.checkpoint_every == 0 \
                    and done < total_steps:
                log_file.flush()  # the log must hold every step the checkpoint does
                _write_checkpoint(ckpt_dir, model, optimizer, config, done,
                                  dataset)
    finally:
        log_file.close()

    _write_checkpoint(ckpt_dir, model, optimizer, config, total_steps, dataset)
    return TrainResult(checkpoint_dir=ckpt_dir, log_path=log_path,
                       steps=total_steps, last=last)


def _abort_diverged(log_file, step, sums, reason, cause=None):
    """Log a ``nan_abort`` row for ``step`` and raise TrainingDiverged."""
    log_file.write(json.dumps(
        {"step": step, "event": "nan_abort", "reason": reason, **sums},
        sort_keys=True) + "\n")
    log_file.flush()
    raise TrainingDiverged(
        step, f"{reason} at step {step}: {sums}") from cause


def _write_checkpoint(ckpt_dir, model, optimizer, config, step, dataset):
    save_checkpoint(
        ckpt_dir, model.params, config.to_dict(), step,
        optimizer_state=optimizer.state_arrays(), vocab=dataset.vocab)


def load_model(ckpt_dir) -> tuple:
    """Rebuild a model (and its config) from a checkpoint directory."""
    ckpt = load_checkpoint(ckpt_dir)
    config = config_from_dict(ckpt.config)
    model = AffordanceModel(config)
    restore_params(model.params, ckpt.params)
    return model, config, ckpt


def evaluate(model: AffordanceModel, manifest_path,
             expected_vocab=None) -> MetricReport:
    """Deterministic forward passes over a dataset; one report."""
    dataset = read_dataset(manifest_path)
    if expected_vocab is not None and \
            dataset.vocab["affordances"] != expected_vocab["affordances"]:
        raise ConfigError(
            f"checkpoint affordance vocabulary {expected_vocab['affordances']} "
            f"does not match dataset {dataset.vocab['affordances']}")
    _check_dataset_compat(model.config, dataset)
    report = MetricReport()
    for record in dataset.records:
        cloud = dataset.load_cloud(record)
        hidden = dataset.load_hidden(record)
        scores = model.predict(cloud, hidden)
        report.add(record.id, record.affordance_name,
                   evaluate_sample(scores, cloud.labels))
    return report


def evaluate_checkpoint(ckpt_dir, manifest_path) -> MetricReport:
    model, _, ckpt = load_model(ckpt_dir)
    expected = ckpt.vocab if ckpt.vocab else None
    return evaluate(model, manifest_path, expected_vocab=expected)
