"""Training and evaluation loops.

Training is a pure function of (config, dataset, seed): sample order per
epoch comes from a counter-based stream, gradients accumulate over each
batch on per-sample graphs, and AdamW steps under a linear learning-rate
decay. Checkpoints carry parameters, optimizer moments, counters, and
the config, so a resumed run reproduces the uninterrupted one bitwise.

At model sizes whose numpy operations are long enough (see
:func:`_pipelines`), each batch is pipelined over two threads. A worker
thread runs the forward pass and loss of the batch members in order, and
the main thread walks each member's graph
(:func:`~affground.tensor.backward`) and sums its loss terms in that same
order while the worker builds the next one. The worker starts a member
only once the main thread has taken the one before it, so at most two
graphs are alive at once: the one being walked and the one being built.
Leaf gradients therefore accumulate in exactly the order of the
sequential loop used at smaller sizes, and log rows, gradients,
parameters and checkpoints are bitwise those of it. The worker thread
lives only as long as :func:`train`, and an exception it raises reaches
the caller unchanged.

Above the same size gate, :func:`evaluate` overlaps plan building with
the forward pass: a worker thread loads the next record and builds its
plan while the main thread scores the current one. Reports are bitwise
those of the sequential loop.
"""

from __future__ import annotations

import ctypes
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig, config_from_dict, drop_retired
from .dataio import (
    Dataset,
    load_checkpoint,
    read_dataset,
    restore_arrays,
    save_checkpoint,
)
from .errors import ConfigError, NumericError, TrainingDiverged
from .metrics import MetricReport, evaluate_sample
from .model import AffordanceModel
from .optim import AdamW, linear_lr
from .rng import rng_for
from .tensor import backward


_M_ARENA_MAX = -8   # mallopt parameter, from glibc's malloc.h

# n_points * d of the smallest model that train and evaluate pipeline
_PIPELINE_MIN_ROW_ENTRIES = 1 << 19


def _pipelines(model_cfg) -> bool:
    """Whether :func:`train` builds each member's graph on a worker thread,
    and :func:`evaluate` each record's plan.

    The two threads share the GIL and overlap only while one of them is
    inside a numpy call that released it, so the pipeline pays where
    those calls are long: their arrays scale with the (n_points, d)
    feature rows. On 2 vCPUs at n=2048, d=512 it made steps 30-50%
    faster with a run-to-run spread like the sequential loop's. At
    n=1024, d=128 the threads instead handed the GIL back and forth
    about 5,000 times a second (50k voluntary context switches a run,
    against 900 sequentially), and the step time spread between runs
    two to four times wider than the sequential loop's, so smaller
    models run their batches sequentially.
    """
    return model_cfg.n_points * model_cfg.d >= _PIPELINE_MIN_ROW_ENTRIES


def _share_one_malloc_arena():
    """Make every thread allocate from glibc's main malloc arena; a no-op
    where the C library has no ``mallopt``.

    glibc would give the forward worker an arena of its own. The forward
    activations are allocated there, and what is freed goes back to that
    arena alone, so after training a model loaded on the main thread
    needs new pages while the worker's freed ones stay resident. One
    arena lets any thread reuse what another freed. The limit holds for
    the rest of the process.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


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
        _restore_params(model, ckpt)
        if ckpt.optimizer is not None:
            optimizer.restore(ckpt.optimizer)
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
    worker = None
    if _pipelines(config.model):
        _share_one_malloc_arena()   # before the worker's first allocation
        worker = ThreadPoolExecutor(max_workers=1,
                                    thread_name_prefix="affground-forward")
    last = {}
    try:
        for step in range(start_step, total_steps):
            epoch = step // steps_per_epoch
            slot = step % steps_per_epoch
            order = rng_for(config.seed, "order", epoch).permutation(n)
            members = order[slot * batch:(slot + 1) * batch]

            optimizer.zero_grad()
            sums = {"l_txt": 0.0, "l_aff": 0.0, "total": 0.0}
            try:
                _accumulate_batch(worker, model, [samples[i] for i in members],
                                  sums)
                if not all(np.isfinite(v) for v in sums.values()):
                    raise NumericError("non-finite loss")
                bad = next((name for name, p in model.params.items()
                            if p.grad is not None
                            and not np.isfinite(p.grad).all()), None)
                if bad is not None:
                    raise NumericError(f"non-finite gradient in {bad}")
                lr = linear_lr(opt_cfg.lr, step, total_steps)
                optimizer.step(lr)
            except NumericError as exc:
                _abort_diverged(log_file, step, sums, str(exc), exc)

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
        if worker is not None:
            worker.shutdown()   # waits, so no worker outlives train()
        log_file.close()

    _write_checkpoint(ckpt_dir, model, optimizer, config, total_steps, dataset)
    return TrainResult(checkpoint_dir=ckpt_dir, log_path=log_path,
                       steps=total_steps, last=last)


def _forward_loss(model: AffordanceModel, sample: LoadedSample):
    result = model.forward(sample.cloud, sample.hidden, sample.plan)
    return model.loss(result, sample.cloud, sample.hidden)


def _accumulate_batch(worker, model: AffordanceModel, batch: list, sums: dict):
    """Accumulate the gradient of the batch's mean loss; add its mean
    loss terms to ``sums``.

    With ``worker`` None each member's graph is built here, just before
    it is walked. Otherwise ``worker`` builds member k + 1's graph while
    this thread walks member k's; member k + 1 is submitted only after
    member k's graph is taken, and member k's last reference goes when
    member k + 1's is taken, so at most two graphs are alive. ``sums``
    holds the members walked so far when an exception leaves.
    """
    scale = 1.0 / len(batch)
    if worker is not None:
        pending = worker.submit(_forward_loss, model, batch[0])
    for k, sample in enumerate(batch):
        if worker is None:
            total, l_txt, l_aff = _forward_loss(model, sample)
        else:
            total, l_txt, l_aff = pending.result()
            if k + 1 < len(batch):
                pending = worker.submit(_forward_loss, model, batch[k + 1])
        backward(total * scale)
        sums["l_txt"] += l_txt.item() * scale
        sums["l_aff"] += l_aff.item() * scale
        sums["total"] += total.item() * scale


def _abort_diverged(log_file, step, sums, reason, cause):
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
    _restore_params(model, ckpt)
    return model, config, ckpt


def _restore_params(model: AffordanceModel, ckpt):
    """Copy a checkpoint's parameters into the model, checking names and shapes."""
    restore_arrays({name: p.data for name, p in model.params.items()},
                   ckpt.params, "params")


def evaluate(model: AffordanceModel, manifest_path,
             expected_vocab=None) -> MetricReport:
    """Deterministic forward passes over a dataset; one report.

    Where :func:`_pipelines` holds and there are at least two records, a
    worker thread loads record k + 1 and builds its plan while this
    thread runs record k's forward and metrics. Record k + 1 is submitted
    only once record k's inputs are taken, so at most two records' inputs
    are alive, and the scores and report are bitwise the sequential
    loop's. An exception raised while loading a record reaches the caller
    unchanged, after the records before it have been scored, as in the
    sequential loop.
    """
    dataset = read_dataset(manifest_path)
    if expected_vocab is not None and \
            dataset.vocab["affordances"] != expected_vocab["affordances"]:
        raise ConfigError(
            f"checkpoint affordance vocabulary {expected_vocab['affordances']} "
            f"does not match dataset {dataset.vocab['affordances']}")
    _check_dataset_compat(model.config, dataset)
    records = dataset.records

    def prepare(record):
        cloud = dataset.load_cloud(record)
        return cloud, dataset.load_hidden(record), model.build_plan(cloud)

    worker = None
    if _pipelines(model.config.model) and len(records) > 1:
        _share_one_malloc_arena()   # before the worker's first allocation
        worker = ThreadPoolExecutor(max_workers=1,
                                    thread_name_prefix="affground-plan")
    report = MetricReport()
    try:
        if worker is not None:
            pending = worker.submit(prepare, records[0])
        for k, record in enumerate(records):
            if worker is None:
                cloud, hidden, plan = prepare(record)
            else:
                cloud, hidden, plan = pending.result()
                if k + 1 < len(records):
                    pending = worker.submit(prepare, records[k + 1])
            scores = model.predict(cloud, hidden, plan)
            report.add(record.id, record.affordance_name,
                       evaluate_sample(scores, cloud.labels))
    finally:
        if worker is not None:
            worker.shutdown()   # waits, so no worker outlives evaluate()
    return report


def evaluate_checkpoint(ckpt_dir, manifest_path) -> MetricReport:
    model, _, ckpt = load_model(ckpt_dir)
    expected = ckpt.vocab if ckpt.vocab else None
    return evaluate(model, manifest_path, expected_vocab=expected)
