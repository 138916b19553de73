"""Training and evaluation loops.

Training is a pure function of (config, dataset, seed): sample order per
epoch comes from a counter-based stream, gradients accumulate over each
batch on per-sample graphs, and AdamW steps under a linear learning-rate
decay. The step consumes the batch's gradients and creates each
parameter's moments at its first update (see :mod:`~affground.optim`).
Checkpoints carry parameters, optimizer moments, counters, and the
config, so a resumed run reproduces the uninterrupted one bitwise.

At model sizes whose numpy operations are long enough (see
:func:`_pipelines`), and with at least two items, both loops use a
worker thread. :func:`train` runs each batch through :func:`_in_order`:
the worker makes member k + 1's graph (forward pass and loss) while the
main thread walks member k's (:func:`~affground.tensor.backward`).
:func:`evaluate` takes records two at a time: the main thread loads both
and runs the first one's farthest-point sampling, then the worker groups
the first (ball queries, geometry, interpolation neighbors) and runs its
forward while the main thread samples, groups and runs the second. Each
loop states the ordering contract that keeps log rows, gradients,
parameters, checkpoints and reports bitwise those of the sequential
loop.

With that worker, ``train`` also splits each walk
(:func:`~affground.tensor.handing_off`): the main thread walks the
activation gradients, and every write to a parameter goes to the worker
as a job, queued behind the forward it is making. In each walk but a
step's last, the full-resolution layers
(:meth:`AffordanceModel.full_resolution_params`) keep theirs on the main
thread; the last walk, after which the worker has no graph to make,
keeps nothing. Jobs run in the order they were queued, and a step's
last walk is the only one that hands a write to a full-resolution layer
over, so every parameter sums its contributions in the sequential
order; ``train`` waits for the jobs, and re-raises the first error,
before the finiteness checks (whose gradient reads form each weight's
rank-one product on the main thread) and the AdamW step.

At each boundary between two steps of that worker, the update runs in
two groups (:meth:`~affground.optim.AdamW.step` with ``first``). The
weights :meth:`AffordanceModel.integrate` reads
(:meth:`AffordanceModel.integrate_params`) are updated first; then the
worker runs the next step's first ``integrate`` while the main thread
updates the others, and the rest of that member's forward and its loss,
which read those others, are queued behind it. The log row, and any
checkpoint that falls due, are written while the worker finishes that
forward: it only reads the parameters. A failed update raises before
the next step begins, and an error in that forward reaches the next
step as the error of its first member's forward, so the log rows and
checkpoints are the sequential loop's.
"""

from __future__ import annotations

import ctypes
import json
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig, config_from_dict
from .dataio import (
    Dataset,
    all_finite,
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
from .tensor import backward, handing_off


# mallopt parameters, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8

# allocations of at least this many bytes get pages of their own
_MMAP_MIN_BYTES = 4 << 20

# n_points * d of the smallest model that train and evaluate pipeline
_PIPELINE_MIN_ROW_ENTRIES = 1 << 19


def _pipelines(model_cfg) -> bool:
    """Whether :func:`train` builds each member's graph, and runs the
    jobs that write the parameters in each walk, on a worker thread, and
    :func:`evaluate` groups and runs the first record of each pair
    there: where ``n_points * d`` reaches ``_PIPELINE_MIN_ROW_ENTRIES``.

    The two threads share the GIL and overlap only while one of them is
    inside a numpy call that released it, so the pipeline pays only where
    those calls are long: their arrays scale with the (n_points, d)
    feature rows. Smaller models run their batches sequentially.
    Evaluation keeps every farthest-point sampling, hundreds of small
    numpy calls that hold the GIL, on one thread, and pairs only a plan's
    grouping, a few calls on large arrays, and a forward with other work.
    CHANGES.md has the measurements behind both choices.
    """
    return model_cfg.n_points * model_cfg.d >= _PIPELINE_MIN_ROW_ENTRIES


def _steady_malloc():
    """Make every thread allocate from glibc's main malloc arena, and give
    each allocation of at least ``_MMAP_MIN_BYTES`` pages of its own; a
    no-op where the C library has no ``mallopt``.

    glibc would give the forward worker an arena of its own. The forward
    activations are allocated there, and what is freed goes back to that
    arena alone, so after training a model loaded on the main thread
    needs new pages while the worker's freed ones stay resident. One
    arena lets any thread reuse what another freed.

    glibc also raises its mmap threshold to the size of each mapped block
    that is freed, so after a few steps every large array is carved from
    the heap, and which holes two threads' arrays land in depends on how
    their calls interleave: how far evaluation after a training step grew
    the heap then changed from one run to the next. A fixed threshold
    maps each large array on its own and unmaps it when freed, so the
    resident set follows the live arrays. The trim threshold is
    fixed at twice it, the ratio glibc keeps. The settings hold for the
    rest of the process.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_MIN_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_MIN_BYTES)


@contextmanager
def _pipeline_worker(model_cfg, n_items: int, name: str):
    """Yield a one-thread executor named ``name`` where :func:`_pipelines`
    holds and there are at least two items, and None otherwise: the
    worker of :func:`train`'s :func:`_in_order`, or the one that groups
    and runs the first record of each pair in :func:`evaluate`. Leaving
    the block waits for the thread."""
    if not (_pipelines(model_cfg) and n_items > 1):
        yield None
        return
    _steady_malloc()   # before the worker's first allocation
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix=name) as worker:
        yield worker


@contextmanager
def _split_walks(worker, keep):
    """Yield ``(keep_nothing, drain)``. With a worker, walks inside the
    block hand their writes to the parameters to it as jobs, keeping the
    writes to those in ``keep`` on this thread, and walks inside
    ``keep_nothing()`` keep none: :func:`train` walks each step's last
    member so, as the worker then has no graph left to make. ``drain``
    waits for each job in the order they were queued and re-raises the
    first one's error unchanged. Without a worker, nothing is handed off,
    ``keep_nothing()`` does nothing and neither does ``drain``."""
    if worker is None:
        yield nullcontext, lambda: None
        return
    futures = []

    def submit(job):
        futures.append(worker.submit(job))

    def drain():
        pending = futures[:]
        futures.clear()
        for future in pending:
            future.result()

    with handing_off(submit, keep):
        yield (lambda: handing_off(submit)), drain


def _in_order(worker, make, items, use, made=None):
    """Run ``use(make(item))`` for each item, in order: :func:`train`'s
    batch members, each made into a graph and walked.

    With ``worker`` None each item is made just before it is used.
    Otherwise ``worker`` (from :func:`_pipeline_worker`) makes item k + 1
    while this thread uses item k. ``made`` may hold, in a list that this
    call empties so that the caller keeps no reference to result 0, the
    future of item 0's result where the worker is already making it.
    :func:`train` starts each step's first member so at the boundary
    before it: that member's ``integrate`` reads only weights whose update
    is done (:meth:`AffordanceModel.integrate_params`) while the others
    are updated, and the rest of its forward is queued once every weight
    is. Item 0 is then not made here. The outcome is the sequential
    loop's:

    - item k + 1 is submitted only once item k's result is taken, and
      result k is dropped here when result k + 1 is taken, so at most two
      results are alive: the one being used and the one being made. Jobs
      that ``use`` queues on the worker (a walk's writes to the
      parameters) run before item k + 2 is made, so they keep result k
      no longer;
    - an exception raised by ``make`` or ``use``, or in making item 0
      across the boundary, reaches the caller unchanged, after every
      earlier item was used;
    - no thread outlives the call that opened the worker's block, which
      waits for the thread however it is left.

    ``use`` is a callback, not the body of a loop over yielded results:
    a caller's loop variable would keep result k - 1 alive while item
    k + 1 is made.

    :func:`evaluate` does not use it: there the item made on the worker
    would be a whole plan, whose sampling holds the GIL and slows the
    forward beside it more than a second forward does (see
    :func:`_pipelines`).
    """
    if worker is None:
        for item in items:
            use(make(item))
        return
    pending = made.pop() if made else worker.submit(make, items[0])
    for k in range(1, len(items) + 1):
        result = pending.result()
        if k < len(items):
            pending = worker.submit(make, items[k])
        use(result)


@dataclass
class LoadedSample:
    record: object
    cloud: object
    hidden: object
    plan: object


def load_sample(dataset: Dataset, model: AffordanceModel, record) -> LoadedSample:
    """A record's cloud, hidden states and the model's plan for the cloud."""
    cloud = dataset.load_cloud(record)
    return LoadedSample(record, cloud, dataset.load_hidden(record),
                        model.build_plan(cloud))


def load_samples(dataset: Dataset, model: AffordanceModel) -> list:
    """Eagerly load every sample; plans are precomputed once per cloud."""
    return [load_sample(dataset, model, record) for record in dataset.records]


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


def _check_vocab(dataset: Dataset, vocab):
    """Refuse a dataset whose affordance names differ from a checkpoint's
    (an empty or missing checkpoint vocabulary is not checked)."""
    if vocab and dataset.vocab["affordances"] != vocab["affordances"]:
        raise ConfigError(
            f"checkpoint affordance vocabulary {vocab['affordances']} "
            f"does not match dataset {dataset.vocab['affordances']}")


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
    ckpt_dir = out / "checkpoint"
    log_path = out / "log.jsonl"

    opt_cfg = config.optimizer
    if resume is None:
        model = AffordanceModel(config)
        optimizer = _adamw(model, opt_cfg)
        start_step = 0
    else:
        model, optimizer, start_step = _resumed(config, dataset, resume)

    samples = load_samples(dataset, model)
    out.mkdir(parents=True, exist_ok=True)  # inputs checked: a refusal makes no --out
    n = len(samples)
    batch = opt_cfg.batch_size * opt_cfg.grad_accum
    steps_per_epoch = max(1, math.ceil(n / batch))
    total_steps = opt_cfg.epochs * steps_per_epoch

    if resume is not None and log_path.exists():
        # one row per step, in step order: keep the rows the checkpoint covers
        rows = log_path.read_text(encoding="utf-8").splitlines(keepends=True)
        log_path.write_text("".join(rows[:start_step]), encoding="utf-8")

    def members_of(step):
        order = rng_for(config.seed, "order", step // steps_per_epoch).permutation(n)
        slot = step % steps_per_epoch
        return [samples[i] for i in order[slot * batch:(slot + 1) * batch]]

    def forward_loss(sample, integrated=None):
        result = model.forward(sample.cloud, sample.hidden, sample.plan,
                               integrated)
        return model.loss(result, sample.cloud, sample.hidden)

    def walk(losses):   # adds to the current step's sums
        nonlocal unwalked
        unwalked -= 1
        total, l_txt, l_aff = losses
        with keep_nothing() if unwalked == 0 else nullcontext():
            backward(total * scale)
        sums["l_txt"] += l_txt.item() * scale
        sums["l_aff"] += l_aff.item() * scale
        sums["total"] += total.item() * scale

    def update_across(lr, head):
        """Update the weights ``integrate`` reads, start ``head``'s
        ``integrate`` on the worker, update the others, and queue the rest
        of ``head``'s forward and loss behind it; return that future."""
        update_rest = optimizer.step(lr, first=model.integrate_params())
        integrated = worker.submit(model.integrate, head.hidden, head.plan)
        update_rest()
        return worker.submit(lambda: forward_loss(head, integrated.result()))

    last = {}
    made = []   # the future of the next step's first member, where it is made
    with open(log_path, "a" if resume is not None else "w",
              encoding="utf-8") as log_file, \
            _pipeline_worker(config.model, min(batch, n),
                             "affground-forward") as worker, \
            _split_walks(worker, model.full_resolution_params()) as (
                keep_nothing, drain):
        for step in range(start_step, total_steps):
            members = members_of(step)
            sums = {"l_txt": 0.0, "l_aff": 0.0, "total": 0.0}
            scale = 1.0 / len(members)
            unwalked = len(members)
            try:
                _in_order(worker, forward_loss, members, walk, made)
                drain()
                if not all(np.isfinite(v) for v in sums.values()):
                    raise NumericError("non-finite loss")
                bad = next((name for name, p in model.params.items()
                            if p.grad is not None and not all_finite(p.grad)),
                           None)
                if bad is not None:
                    raise NumericError(f"non-finite gradient in {bad}")
                lr = linear_lr(opt_cfg.lr, step, total_steps)
                if worker is None or step + 1 == total_steps:
                    optimizer.step(lr)
                else:
                    made.append(update_across(lr, members_of(step + 1)[0]))
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

    _write_checkpoint(ckpt_dir, model, optimizer, config, total_steps, dataset)
    return TrainResult(checkpoint_dir=ckpt_dir, log_path=log_path,
                       steps=total_steps, last=last)


def _adamw(model, opt_cfg) -> AdamW:
    return AdamW(model.params, lr=opt_cfg.lr,
                 betas=(opt_cfg.beta1, opt_cfg.beta2), eps=opt_cfg.eps,
                 weight_decay=opt_cfg.weight_decay)


def _resumed(config: RunConfig, dataset: Dataset, ckpt_dir) -> tuple:
    """``(model, optimizer, step)`` of the checkpoint ``train`` resumes:
    the model and the moments are the arrays the checkpoint was read
    into (see :func:`_adopted`). The checkpoint object is not kept, so a
    parameter array is freed once AdamW replaces it."""
    ckpt = load_checkpoint(ckpt_dir)
    if ckpt.config != config.to_dict():
        raise ConfigError("resume checkpoint was written with a different config")
    _check_vocab(dataset, ckpt.vocab)
    model = _adopted(config, ckpt)
    optimizer = _adamw(model, config.optimizer)
    if ckpt.optimizer is not None:
        optimizer.restore(ckpt.optimizer)
    return model, optimizer, ckpt.step


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


class _NoDraws:
    """The initial-weight generator of a model whose every parameter a
    checkpoint replaces: nothing is drawn, and each draw is a read-only
    zero-stride view of one zero in ``dtype``, so the placeholders hold
    no memory that grows with the parameter count."""

    def __init__(self, dtype):
        self.zero = np.zeros((), dtype)

    def uniform(self, low=0.0, high=1.0, size=None):
        return np.broadcast_to(self.zero, size)


def _adopted(config: RunConfig, ckpt) -> AffordanceModel:
    """A float32 model of ``config`` whose parameters are the
    checkpoint's arrays.

    The model is built without drawing a weight, on placeholders, and
    every name and shape is checked (see
    :func:`~affground.dataio.restore_arrays`) before any placeholder is
    replaced; then each parameter's data is the array the checkpoint was
    read into, cast once only where it is not float32.
    """
    model = AffordanceModel(config, rng=_NoDraws(np.float32))
    taken = restore_arrays({name: p.data for name, p in model.params.items()},
                           ckpt.params, "params")
    for name, data in taken.items():
        model.params[name].data = data
    return model


def load_model(ckpt_dir) -> tuple:
    """``(model, config, ckpt)`` from a checkpoint directory.

    The optimizer moments are checked as named but not read, and no
    initial weight is drawn. The model holds the one copy of the
    parameters: ``ckpt.params`` are the model's own arrays (unless one
    was cast), so a write to either shows in both. Training never
    writes a parameter in place; :class:`~affground.optim.AdamW` gives
    each a new array.
    """
    ckpt = load_checkpoint(ckpt_dir, moments=False)
    config = config_from_dict(ckpt.config)
    return _adopted(config, ckpt), config, ckpt


def evaluate(model: AffordanceModel, manifest_path,
             expected_vocab=None) -> MetricReport:
    """Deterministic forward passes over a dataset; one report.

    Above the size gate (:func:`_pipeline_worker`), records go two at a
    time. This thread loads both and samples the first
    (:meth:`~affground.backbone.PointBackbone.sample`), then hands its
    grouping (:meth:`~affground.backbone.PointBackbone.group`) and
    forward to the worker while it samples, groups and runs the second.
    So every farthest-point sampling runs on this thread, and only the
    grouping's large-array work and a forward run beside a sampling or a
    forward (see :func:`_pipelines`). Below the gate, and for the last
    of an odd number of records, this thread loads, samples, groups,
    runs and scores one record at a time. The outcome is the sequential
    loop's:

    - records are scored (``evaluate_sample``, then ``report.add``) in
      record order, so the report is byte-equal;
    - a pair's samples are dropped before the next pair is loaded, so
      at most two loaded samples are alive, and the first record's
      sampled distances are dropped as soon as the worker has grouped
      them, not when its forward ends;
    - an exception reaches the caller unchanged, after every earlier
      record was scored: if the second record of a pair fails, in its
      load or later, the first is scored before the error is raised;
    - no thread outlives the call: leaving the worker's block waits for
      the thread however it is left.
    """
    dataset = read_dataset(manifest_path)
    if not dataset.records:
        raise ConfigError(f"{manifest_path}: dataset has no samples")
    _check_vocab(dataset, expected_vocab)
    _check_dataset_compat(model.config, dataset)
    report = MetricReport()
    backbone = model.backbone

    def score(sample, scores):
        report.add(sample.record.id, sample.record.affordance_name,
                   evaluate_sample(scores, sample.cloud.labels))

    def load(record):   # planned later, from its sampling
        return LoadedSample(record, dataset.load_cloud(record),
                            dataset.load_hidden(record), None)

    def sampling(sample):
        # a box that alone holds the sampling, for grouped_scores to empty
        return [backbone.sample(sample.cloud.coords)]

    def grouped_scores(sample, box):
        # the sampled distances go as soon as they are grouped
        plan = backbone.group(box.pop())
        return model.predict(sample.cloud, sample.hidden, plan)

    def score_alone(sample):
        score(sample, grouped_scores(sample, sampling(sample)))

    def score_pair(worker, first, second):
        # one call per pair: its samples are dropped when it returns
        first = load(first)
        try:
            second = load(second)
        except Exception:
            score_alone(first)
            raise
        first_scores = worker.submit(grouped_scores, first, sampling(first))
        try:
            second_scores = grouped_scores(second, sampling(second))
        finally:
            score(first, first_scores.result())
        score(second, second_scores)

    records = dataset.records
    with _pipeline_worker(model.config.model, len(records),
                          "affground-predict") as worker:
        pairs = 0 if worker is None else len(records) // 2
        for k in range(pairs):
            score_pair(worker, *records[2 * k:2 * k + 2])
        for record in records[2 * pairs:]:
            score_alone(load(record))   # dropped when the call returns
    return report


def evaluate_checkpoint(ckpt_dir, manifest_path) -> MetricReport:
    model, _, ckpt = load_model(ckpt_dir)
    return evaluate(model, manifest_path, expected_vocab=ckpt.vocab)
