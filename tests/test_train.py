"""Training runs: the pipelined batch, resuming from a checkpoint, and
stopping on divergence; the pairwise evaluation; the in-order loop train
runs on."""

import json
import math
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import Future
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from affground import backbone as backbone_module
from affground import model as model_module
from affground import optim as optim_module
from affground import tensor as tensor_module
from affground import train as train_module
from affground.cli import main
from affground.config import (
    FusionConfig,
    LiftingConfig,
    ModelConfig,
    OptimConfig,
    RunConfig,
)
from affground.dataio import (
    Dataset,
    gen_synthetic_dataset,
    load_checkpoint,
    read_dataset,
    save_checkpoint,
    write_manifest,
    write_tensor,
)
from affground.decoder import AffordanceDecoder
from affground.errors import (
    CheckpointError,
    ConfigError,
    DataFormatError,
    NumericError,
    TrainingDiverged,
)
from affground.metrics import MetricReport, evaluate_sample
from affground.model import AffordanceModel
from affground.optim import AdamW, linear_lr
from affground.rng import rng_for
from affground.tensor import Tape, backward
from affground.train import train

from conftest import TOY, TOY_MODEL_SETS


class Interrupt(Exception):
    pass


class Boom(Exception):
    pass


@pytest.fixture
def eight_samples(tmp_path):
    return gen_synthetic_dataset(tmp_path / "data", 1, 2, 4, TOY["n_points"],
                                 seed=5, d_h=TOY["d_h"], seq_len=TOY["seq_len"])


@pytest.fixture
def no_thread_left():
    """Fails the test if a thread started inside it is still alive after it."""
    before = set(threading.enumerate())
    yield
    assert set(threading.enumerate()) <= before


@pytest.fixture
def frequent_switches():
    """Switch threads every microsecond, so the pipeline's threads interleave."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture
def pipelined(monkeypatch):
    """Pipeline the batches of the toy model, which train() runs sequentially."""
    monkeypatch.setattr(train_module, "_PIPELINE_MIN_ROW_ENTRIES", 0)


@pytest.fixture(params=["pipelined", "sequential"])
def batch_loop(request):
    """Run the test with and without the pipeline worker: each of train()'s
    two batch loops, and evaluate() with a pair's second forward on the
    worker or on this thread."""
    if request.param == "pipelined":
        request.getfixturevalue("pipelined")
    return request.param


def sequential_step(config, manifest, members=None):
    """Step 0 as a sequential loop: forward, loss and backward per member in
    turn, then one AdamW step. Returns (model, optimizer, log row); with
    ``members`` given, only the first ``members`` are walked, and neither
    the step nor the learning rate is taken."""
    opt_cfg = config.optimizer
    model = AffordanceModel(config)
    optimizer = AdamW(model.params, lr=opt_cfg.lr,
                      betas=(opt_cfg.beta1, opt_cfg.beta2), eps=opt_cfg.eps,
                      weight_decay=opt_cfg.weight_decay)
    samples = train_module.load_samples(read_dataset(manifest), model)
    batch = opt_cfg.batch_size * opt_cfg.grad_accum
    order = rng_for(config.seed, "order", 0).permutation(len(samples))[:batch]
    scale = 1.0 / len(order)
    sums = {"l_txt": 0.0, "l_aff": 0.0, "total": 0.0}
    for i in order[:members]:
        sample = samples[i]
        result = model.forward(sample.cloud, sample.hidden, sample.plan)
        total, l_txt, l_aff = model.loss(result, sample.cloud, sample.hidden)
        backward(total * scale)
        sums["l_txt"] += l_txt.item() * scale
        sums["l_aff"] += l_aff.item() * scale
        sums["total"] += total.item() * scale
    if members is not None:
        return model, optimizer, sums
    total_steps = opt_cfg.epochs * math.ceil(len(samples) / batch)
    lr = linear_lr(opt_cfg.lr, 0, total_steps)
    optimizer.step(lr)
    return model, optimizer, {"step": 0, "lr": lr, **sums}


def recording(monkeypatch, forward_hook=None):
    """Patch the model and optimizer train() builds so the test can read them."""
    built = {}

    class RecordedModel(AffordanceModel):
        def __init__(self, config):
            super().__init__(config)
            built["model"] = self
            self.calls = 0

        def forward(self, *args, **kwargs):
            self.calls += 1
            if forward_hook is not None:
                forward_hook(self.calls)
            return super().forward(*args, **kwargs)

    class RecordedAdamW(AdamW):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built["optimizer"] = self

    monkeypatch.setattr(train_module, "AffordanceModel", RecordedModel)
    monkeypatch.setattr(train_module, "AdamW", RecordedAdamW)
    return built


def stop_after_step_0(row):
    raise Interrupt(row)


def check_pipelined_step(tmp_path, manifest, monkeypatch, config):
    """Step 0 of a pipelined train() equals :func:`sequential_step`: the
    log row, every parameter and both AdamW moments, bitwise."""
    want_model, want_opt, want_row = sequential_step(config, manifest)
    built = recording(monkeypatch)
    with pytest.raises(Interrupt) as info:
        train(config, manifest, tmp_path / "run", log_fn=stop_after_step_0)
    (row,) = info.value.args
    assert row == want_row
    assert json.loads((tmp_path / "run" / "log.jsonl").read_text()) == want_row
    got_opt = built["optimizer"]
    assert got_opt.step_count == want_opt.step_count == 1
    for name, p in want_model.params.items():
        assert built["model"].params[name].data.tobytes() == p.data.tobytes(), name
        assert got_opt.exp_avg[name].tobytes() == want_opt.exp_avg[name].tobytes()
        assert got_opt.exp_avg_sq[name].tobytes() == \
            want_opt.exp_avg_sq[name].tobytes()


@pytest.mark.parametrize("batch_size", [1, 3, 8])
def test_pipelined_step_equals_a_sequential_step(
        tmp_path, eight_samples, monkeypatch, pipelined, no_thread_left,
        frequent_switches, batch_size):
    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=1, batch_size=batch_size))
    check_pipelined_step(tmp_path, eight_samples, monkeypatch, config)


@pytest.mark.parametrize("ablation", [
    {"fusion": FusionConfig(stage2=False)},
    {"lifting": LiftingConfig(mode="concat")},
], ids=["stage2_off", "concat"])
def test_pipelined_ablation_step_equals_a_sequential_step(
        tmp_path, eight_samples, monkeypatch, pipelined, no_thread_left,
        frequent_switches, ablation):
    # the parameters kept on the walking thread differ from the default's
    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=1, batch_size=8), **ablation)
    check_pipelined_step(tmp_path, eight_samples, monkeypatch, config)


class HeldFuture(Future):
    def __init__(self, worker):
        super().__init__()
        self.worker = worker

    def result(self, timeout=None):
        self.worker.release(self)
        return super().result(timeout)


class HeldWorker:
    """An executor that runs its jobs in the caller's thread, in the order
    they were submitted: each at once with ``eager``, and otherwise only
    when released, which asking for a result does for every job up to
    that one. What is alive when a job runs does not depend on timing."""

    def __init__(self, eager=False):
        self.eager = eager
        self.queue = []

    def submit(self, fn, *args):
        future = HeldFuture(self)
        self.queue.append((future, fn, args))
        if self.eager:
            self.release()
        return future

    def release(self, upto=None):
        while self.queue and not (upto is not None and upto.done()):
            future, fn, args = self.queue.pop(0)
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.release()


def check_at_most_two_graphs_are_alive(tmp_path, eight_samples, monkeypatch,
                                       eager):
    # when a member's forward starts, only the member before it may still
    # be alive: being walked, or waiting for its weight-gradient jobs.
    # Run at submission, each forward starts as early as it can; run when
    # its result is asked for, as late as it can, with the weight-gradient
    # jobs of the member before it still waiting behind it
    worker = HeldWorker(eager)
    graphs, alive_at_start, jobs_pending = [], [], []

    def count_alive(calls):
        alive_at_start.append(sum(any(ref() is not None for ref in graph)
                                  for graph in graphs))
        jobs_pending.append(len(worker.queue))

    built = recording(monkeypatch, count_alive)
    real_loss = AffordanceModel.loss

    def recorded_loss(self, result, cloud, hidden):
        losses = real_loss(self, result, cloud, hidden)
        graphs.append([weakref.ref(node.data)
                       for node in Tape.trace(losses[0]).nodes
                       if node._parents and isinstance(node.data, np.ndarray)])
        return losses

    monkeypatch.setattr(AffordanceModel, "loss", recorded_loss)
    monkeypatch.setattr(train_module, "ThreadPoolExecutor",
                        lambda **kwargs: worker)
    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=2, batch_size=4))
    train(config, eight_samples, tmp_path / "run")
    assert built["model"].calls == 16
    assert alive_at_start[0] == 0 and max(alive_at_start) == 1
    if not eager:
        # from each step's third forward on, the member before it still
        # had weight-gradient jobs waiting behind that forward
        assert all(jobs_pending[i] > 0 for i in (2, 3, 6, 7, 10, 11, 14, 15))


def test_at_most_two_graphs_are_alive(tmp_path, eight_samples, monkeypatch,
                                      pipelined):
    check_at_most_two_graphs_are_alive(tmp_path, eight_samples, monkeypatch,
                                       eager=True)


def test_at_most_two_graphs_are_alive_with_jobs_held(
        tmp_path, eight_samples, monkeypatch, pipelined):
    check_at_most_two_graphs_are_alive(tmp_path, eight_samples, monkeypatch,
                                       eager=False)


def test_each_parameter_gradient_is_written_by_one_thread(
        tmp_path, eight_samples, monkeypatch, pipelined, no_thread_left,
        frequent_switches):
    # in each walk, by one thread: the full-resolution layers' on the
    # walking thread and every other parameter's on the worker, except in
    # a step's last walk, which hands all of them to the worker. A
    # weight's rank-one rows count as writes, and their product is formed
    # only once train() has waited for the jobs that record them
    writes, recorders, events, walks = [], set(), [], []
    real_accumulate = tensor_module._accumulate
    real_record = tensor_module._record
    real_form = tensor_module._form_rows
    real_split_walks = train_module._split_walks

    def write(t):   # with the number of walks begun by then
        writes.append((id(t), threading.get_ident(), len(walks)))

    def accumulate(t, grad):
        if t.requires_grad and not t._parents:
            write(t)
        real_accumulate(t, grad)

    def record(t, row, g):
        write(t)
        recorders.add(id(t))
        events.append("record")
        real_record(t, row, g)

    def form(t):
        events.append("form")
        real_form(t)

    def counted_backward(loss):
        walks.append("begun")
        backward(loss)

    @contextmanager
    def split_walks(worker, keep):
        with real_split_walks(worker, keep) as (keep_nothing, drain):
            def drained():
                drain()
                events.append("drained")
            yield keep_nothing, drained

    monkeypatch.setattr(tensor_module, "_accumulate", accumulate)
    monkeypatch.setattr(tensor_module, "_record", record)
    monkeypatch.setattr(tensor_module, "_form_rows", form)
    monkeypatch.setattr(train_module, "backward", counted_backward)
    monkeypatch.setattr(train_module, "_split_walks", split_walks)
    built = recording(monkeypatch)
    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=2, batch_size=4))
    train(config, eight_samples, tmp_path / "run")
    model = built["model"]
    kept = {id(p) for p in model.full_resolution_params()}
    assert kept and len(kept) < len(model.params)
    main = threading.get_ident()
    last_walks = {4, 8, 12, 16}   # each step's fourth
    for param, thread, walk in writes:
        if thread == main:
            assert param in kept and walk not in last_walks
        else:
            # a last walk's jobs run before the next step's first walk
            assert param not in kept or walk in last_walks
    (worker,) = {thread for _, thread, _ in writes} - {main}
    for name, p in model.params.items():
        threads = {thread for param, thread, _ in writes if param == id(p)}
        assert threads == ({main, worker} if id(p) in kept else {worker}), name
    assert any(id(p) in recorders for p in model.params.values()
               if id(p) not in kept)
    recorded = False
    for event in events:
        assert event != "form" or not recorded
        recorded = event == "record" or recorded and event != "drained"
    assert events.count("form") == 4 * len(recorders)   # once a step


@pytest.mark.parametrize("k", [1, 60])
def test_failed_weight_gradient_job_propagates_unchanged(
        tmp_path, eight_samples, monkeypatch, pipelined, no_thread_left, k):
    boom = Boom("injected")
    main = threading.get_ident()
    calls, walks, failed_in_walk = [], [], []
    real_sum = tensor_module._sum_over_rows

    def failing_sum(a, g, *args):
        if threading.get_ident() != main:
            calls.append(a.shape)
            if len(calls) == k:
                failed_in_walk.append(len(walks))   # walks begun by then
                raise boom
        return real_sum(a, g, *args)

    def counted_backward(loss):
        walks.append("begun")
        backward(loss)
        walks[-1] = "done"

    monkeypatch.setattr(tensor_module, "_sum_over_rows", failing_sum)
    monkeypatch.setattr(train_module, "backward", counted_backward)
    built = recording(monkeypatch)
    initial = {}
    real_init = AdamW.__init__

    def keep_initial(self, params, **kwargs):
        initial.update({name: p.data.copy() for name, p in params.items()})
        real_init(self, params, **kwargs)

    monkeypatch.setattr(AdamW, "__init__", keep_initial)
    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=1, batch_size=8))
    with pytest.raises(Boom) as info:
        train(config, eight_samples, tmp_path / "run")
    assert info.value is boom
    # the failing job's member and every earlier one had been walked
    (begun,) = failed_in_walk
    assert 1 <= begun and walks[:begun] == ["done"] * begun
    assert (tmp_path / "run" / "log.jsonl").read_text() == ""
    assert built["optimizer"].step_count == 0
    for name, p in built["model"].params.items():
        assert p.data.tobytes() == initial[name].tobytes(), name


@pytest.mark.parametrize("name", ["fusion.gate.w", "decoder.head.0.w"],
                         ids=["worker", "main"])
def test_nan_weight_gradient_ends_as_the_sequential_nan_abort(
        tmp_path, eight_samples, monkeypatch, no_thread_left, name):
    # sequentially, then on a worker thread, then with jobs held until
    # train() waits for them
    real_accumulate = tensor_module._accumulate
    real_executor = train_module.ThreadPoolExecutor
    rows = []
    for run, executor in enumerate((real_executor, real_executor,
                                    lambda **kwargs: HeldWorker())):
        monkeypatch.setattr(train_module, "_PIPELINE_MIN_ROW_ENTRIES",
                            train_module._PIPELINE_MIN_ROW_ENTRIES if run == 0
                            else 0)
        monkeypatch.setattr(train_module, "ThreadPoolExecutor", executor)
        built = recording(monkeypatch)
        writes = []

        def poisoned(t, grad):
            # the last member's contribution: a walk's jobs that train()
            # did not wait for would leave it out of the checks
            if t is built["model"].params[name]:
                writes.append(t)
                if len(writes) == 8:
                    grad = grad.copy()
                    grad.flat[0] = np.nan
            real_accumulate(t, grad)

        monkeypatch.setattr(tensor_module, "_accumulate", poisoned)
        config = RunConfig(model=ModelConfig(**TOY),
                           optimizer=OptimConfig(epochs=1, batch_size=8))
        out = tmp_path / f"run-{run}"
        with pytest.raises(TrainingDiverged) as info:
            train(config, eight_samples, out)
        assert info.value.step == 0
        rows.append((out / "log.jsonl").read_text())
    sequential, *pipelined = rows
    assert pipelined == [sequential, sequential]
    (row,) = [json.loads(line) for line in sequential.splitlines()]
    assert row["event"] == "nan_abort"
    assert row["reason"] == f"non-finite gradient in {name}"


@pytest.mark.parametrize("k", [1, 3])
def test_numeric_error_in_a_forward_ends_as_nan_abort(
        tmp_path, eight_samples, monkeypatch, batch_loop, no_thread_left, k):
    def fail_kth(calls):
        if calls == k:
            raise NumericError("softmax received NaN input")

    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=1, batch_size=4))
    _, _, sums = sequential_step(config, eight_samples, members=k - 1)
    recording(monkeypatch, fail_kth)
    with pytest.raises(TrainingDiverged) as info:
        train(config, eight_samples, tmp_path / "run")
    assert info.value.step == 0
    (row,) = [json.loads(line) for line in
              (tmp_path / "run" / "log.jsonl").read_text().splitlines()]
    assert row == {"step": 0, "event": "nan_abort",
                   "reason": "softmax received NaN input", **sums}


def boundary_config():
    # 8 samples in batches of 3: 3 steps, checkpointed after each
    return RunConfig(model=ModelConfig(**TOY),
                     optimizer=OptimConfig(epochs=1, batch_size=3),
                     checkpoint_every=1)


def boundary_run(monkeypatch, config, manifest, out, serial=False, **kwargs):
    """``(log, checkpoints, diverged)`` of a train() run: the log's bytes,
    each checkpoint it wrote as ``{file: bytes}`` (the manifest, the
    parameters and both moments), and the TrainingDiverged it raised, as
    ``(step, message)``, or None. With ``serial``, the run has no worker."""
    written = []
    real_save = train_module.save_checkpoint

    def save(ckpt_dir, *args, **kw):
        real_save(ckpt_dir, *args, **kw)
        written.append({str(f.relative_to(ckpt_dir)): f.read_bytes()
                        for f in sorted(Path(ckpt_dir).rglob("*"))
                        if f.is_file()})

    with monkeypatch.context() as patch:
        patch.setattr(train_module, "save_checkpoint", save)
        if serial:
            patch.setattr(train_module, "_PIPELINE_MIN_ROW_ENTRIES", 1 << 62)
        diverged = None
        try:
            train(config, manifest, out, **kwargs)
        except TrainingDiverged as exc:
            diverged = (exc.step, str(exc))
    return (out / "log.jsonl").read_bytes(), written, diverged


def test_overlapped_boundaries_equal_the_serial_run(
        tmp_path, eight_samples, monkeypatch, batch_loop, no_thread_left,
        frequent_switches):
    config = boundary_config()
    want = boundary_run(monkeypatch, config, eight_samples, tmp_path / "serial",
                        serial=True)
    log, written, diverged = want
    assert len(log.splitlines()) == 3 and len(written) == 3 and diverged is None
    got = boundary_run(monkeypatch, config, eight_samples, tmp_path / "run")
    assert got == want
    # resumed from the checkpoint written at its first boundary
    resumed = tmp_path / "resumed"
    for name, data in written[0].items():
        (resumed / "from" / name).parent.mkdir(parents=True, exist_ok=True)
        (resumed / "from" / name).write_bytes(data)
    (resumed / "log.jsonl").write_bytes(log)
    again = boundary_run(monkeypatch, config, eight_samples, resumed,
                         resume=resumed / "from")
    assert again == (log, written[1:], None)


def test_next_first_integrate_starts_before_the_late_update_ends(
        tmp_path, eight_samples, monkeypatch, batch_loop, no_thread_left):
    # at the first boundary, the update of the last parameter in order,
    # which integrate does not read, waits for step 1's first integrate
    # to begin: on the worker when pipelined, and never without it
    batch = boundary_config().optimizer.batch_size
    begun = threading.Event()
    threads, waited = [], []
    real_integrate = AffordanceModel.integrate
    real_update = optim_module.adamw_step

    def integrate(self, hidden, plan):
        threads.append(threading.get_ident())
        if len(threads) == batch + 1:
            begun.set()
        return real_integrate(self, hidden, plan)

    def update(param, grad, m, v, step, *args):
        if step == 1 and args[-1] == "decoder.head.1.b":
            waited.append(begun.wait(10 if batch_loop == "pipelined" else 0))
        return real_update(param, grad, m, v, step, *args)

    monkeypatch.setattr(AffordanceModel, "integrate", integrate)
    monkeypatch.setattr(optim_module, "adamw_step", update)
    train(boundary_config(), eight_samples, tmp_path / "run")
    assert waited == [batch_loop == "pipelined"]
    assert len(threads) == 8
    main = threading.get_ident()
    assert (threads[batch] != main) == (batch_loop == "pipelined")


@pytest.mark.parametrize("name", ["decoder.head.0.w", "backbone.sa1.0.w"],
                         ids=["late", "early"])
def test_non_finite_update_at_a_boundary_ends_as_the_serial_loop(
        tmp_path, eight_samples, monkeypatch, batch_loop, no_thread_left, name):
    # step 1's update: step 0's row and checkpoint, then the nan_abort row
    real_update = optim_module.adamw_step

    def update(param, grad, m, v, step, *args):
        if step == 2 and args[-1] == name:
            grad = np.full_like(grad, np.nan)
        return real_update(param, grad, m, v, step, *args)

    monkeypatch.setattr(optim_module, "adamw_step", update)
    config = boundary_config()
    want = boundary_run(monkeypatch, config, eight_samples, tmp_path / "serial",
                        serial=True)
    got = boundary_run(monkeypatch, config, eight_samples, tmp_path / "run")
    assert got == want
    log, written, diverged = got
    assert diverged[0] == 1 and len(written) == 1
    rows = [json.loads(line) for line in log.splitlines()]
    assert [row["step"] for row in rows] == [0, 1] and "event" not in rows[0]
    assert rows[1]["event"] == "nan_abort"
    assert rows[1]["reason"] == f"non-finite AdamW update in {name}"


def test_numeric_error_in_the_next_first_integrate_ends_as_the_serial_loop(
        tmp_path, eight_samples, monkeypatch, batch_loop, no_thread_left):
    batch = boundary_config().optimizer.batch_size
    calls = []
    real_integrate = AffordanceModel.integrate

    def integrate(self, hidden, plan):
        calls.append(None)
        if len(calls) == batch + 1:   # step 1's first member
            raise NumericError("softmax received NaN input")
        return real_integrate(self, hidden, plan)

    monkeypatch.setattr(AffordanceModel, "integrate", integrate)
    config = boundary_config()
    want = boundary_run(monkeypatch, config, eight_samples, tmp_path / "serial",
                        serial=True)
    calls.clear()
    got = boundary_run(monkeypatch, config, eight_samples, tmp_path / "run")
    assert got == want
    log, written, diverged = got
    assert diverged[0] == 1 and len(written) == 1
    rows = [json.loads(line) for line in log.splitlines()]
    assert rows[1] == {"step": 1, "event": "nan_abort",
                       "reason": "softmax received NaN input",
                       "l_txt": 0.0, "l_aff": 0.0, "total": 0.0}


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, "big"],
                         ids=["inf", "-inf", "nan", "overflowing_sum"])
def test_gradient_check_fails_only_a_non_finite_element(
        tmp_path, eight_samples, monkeypatch, batch_loop, no_thread_left,
        value):
    # a finite gradient whose sum overflows passes; one inf or NaN, in the
    # last member's contribution, fails with the reason it always had
    name = "decoder.head.0.w"
    real_accumulate = tensor_module._accumulate
    built = recording(monkeypatch)
    writes = []

    def poisoned(t, grad):
        if t is built["model"].params[name]:
            writes.append(t)
            if len(writes) == 8:
                if value == "big":
                    grad = np.full_like(grad, np.finfo(grad.dtype).max / 4)
                else:
                    grad = grad.copy()
                    grad.flat[-1] = value
        real_accumulate(t, grad)

    monkeypatch.setattr(tensor_module, "_accumulate", poisoned)
    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=1, batch_size=8))
    out = tmp_path / "run"
    # the big gradient's second moment overflows: no checkpoint would hold it
    with pytest.raises(Interrupt if value == "big" else TrainingDiverged):
        train(config, eight_samples, out, log_fn=stop_after_step_0)
    (row,) = [json.loads(line) for line in (out / "log.jsonl").read_text()
              .splitlines()]
    assert row.get("reason") == (None if value == "big"
                                 else f"non-finite gradient in {name}")


@pytest.mark.parametrize("where", ["forward", "backward"])
@pytest.mark.parametrize("k", [1, 3])
def test_other_exceptions_propagate_unchanged(
        tmp_path, eight_samples, monkeypatch, batch_loop, no_thread_left,
        where, k):
    boom = Boom("injected")

    def fail_kth(calls):
        if calls == k:
            raise boom

    if where == "forward":
        recording(monkeypatch, fail_kth)
    else:
        walks = []

        def failing_backward(loss):
            walks.append(loss)
            fail_kth(len(walks))
            backward(loss)

        monkeypatch.setattr(train_module, "backward", failing_backward)
    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=1, batch_size=4))
    with pytest.raises(Boom) as info:
        train(config, eight_samples, tmp_path / "run")
    assert info.value is boom
    assert (tmp_path / "run" / "log.jsonl").read_text() == ""


def test_one_malloc_arena_is_set_before_the_first_forward(
        tmp_path, eight_samples, monkeypatch, pipelined, no_thread_left):
    calls = []

    class FakeGlibc:
        @staticmethod
        def mallopt(param, value):
            calls.append((param, value))
            return 1

    def first_forward(count):
        if count == 1:
            calls.append("forward")

    monkeypatch.setattr(train_module.ctypes, "CDLL", lambda name: FakeGlibc())
    recording(monkeypatch, first_forward)
    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=1, batch_size=8))
    train(config, eight_samples, tmp_path / "run")
    assert calls == [(train_module._M_ARENA_MAX, 1),
                     (train_module._M_MMAP_THRESHOLD, 4 << 20),
                     (train_module._M_TRIM_THRESHOLD, 8 << 20), "forward"]


def test_small_models_step_sequentially_without_a_thread(
        tmp_path, eight_samples, monkeypatch, no_thread_left):
    def no_worker(*args, **kwargs):
        raise AssertionError("a worker thread was started")

    def no_glibc_call(name):
        raise AssertionError("the malloc arenas were limited")

    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=1, batch_size=8))
    want_model, want_opt, want_row = sequential_step(config, eight_samples)
    built = recording(monkeypatch)
    monkeypatch.setattr(train_module, "ThreadPoolExecutor", no_worker)
    monkeypatch.setattr(train_module.ctypes, "CDLL", no_glibc_call)
    with pytest.raises(Interrupt) as info:
        train(config, eight_samples, tmp_path / "run", log_fn=stop_after_step_0)
    assert info.value.args == (want_row,)
    for name, p in want_model.params.items():
        assert built["model"].params[name].data.tobytes() == p.data.tobytes(), name
        assert built["optimizer"].exp_avg_sq[name].tobytes() == \
            want_opt.exp_avg_sq[name].tobytes()


def test_pipeline_starts_at_the_paper_feature_rows():
    assert train_module._pipelines(ModelConfig(n_points=2048, d=512))
    assert train_module._pipelines(ModelConfig(n_points=1024, d=512))
    assert not train_module._pipelines(ModelConfig(n_points=1024, d=128))
    assert not train_module._pipelines(ModelConfig(**TOY))


def test_one_malloc_arena_is_a_no_op_without_glibc(monkeypatch):
    class NoGlibc:
        pass

    monkeypatch.setattr(train_module.ctypes, "CDLL", lambda name: NoGlibc())
    train_module._steady_malloc()


def test_resumed_run_matches_uninterrupted_run(tmp_path):
    manifest = gen_synthetic_dataset(tmp_path / "data", 1, 2, 1,
                                     TOY["n_points"], seed=2, d_h=TOY["d_h"],
                                     seq_len=TOY["seq_len"])
    # two samples in one batch per step: 16 optimizer steps
    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=16, batch_size=2),
                       checkpoint_every=4)
    full = train(config, manifest, tmp_path / "full")

    def crash_at_step_5(row):
        if row["step"] == 5:
            raise Interrupt

    with pytest.raises(Interrupt):
        train(config, manifest, tmp_path / "cut", log_fn=crash_at_step_5)
    assert load_checkpoint(tmp_path / "cut" / "checkpoint").step == 4
    resumed = train(config, manifest, tmp_path / "cut",
                    resume=tmp_path / "cut" / "checkpoint")

    full_log = full.log_path.read_text().splitlines()
    assert len(full_log) == 16
    assert resumed.log_path.read_text().splitlines() == full_log
    want = load_checkpoint(full.checkpoint_dir)
    got = load_checkpoint(resumed.checkpoint_dir)
    assert got.step == want.step == 16
    assert got.params.keys() == want.params.keys()
    for name, arr in want.params.items():
        assert got.params[name].tobytes() == arr.tobytes(), name


def test_grad_accum_trains_as_the_multiplied_batch(tmp_path, eight_samples,
                                                   batch_loop):
    # grad_accum only multiplies batch_size: the same rows and weights
    runs = {}
    for batch_size, grad_accum in ((4, 2), (8, 1)):
        config = RunConfig(model=ModelConfig(**TOY), optimizer=OptimConfig(
            epochs=2, batch_size=batch_size, grad_accum=grad_accum))
        runs[batch_size] = train(config, eight_samples,
                                 tmp_path / f"batch{batch_size}")
    accum, whole = runs[4], runs[8]
    assert accum.steps == whole.steps == 2
    assert accum.log_path.read_bytes() == whole.log_path.read_bytes()
    want = load_checkpoint(whole.checkpoint_dir)
    got = load_checkpoint(accum.checkpoint_dir)
    for group in ("params", "exp_avg", "exp_avg_sq"):
        saved = want.params if group == "params" else want.optimizer[group]
        loaded = got.params if group == "params" else got.optimizer[group]
        assert loaded.keys() == saved.keys()
        for name, arr in saved.items():
            assert loaded[name].tobytes() == arr.tobytes(), (group, name)


def test_load_model_draws_no_initial_weight(tmp_path, eight_samples,
                                            monkeypatch):
    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=1, batch_size=8))
    result = train(config, eight_samples, tmp_path / "run")
    streams = recorded_streams(monkeypatch)
    loaded = recorded_loads(monkeypatch)
    model, _, ckpt = train_module.load_model(result.checkpoint_dir)
    # the model's only generator is the seed's init stream
    assert streams == []
    AffordanceModel(config)
    assert streams == [(config.seed, "init")]
    saved = load_checkpoint(result.checkpoint_dir).params
    assert model.params.keys() == saved.keys()
    assert loaded == [ckpt]
    for name, p in model.params.items():
        assert p.data.dtype == saved[name].dtype, name
        assert p.data.tobytes() == saved[name].tobytes(), name
        # the model holds the arrays the checkpoint was read into
        assert np.shares_memory(p.data, ckpt.params[name]), name


def recorded_streams(monkeypatch):
    """The list of the keys of every generator the model module makes."""
    streams = []
    real_rng_for = model_module.rng_for

    def recorded_rng_for(*args):
        streams.append(args)
        return real_rng_for(*args)

    monkeypatch.setattr(model_module, "rng_for", recorded_rng_for)
    return streams


def recorded_loads(monkeypatch):
    """The list of checkpoints that train's load_checkpoint returns."""
    loaded = []
    real_load = train_module.load_checkpoint

    def recorded_load(*args, **kwargs):
        loaded.append(real_load(*args, **kwargs))
        return loaded[-1]

    monkeypatch.setattr(train_module, "load_checkpoint", recorded_load)
    return loaded


def test_load_model_holds_one_copy_of_the_parameters(tmp_path):
    # the small benchmark config; the copy into placeholders peaked at 2.14x
    config = RunConfig(model=ModelConfig(n_points=1024, d=128, d_h=256,
                                         seq_len=8))
    params = AffordanceModel(config).params
    param_bytes = sum(p.data.nbytes for p in params.values())
    save_checkpoint(tmp_path / "ckpt", params, config.to_dict(), step=0)
    del params
    tracemalloc.start()
    try:
        model, _, ckpt = train_module.load_model(tmp_path / "ckpt")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * param_bytes, peak / param_bytes
    assert sum(p.data.nbytes for p in model.params.values()) == param_bytes


def test_resume_holds_one_copy_of_the_parameters_and_moments(tmp_path):
    # the small benchmark config; with moments made at set-up and then
    # replaced by the checkpoint's, the traced peak read 5.04x
    config = RunConfig(model=ModelConfig(n_points=1024, d=128, d_h=256,
                                         seq_len=8))
    manifest = gen_synthetic_dataset(tmp_path / "data", 1, 2, 1, 1024, seed=1,
                                     d_h=256, seq_len=8)
    dataset = read_dataset(manifest)
    params = AffordanceModel(config).params
    optimizer = AdamW(params)
    for p in params.values():
        p.grad = np.ones_like(p.data)
    optimizer.step()
    param_bytes = sum(p.data.nbytes for p in params.values())
    save_checkpoint(tmp_path / "ckpt", params, config.to_dict(), step=1,
                    optimizer_state=optimizer.state_arrays(),
                    vocab=dataset.vocab)
    del params, optimizer
    tracemalloc.start()
    try:
        model, optimizer, _ = train_module._resumed(config, dataset,
                                                    tmp_path / "ckpt")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * param_bytes, peak / param_bytes
    assert len(optimizer.exp_avg) == len(model.params)


def crash_at_step_2(row):
    if row["step"] == 2:
        raise Interrupt


def test_resume_draws_no_weight_and_takes_the_moments(tmp_path, eight_samples,
                                                      monkeypatch):
    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=2, batch_size=4),
                       checkpoint_every=2)
    with pytest.raises(Interrupt):
        train(config, eight_samples, tmp_path / "run", log_fn=crash_at_step_2)
    ckpt_dir = tmp_path / "run" / "checkpoint"
    streams = recorded_streams(monkeypatch)
    loaded = recorded_loads(monkeypatch)
    model, optimizer, step = train_module._resumed(
        config, read_dataset(eight_samples), ckpt_dir)
    assert streams == [] and step == optimizer.step_count == 2
    (ckpt,) = loaded
    for name, p in model.params.items():
        assert p.data is ckpt.params[name], name
        for moment in ("exp_avg", "exp_avg_sq"):
            assert getattr(optimizer, moment)[name] is \
                ckpt.optimizer[moment][name], (moment, name)
    # nor does a resume that runs the last two steps
    assert train(config, eight_samples, tmp_path / "run",
                 resume=ckpt_dir).steps == 4
    assert streams == []


def test_pipelined_resume_matches_uninterrupted_run(tmp_path):
    # CI's wide model on 4 records: two members per step, pipelined
    manifest = gen_synthetic_dataset(tmp_path / "data", 1, 2, 2, 1024,
                                     seed=2, d_h=16, seq_len=4)
    config = RunConfig(
        model=ModelConfig(n_points=1024, d=512, d_h=16, seq_len=4,
                          cont_width=16, k_max=[8, 8, 8]),
        optimizer=OptimConfig(epochs=2, batch_size=2), checkpoint_every=2)
    assert train_module._pipelines(config.model)
    full = train(config, manifest, tmp_path / "full")
    with pytest.raises(Interrupt):
        train(config, manifest, tmp_path / "cut", log_fn=crash_at_step_2)
    assert load_checkpoint(tmp_path / "cut" / "checkpoint").step == 2
    resumed = train(config, manifest, tmp_path / "cut",
                    resume=tmp_path / "cut" / "checkpoint")

    assert len(full.log_path.read_text().splitlines()) == 4
    assert resumed.log_path.read_bytes() == full.log_path.read_bytes()
    want = load_checkpoint(full.checkpoint_dir)
    got = load_checkpoint(resumed.checkpoint_dir)
    assert got.step == want.step == 4
    for group in ("params", "exp_avg", "exp_avg_sq"):
        saved = want.params if group == "params" else want.optimizer[group]
        loaded = got.params if group == "params" else got.optimizer[group]
        assert loaded.keys() == saved.keys()
        for name, arr in saved.items():
            assert loaded[name].tobytes() == arr.tobytes(), (group, name)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_divergence_stops_as_training_diverged(tmp_path, capsys):
    manifest = gen_synthetic_dataset(tmp_path / "data", 1, 2, 1,
                                     TOY["n_points"], seed=2, d_h=TOY["d_h"],
                                     seq_len=TOY["seq_len"])
    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=4, batch_size=2, lr=1e4))
    with pytest.raises(TrainingDiverged) as info:
        train(config, manifest, tmp_path / "run")
    assert info.value.step == 1
    rows = [json.loads(line) for line in
            (tmp_path / "run" / "log.jsonl").read_text().splitlines()]
    assert [row["step"] for row in rows] == [0, 1]
    assert "event" not in rows[0] and math.isfinite(rows[0]["total"])
    assert rows[1]["event"] == "nan_abort" and rows[1]["reason"]
    assert not (tmp_path / "run" / "checkpoint").exists()

    args = ["train", "--data", str(manifest), "--out", str(tmp_path / "cli"),
            "--set", "optimizer.lr=10000", "--set", "optimizer.epochs=4",
            "--set", "optimizer.batch_size=2"] + TOY_MODEL_SETS
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("runtime error:")


def test_nonfinite_gradient_aborts_before_the_update(tmp_path, monkeypatch):
    manifest = gen_synthetic_dataset(tmp_path / "data", 1, 2, 1,
                                     TOY["n_points"], seed=2, d_h=TOY["d_h"],
                                     seq_len=TOY["seq_len"])
    models = []

    class RecordedModel(train_module.AffordanceModel):
        def __init__(self, config):
            super().__init__(config)
            self.initial = {k: p.data.copy() for k, p in self.params.items()}
            models.append(self)

    def poisoned_backward(loss):
        real_backward(loss)
        next(iter(models[0].params.values())).grad[0] = np.nan

    real_backward = train_module.backward
    monkeypatch.setattr(train_module, "AffordanceModel", RecordedModel)
    monkeypatch.setattr(train_module, "backward", poisoned_backward)
    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=2, batch_size=2))
    with pytest.raises(TrainingDiverged) as info:
        train(config, manifest, tmp_path / "run")
    assert info.value.step == 0
    (row,) = [json.loads(line) for line in
              (tmp_path / "run" / "log.jsonl").read_text().splitlines()]
    assert row["event"] == "nan_abort" and math.isfinite(row["total"])
    assert row["reason"].startswith("non-finite gradient in ")
    (model,) = models
    for name, p in model.params.items():
        assert p.data.tobytes() == model.initial[name].tobytes(), name


def test_empty_manifest_is_rejected_before_the_model_is_built(tmp_path,
                                                              monkeypatch):
    manifest = gen_synthetic_dataset(tmp_path / "data", 1, 2, 1,
                                     TOY["n_points"], seed=2, d_h=TOY["d_h"],
                                     seq_len=TOY["seq_len"])
    empty = manifest.parent / "empty.jsonl"
    empty.write_text("")

    def no_model(config):
        raise AssertionError("model built for an empty dataset")

    monkeypatch.setattr(train_module, "AffordanceModel", no_model)
    with pytest.raises(ConfigError, match="dataset has no samples"):
        train(RunConfig(model=ModelConfig(**TOY)), empty, tmp_path / "run")
    assert not (tmp_path / "run").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_overflowing_update_stops_before_reaching_the_parameters(
        tmp_path, monkeypatch, capsys):
    manifest = gen_synthetic_dataset(tmp_path / "data", 1, 2, 1,
                                     TOY["n_points"], seed=2, d_h=TOY["d_h"],
                                     seq_len=TOY["seq_len"])
    models = []

    class RecordedModel(train_module.AffordanceModel):
        def __init__(self, config):
            super().__init__(config)
            models.append(self)

    monkeypatch.setattr(train_module, "AffordanceModel", RecordedModel)
    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=2, batch_size=2, lr=1e300))
    with pytest.raises(TrainingDiverged) as info:
        train(config, manifest, tmp_path / "run")
    assert info.value.step == 0
    (row,) = [json.loads(line) for line in
              (tmp_path / "run" / "log.jsonl").read_text().splitlines()]
    assert row["event"] == "nan_abort" and math.isfinite(row["total"])
    assert row["reason"].startswith("non-finite AdamW update in ")
    assert not (tmp_path / "run" / "checkpoint").exists()
    (model,) = models
    for name, p in model.params.items():
        assert np.isfinite(p.data).all(), name

    args = ["train", "--data", str(manifest), "--out", str(tmp_path / "cli"),
            "--set", "optimizer.lr=1e300", "--set", "optimizer.epochs=2",
            "--set", "optimizer.batch_size=2"] + TOY_MODEL_SETS
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("runtime error:")
    assert not (tmp_path / "cli" / "checkpoint").exists()


def _drop_moment_entry(ckpt, manifest):
    files = manifest["optimizer"]["exp_avg_sq"]
    del files[next(iter(files))]


def _misshape_moment(ckpt, manifest):
    rel = next(iter(manifest["optimizer"]["exp_avg"].values()))
    write_tensor(ckpt / rel, np.zeros(3, dtype=np.float32))


def _non_integer_optimizer_step(ckpt, manifest):
    manifest["optimizer"]["step"] = "x"


def _truncate_moment_file(ckpt, manifest):
    path = ckpt / next(iter(manifest["optimizer"]["exp_avg"].values()))
    path.write_bytes(path.read_bytes()[:-4])


@pytest.mark.parametrize("damage", [
    _drop_moment_entry, _misshape_moment, _non_integer_optimizer_step,
    _truncate_moment_file,
], ids=["missing_moment_entry", "moment_shape", "optimizer_step",
        "truncated_moment_file"])
def test_damaged_optimizer_state_fails_resume_as_checkpoint_error(
        tmp_path, capsys, damage):
    manifest = gen_synthetic_dataset(tmp_path / "data", 1, 2, 1,
                                     TOY["n_points"], seed=2, d_h=TOY["d_h"],
                                     seq_len=TOY["seq_len"])
    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=2, batch_size=2))
    ckpt = train(config, manifest, tmp_path / "run").checkpoint_dir
    payload = json.loads((ckpt / "manifest.json").read_text())
    damage(ckpt, payload)
    (ckpt / "manifest.json").write_text(json.dumps(payload))

    with pytest.raises(CheckpointError):
        train(config, manifest, tmp_path / "resumed", resume=ckpt)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))
    capsys.readouterr()
    assert main(["train", "--config", str(config_path), "--data", str(manifest),
                 "--out", str(tmp_path / "cli"), "--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and "Traceback" not in err


# element [0, 0] of each layer's weight: the fuse's is in its row part
@pytest.mark.parametrize("name", ["backbone.sa1.0.w", "fusion.fuse.w_row"],
                         ids=["backbone.sa1.0.w", "fusion.fuse.w"])
def test_nan_pre_activation_ends_as_training_diverged(
        tmp_path, eight_samples, monkeypatch, batch_loop, no_thread_left, name):
    # the ReLU passes a NaN pre-activation through and segment_max keeps it,
    # so the NaN must still stop training before any update
    models = []

    class PoisonedModel(AffordanceModel):
        def __init__(self, config):
            super().__init__(config)
            self.params[name].data[0, 0] = np.nan
            self.initial = {k: p.data.copy() for k, p in self.params.items()}
            models.append(self)

    monkeypatch.setattr(train_module, "AffordanceModel", PoisonedModel)
    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=1, batch_size=4))
    with pytest.raises(TrainingDiverged) as info:
        train(config, eight_samples, tmp_path / "run")
    assert info.value.step == 0
    (row,) = [json.loads(line) for line in
              (tmp_path / "run" / "log.jsonl").read_text().splitlines()]
    assert row["step"] == 0 and row["event"] == "nan_abort" and row["reason"]
    assert not (tmp_path / "run" / "checkpoint").exists()
    (model,) = models
    for key, p in model.params.items():
        assert p.data.tobytes() == model.initial[key].tobytes(), key


def test_nan_logit_ends_as_nan_abort(tmp_path, eight_samples, monkeypatch,
                                    batch_loop, no_thread_left):
    # the map loss neither clamps nor checks its logits: a NaN logit gives a
    # NaN loss, which stops training as a nan_abort, not as a ContractError
    real = AffordanceDecoder.predict_map

    def with_nan(self, point_feats, row):
        logits = real(self, point_feats, row)
        logits.data[0, 0] = np.nan
        return logits

    monkeypatch.setattr(AffordanceDecoder, "predict_map", with_nan)
    config = RunConfig(model=ModelConfig(**TOY),
                       optimizer=OptimConfig(epochs=1, batch_size=4))
    with pytest.raises(TrainingDiverged) as info:
        train(config, eight_samples, tmp_path / "run")
    assert info.value.step == 0
    (row,) = [json.loads(line) for line in
              (tmp_path / "run" / "log.jsonl").read_text().splitlines()]
    assert row["event"] == "nan_abort" and row["reason"] == "non-finite loss"
    assert math.isnan(row["l_aff"]) and math.isfinite(row["l_txt"])
    assert not (tmp_path / "run" / "checkpoint").exists()


# -- the pairwise evaluation ---------------------------------------------------


def plan_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("affground-predict")]


@pytest.fixture
def toy_model():
    return AffordanceModel(RunConfig(model=ModelConfig(**TOY)))


def first_records(manifest, n):
    """A manifest next to ``manifest`` with its first ``n`` records."""
    path = manifest.parent / f"first{n}.jsonl"
    write_manifest(path, read_dataset(manifest).records[:n])
    return path


def record_ids(manifest, n=None):
    return [record.id for record in read_dataset(manifest).records[:n]]


def sequential_report(model, manifest):
    """evaluate() as a loop over the records, one at a time, on this thread."""
    dataset = read_dataset(manifest)
    report = MetricReport()
    for record in dataset.records:
        sample = train_module.load_sample(dataset, model, record)
        scores = model.predict(sample.cloud, sample.hidden, sample.plan)
        report.add(record.id, record.affordance_name,
                   evaluate_sample(scores, sample.cloud.labels))
    return report


def loaded_ids(monkeypatch):
    """Record ids by the ``id`` of the loaded clouds' coordinates and
    labels, which are unique while the clouds live."""
    ids = {}
    real_load = Dataset.load_cloud

    def load_cloud(self, record):
        cloud = real_load(self, record)
        ids[id(cloud.coords)] = ids[id(cloud.labels)] = record.id
        return cloud

    monkeypatch.setattr(Dataset, "load_cloud", load_cloud)
    return ids


def scored_ids(monkeypatch):
    """The ids of the records evaluate() passes to evaluate_sample, in
    call order."""
    ids, loaded = [], loaded_ids(monkeypatch)
    real_score = train_module.evaluate_sample

    def score(scores, labels):
        ids.append(loaded[id(labels)])
        return real_score(scores, labels)

    monkeypatch.setattr(train_module, "evaluate_sample", score)
    return ids


@pytest.mark.parametrize("n_records", [1, 2, 3, 8])
def test_evaluation_equals_the_sequential_loop(
        eight_samples, toy_model, monkeypatch, batch_loop, no_thread_left,
        frequent_switches, n_records):
    # an odd count leaves the last record to run alone
    manifest = first_records(eight_samples, n_records)
    want = sequential_report(toy_model, manifest).to_json()
    ids = scored_ids(monkeypatch)
    assert train_module.evaluate(toy_model, manifest).to_json() == want
    assert ids == record_ids(manifest)


def test_pipelined_evaluation_equals_the_sequential_report(
        eight_samples, toy_model, monkeypatch, no_thread_left,
        frequent_switches):
    want = train_module.evaluate(toy_model, eight_samples).to_json()
    monkeypatch.setattr(train_module, "_PIPELINE_MIN_ROW_ENTRIES", 0)
    started = []
    real_executor = train_module.ThreadPoolExecutor

    def executor(*args, **kwargs):
        started.append(kwargs["thread_name_prefix"])
        return real_executor(*args, **kwargs)

    monkeypatch.setattr(train_module, "ThreadPoolExecutor", executor)
    got = train_module.evaluate(toy_model, eight_samples).to_json()
    assert started == ["affground-predict"]
    assert got == want
    assert not plan_threads()


@pytest.mark.parametrize("position", [0, 1, 2, 3, 7],
                         ids=["first", "second", "third", "middle", "last"])
def test_damaged_cloud_fails_evaluation_as_the_sequential_loop_does(
        eight_samples, toy_model, monkeypatch, no_thread_left, position):
    # the first or the second record of a pair: when the second fails to
    # load, the first is still scored before the error is raised
    record = read_dataset(eight_samples).records[position]
    cloud = eight_samples.parent / record.points
    cloud.write_bytes(cloud.read_bytes()[:-4])
    outcomes = []
    for threshold in (train_module._PIPELINE_MIN_ROW_ENTRIES, 0):
        monkeypatch.setattr(train_module, "_PIPELINE_MIN_ROW_ENTRIES", threshold)
        ids = scored_ids(monkeypatch)
        with pytest.raises(DataFormatError) as info:
            train_module.evaluate(toy_model, eight_samples)
        assert not plan_threads()
        outcomes.append((type(info.value), str(info.value), list(ids)))
    sequential, pipelined = outcomes
    assert sequential[0] is DataFormatError
    assert sequential[2] == record_ids(eight_samples, position)
    assert pipelined == sequential


def test_error_in_a_forward_leaves_no_plan_thread(
        eight_samples, toy_model, monkeypatch, pipelined, no_thread_left):
    boom = Boom("injected")
    calls = []

    def failing_predict(*args):
        calls.append(args)
        if len(calls) == 2:
            raise boom
        return AffordanceModel.predict(toy_model, *args)

    monkeypatch.setattr(toy_model, "predict", failing_predict)
    with pytest.raises(Boom) as info:
        train_module.evaluate(toy_model, eight_samples)
    assert info.value is boom
    assert not plan_threads()


@pytest.mark.parametrize("position", [2, 3], ids=["first", "second"])
def test_error_in_either_forward_of_a_pair_propagates_unchanged(
        eight_samples, toy_model, monkeypatch, batch_loop, no_thread_left,
        position):
    # with a worker, a pair's first forward runs on the worker and its
    # second on this thread
    dataset = read_dataset(eight_samples)
    target = dataset.load_cloud(dataset.records[position]).coords
    boom = Boom("injected")
    main = threading.get_ident()
    failed_on_main = []

    def failing_predict(cloud, hidden, plan):
        if np.array_equal(cloud.coords, target):
            failed_on_main.append(threading.get_ident() == main)
            raise boom
        return AffordanceModel.predict(toy_model, cloud, hidden, plan)

    monkeypatch.setattr(toy_model, "predict", failing_predict)
    ids = scored_ids(monkeypatch)
    with pytest.raises(Boom) as info:
        train_module.evaluate(toy_model, eight_samples)
    assert info.value is boom
    assert failed_on_main == [batch_loop == "sequential" or position == 3]
    assert ids == record_ids(eight_samples, position)
    assert not plan_threads()


@pytest.mark.parametrize("eager", [None, True, False],
                         ids=["sequential", "worker_at_submission",
                              "worker_at_result"])
def test_at_most_two_samples_are_alive_when_a_plan_is_built(
        eight_samples, toy_model, monkeypatch, eager):
    # the sample being planned and, with a worker, the other one of its
    # pair; a pair's samples kept past its scoring would make it three.
    # HeldWorker runs each first record's grouping and forward when it is
    # submitted or when its result is asked for, so what is alive does
    # not depend on timing
    if eager is not None:
        monkeypatch.setattr(train_module, "_PIPELINE_MIN_ROW_ENTRIES", 0)
        monkeypatch.setattr(train_module, "ThreadPoolExecutor",
                            lambda **kwargs: HeldWorker(eager))
    clouds, alive_at_plan = [], []
    real_load = Dataset.load_cloud
    real_group = toy_model.backbone.group

    def load_cloud(self, record):
        cloud = real_load(self, record)
        clouds.append(weakref.ref(cloud))
        return cloud

    def group(sampled):
        alive_at_plan.append(sum(ref() is not None for ref in clouds))
        return real_group(sampled)

    monkeypatch.setattr(Dataset, "load_cloud", load_cloud)
    monkeypatch.setattr(toy_model.backbone, "group", group)
    for n_records in (8, 3):
        clouds.clear()
        alive_at_plan.clear()
        train_module.evaluate(toy_model, first_records(eight_samples, n_records))
        paired = 0 if eager is None else n_records - n_records % 2
        assert alive_at_plan == [2] * paired + [1] * (n_records - paired)


def test_only_sampling_stays_on_the_main_thread(
        eight_samples, toy_model, monkeypatch, batch_loop, no_thread_left):
    # with a worker, each pair's first record is grouped there: its ball
    # queries and interpolation neighbors; every sampling runs here
    manifest = first_records(eight_samples, 3)
    want = sequential_report(toy_model, manifest).to_json()
    calls = {name: [] for name in ("farthest_point_sample", "ball_query",
                                   "interpolation_neighbors")}
    for name, threads in calls.items():
        def recorded(*args, real=getattr(backbone_module, name),
                     threads=threads):
            threads.append(threading.current_thread().name.split("_")[0])
            return real(*args)

        monkeypatch.setattr(backbone_module, name, recorded)
    loaded = loaded_ids(monkeypatch)
    grouped_on = {}
    real_group = toy_model.backbone.group

    def group(sampled):
        record = loaded[id(sampled.level_coords[0])]
        grouped_on[record] = threading.current_thread().name.split("_")[0]
        return real_group(sampled)

    monkeypatch.setattr(toy_model.backbone, "group", group)
    assert train_module.evaluate(toy_model, manifest).to_json() == want
    here = threading.current_thread().name
    worker = "affground-predict" if batch_loop == "pipelined" else here
    ids = record_ids(manifest)
    assert grouped_on == {ids[0]: worker, ids[1]: here, ids[2]: here}
    assert calls["farthest_point_sample"] == [here] * 9
    for name in ("ball_query", "interpolation_neighbors"):
        assert sorted(calls[name]) == sorted([worker] * 3 + [here] * 6)


@pytest.mark.parametrize("position", [2, 3], ids=["first", "second"])
def test_error_in_either_grouping_of_a_pair_propagates_unchanged(
        eight_samples, toy_model, monkeypatch, batch_loop, no_thread_left,
        position):
    # with a worker, a pair's first record is grouped on the worker
    boom = Boom("injected")
    main = threading.get_ident()
    failed_on_main = []
    loaded = loaded_ids(monkeypatch)
    target = record_ids(eight_samples)[position]
    real_group = toy_model.backbone.group

    def failing_group(sampled):
        if loaded[id(sampled.level_coords[0])] == target:
            failed_on_main.append(threading.get_ident() == main)
            raise boom
        return real_group(sampled)

    monkeypatch.setattr(toy_model.backbone, "group", failing_group)
    ids = scored_ids(monkeypatch)
    with pytest.raises(Boom) as info:
        train_module.evaluate(toy_model, eight_samples)
    assert info.value is boom
    assert failed_on_main == [batch_loop == "sequential" or position == 3]
    assert ids == record_ids(eight_samples, position)
    assert not plan_threads()


def test_sampled_distances_are_freed_before_the_forward_ends(
        eight_samples, toy_model, monkeypatch, pipelined, no_thread_left):
    # the worker's job holds its first record's sampling in a box it
    # empties, so the distance rows go once grouped, before the forward
    # starts, not when the job ends
    distances, freed, on_main = {}, {}, {}
    main = threading.get_ident()
    real_sample = toy_model.backbone.sample
    loaded = loaded_ids(monkeypatch)

    def sample(coords):
        sampled = real_sample(coords)
        distances[loaded[id(coords)]] = [weakref.ref(d2) for d2 in sampled.d2]
        return sampled

    def predict(cloud, hidden, plan):
        record = loaded[id(cloud.coords)]
        freed[record] = all(ref() is None for ref in distances[record])
        on_main[record] = threading.get_ident() == main
        return AffordanceModel.predict(toy_model, cloud, hidden, plan)

    monkeypatch.setattr(toy_model.backbone, "sample", sample)
    monkeypatch.setattr(toy_model, "predict", predict)
    manifest = first_records(eight_samples, 5)
    train_module.evaluate(toy_model, manifest)
    ids = record_ids(manifest)
    assert on_main == {record: k % 2 == 1 or k == 4
                       for k, record in enumerate(ids)}
    assert freed == dict.fromkeys(ids, True)


def test_empty_manifest_fails_evaluation(eight_samples, toy_model):
    empty = eight_samples.parent / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ConfigError, match="dataset has no samples"):
        train_module.evaluate(toy_model, empty)


def test_small_models_evaluate_without_a_thread(
        eight_samples, toy_model, monkeypatch, no_thread_left):
    want = train_module.evaluate(toy_model, eight_samples).to_json()

    def no_worker(*args, **kwargs):
        raise AssertionError("a worker thread was started")

    def no_glibc_call(name):
        raise AssertionError("the malloc arenas were limited")

    monkeypatch.setattr(train_module, "ThreadPoolExecutor", no_worker)
    monkeypatch.setattr(train_module.ctypes, "CDLL", no_glibc_call)
    assert train_module.evaluate(toy_model, eight_samples).to_json() == want


def test_one_record_evaluates_without_a_thread(
        eight_samples, toy_model, monkeypatch, pipelined, no_thread_left):
    manifest = eight_samples.parent / "one.jsonl"
    write_manifest(manifest, read_dataset(eight_samples).records[:1])

    def no_worker(*args, **kwargs):
        raise AssertionError("a worker thread was started")

    monkeypatch.setattr(train_module, "ThreadPoolExecutor", no_worker)
    report = train_module.evaluate(toy_model, manifest)
    assert len(report.samples) == 1


# -- the in-order loop of train() ----------------------------------------------


class InlineWorker:
    """An executor that runs each call when it is submitted, in the caller's
    thread, so what is alive at each submission does not depend on timing."""

    @staticmethod
    def submit(fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


class Made:
    def __init__(self, k):
        self.k = k


@pytest.mark.parametrize("worker", [None, InlineWorker()],
                         ids=["sequential", "worker"])
def test_in_order_keeps_at_most_two_results_alive(worker):
    # a loop over yielded results would keep result k - 1 alive in the
    # caller while item k + 1 is made
    made, used, alive_at_make = [], [], []

    def make(k):
        alive_at_make.append(sum(ref() is not None for ref in made))
        result = Made(k)
        made.append(weakref.ref(result))
        return result

    train_module._in_order(worker, make, list(range(6)),
                           lambda result: used.append(result.k))
    assert used == list(range(6))
    assert max(alive_at_make) == (0 if worker is None else 1)
