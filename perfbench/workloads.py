"""The benchmark's workloads and the metrics they report.

Each workload drives affground only through its public entry points
(``train.train``, ``train.evaluate``, ``train.load_model``,
``corruption.generate_benchmark`` and ``dataio``), always called through
the module object so that the runtime patches of :mod:`spans` apply.

The amount of work is a pure function of ``--seconds`` and the workload,
never of measured speed: each workload has a nominal cost per unit of work
on the reference machine (2 cores, OpenBLAS) and is sized so its measured
phase lasts about ``--seconds`` there. A faster program therefore does the
same work in less time, and deterministic outputs such as the last
training loss stay comparable between commits.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from affground import corruption as C
from affground import tensor
from affground import train as T
from affground.config import ModelConfig, OptimConfig, RunConfig
from affground.dataio import gen_synthetic_dataset, read_dataset, write_manifest
from affground.model import AffordanceModel
from affground.optim import AdamW
from affground.tensor import Tape

from spans import Patches, Tracer

BATCH = 8
AFFORDANCES = 2
TRAIN_REPEATS = 2   # same seed twice: the rows must match bitwise
EVAL_SETUPS = 5     # eval set-up is short, so take the median of more
PROBE_SAMPLES = 2   # post-training probe on one corruption cell

PAPER = {"n_points": 2048, "d": 512, "d_h": 2048, "seq_len": 32}
SMALL = {"n_points": 1024, "d": 128, "d_h": 256, "seq_len": 8}
TOY = {"n_points": 128, "d": 16, "d_h": 32, "seq_len": 4, "cont_width": 16,
       "k_max": [8, 8, 8]}

# nominal eval cost per sample at the paper config, used only for sizing
EVAL_SAMPLE_S = 0.4

# (target, span name): every call into a layer that the trace times
LAYER_TARGETS = (
    ("affground.backbone:farthest_point_sample", "backbone.fps"),
    ("affground.backbone:ball_query", "backbone.ball_query"),
    ("affground.backbone:interpolation_neighbors", "backbone.interp_nn"),
    ("affground.backbone:PointBackbone.build_plan", "backbone.build_plan"),
    ("affground.backbone:PointBackbone.encode", "backbone.encode"),
    ("affground.backbone:PointBackbone.decode", "backbone.decode"),
    ("affground.fusion:FusionModule.bottleneck_cross_attention", "fusion.stage1"),
    ("affground.fusion:FusionModule.gated_global_descriptor", "fusion.stage2.descriptor"),
    ("affground.fusion:FusionModule.fuse_full_res", "fusion.stage2.fuse"),
    ("affground.intention:IntentionHead.project_hidden", "intention.project_hidden"),
    ("affground.intention:IntentionHead.project_cont", "intention.project_cont"),
    ("affground.intention:IntentionHead.aux_affordance_logits", "intention.aux_logits"),
    ("affground.lifting:GeometryLifting.lift_all", "lifting.lift"),
    ("affground.decoder:AffordanceDecoder.point_to_intention", "decoder.attend"),
    ("affground.decoder:AffordanceDecoder.predict_map", "decoder.head"),
    ("affground.model:AffordanceModel.__init__", "model.init"),
    ("affground.model:AffordanceModel.forward", "model.forward"),
    ("affground.model:AffordanceModel.loss", "losses.loss"),
    ("affground.train:backward", "tensor.backward"),
    ("affground.optim:AdamW.step", "optim.step"),
    ("affground.train:save_checkpoint", "dataio.save_checkpoint"),
    ("affground.train:load_checkpoint", "dataio.load_checkpoint"),
    ("affground.train:read_dataset", "dataio.read_dataset"),
    ("affground.corruption:read_dataset", "dataio.read_dataset"),
    ("affground.dataio:Dataset.load_cloud", "dataio.load_cloud"),
    ("affground.dataio:Dataset.load_hidden", "dataio.load_hidden"),
    ("affground.train:load_samples", "train.load_samples"),
    ("affground.train:evaluate_sample", "metrics.evaluate_sample"),
    ("affground.corruption:generate_benchmark", "corruption.generate_benchmark"),
)

# per-layer time metric -> (span names summed, span or count that divides)
LAYER_TIME_METRICS = {
    "backbone.build_plan_s": (("backbone.build_plan",), "backbone.build_plan"),
    "backbone.fps_s": (("backbone.fps",), "backbone.fps"),
    "backbone.ball_query_s": (("backbone.ball_query",), "backbone.ball_query"),
    "backbone.interp_nn_s": (("backbone.interp_nn",), "backbone.interp_nn"),
    "backbone.encode_s": (("backbone.encode",), "backbone.encode"),
    "backbone.decode_s": (("backbone.decode",), "backbone.decode"),
    "fusion.stage1_s": (("fusion.stage1",), "fusion.stage1"),
    "fusion.stage2_s": (("fusion.stage2.descriptor", "fusion.stage2.fuse"),
                        "fusion.stage2.fuse"),
    "intention.project_s": (("intention.project_hidden", "intention.project_cont",
                             "intention.aux_logits"), "intention.project_hidden"),
    "lifting.lift_s": (("lifting.lift",), "lifting.lift"),
    "decoder.attend_s": (("decoder.attend",), "decoder.attend"),
    "decoder.head_s": (("decoder.head",), "decoder.head"),
    "losses.loss_s": (("losses.loss",), "losses.loss"),
    "tensor.backward_s": (("tensor.backward",), "tensor.backward"),
    "optim.step_s": (("optim.step",), "optim.step"),
    "dataio.save_checkpoint_s": (("dataio.save_checkpoint",), "dataio.save_checkpoint"),
    "dataio.load_sample_s": (("dataio.load_cloud", "dataio.load_hidden"),
                             "dataio.load_cloud"),
    "dataio.load_checkpoint_s": (("dataio.load_checkpoint",), "dataio.load_checkpoint"),
    "corruption.cell_s": (("corruption.generate_benchmark",), "corruption.cells"),
    "metrics.evaluate_sample_s": (("metrics.evaluate_sample",),
                                  "metrics.evaluate_sample"),
}


@dataclass(frozen=True)
class TrainSpec:
    model: dict
    classes: int
    samples_per_pair: int
    checkpoint_every: int
    step_s: float   # nominal optimizer-step time, used only for sizing


TRAIN_SPECS = {
    "train-paper": TrainSpec(PAPER, classes=4, samples_per_pair=1,
                             checkpoint_every=2, step_s=5.3),
    "train-small": TrainSpec(SMALL, classes=4, samples_per_pair=2,
                             checkpoint_every=10, step_s=0.5),
}
WORKLOADS = (*TRAIN_SPECS, "eval-corrupt")

# computed and printed, but too noisy between runs to be gated: on train
# workloads every step does the same work, so the step-time tail is noise
UNDECLARED_UNITS = {"sample_tail_s": "s/sample"}

# the workload-specific name each generic end-to-end metric is printed under
ALIASES = {
    "train": {"samples_per_s": "train_samples_per_s",
              "sample_p50_s": "train_step_p50_s",
              "sample_tail_s": "train_step_tail_s",
              "loss_nats": "train_loss_end"},
    "eval": {"samples_per_s": "eval_samples_per_s",
             "sample_p50_s": "eval_cell_p50_s",
             "sample_tail_s": "eval_cell_tail_s",
             "loss_nats": "eval_bce"},
}


class Run:
    """Per-process state: patches, spans, output checks and counters."""

    def __init__(self, work: Path, trace: bool):
        self.work = work
        self.trace = trace
        self.tracer = Tracer()
        self.patches = Patches()
        self.checks: dict = {}
        self.attempted = 0
        self.failed = 0
        self.predictions: list = []   # (scores, labels) per evaluated sample
        self.saved = None             # (dir, live params) of the last save
        self.plans_done = 0.0         # when load_samples last returned
        self.tape_nodes = None
        self.skips: dict = {}
        self.detail: dict = {}

    def install(self):
        """Timing wrappers (traced runs only) under the always-on hooks."""
        if self.trace:
            for target, name in LAYER_TARGETS:
                self.patches.apply(target, self.tracer.timed(name))
            matmul = tensor.matmul
            modules = [m for n, m in sorted(sys.modules.items())
                       if n.startswith("affground.") and m is not None]
            for module in modules:
                if getattr(module, "matmul", None) is matmul:
                    self.patches.apply(f"{module.__name__}:matmul",
                                       self.tracer.counting_matmul)
            # outside the tensor.backward span, so counting is not timed as it
            self.patches.apply("affground.train:backward", self._count_tape)
        self.patches.apply("affground.train:load_samples", self._after_plans)
        self.patches.apply("affground.train:save_checkpoint", self._keep_saved)
        self.patches.apply("affground.train:evaluate_sample", self._keep_scores)

    def close(self):
        self.patches.undo()

    # -- hooks ---------------------------------------------------------

    def _after_plans(self, original):
        def load_samples(*args, **kwargs):
            out = original(*args, **kwargs)
            self.plans_done = time.perf_counter()
            return out
        return load_samples

    def _keep_saved(self, original):
        def save_checkpoint(ckpt_dir, params, *args, **kwargs):
            out = original(ckpt_dir, params, *args, **kwargs)
            self.saved = (Path(ckpt_dir), params)
            return out
        return save_checkpoint

    def _keep_scores(self, original):
        def evaluate_sample(pred, gt):
            self.predictions.append((pred, gt))
            return original(pred, gt)
        return evaluate_sample

    def _count_tape(self, original):
        def backward(loss):
            if self.tracer.active and self.tape_nodes is None:
                with self.tracer.span("trace.count"):
                    self.tape_nodes = len(Tape.trace(loss).nodes)
            return original(loss)
        return backward

    # -- output checks -------------------------------------------------

    def op(self, check: str, ok: bool, detail: str = ""):
        """Count one attempted operation; a failed check fails it."""
        record = self.checks.setdefault(check, {"passed": 0, "failed": 0})
        self.attempted += 1
        if ok:
            record["passed"] += 1
        else:
            self.failed += 1
            record["failed"] += 1
            record.setdefault("first_failure", detail)

    def check_rows(self, rows):
        for row in rows:
            finite = all(math.isfinite(row[k]) for k in ("total", "l_txt", "l_aff"))
            self.op("step_loss_finite", finite, f"step {row['step']}: {row}")

    def check_predictions(self, pairs):
        for scores, _ in pairs:
            ok = bool(np.isfinite(scores).all() and (scores > 0).all()
                      and (scores < 1).all())
            self.op("prediction_finite_in_unit_interval", ok,
                    f"min {np.min(scores)!r} max {np.max(scores)!r}")

    def check_roundtrip(self, ckpt, live):
        """The checkpoint's arrays equal the live parameters bitwise."""
        bad = sorted(name for name, p in live.items()
                     if name not in ckpt.params
                     or not np.array_equal(ckpt.params[name], p.data))
        self.op("checkpoint_roundtrip", not bad, f"differs: {bad[:5]}")


# -- shared pieces -----------------------------------------------------


@dataclass
class TrainRecord:
    rows: list
    stamps: list        # [load_samples return, then one per logged row]
    setup_s: float
    ckpt_dir: Path
    samples: list       # per step


def train_once(run: Run, config: RunConfig, manifest: Path, out: Path,
               n_samples: int) -> TrainRecord:
    rows, stamps = [], []

    def log_fn(row):
        stamps.append(time.perf_counter())
        rows.append(dict(row))

    start = time.perf_counter()
    result = T.train(config, manifest, out, log_fn=log_fn)
    batch = config.optimizer.batch_size * config.optimizer.grad_accum
    per_epoch = math.ceil(n_samples / batch)
    samples = [min(batch, n_samples - (r["step"] % per_epoch) * batch) for r in rows]
    run.check_rows(rows)
    return TrainRecord(rows, [run.plans_done] + stamps, run.plans_done - start,
                       result.checkpoint_dir, samples)


def corrupt(run: Run, manifest: Path, out: Path, seed: int, kinds, levels) -> Path:
    run.tracer.count("corruption.cells", len(kinds) * len(levels))
    return C.generate_benchmark(manifest, out, seed, kinds=kinds, levels=levels)


def cell_manifest(tree: Path, kind: str, level: int) -> Path:
    return tree / kind / f"level_{level}" / "manifest.jsonl"


def tail(values) -> tuple:
    """(value, percentile, n) for the highest percentile that has at least
    ten values beyond it; the maximum when there are fewer than eleven."""
    ordered = sorted(values)
    n = len(ordered)
    rank = n - 10 if n >= 11 else n
    return ordered[rank - 1], 100.0 * rank / n, n


def mean_bce(pairs) -> float:
    """Mean per-point binary cross-entropy (nats) against labels > 0."""
    total, count = 0.0, 0
    for scores, labels in pairs:
        p = np.clip(np.asarray(scores, dtype=np.float64), 1e-7, 1 - 1e-7)
        positive = np.asarray(labels) > 0
        total -= np.log(p[positive]).sum() + np.log1p(-p[~positive]).sum()
        count += p.size
    return total / count


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file()) / 2**20


def step_intervals(record: TrainRecord, measured_only: bool = True):
    """(start, end, samples) per optimizer step; step 0 is the warm-up."""
    first = 1 if measured_only else 0
    return [(record.stamps[k], record.stamps[k + 1], record.samples[k])
            for k in range(first, len(record.rows))]


def wall(intervals) -> float:
    return sum(b - a for a, b, _ in intervals)


def throughput(intervals) -> float:
    return sum(n for _, _, n in intervals) / wall(intervals)


def timing_metrics(run: Run, intervals) -> dict:
    """samples_per_s, sample_p50_s and sample_tail_s over timed units."""
    per_sample = [(b - a) / n for a, b, n in intervals]
    tail_value, pct, n = tail(per_sample)
    run.detail["tail"] = {"percentile": pct, "units": n}
    return {"samples_per_s": throughput(intervals),
            "sample_p50_s": statistics.median(per_sample),
            "sample_tail_s": tail_value}


# -- train-paper / train-small -------------------------------------------


def run_train(run: Run, workload: str, seed: int, seconds: int, toy: bool) -> dict:
    spec = TRAIN_SPECS[workload]
    model_cfg = ModelConfig(**(TOY if toy else spec.model))
    n_samples = spec.classes * AFFORDANCES * spec.samples_per_pair
    manifest = gen_synthetic_dataset(
        run.work / "data", spec.classes, AFFORDANCES, spec.samples_per_pair,
        model_cfg.n_points, seed, d_h=model_cfg.d_h, seq_len=model_cfg.seq_len)
    per_epoch = math.ceil(n_samples / BATCH)
    measured = 2 if toy else max(2, round(seconds / spec.step_s))
    steps = math.ceil(measured / TRAIN_REPEATS) + 1
    config = RunConfig(
        model=model_cfg,
        optimizer=OptimConfig(epochs=math.ceil(steps / per_epoch), batch_size=BATCH),
        seed=seed, checkpoint_every=spec.checkpoint_every).validate()
    run.detail["config"] = config.to_dict()

    # one stand-alone set-up, the same calls train() makes before step 0
    start = time.perf_counter()
    dataset = read_dataset(manifest)
    model = AffordanceModel(config)
    AdamW(model.params)
    T.load_samples(dataset, model)
    setups = [time.perf_counter() - start]
    n_params = sum(p.data.size for p in model.params.values())
    del model

    records = []
    for repeat in range(TRAIN_REPEATS):
        # a traced run times only the last repeat; the first is its
        # untraced reference for the tracing overhead
        run.tracer.active = run.trace and repeat == TRAIN_REPEATS - 1
        records.append(train_once(run, config, manifest,
                                  run.work / f"run{repeat}", n_samples))
        setups.append(records[-1].setup_s)
    run.tracer.active = False
    for other in records[1:]:
        run.op("same_seed_same_rows", other.rows == records[0].rows,
               "loss rows differ between runs with the same seed")

    run.tracer.phase = "check"
    run.tracer.active = run.trace
    ckpt_dir, live = run.saved
    model, _, ckpt = T.load_model(ckpt_dir)
    run.check_roundtrip(ckpt, live)
    # probe: the trained checkpoint on one corruption cell of two samples
    probe = manifest.parent / "probe.jsonl"
    write_manifest(probe, dataset.records[:PROBE_SAMPLES])
    tree = corrupt(run, probe, run.work / "probe", seed, ("jitter",), (0,))
    run.predictions.clear()
    T.evaluate(model, cell_manifest(tree, "jitter", 0), expected_vocab=ckpt.vocab)
    run.check_predictions(run.predictions)
    run.tracer.active = False

    intervals = [iv for r in records for iv in step_intervals(r)]
    metrics = timing_metrics(run, intervals)
    metrics.update(loss_nats=records[-1].rows[-1]["total"],
                   setup_s=statistics.median(setups), peak_rss_mb=peak_rss_mb())
    layer = {"model.params": n_params, "dataio.checkpoint_mb": dir_mb(ckpt_dir)}
    if run.trace:
        traced = step_intervals(records[-1])
        left = uncovered(run.tracer, traced)
        layer.update({
            "trace.overhead_ratio":
                throughput(traced) / throughput(step_intervals(records[0])),
            "trace.uncovered_share": left / wall(traced),
            "train.step_other_s": left / len(traced)})
    run.detail["setup_samples_s"] = setups
    run.detail["steps"] = {"per_run": len(records[0].rows), "runs": len(records),
                           "measured_s": [b - a for a, b, _ in intervals]}
    return {"end_to_end": metrics, "layer": layer}


# -- eval-corrupt ---------------------------------------------------------


def run_eval(run: Run, seed: int, seconds: int, toy: bool) -> dict:
    model_cfg = ModelConfig(**(TOY if toy else PAPER))
    cells = [(k, lv) for k in C.KINDS for lv in C.LEVELS]
    per_pair = 1 if toy else max(1, round(
        seconds / (EVAL_SAMPLE_S * len(cells) * AFFORDANCES)))
    clean = gen_synthetic_dataset(
        run.work / "clean", 1, AFFORDANCES, per_pair, model_cfg.n_points, seed,
        d_h=model_cfg.d_h, seq_len=model_cfg.seq_len)
    n_clean = AFFORDANCES * per_pair
    config = RunConfig(model=model_cfg,
                       optimizer=OptimConfig(epochs=1, batch_size=BATCH),
                       seed=seed).validate()
    run.detail["config"] = config.to_dict()

    # input: the evaluated checkpoint comes from one real training step
    run.tracer.phase = "input"
    run.tracer.active = run.trace
    trained = train_once(run, config, clean, run.work / "ckpt_run", n_clean)
    ckpt_dir, live = run.saved

    run.tracer.phase = "setup"
    setups = []
    model = None
    for i in range(EVAL_SETUPS):
        model = None   # drop the previous model before building the next
        start = time.perf_counter()
        tree = corrupt(run, clean, run.work / f"tree{i}", seed, C.KINDS, C.LEVELS)
        model, _, ckpt = T.load_model(ckpt_dir)
        setups.append(time.perf_counter() - start)
    run.tracer.active = False
    run.check_roundtrip(ckpt, live)

    run.predictions.clear()
    T.evaluate(model, clean, expected_vocab=ckpt.vocab)   # warm-up
    layer = {"model.params": sum(p.data.size for p in model.params.values()),
             "dataio.checkpoint_mb": dir_mb(ckpt_dir)}
    if run.trace:
        untraced = _timed_eval(model, clean, ckpt.vocab)
        run.tracer.phase = "overhead"
        run.tracer.active = True
        traced = _timed_eval(model, clean, ckpt.vocab)
        layer["trace.overhead_ratio"] = untraced / traced
    run.check_predictions(run.predictions)

    run.tracer.phase = "main"
    run.tracer.active = run.trace
    run.predictions.clear()
    intervals = []
    for kind, level in cells:
        start = time.perf_counter()
        report = T.evaluate(model, cell_manifest(tree, kind, level),
                            expected_vocab=ckpt.vocab)
        intervals.append((start, time.perf_counter(), len(report.samples)))
    run.tracer.active = False
    run.check_predictions(run.predictions)

    metrics = timing_metrics(run, intervals)
    metrics.update(loss_nats=mean_bce(run.predictions),
                   setup_s=statistics.median(setups), peak_rss_mb=peak_rss_mb())
    if run.trace:
        steps = step_intervals(trained, measured_only=False)
        layer.update({
            "trace.uncovered_share": uncovered(run.tracer, intervals) / wall(intervals),
            "train.step_other_s": uncovered(run.tracer, steps) / len(steps)})
    run.detail["setup_samples_s"] = setups
    run.detail["cells"] = [
        {"kind": k, "level": lv, "samples": n, "s_per_sample": (b - a) / n}
        for (k, lv), (a, b, n) in zip(cells, intervals)]
    return {"end_to_end": metrics, "layer": layer}


def _timed_eval(model, manifest, vocab) -> float:
    start = time.perf_counter()
    T.evaluate(model, manifest, expected_vocab=vocab)
    return time.perf_counter() - start


def uncovered(tracer: Tracer, intervals) -> float:
    """Wall time of the timed units not covered by top-level spans."""
    return sum((b - a) - tracer.covered(a, b) for a, b, _ in intervals)


# -- per-layer metrics from the spans -----------------------------------------


def layer_metrics(run: Run, extra: dict) -> dict:
    """Every per-layer metric: a value, or 0.0 with a recorded skip reason."""
    tracer = run.tracer
    out = {}
    for metric, (names, unit) in LAYER_TIME_METRICS.items():
        phase = tracer.phase_of(names)
        divisor = 0
        if phase:
            divisor = tracer.calls(unit, phase) or tracer.counts.get((phase, unit), 0)
        if divisor:
            out[metric] = tracer.total(names, phase) / divisor
            run.detail.setdefault("layer_phase", {})[metric] = phase
        else:
            out[metric] = 0.0
            missing = [t for t, n in LAYER_TARGETS if n in names
                       and t in run.patches.missing]
            run.skips[metric] = (f"target missing: {missing}" if missing
                                 else "layer not called in this workload")
    forwards = [s.macs for s in tracer.spans
                if s.name == "model.forward" and s.phase == tracer.phase_of(
                    ("model.forward",))]
    out["tensor.forward_gmac"] = forwards[0] / 1e9 if forwards else 0.0
    if not forwards:
        run.skips["tensor.forward_gmac"] = "no traced forward"
    out["tensor.tape_nodes"] = run.tape_nodes or 0
    if run.tape_nodes is None:
        run.skips["tensor.tape_nodes"] = "no traced backward"
    out.update(extra)
    return out
