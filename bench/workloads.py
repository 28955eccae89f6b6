"""The benchmark's workloads, driven through skelact's public entry points.

All are closed loop with one caller, on the default SyntheticSpec (200 clips,
4 classes, 25 joints, 32 raw frames) generated from the run's seed, and all
use the `full` variant:

  pose_train  training.train() of the pose variant (Adam, batch 4,
              val_fraction 0.25), writing its final and .best checkpoints
              like `skelact train`. Forward and backward through streams,
              attention and the BiLSTM, autodiff.backward and Adam.step:
              batching and any backward or optimizer change show here.
  pose_infer  model.forward under no_grad, one clip per call. Forward only at
              batch 1, bypassing backward and the optimizer: a batching
              change must show no cost to per-clip latency here.
  both_eval   set-up loads the dataset (SKL1 + FTR1) and a checkpoint of the
              two-branch variant; then training.evaluate() scores one clip
              per call, cycling over a fixed subset. Dominated by attention
              at width 1536 and by checkpoint and data I/O in set-up.

A workload sets up (timed, median reported) and then measures operations
while one more fits in its time, and until it has MIN_OPS timings, so that
p90 has ten samples beyond it. pose_train's operation is a
whole train() call, so it measures one call even when that takes longer.
A traced run measures half its time untraced, installs the Tracer, sets up
and measures again, and derives the per-layer metrics from the spans.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from skelact import autodiff, cli, model, training

from measure import (
    Checks,
    check_probabilities,
    checkpoint_holds,
    manifest_digest,
    params_digest,
    percentile,
)
from spans import REPLAYED, Tracer, replay_backward

VARIANT = "full"
VAL_GATE = 90.0        # the learnability gate on held-out accuracy, in percent
TRAIN_EPOCHS = 4       # per train() call, each from the same initial weights; on
                       # seeds 0-9 held-out accuracy reaches 100% by epoch 3
EVAL_SUBSET = 48       # clips both_eval cycles over
WARMUP_OPS = 3         # first operations of a phase, checked but not timed
MIN_OPS = 100          # timings per untraced run: p90 then has 10 beyond it
TRACED_MIN_OPS = 20    # per phase of a traced run, which reports no p90
REPLAYS = 3            # backward replays per captured call; the median is kept
SETUP_REPEATS = {"pose_train": 8, "pose_infer": 8, "both_eval": 2}  # before and after


@dataclass
class Run:
    """One invocation: its inputs, checks and the metrics it reports."""
    workload: str
    seed: int
    seconds: float
    work: Path
    prepared: dict
    traced: bool = False
    checks: Checks = field(default_factory=Checks)
    named: dict = field(default_factory=dict)  # metric -> {"value", "unit", "n"}
    digests: dict = field(default_factory=dict)
    tracer: Tracer | None = None

    @property
    def data_dir(self):
        return self.work / "data"

    @property
    def checkpoint(self):
        return self.work / "both.ckpt"

    def put(self, name, value, unit, n=None):
        self.named[name] = {"value": value, "unit": unit, "n": n}


@dataclass
class Phase:
    """What one measured stretch of operations produced."""
    latencies: list = field(default_factory=list)  # seconds per timed operation
    rates: list = field(default_factory=list)      # samples per second of each train() call
    ops: int = 0
    steps: list = field(default_factory=list)      # (start, end) of each timed training step
    val_pass_s: list = field(default_factory=list)

    def add(self, seconds):
        self.ops += 1
        if self.ops > WARMUP_OPS:
            self.latencies.append(seconds)

    def samples_per_s(self):
        """Throughput with its sample count: the median over train() calls, else
        one-sample operations divided by their total time."""
        if self.rates:
            return statistics.median(self.rates), len(self.rates)
        return len(self.latencies) / sum(self.latencies), len(self.latencies)


def _keep_going(start, seconds, phase, min_ops):
    """Too few operations are timed yet, or one more of average length fits in `seconds`."""
    elapsed = time.perf_counter() - start
    return len(phase.latencies) < min_ops or elapsed * (phase.ops + 1) / max(phase.ops, 1) <= seconds


def _pose_setup(run):
    samples, joints, classes = cli.load_dataset_dir(run.data_dir, True, False)
    dims = model.ModelDims(joints=joints, num_classes=classes)
    return samples, model.build_variant(model.variant_config(VARIANT), dims, seed=run.seed)


class PoseTrain:
    name = "pose_train"
    aliases = {"samples_per_s": "train_samples_per_s", "op_ms_p90": "train_step_ms_p90"}

    def setup(self, run):
        return _pose_setup(run)

    def measure(self, run, state, seconds, min_ops):
        samples, params = state
        config = training.TrainConfig(optimizer="adam", batch_size=4, val_fraction=0.25,
                                      epochs=TRAIN_EPOCHS, seed=run.seed)
        # train() holds out round(n * val_fraction) clips and trains on the rest
        trained = len(samples) - min(int(round(len(samples) * config.val_fraction)), len(samples) - 1)
        initial = [t.data.copy() for t in params.tensors()]
        ckpt = run.work / "pose_train.ckpt"
        phase = Phase()
        marks = []
        step = training.Adam.step

        def marked_step(optimizer):
            step(optimizer)
            marks.append(time.perf_counter())

        training.Adam.step = marked_step
        try:
            start = time.perf_counter()
            while _keep_going(start, seconds, phase, min_ops):
                for t, values in zip(params.tensors(), initial):
                    t.data = values.copy()
                    t.grad = None
                marks.clear()
                logs = []
                began = time.perf_counter()
                records = training.train(samples, params, config, ckpt_path=str(ckpt),
                                         log_fn=lambda line: logs.append(time.perf_counter()))
                phase.ops += 1
                phase.rates.append(trained * config.epochs / (time.perf_counter() - began))
                # a step is timed from the previous step's return; intervals
                # holding a log line span an epoch's validation and are dropped
                bounds = [began] + marks
                for begin, end in zip(bounds, bounds[1:]):
                    if not any(begin < stamp < end for stamp in logs):
                        phase.latencies.append(end - begin)
                        phase.steps.append((begin, end))
                phase.val_pass_s.extend(logs[i + 1] - logs[i] for i in range(0, len(logs) - 1, 2))
                self._check(run, records, len(marks), ckpt, params)
        finally:
            training.Adam.step = step
        run.digests["checkpoint_manifest_sha256"] = manifest_digest(ckpt)
        return phase

    def _check(self, run, records, steps, ckpt, params):
        epochs = [r for r in records if r["split"] == "train"]
        for record in epochs:
            # the epoch's mean loss is non-finite exactly when one of its steps' was
            run.checks.record(math.isfinite(record["loss"]),
                              f"epoch {record['epoch']} training loss {record['loss']}",
                              count=steps // len(epochs))
        val = [r["accuracy"] for r in records if r["split"] == "val"]
        run.put("val_accuracy", val[-1], "%", len(val))
        run.checks.record(val[-1] >= VAL_GATE, f"final val_accuracy {val[-1]} below {VAL_GATE}")
        best = Path(f"{ckpt}.best").is_file()
        run.checks.record(checkpoint_holds(ckpt, params) and best,
                          "final checkpoint does not hold the trained weights, or .best is missing")

    def report(self, run, phase):
        _throughput(run, "train_samples_per_s", phase)
        _latency(run, "train_step_ms", phase)

    def traced_extra(self, run, state):
        pass


class PoseInfer:
    name = "pose_infer"
    aliases = {"samples_per_s": "infer_clips_per_s", "op_ms_p90": "infer_ms_p90"}

    def setup(self, run):
        return _pose_setup(run)

    def measure(self, run, state, seconds, min_ops):
        samples, params = state
        order = np.random.default_rng(run.seed).permutation(len(samples))
        phase = Phase()
        start = time.perf_counter()
        with autodiff.no_grad():
            while _keep_going(start, seconds, phase, min_ops):
                sample = samples[order[phase.ops % len(order)]]
                began = time.perf_counter()
                probs = model.forward(params, pose=autodiff.Tensor(sample.pose))
                phase.add(time.perf_counter() - began)
                check_probabilities(run.checks, probs.data)
        return phase

    def report(self, run, phase):
        _throughput(run, "infer_clips_per_s", phase)
        _latency(run, "infer_ms", phase)

    def traced_extra(self, run, state):
        pass


class BothEval:
    name = "both_eval"
    aliases = {"samples_per_s": "eval_samples_per_s", "op_ms_p90": "eval_ms_p90"}

    def setup(self, run):
        samples, _, _ = cli.load_dataset_dir(run.data_dir, True, True)
        return samples, model.load_checkpoint(run.checkpoint)

    def measure(self, run, state, seconds, min_ops):
        samples, params = state
        pick = np.random.default_rng(run.seed).permutation(len(samples))[:EVAL_SUBSET]
        subset = [samples[i] for i in pick]
        phase = Phase()
        start = time.perf_counter()
        while _keep_going(start, seconds, phase, min_ops):
            clip = subset[phase.ops % len(subset)]
            began = time.perf_counter()
            _, confusion = training.evaluate([clip], params)
            phase.add(time.perf_counter() - began)
            total = int(confusion.sum())
            run.checks.record(total == 1, f"confusion matrix totals {total} for 1 clip scored")
        return phase

    def report(self, run, phase):
        _throughput(run, "eval_samples_per_s", phase)
        _latency(run, "eval_ms", phase)

    def traced_extra(self, run, state):
        path = run.work / "resaved.ckpt"
        model.save_checkpoint(path, state[1])
        path.unlink()


WORKLOADS = {w.name: w for w in (PoseTrain(), PoseInfer(), BothEval())}


def _throughput(run, name, phase):
    value, n = phase.samples_per_s()
    run.put(name, value, "1/s", n)


def _latency(run, prefix, phase):
    for q in (50, 90):
        run.put(f"{prefix}_p{q}", 1e3 * percentile(phase.latencies, q), "ms", len(phase.latencies))


def _timed_setups(run, workload, count):
    """The last of `count` set-ups, and the seconds each took."""
    state = None
    seconds = []
    for _ in range(count):
        state = None  # release the previous set-up before the next
        start = time.perf_counter()
        state = workload.setup(run)
        seconds.append(time.perf_counter() - start)
    return state, seconds


def execute(run):
    """Set up and measure `run.workload`; fills run.named and run.checks.

    An untraced run sets up SETUP_REPEATS times before measuring and as many
    times after, so that its median set-up time samples two moments of the
    run rather than one.
    """
    workload = WORKLOADS[run.workload]
    repeats = 1 if run.traced else SETUP_REPEATS[run.workload]
    state, setup_s = _timed_setups(run, workload, repeats)
    run.put("model.params", state[1].parameter_count(), "count")
    run.digests["params_sha256"] = params_digest(state[1])
    if "written_params_sha256" in run.prepared:
        run.checks.record(run.digests["params_sha256"] == run.prepared["written_params_sha256"],
                          "loaded checkpoint differs from the one written")
    if not run.traced:
        phase = workload.measure(run, state, run.seconds, MIN_OPS)
        state = None
        setup_s += _timed_setups(run, workload, repeats)[1]
        run.put("setup_s", statistics.median(setup_s), "s", len(setup_s))
        workload.report(run, phase)
        return
    run.put("setup_s", setup_s[0], "s", 1)
    base = workload.measure(run, state, run.seconds / 2, TRACED_MIN_OPS)
    state = None
    tracer = run.tracer = Tracer()
    tracer.install()
    try:
        state = workload.setup(run)
        first = len(tracer.spans)
        phase = workload.measure(run, state, run.seconds / 2, TRACED_MIN_OPS)
        last = len(tracer.spans)
        workload.traced_extra(run, state)
    finally:
        tracer.uninstall()
    _layer_metrics(run, tracer, state[1], base, phase, first, last)


def _replay_ms(tracer, params):
    """Median backward milliseconds per captured call, by span name."""
    result = {}
    rng = np.random.default_rng(0)
    zero = params.tensors()
    for name in REPLAYED:
        captures = tracer.captures[name]
        if not captures:
            continue
        fn = tracer.originals[name]
        per_call = [
            statistics.median(replay_backward(fn, c, zero, rng=rng)[0] for _ in range(REPLAYS))
            for c in captures
        ]
        result[name] = 1e3 * statistics.median(per_call)
    for t in zero:
        t.grad = None
    return result


def _layer_metrics(run, tracer, params, base, phase, first, last):
    spans = tracer.spans
    setup = tracer.summary(0, first)
    measured = tracer.summary(first, last)
    every = tracer.summary()

    def total(table, name):
        return table.get(name, {}).get("total_ms", 0.0)

    def mean(table, name):
        row = table.get(name)
        return row["total_ms"] / row["calls"] if row else 0.0

    def under(name, parent, lo=first, hi=last):
        """(calls, ms) of spans[lo:hi] named `name` whose parent span is `parent`."""
        calls, ms = 0, 0.0
        for index in range(lo, hi):
            span = spans[index]
            if span[0] == name and span[3] >= 0 and spans[span[3]][0] == parent:
                calls += 1
                ms += 1e3 * (span[2] - span[1])
        return calls, ms

    forwards = measured.get("model.forward", {}).get("calls", 0)
    loads = setup.get("cli.load_dataset_dir", {}).get("calls", 0)

    def per_forward(ms):
        return ms / forwards if forwards else 0.0

    def per_load(ms):
        return ms / loads if loads else 0.0

    put = run.put
    put("data.skl_load_ms", per_load(total(setup, "data.load_skeleton_file")), "ms", loads)
    put("data.ftr_load_ms", per_load(total(setup, "data.load_feature_file")), "ms", loads)
    put("data.preprocess_ms", per_load(total(setup, "data.preprocess_skeleton")
                                       + total(setup, "data.preprocess_features")), "ms", loads)
    put("data.bytes_read", per_load(tracer.bytes_read), "bytes", loads)
    put("cli.load_dataset_dir_ms", mean(setup, "cli.load_dataset_dir"), "ms", loads)

    load_ms = total(every, "model.load_checkpoint")
    _, init_ms = under("model.build_variant", "model.load_checkpoint", 0, len(spans))
    put("model.build_ms", mean(every, "model.build_variant"), "ms")
    put("model.ckpt_load_ms", mean(every, "model.load_checkpoint"), "ms")
    put("model.ckpt_load_init_share", init_ms / load_ms if load_ms else 0.0, "share")
    put("model.ckpt_save_ms", mean(every, "model.save_checkpoint"), "ms")
    put("model.forward_ms", mean(measured, "model.forward"), "ms", forwards)
    put("model.classify_ms", mean(measured, "model.late_fuse_and_classify"), "ms", forwards)

    bwd = _replay_ms(tracer, params)
    for key, name in (("seu", "streams.seu_encode"), ("teu", "streams.teu_encode"),
                      ("stream", "streams.stream_forward")):
        calls, ms = under(name, "model.pose_branch")
        put(f"streams.{key}.fwd_ms", per_forward(ms), "ms", calls)
        put(f"streams.{key}.bwd_ms", bwd.get(name, 0.0) * per_forward(calls), "ms",
            len(tracer.captures[name]))
    for layer, name in (("attention", "attention.multi_head_self_attention"),
                        ("recurrent", "recurrent.bilstm")):
        calls, ms = under(name, "model.pose_branch")
        put(f"{layer}.pose.fwd_ms", per_forward(ms), "ms", calls)
        put(f"{layer}.pose.bwd_ms", bwd.get(name, 0.0) * per_forward(calls), "ms",
            len(tracer.captures[name]))
        calls, ms = under(name, "model.rgb_branch")
        put(f"{layer}.rgb.fwd_ms", per_forward(ms), "ms", calls)

    put("autodiff.backward_ms", mean(measured, "autodiff.backward"), "ms")
    nodes = tracer.graph_nodes
    put("autodiff.graph_nodes_per_sample", statistics.median(nodes) if nodes else 0, "count", len(nodes))
    put("training.optimizer_ms", mean(measured, "training.Adam.step"), "ms")
    put("training.loss_ms", mean(measured, "training.cross_entropy"), "ms")
    put("training.val_pass_s", statistics.mean(phase.val_pass_s) if phase.val_pass_s else 0.0,
        "s", len(phase.val_pass_s))
    put("training.ckpt_write_ms", total(measured, "model.save_checkpoint") / phase.ops, "ms", phase.ops)

    # per layer: self time of its spans per measured operation (per load for data, cli)
    own = tracer.self_times()
    by_layer = {}
    for index in range(first, last):
        layer = spans[index][0].split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + own[index]
    for index in range(first):
        layer = spans[index][0].split(".", 1)[0]
        if layer in ("data", "cli"):
            by_layer[layer] = by_layer.get(layer, 0.0) + own[index]
    for layer in ("data", "cli", "model", "streams", "attention", "recurrent", "autodiff", "training"):
        count = loads if layer in ("data", "cli") else phase.ops
        put(f"{layer}.self_ms", 1e3 * by_layer.get(layer, 0.0) / count if count else 0.0, "ms", count)

    # coverage: training-step windows, plus forwards that are not inside one
    windows = [(begin, end, -1) for begin, end in phase.steps]
    starts = [begin for begin, _ in phase.steps]
    for index in range(first, last):
        name, start, end, parent = spans[index]
        if name != "model.forward" or parent != -1:
            continue
        at = bisect.bisect_right(starts, start) - 1
        if at >= 0 and phase.steps[at][1] >= end:
            continue
        windows.append((start, end, index))
    put("trace.coverage", tracer.coverage(windows, first, last), "share", len(windows))
    untraced = statistics.median(base.latencies)
    put("trace.overhead", statistics.median(phase.latencies) / untraced - 1.0, "share",
        len(phase.latencies))
