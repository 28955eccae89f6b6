"""Spans around the public entry points of skelact's layers, for traced runs.

A `Tracer` replaces module attributes with timing wrappers and puts the
originals back on `uninstall`, so an untraced run executes the unmodified
call path. Each wrapper appends one span `[name, start, end, parent]` to an
in-memory list; the caller writes the list out when the run ends.

Wrapped, by span name:
  streams.* / attention.* / recurrent.*   the functions model.py imports
  model.pose_branch, model.rgb_branch, model.late_fuse_and_classify,
  model.forward, model.build_variant, model.load_checkpoint,
  model.save_checkpoint
  autodiff.backward
  training.cross_entropy, training.Adam.step
  cli.load_dataset_dir
  data.load_* / data.preprocess_*          the loaders and preprocessors cli imports

Every binding of a wrapped function in the skelact modules is replaced
(`training.forward` is `model.forward`), so a call is spanned whichever
module it goes through.

The traced run also keeps the real inputs of the first few calls of the
pose-branch encoders, streams, attention and BiLSTM, and `replay_backward`
times a probe-loss backward through each of them in isolation.
"""

from __future__ import annotations

import inspect
import os
import time
from dataclasses import dataclass

import numpy as np

import skelact
from skelact import attention, autodiff, cli, data, model, recurrent, streams, training

_MODULES = (skelact, attention, autodiff, cli, data, model, recurrent, streams, training)
_LAYER_MODULES = {m.__name__: m.__name__.rsplit(".", 1)[1] for m in (streams, attention, recurrent)}

# functions whose inputs are kept for the isolated backward replay
REPLAYED = (
    "streams.seu_encode",
    "streams.teu_encode",
    "streams.stream_forward",
    "attention.multi_head_self_attention",
    "recurrent.bilstm",
)
CAPTURES_PER_NAME = 4
GRAPHS_COUNTED = 4


@dataclass
class Capture:
    """One call's arguments and result; args[0] is the input tensor."""
    args: tuple
    out: object


def count_graph_nodes(loss):
    """Recorded operations reachable from `loss` (leaves are not counted)."""
    seen = set()
    stack = [loss]
    ops = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            ops += 1
        stack.extend(node._parents)
    return ops


def _span_targets():
    """Original function -> span name, for every function the tracer wraps."""
    targets = {}
    for name, value in vars(model).items():
        if inspect.isfunction(value) and value.__module__ in _LAYER_MODULES:
            targets[value] = f"{_LAYER_MODULES[value.__module__]}.{name}"
    for fn in (model.pose_branch, model.rgb_branch, model.late_fuse_and_classify,
               model.forward, model.build_variant, model.load_checkpoint, model.save_checkpoint):
        targets[fn] = f"model.{fn.__name__}"
    targets[autodiff.backward] = "autodiff.backward"
    targets[training.cross_entropy] = "training.cross_entropy"
    targets[cli.load_dataset_dir] = "cli.load_dataset_dir"
    for name, value in vars(cli).items():
        if (inspect.isfunction(value) and value.__module__ == data.__name__
                and name.startswith(("load_", "preprocess_"))):
            targets[value] = f"data.{name}"
    return targets


class Tracer:
    """Installs span wrappers, records spans and replay inputs, and summarizes them."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.captures = {name: [] for name in REPLAYED}
        self.graph_nodes = []
        self.bytes_read = 0
        self.originals = {}  # span name -> unwrapped function
        self._patched = []   # (owner, attribute, original value)

    # -- installation -------------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for fn, name in _span_targets().items():
            self.originals[name] = fn
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        step = training.Adam.step
        self.originals["training.Adam.step"] = step
        self._patched.append((training.Adam, "step", step))
        training.Adam.step = self._wrap("training.Adam.step", step)

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def _parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def _before(self, name, args):
        if name.startswith("data.load_"):
            self.bytes_read += os.path.getsize(args[0])
        elif name == "autodiff.backward" and len(self.graph_nodes) < GRAPHS_COUNTED:
            self.graph_nodes.append(count_graph_nodes(args[0]))

    def _after(self, name, args, result):
        kept = self.captures.get(name)
        if (kept is not None and len(kept) < CAPTURES_PER_NAME
                and self._parent_name() == "model.pose_branch"):
            kept.append(Capture(args, result))

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer._before(name, args)
            index = len(tracer.spans)
            record = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.spans.append(record)
            tracer.stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer.stack.pop()
            tracer._after(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self, first=0, last=None):
        """Per span name over spans[first:last]: calls, total and self milliseconds."""
        own = self.self_times()
        table = {}
        for index in range(first, len(self.spans) if last is None else last):
            name, start, end, _ = self.spans[index]
            row = table.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += 1e3 * (end - start)
            row["self_ms"] += 1e3 * own[index]
        return table

    def coverage(self, windows, first=0, last=None):
        """Share of the windows' time covered by the spans directly inside them.

        A window is (start, end, parent): parent -1 counts the top-level spans
        lying in [start, end]; a span index counts that span's children.
        """
        last = len(self.spans) if last is None else last
        children = {}
        for index in range(first, last):
            name, start, end, parent = self.spans[index]
            children.setdefault(parent, []).append((start, end))
        total = covered = 0.0
        for w_start, w_end, parent in windows:
            total += w_end - w_start
            for start, end in children.get(parent, ()):
                if start >= w_start and end <= w_end:
                    covered += end - start
        return covered / total if total else 0.0


def replay_backward(fn, capture, zero, upstream=None, rng=None):
    """Time one backward through `fn` alone, from a detached copy of its input.

    The probe loss is sum(out * upstream); `upstream` defaults to the
    gradient the captured output received in its own graph, else to seeded
    normal values. `zero` lists the parameter tensors whose gradients are
    cleared first. Returns (seconds, replayed input tensor).
    """
    source = capture.args[0]
    x = autodiff.Tensor(source.data.copy(), requires_grad=source.requires_grad)
    for t in zero:
        t.grad = None
    out = fn(x, *capture.args[1:])
    if upstream is None:
        upstream = getattr(capture.out, "grad", None)
    if upstream is None:
        upstream = (rng or np.random.default_rng(0)).standard_normal(out.data.shape)
    probe = autodiff.sum_all(autodiff.mul(out, autodiff.Tensor(upstream)))
    start = time.perf_counter()
    autodiff.backward(probe)
    return time.perf_counter() - start, x
