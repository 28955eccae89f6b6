"""Loss, optimizers, and the train/evaluate loops.

The learning rate follows inverse-time decay, lr/(1 + decay*step), with
`step` counting completed optimizer steps. L2 regularization enters through
the gradient (g + lambda*p) for both optimizers; `Sgd` and `Adam` share one
constructor and one per-tensor walk over CHUNK-sized blocks and differ only in
the per-block update. Each tensor is updated in place (a model's tensors are
slices of its one vector), Adam's moments in a vector each; gradients stay per
tensor, walked where backward left it. A gradient lives only inside a step: one
routine updates a tensor from its gradient and drops the gradient, whether
`train` fuses the step into backward (a tensor updated as soon as its
gradient is complete, as LOMO, Lv et al. 2023, does) or a whole `step()`
runs after backward; both give the same bits. `OPTIMIZERS` maps a config's
optimizer name to its class.
The validation pass of `train` and `evaluate` are one no-grad scorer,
`_score`, which runs EVAL_CHUNK clips per forward over clips its callers checked.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import autodiff as ad
from .data import COORDS
from .errors import ContractError, require_finite, require_integer
from .model import forward, save_checkpoint

EVAL_CHUNK = 16  # clips per no-grad forward pass when scoring validation or evaluation clips
ADAM_BETAS = (0.9, 0.999)  # moment decay rates (Kingma & Ba 2015 defaults)
ADAM_EPS = 1e-8


def cross_entropy(logits, label):
    """Softmax cross-entropy of class logits [C] against a label, through log-softmax.

    For a batch, logits [B, C] and labels [B], the mean over the batch.
    """
    if logits.data.ndim not in (1, 2):
        raise ContractError(
            f"cross_entropy expects a logit vector or a batch of them, got shape {logits.data.shape}"
        )
    return ad.softmax_cross_entropy(logits, label)


@dataclass
class TrainConfig:
    optimizer: str = "sgd"
    lr: float | None = None  # the optimizer's default_lr when left unset
    lr_decay: float = 1e-6
    l2_lambda: float = 1e-5
    batch_size: int = 4
    epochs: int = 30
    seed: int = 0
    val_fraction: float = 0.25

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ContractError(f"TrainConfig.optimizer must be adam or sgd, got {self.optimizer!r}")
        if self.lr is None:
            self.lr = OPTIMIZERS[self.optimizer].default_lr
        for name in ("lr", "lr_decay", "l2_lambda", "val_fraction"):
            require_finite("TrainConfig", name, getattr(self, name), low=0)
        for name, low in (("batch_size", 1), ("epochs", 1), ("seed", 0)):
            require_integer("TrainConfig", name, getattr(self, name), low)
        if not self.val_fraction < 1.0:
            raise ContractError(f"TrainConfig.val_fraction must lie in [0, 1), got {self.val_fraction!r}")


# Elements per block of an optimizer step: each of the ~16 elementwise passes
# over a block then runs in L2 cache, instead of streaming whole tensors.
CHUNK = 32768


class _Optimizer:
    """L2 and inverse-time lr decay around a per-block update. A tensor's update
    walks its gradient in CHUNK-sized blocks, writing the tensor's own data and
    its slices of the state vectors named in `state` (zeros at construction) in
    place. The tensors must not share memory; one that is not C-contiguous and
    writable is rebound, at construction, to a copy that is. Every state vector
    and scratch block starts a 64-byte cache line (`ad.aligned_empty`).

    The optimizer is always inside a step, whose `lr_t` the constructor or the
    step before fixes. `on_leaf` updates one tensor from its gradient and drops
    the gradient: `backward(loss, on_leaf=optimizer.on_leaf)` hands it each
    tensor as soon as its gradient is complete. `step()` ends the step, first
    handing it any gradient still held, so a plain `backward` then `step()`
    gives the same bits; no gradient outlives its step."""

    default_lr = None
    state = ()

    def __init__(self, tensors, lr=None, l2_lambda=TrainConfig.l2_lambda, lr_decay=TrainConfig.lr_decay):
        self.tensors = list(tensors)
        self.lr = self.default_lr if lr is None else lr
        self.l2 = l2_lambda
        self.decay = lr_decay
        self.steps = 0
        for t in self.tensors:
            t.data = np.require(t.data, requirements="CW")
        for name in self.state:
            vector = ad.aligned_empty(sum(t.size for t in self.tensors))
            vector.fill(0.0)
            setattr(self, name, vector)
        self._scratch = (ad.aligned_empty(CHUNK), ad.aligned_empty(CHUNK))
        offsets = accumulate((t.size for t in self.tensors[:-1]), initial=0)
        self._at = {t.node: (t, offset) for t, offset in zip(self.tensors, offsets)}
        self._next_step()

    def _next_step(self):
        """Fix the coming step's learning rate; it has every tensor yet to update."""
        self._lr_t = self.lr / (1.0 + self.decay * self.steps)
        self._pending = len(self.tensors)

    def on_leaf(self, node):
        """Update the tensor of `node` from its complete gradient, then drop the
        gradient: `backward`'s leaf hook, and `step()`'s."""
        at = self._at.get(node)
        if at is not None:
            self._apply(*at, node.grad)
            node.grad = None
            self._pending -= 1

    def step(self):
        """End the step: hand `on_leaf` every gradient still held (none after a
        fused backward), check that every tensor was updated, then count the
        step and fix the next one's learning rate, even when the check raises."""
        try:
            for t in self.tensors:
                if t.grad is not None:
                    self.on_leaf(t.node)
            if self._pending:
                raise ContractError(f"{type(self).__name__.lower()} step with an unpopulated gradient")
        finally:
            self.steps += 1
            self._next_step()

    def _apply(self, t, offset, grad):
        """Update `t.data` in place, and its state from `offset` on, from `grad`."""
        p, grad = t.data.reshape(-1), grad.reshape(-1)
        state = [getattr(self, name)[offset:offset + p.size] for name in self.state]
        for start in range(0, p.size, CHUNK):
            p_block, *rest = (vector[start:start + CHUNK] for vector in (p, grad, *state))
            self._update(self._lr_t, p_block, *rest, *(b[:p_block.size] for b in self._scratch))


class Sgd(_Optimizer):
    """Plain SGD with L2 in the gradient."""

    default_lr = 0.1

    def _update(self, lr_t, p, g, d, _):
        # p - lr_t * (g + l2*p), op for op
        np.multiply(p, self.l2, out=d)
        d += g
        d *= lr_t
        p -= d


class Adam(_Optimizer):
    """Adam (Kingma & Ba 2015) with moments `m` and `v`, L2 in the gradient."""

    default_lr = 1e-3
    state = ("m", "v")

    def _update(self, lr_t, p, g_raw, m, v, g, d):
        b1, b2 = ADAM_BETAS
        # the allocating form's operations, in its order:
        # g = grad + l2*p; m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
        # p -= lr_t*(m/c1) / (sqrt(v/c2) + eps), c = 1 - b**(steps + 1), this step's number
        np.multiply(p, self.l2, out=g)
        g += g_raw
        m *= b1
        np.multiply(g, 1.0 - b1, out=d)
        m += d
        v *= b2
        np.multiply(g, 1.0 - b2, out=d)
        d *= g
        v += d
        np.divide(m, 1.0 - b1 ** (self.steps + 1), out=g)
        g *= lr_t
        np.divide(v, 1.0 - b2 ** (self.steps + 1), out=d)
        np.sqrt(d, out=d)
        d += ADAM_EPS
        g /= d
        p -= g


OPTIMIZERS = {"adam": Adam, "sgd": Sgd}


def make_optimizer(params, config):
    return OPTIMIZERS[config.optimizer](params.tensors(), lr=config.lr, l2_lambda=config.l2_lambda,
                                        lr_decay=config.lr_decay)


# ---------------------------------------------------------------------------
# loops


def _check_clips(params, dataset, indices):
    """Each clip at `indices` has the inputs the model's branches need, at their shapes, and a valid label."""
    dims = params.dims
    needs = []
    if params.pose is not None:
        needs.append(("pose", "skeleton data", "pose", (dims.frames, dims.joints, COORDS)))
    if params.rgb is not None:
        needs.append(("features", "RGB features", "RGB", (dims.frames, dims.rgb_width)))
    for idx in indices:
        for field, what, branch, expected in needs:
            value = getattr(dataset[idx], field)
            if value is None:
                raise ContractError(f"dataset sample {idx} lacks {what} required by the {branch} branch")
            if value.shape != expected:
                raise ContractError(
                    f"dataset sample {idx}: {field} shape {value.shape} does not match model dims {expected}"
                )
        if not 0 <= dataset[idx].label < dims.num_classes:
            raise ContractError(f"label {dataset[idx].label} outside model's {dims.num_classes} classes")


def _batch_forward(params, dataset, indices):
    """Class logits [B, C] and labels [B] for the clips at `indices`, stacked once."""
    samples = [dataset[idx] for idx in indices]
    pose = features = None
    if params.pose is not None:
        pose = ad.Tensor(np.stack([s.pose for s in samples]))
    if params.rgb is not None:
        features = ad.Tensor(np.stack([s.features for s in samples]))
    labels = np.array([s.label for s in samples])
    return forward(params, pose=pose, features=features, logits=True), labels


def _score(params, dataset, indices):
    """Summed loss and [true, predicted] confusion matrix of the clips at `indices`, scored
    under no_grad EVAL_CHUNK clips per forward. The callers have checked the clips."""
    classes = params.dims.num_classes
    loss_sum = 0.0
    confusion = np.zeros((classes, classes), dtype=np.int64)
    with ad.no_grad():
        for start in range(0, len(indices), EVAL_CHUNK):
            chunk = indices[start:start + EVAL_CHUNK]
            logits, labels = _batch_forward(params, dataset, chunk)
            loss_sum += float(cross_entropy(logits, labels).data) * len(chunk)
            np.add.at(confusion, (labels, np.argmax(logits.data, axis=-1)), 1)
    return loss_sum, confusion


def format_record(record):
    return (
        f"epoch={record['epoch']} split={record['split']} "
        f"loss={record['loss']:.6f} accuracy={record['accuracy']:.2f}"
    )


def _non_finite_message(params, loss_value, epoch, step, global_step):
    """Where a non-finite training loss arose: the epoch, the step and the first
    parameter group, in `named_parameters()` order, whose data is non-finite;
    else, when the forward pass overflowed, the group largest in magnitude.
    Only weights are read: no gradient outlives its step, so none exists here."""
    named = list(params.named_parameters())
    for name, t in named:
        if not np.isfinite(t.data).all():
            where = f"first non-finite parameter group: {name} (data)"
            break
    else:
        name, t = max(named, key=lambda item: np.abs(item[1].data).max())
        where = (f"every parameter group is finite, the largest is {name} "
                 f"(max |data| {np.abs(t.data).max():.3g})")
    return (f"non-finite training loss {loss_value} at epoch {epoch}, step {step} "
            f"(global step {global_step}); {where}")


def train(dataset, params, config, ckpt_path=None, log_fn=None):
    """Mini-batch training with a seeded shuffle; returns per-epoch records.

    Writes the final parameters to ckpt_path and, when a validation split
    exists, the best-validation parameters to ckpt_path + '.best' (else it
    removes an earlier run's '.best'). Each time validation accuracy improves,
    the weights go to disk as ckpt_path + '.best.partial', which the end
    renames onto '.best'; no copy is held in memory. A batch loss that is not
    finite raises ContractError; a run that raises writes no final checkpoint
    and removes the partial file. A gradient the caller left on a parameter is
    cleared once, before the first step, since backward would add to it. Each
    step updates every parameter inside its backward, dropping each gradient
    once applied, then ends with `optimizer.step()`; so no gradient outlives
    its step: validation runs, and train() returns, with every `.grad` None.
    """
    if not dataset:
        raise ContractError("training dataset is empty")
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(dataset))
    val_count = int(round(len(dataset) * config.val_fraction))
    val_count = min(val_count, len(dataset) - 1)
    val_idx = order[:val_count]
    train_idx = order[val_count:]

    _check_clips(params, dataset, range(len(dataset)))
    optimizer = make_optimizer(params, config)
    params.zero_grads()
    records = []
    best_acc = -1.0
    partial = None if ckpt_path is None else f"{ckpt_path}.best.partial"

    def emit(epoch, split, loss, accuracy):
        records.append({"epoch": epoch, "split": split, "loss": loss, "accuracy": accuracy})
        if log_fn:
            log_fn(format_record(records[-1]))

    try:
        for epoch in range(1, config.epochs + 1):
            epoch_order = train_idx[rng.permutation(len(train_idx))]
            epoch_loss = 0.0
            epoch_correct = 0
            for step, start in enumerate(range(0, len(epoch_order), config.batch_size), start=1):
                batch = epoch_order[start:start + config.batch_size]
                logits, labels = _batch_forward(params, dataset, batch)
                loss = cross_entropy(logits, labels)
                loss_value = float(loss.data)
                if not math.isfinite(loss_value):
                    raise ContractError(
                        _non_finite_message(params, loss_value, epoch, step, optimizer.steps + 1)
                    )
                epoch_loss += loss_value * len(batch)
                epoch_correct += int((np.argmax(logits.data, axis=-1) == labels).sum())
                ad.backward(loss, on_leaf=optimizer.on_leaf)
                optimizer.step()
            emit(epoch, "train", epoch_loss / len(epoch_order), 100.0 * epoch_correct / len(epoch_order))
            if len(val_idx):
                loss_sum, confusion = _score(params, dataset, val_idx)
                val_acc = 100.0 * int(np.trace(confusion)) / len(val_idx)
                emit(epoch, "val", loss_sum / len(val_idx), val_acc)
                if val_acc > best_acc:
                    best_acc = val_acc
                    if partial is not None:
                        save_checkpoint(partial, params)

        if ckpt_path is not None:
            save_checkpoint(ckpt_path, params)
            if len(val_idx):
                os.replace(partial, f"{ckpt_path}.best")
            else:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(f"{ckpt_path}.best")  # an earlier run's
    finally:
        if partial is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(partial)  # left only by a run that raised
    return records


def evaluate(dataset, params):
    """Accuracy percentage and a [true, predicted] confusion matrix."""
    if not dataset:
        raise ContractError("evaluation dataset is empty")
    _check_clips(params, dataset, range(len(dataset)))
    _, confusion = _score(params, dataset, range(len(dataset)))
    return 100.0 * np.trace(confusion) / len(dataset), confusion
