"""Loss, optimizers, and the train/evaluate loops.

The learning rate follows inverse-time decay, lr/(1 + decay*step), with
`step` counting completed optimizer steps. L2 regularization enters through
the gradient (g + lambda*p) for both optimizers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError
from .model import forward, save_checkpoint

DEFAULT_LR = {"adam": 1e-3, "sgd": 0.1}
EVAL_CHUNK = 16  # clips per forward pass in evaluate()


def cross_entropy(probs, label):
    """-log(probs[label]) with the probability clamped at 1e-12.

    For a batch, probs [B, C] and labels [B], the mean over the batch.
    """
    if probs.data.ndim not in (1, 2):
        raise ContractError(
            f"cross_entropy expects a probability vector or a batch of them, got shape {probs.data.shape}"
        )
    labels = np.asarray(label)
    if labels.shape != probs.data.shape[:-1]:
        raise ContractError(f"{labels.size} labels for probabilities of shape {probs.data.shape}")
    classes = probs.data.shape[-1]
    for value in labels.reshape(-1):
        if not 0 <= int(value) < classes:
            raise ContractError(f"label {int(value)} outside [0, {classes})")
    log_probs = ad.log(ad.clamp_min(ad.pick(probs, labels), 1e-12))
    return ad.scale(ad.sum_all(log_probs), -1.0 / labels.size)


@dataclass
class TrainConfig:
    optimizer: str = "sgd"
    lr: float | None = None  # resolved per optimizer when left unset
    lr_decay: float = 1e-6
    l2_lambda: float = 1e-5
    batch_size: int = 4
    epochs: int = 30
    seed: int = 0
    val_fraction: float = 0.25

    def __post_init__(self):
        if self.optimizer not in DEFAULT_LR:
            raise ContractError(f"optimizer must be adam or sgd, got {self.optimizer!r}")
        if self.lr is None:
            self.lr = DEFAULT_LR[self.optimizer]
        if self.lr < 0:
            raise ContractError(f"learning rate must be nonnegative, got {self.lr}")
        if self.batch_size < 1:
            raise ContractError(f"batch size must be at least 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ContractError(f"epoch count must be positive, got {self.epochs}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ContractError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")


class Sgd:
    def __init__(self, tensors, lr=0.1, l2_lambda=1e-5, lr_decay=1e-6):
        self.tensors = list(tensors)
        self.lr = lr
        self.l2 = l2_lambda
        self.decay = lr_decay
        self.steps = 0

    def step(self):
        lr_t = self.lr / (1.0 + self.decay * self.steps)
        for t in self.tensors:
            if t.grad is None:
                raise ContractError("sgd step with an unpopulated gradient")
            t.data = t.data - lr_t * (t.grad + self.l2 * t.data)
        self.steps += 1


class Adam:
    def __init__(self, tensors, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, l2_lambda=1e-5, lr_decay=1e-6):
        self.tensors = list(tensors)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.l2 = l2_lambda
        self.decay = lr_decay
        self.steps = 0
        self.m = [np.zeros_like(t.data) for t in self.tensors]
        self.v = [np.zeros_like(t.data) for t in self.tensors]

    def step(self):
        lr_t = self.lr / (1.0 + self.decay * self.steps)
        self.steps += 1
        correct1 = 1.0 - self.beta1 ** self.steps
        correct2 = 1.0 - self.beta2 ** self.steps
        for idx, t in enumerate(self.tensors):
            if t.grad is None:
                raise ContractError("adam step with an unpopulated gradient")
            if self.m[idx].shape != t.data.shape:
                raise ContractError(
                    f"adam state shape {self.m[idx].shape} does not match parameter {t.data.shape}"
                )
            g = t.grad + self.l2 * t.data
            self.m[idx] = self.beta1 * self.m[idx] + (1.0 - self.beta1) * g
            self.v[idx] = self.beta2 * self.v[idx] + (1.0 - self.beta2) * g * g
            m_hat = self.m[idx] / correct1
            v_hat = self.v[idx] / correct2
            t.data = t.data - lr_t * m_hat / (np.sqrt(v_hat) + self.eps)


def make_optimizer(params, config):
    kind = Adam if config.optimizer == "adam" else Sgd
    return kind(params.tensors(), lr=config.lr, l2_lambda=config.l2_lambda, lr_decay=config.lr_decay)


# ---------------------------------------------------------------------------
# loops


def _check_clips(params, dataset, indices):
    """Every clip at `indices` has each input the model's branches need, at its shape."""
    dims = params.dims
    needs = []
    if params.pose is not None:
        needs.append(("pose", "skeleton data", "pose", (dims.frames, dims.joints, dims.coords)))
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


def _batch_forward(params, dataset, indices):
    """Class probabilities [B, C] and labels [B] for the clips at `indices`, stacked once."""
    samples = [dataset[idx] for idx in indices]
    pose = features = None
    if params.pose is not None:
        pose = ad.Tensor(np.stack([s.pose for s in samples]))
    if params.rgb is not None:
        features = ad.Tensor(np.stack([s.features for s in samples]))
    labels = np.array([s.label for s in samples])
    return forward(params, pose=pose, features=features), labels


def _split_metrics(params, dataset, indices, batch_size):
    _check_clips(params, dataset, indices)
    losses = 0.0
    correct = 0
    with ad.no_grad():
        for start in range(0, len(indices), batch_size):
            chunk = indices[start:start + batch_size]
            probs, labels = _batch_forward(params, dataset, chunk)
            losses += float(cross_entropy(probs, labels).data) * len(chunk)
            correct += int((np.argmax(probs.data, axis=-1) == labels).sum())
    n = max(1, len(indices))
    return losses / n, 100.0 * correct / n


def format_record(record):
    return (
        f"epoch={record['epoch']} split={record['split']} "
        f"loss={record['loss']:.6f} accuracy={record['accuracy']:.2f}"
    )


def train(dataset, params, config, ckpt_path=None, log_fn=None):
    """Mini-batch training with a seeded shuffle; returns per-epoch records.

    Writes the final parameters to ckpt_path and, when a validation split
    exists, the best-validation parameters to ckpt_path + '.best'.
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
    records = []
    best = None  # (accuracy, epoch, saved tensor data)
    for epoch in range(1, config.epochs + 1):
        epoch_order = train_idx[rng.permutation(len(train_idx))]
        epoch_loss = 0.0
        epoch_correct = 0
        for start in range(0, len(epoch_order), config.batch_size):
            batch = epoch_order[start:start + config.batch_size]
            params.zero_grads()
            probs, labels = _batch_forward(params, dataset, batch)
            loss = cross_entropy(probs, labels)
            epoch_loss += float(loss.data) * len(batch)
            epoch_correct += int((np.argmax(probs.data, axis=-1) == labels).sum())
            ad.backward(loss)
            optimizer.step()
        record = {
            "epoch": epoch,
            "split": "train",
            "loss": epoch_loss / len(epoch_order),
            "accuracy": 100.0 * epoch_correct / len(epoch_order),
        }
        records.append(record)
        if log_fn:
            log_fn(format_record(record))
        if len(val_idx):
            val_loss, val_acc = _split_metrics(params, dataset, val_idx, config.batch_size)
            record = {"epoch": epoch, "split": "val", "loss": val_loss, "accuracy": val_acc}
            records.append(record)
            if log_fn:
                log_fn(format_record(record))
            if best is None or val_acc > best[0]:
                best = (val_acc, epoch, [t.data.copy() for t in params.tensors()])

    if ckpt_path is not None:
        save_checkpoint(ckpt_path, params)
        if best is not None:
            last = [t.data for t in params.tensors()]
            for t, saved in zip(params.tensors(), best[2]):
                t.data = saved
            save_checkpoint(str(ckpt_path) + ".best", params)
            for t, saved in zip(params.tensors(), last):
                t.data = saved
    return records


def evaluate(dataset, params):
    """Accuracy percentage and a [true, predicted] confusion matrix."""
    if not dataset:
        raise ContractError("evaluation dataset is empty")
    classes = params.dims.num_classes
    _check_clips(params, dataset, range(len(dataset)))
    for item in dataset:
        if not 0 <= item.label < classes:
            raise ContractError(f"label {item.label} outside model's {classes} classes")
    confusion = np.zeros((classes, classes), dtype=np.int64)
    with ad.no_grad():
        for start in range(0, len(dataset), EVAL_CHUNK):
            chunk = range(start, min(start + EVAL_CHUNK, len(dataset)))
            probs, labels = _batch_forward(params, dataset, chunk)
            np.add.at(confusion, (labels, np.argmax(probs.data, axis=-1)), 1)
    accuracy = 100.0 * np.trace(confusion) / len(dataset)
    return accuracy, confusion
