"""Dense-tensor engine with reverse-mode automatic differentiation.

Every value is a `Tensor` wrapping a float64 numpy array. Operations record
the graph on their outputs (parent references plus a backward closure), and
`backward(loss)` replays the recorded operations in reverse topological
order, accumulating gradients additively into every tensor that requires
them. Gradients are never overwritten on fan-out; callers zero them between
optimizer steps.

Gradients are handed off, not copied: the first gradient a tensor receives
becomes its `.grad` as given, so it may be the very array another tensor
holds, or a view of one. That is safe under one rule: no backward closure
writes into an array after passing it to `_accumulate`, and `.grad` is never
updated in place (a later gradient rebinds it, `t.grad = t.grad + g`).
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import ContractError, DimensionError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation fast path)."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


class Tensor:
    """n-dimensional float64 array with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents", "__weakref__")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._backward = None
        self._parents = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _node(data, parents, backward_fn):
    """Wrap an op result, attaching graph metadata when recording is on."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accumulate(t, g):
    """Hand gradient `g` to `t`: stored as given first, added by rebinding after."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.asarray(g, dtype=np.float64)
    else:
        t.grad = t.grad + g


def backward(loss):
    """Populate grads of every requires_grad tensor reachable from `loss`.

    The recorded graph is walked in reverse topological order so each node's
    output gradient is complete before it propagates to its parents. Each
    node's closure and parent links are dropped once it has run, so the graph
    is released as the walk proceeds: intermediates only the graph held are
    freed, while tensors the caller still holds keep their `.grad`.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        node._backward = None
        node._parents = ()


def _check_same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        for axis, (da, db) in enumerate(zip(a.data.shape, b.data.shape)):
            if da != db:
                raise DimensionError(f"{op}: operands differ on axis {axis} ({da} vs {db})")
        raise DimensionError(f"{op}: operand ranks differ ({a.data.shape} vs {b.data.shape})")


# ---------------------------------------------------------------------------
# elementwise


def add(a, b):
    _check_same_shape(a, b, "add")

    def bw(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _node(a.data + b.data, (a, b), bw)


def mul(a, b):
    _check_same_shape(a, b, "mul")

    def bw(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _node(a.data * b.data, (a, b), bw)


def relu(x):
    def bw(g):
        _accumulate(x, g * (x.data > 0))

    return _node(np.maximum(x.data, 0.0), (x,), bw)


def stable_sigmoid(z):
    """Logistic function of an array, as (1 + tanh(z/2)) / 2: no overflow at any z."""
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def sigmoid(x):
    s = stable_sigmoid(x.data)

    def bw(g):
        _accumulate(x, g * s * (1.0 - s))

    return _node(s, (x,), bw)


def tanh(x):
    t = np.tanh(x.data)

    def bw(g):
        _accumulate(x, g * (1.0 - t * t))

    return _node(t, (x,), bw)


def scale(x, s):
    s = float(s)

    def bw(g):
        _accumulate(x, g * s)

    return _node(x.data * s, (x,), bw)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(x, shape):
    shape = tuple(shape)

    def bw(g):
        _accumulate(x, g.reshape(x.data.shape))

    return _node(x.data.reshape(shape), (x,), bw)


def transpose(x, axis1=-2, axis2=-1):
    """Swap two axes, by default the last two (any leading axes are batch)."""
    if x.data.ndim < 2:
        raise DimensionError(f"transpose expects a 2-d tensor or a batch of them, got {x.data.ndim}-d")
    for axis in (axis1, axis2):
        if not -x.data.ndim <= axis < x.data.ndim:
            raise DimensionError(f"transpose: axis {axis} out of range for a {x.data.ndim}-d tensor")

    def bw(g):
        _accumulate(x, np.swapaxes(g, axis1, axis2))

    return _node(np.swapaxes(x.data, axis1, axis2).copy(), (x,), bw)


def reverse_rows(x):
    """Reverse the row axis: -2 of a [..., T, D] tensor, the only axis of a vector."""
    axis = max(x.data.ndim - 2, 0)

    def bw(g):
        _accumulate(x, np.flip(g, axis).copy())

    return _node(np.flip(x.data, axis).copy(), (x,), bw)


def concat(parts, axis=0):
    parts = list(parts)
    if not parts:
        raise ContractError("concat requires at least one part")
    ref = parts[0].data.shape
    if not -len(ref) <= axis < len(ref):
        raise DimensionError(f"concat: axis {axis} out of range for {len(ref)}-d parts")
    axis %= len(ref)
    for p in parts[1:]:
        if p.data.ndim != len(ref):
            raise DimensionError(f"concat: rank mismatch ({p.data.ndim} vs {len(ref)})")
        for ax in range(len(ref)):
            if ax != axis and p.data.shape[ax] != ref[ax]:
                raise DimensionError(
                    f"concat: parts differ on non-concat axis {ax} "
                    f"({p.data.shape[ax]} vs {ref[ax]})"
                )
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(p, g[tuple(idx)])

    return _node(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bw)


# ---------------------------------------------------------------------------
# reductions and indexing


def sum_all(x):
    def bw(g):
        _accumulate(x, np.full_like(x.data, float(g)))

    return _node(np.asarray(x.data.sum()), (x,), bw)


def _class_index(x, index, op):
    """Integer indices of shape x.shape[:-1] into x's last axis, as [..., 1], range-checked."""
    if x.data.ndim < 1:
        raise DimensionError(f"{op} expects a 1-d tensor, got 0-d")
    index = np.asarray(index)
    if index.shape != x.data.shape[:-1]:
        raise DimensionError(
            f"{op}: index shape {index.shape} does not match the {x.data.shape[:-1]} rows of the tensor"
        )
    index = index.astype(np.int64)[..., None]
    width = x.data.shape[-1]
    bad = (index < 0) | (index >= width)
    if bad.any():
        raise ContractError(f"{op} index {int(index[bad][0])} out of range [0, {width})")
    return index


def global_avg_pool(x):
    """Mean over the time axis (-2) of a [..., T, D] tensor."""
    if x.data.ndim < 2:
        raise DimensionError(f"global_avg_pool expects a 2-d tensor or a batch of them, got {x.data.ndim}-d")
    t = x.data.shape[-2]
    if t < 1:
        raise DimensionError(f"global_avg_pool: empty time axis (axis {x.data.ndim - 2})")

    def bw(g):
        _accumulate(x, np.broadcast_to(np.expand_dims(g / t, -2), x.data.shape).copy())

    return _node(x.data.mean(axis=-2), (x,), bw)


# ---------------------------------------------------------------------------
# linear algebra


def _rows(a):
    """[..., D] as a [N, D] matrix of its rows (a view when a is contiguous)."""
    return a.reshape(-1, a.shape[-1])


def matmul(a, b):
    """a [..., M, K] times either a shared matrix b [K, N] or a batch b [..., K, N].

    A shared b is one GEMM over all rows of a, in the forward pass and for
    b's gradient; a batched b pairs each leading index of a with its own.
    """
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError("matmul expects 2-d tensors or batches of them")
    if b.data.ndim > 2 and b.data.shape[:-2] != a.data.shape[:-2]:
        raise DimensionError(
            f"matmul: batch axes differ ({a.data.shape[:-2]} vs {b.data.shape[:-2]})"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            f"matmul: inner dimensions disagree (axis {a.data.ndim - 1} of lhs = {a.data.shape[-1]}, "
            f"axis {b.data.ndim - 2} of rhs = {b.data.shape[-2]})"
        )
    if b.data.ndim > 2:

        def bw(g):
            _accumulate(a, g @ np.swapaxes(b.data, -1, -2))
            _accumulate(b, np.swapaxes(a.data, -1, -2) @ g)

        return _node(a.data @ b.data, (a, b), bw)

    a2 = _rows(a.data)

    def bw(g):
        g2 = _rows(g)
        _accumulate(a, (g2 @ b.data.T).reshape(a.data.shape))
        _accumulate(b, a2.T @ g2)

    out = a2 @ b.data
    return _node(out.reshape(a.data.shape[:-1] + out.shape[-1:]), (a, b), bw)


def dense(x, weight, bias):
    """Affine map of the rows of x [..., D_in]: times weight [D_in, D_out], plus bias [D_out].

    Any leading axes are rows, none included: a 1-d x is one row.
    """
    if x.data.ndim < 1:
        raise DimensionError("dense expects a row or an array of rows, got 0-d")
    axis = x.data.ndim - 1
    if x.data.shape[-1] != weight.data.shape[0]:
        raise DimensionError(
            f"dense: input axis {axis} = {x.data.shape[-1]} but weight axis 0 = {weight.data.shape[0]}"
        )
    if bias.data.shape != (weight.data.shape[1],):
        raise DimensionError(
            f"dense: bias shape {bias.data.shape} does not match output width {weight.data.shape[1]}"
        )
    x2 = _rows(x.data)

    def bw(g):
        g2 = _rows(g)
        _accumulate(weight, x2.T @ g2)
        _accumulate(bias, g2.sum(axis=0))
        if x.requires_grad:
            _accumulate(x, (g2 @ weight.data.T).reshape(x.data.shape))

    out = x2 @ weight.data
    out += bias.data
    return _node(out.reshape(x.data.shape[:-1] + out.shape[-1:]), (x, weight, bias), bw)


# ---------------------------------------------------------------------------
# normalization


def softmax(x):
    """Row-stable softmax over the last axis; any leading axes are rows."""
    if x.data.ndim < 1:
        raise DimensionError("softmax expects a 1-d tensor or a batch of them, got 0-d")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        _accumulate(x, s * (g - dot))

    return _node(s, (x,), bw)


def softmax_cross_entropy(logits, labels):
    """Mean over rows of -log softmax(logits)[label], computed through log-softmax.

    logits [..., C] with one integer label per row (labels of shape
    logits.shape[:-1]). The gradient, (softmax - onehot) / rows, stays
    useful however confidently wrong a row is.
    """
    index = _class_index(logits, labels, "softmax_cross_entropy")
    rows = index.size
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    loss = -np.take_along_axis(log_probs, index, axis=-1).sum() / rows

    def bw(g):
        grad = np.exp(log_probs)
        np.put_along_axis(grad, index, np.take_along_axis(grad, index, axis=-1) - 1.0, axis=-1)
        grad *= float(g) / rows
        _accumulate(logits, grad)

    return _node(np.asarray(loss), (logits,), bw)


def layer_norm(x, gain, shift):
    """Per-row standardization of [..., N, D] (variance + 1e-6) followed by an affine with gain/shift."""
    if x.data.ndim < 2:
        raise DimensionError(f"layer_norm expects a 2-d tensor or a batch of them, got {x.data.ndim}-d")
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or shift.data.shape != (d,):
        raise DimensionError(
            f"layer_norm: gain/shift must have shape ({d},), got {gain.data.shape} and {shift.data.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-6)
    xhat = (x.data - mu) * inv

    def bw(g):
        _accumulate(gain, _rows(g * xhat).sum(axis=0))
        _accumulate(shift, _rows(g).sum(axis=0))
        dxhat = g * gain.data
        _accumulate(
            x,
            inv
            * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            ),
        )

    return _node(xhat * gain.data + shift.data, (x, gain, shift), bw)


# ---------------------------------------------------------------------------
# convolution


def conv1d(x, kernel, bias):
    """'Same'-padded 1-d convolution of x [..., L, C_in] with kernel [K, C_in, C_out] and bias [C_out].

    Leading axes are batch, and the output keeps all L positions: output t
    reads inputs t - K//2 .. t + (K-1)//2, zeros past the sequence edges
    (the extra column sits on the left for even K). The input is never
    padded or widened: K=1 is `dense` with kernel[0] as the weight. For
    K>1 one GEMM per tap gives the tap outputs [K, rows, C_out], which are
    shift-added onto the bias, clipped at the sequence edges (kn2row:
    Anderson et al., "Low-memory GEMM-based convolution algorithms", 2017).
    The backward shifts the output gradient once per tap, on the narrow
    C_out side, for both GEMMs.
    """
    if x.data.ndim < 2:
        raise DimensionError(f"conv1d expects a 2-d input or a batch of them, got {x.data.ndim}-d")
    if kernel.data.ndim != 3:
        raise DimensionError(f"conv1d expects a 3-d kernel, got {kernel.data.ndim}-d")
    k, c_in, c_out = kernel.data.shape
    if x.data.shape[-1] != c_in:
        raise DimensionError(
            f"conv1d: input channels (axis {x.data.ndim - 1}) = {x.data.shape[-1]} but kernel expects {c_in}"
        )
    if bias.data.shape != (c_out,):
        raise DimensionError(
            f"conv1d: bias shape {bias.data.shape} does not match filter count {c_out}"
        )
    if k == 1:
        return dense(x, reshape(kernel, (c_in, c_out)), bias)
    lead = x.data.shape[:-2]
    length = x.data.shape[-2]
    rows = _rows(x.data)

    # Output position t of tap j reads input position t + j - K//2; each
    # tap covers the output span [lo, hi) whose reads fall inside the sequence.
    seqs = math.prod(lead)
    spans = []
    for j in range(k):
        shift = j - k // 2
        lo, hi = max(0, -shift), min(length, length - shift)
        if lo < hi:
            spans.append((j, shift, lo, hi))
    taps = np.matmul(rows, kernel.data).reshape(k, seqs, length, c_out)
    out = np.empty((seqs, length, c_out))
    out[...] = bias.data
    for j, shift, lo, hi in spans:
        out[:, lo:hi] += taps[j, :, lo + shift:hi + shift]

    def bw(g):
        g3 = g.reshape(seqs, length, c_out)
        shifted = np.zeros((k, seqs, length, c_out))
        for j, shift, lo, hi in spans:
            shifted[j, :, lo + shift:hi + shift] = g3[:, lo:hi]
        shifted = shifted.reshape(k, seqs * length, c_out)
        _accumulate(kernel, np.matmul(rows.T, shifted))
        _accumulate(bias, _rows(g).sum(axis=0))
        if x.requires_grad:
            dx = shifted[0] @ kernel.data[0].T
            term = np.empty_like(dx)
            for j in range(1, k):
                dx += np.matmul(shifted[j], kernel.data[j].T, out=term)
            _accumulate(x, dx.reshape(x.data.shape))

    return _node(out.reshape(lead + (length, c_out)), (x, kernel, bias), bw)


# ---------------------------------------------------------------------------
# verification and initialization helpers


def gradient_check(f, x, eps=1e-5):
    """Max relative error between analytic and central-difference gradients.

    `f` must map the tensor `x` to a scalar tensor. The relative error per
    coordinate is |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    saved_flag = x.requires_grad
    x.requires_grad = True
    x.grad = None
    out = f(x)
    if out.data.size != 1:
        raise ContractError(f"gradient_check requires a scalar function, got shape {out.data.shape}")
    backward(out)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    x.grad = None
    x.requires_grad = saved_flag

    numeric = np.zeros_like(x.data)
    flat = x.data.ravel()
    num_flat = numeric.ravel()
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(f(x).data)
            flat[i] = orig - eps
            lo = float(f(x).data)
            flat[i] = orig
            num_flat[i] = (hi - lo) / (2.0 * eps)

    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom)) if flat.size else 0.0


def glorot_uniform(rng, shape, fan_in, fan_out):
    """Uniform init in +/- sqrt(6 / (fan_in + fan_out)), as a trainable tensor."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def zeros(shape):
    """A trainable tensor of zeros."""
    return Tensor(np.zeros(shape), requires_grad=True)


def ones(shape):
    """A trainable tensor of ones."""
    return Tensor(np.ones(shape), requires_grad=True)
