"""Dense-tensor engine with reverse-mode automatic differentiation.

Every value is a `Tensor` wrapping a float64 numpy array. Operations record
the graph on their outputs (parent references plus a backward closure), and
`backward(loss)` replays the recorded operations in reverse topological
order, accumulating gradients additively into every tensor that requires
them. Gradients are never overwritten on fan-out; callers zero them between
optimizer steps.
"""

from __future__ import annotations

import contextlib

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

    def backward(self):
        backward(self)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(other, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

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
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g, dtype=np.float64)
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


def log(x):
    def bw(g):
        _accumulate(x, g / x.data)

    return _node(np.log(x.data), (x,), bw)


def clamp_min(x, floor):
    floor = float(floor)
    mask = x.data > floor

    def bw(g):
        _accumulate(x, g * mask)

    return _node(np.maximum(x.data, floor), (x,), bw)


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


def slice_rows(x, start, stop):
    """Rows [start, stop) along axis 0."""

    def bw(g):
        full = np.zeros_like(x.data)
        full[start:stop] = g
        _accumulate(x, full)

    return _node(x.data[start:stop].copy(), (x,), bw)


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


def pick(x, index):
    """x[index] of a vector, or one entry per row of x [..., C] given indices of shape x.shape[:-1]."""
    if x.data.ndim < 1:
        raise DimensionError("pick expects a 1-d tensor, got 0-d")
    index = np.asarray(index)
    if index.shape != x.data.shape[:-1]:
        raise DimensionError(
            f"pick: index shape {index.shape} does not match the {x.data.shape[:-1]} rows of the tensor"
        )
    index = index.astype(np.int64)[..., None]
    width = x.data.shape[-1]
    bad = (index < 0) | (index >= width)
    if bad.any():
        raise ContractError(f"pick index {int(index[bad][0])} out of range [0, {width})")

    def bw(g):
        full = np.zeros_like(x.data)
        np.put_along_axis(full, index, np.asarray(g)[..., None], axis=-1)
        _accumulate(x, full)

    return _node(np.take_along_axis(x.data, index, axis=-1)[..., 0], (x,), bw)


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
    """Affine map: x [..., N, D_in] times weight [D_in, D_out] plus bias [D_out]."""
    if x.data.ndim < 2:
        raise DimensionError(f"dense expects a 2-d input or a batch of them, got {x.data.ndim}-d")
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
        _accumulate(x, (g2 @ weight.data.T).reshape(x.data.shape))
        _accumulate(weight, x2.T @ g2)
        _accumulate(bias, g2.sum(axis=0))

    out = x2 @ weight.data + bias.data
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


def layer_norm(x, gain, shift, epsilon=1e-6):
    """Per-row standardization of [..., N, D] followed by an affine with gain/shift."""
    if x.data.ndim < 2:
        raise DimensionError(f"layer_norm expects a 2-d tensor or a batch of them, got {x.data.ndim}-d")
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or shift.data.shape != (d,):
        raise DimensionError(
            f"layer_norm: gain/shift must have shape ({d},), got {gain.data.shape} and {shift.data.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + epsilon)
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


def _conv_padding(kernel_width, padding):
    if padding == "same":
        # zero padding, symmetric with the extra column on the left for even widths
        return kernel_width // 2, (kernel_width - 1) // 2
    if padding == "valid":
        return 0, 0
    raise ContractError(f"conv1d padding must be 'same' or 'valid', got {padding!r}")


def conv1d(x, kernel, bias, padding="same"):
    """1-d convolution of x [..., L, C_in] with kernel [K, C_in, C_out] and bias [C_out].

    Leading axes are batch. 'same' keeps L positions via zero padding;
    'valid' yields L - K + 1. All sequences' windows (im2col) go through one
    GEMM with the kernel, in the forward pass and for the kernel's gradient.
    """
    if x.data.ndim < 2:
        raise DimensionError(f"conv1d expects a 2-d input or a batch of them, got {x.data.ndim}-d")
    if kernel.data.ndim != 3:
        raise DimensionError(f"conv1d expects a 3-d kernel, got {kernel.data.ndim}-d")
    k, c_in, c_out = kernel.data.shape
    length_axis = x.data.ndim - 2
    if x.data.shape[-1] != c_in:
        raise DimensionError(
            f"conv1d: input channels (axis {length_axis + 1}) = {x.data.shape[-1]} but kernel expects {c_in}"
        )
    if bias.data.shape != (c_out,):
        raise DimensionError(
            f"conv1d: bias shape {bias.data.shape} does not match filter count {c_out}"
        )
    lead = x.data.shape[:-2]
    length = x.data.shape[-2]
    pad_left, pad_right = _conv_padding(k, padding)
    padded_len = length + pad_left + pad_right
    out_len = padded_len - k + 1
    if out_len < 1:
        raise DimensionError(
            f"conv1d: kernel width {k} exceeds padded length {padded_len} (axis {length_axis})"
        )

    seqs = x.data.reshape(-1, length, c_in)
    if pad_left or pad_right:
        padded = np.zeros((seqs.shape[0], padded_len, c_in))
        padded[:, pad_left:pad_left + length] = seqs
    else:
        padded = seqs
    cols = np.empty((seqs.shape[0], out_len, k * c_in))
    for j in range(k):
        cols[:, :, j * c_in:(j + 1) * c_in] = padded[:, j:j + out_len]
    cols = _rows(cols)
    w2d = kernel.data.reshape(k * c_in, c_out)
    out = (cols @ w2d + bias.data).reshape(lead + (out_len, c_out))

    def bw(g):
        g2 = _rows(g)
        _accumulate(kernel, (cols.T @ g2).reshape(kernel.data.shape))
        _accumulate(bias, g2.sum(axis=0))
        if x.requires_grad:
            dcols = (g2 @ w2d.T).reshape(-1, out_len, k * c_in)
            dpadded = np.zeros_like(padded)
            for j in range(k):
                dpadded[:, j:j + out_len] += dcols[:, :, j * c_in:(j + 1) * c_in]
            _accumulate(x, dpadded[:, pad_left:pad_left + length].reshape(x.data.shape))

    return _node(out, (x, kernel, bias), bw)


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


def zeros(shape, requires_grad=True):
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape, requires_grad=True):
    return Tensor(np.ones(shape), requires_grad=requires_grad)
