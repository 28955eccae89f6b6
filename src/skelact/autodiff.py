"""Dense-tensor engine with reverse-mode automatic differentiation.

Every value is a `Tensor` wrapping a float64 numpy array and pointing to a
`Node`, its place in the graph: its gradient, its parents' nodes and a
backward closure. A tensor's node is fixed when the tensor is made, and
tensors that require no gradient share one constant node, so a tensor
outside any graph costs one pointer. Operations record the graph on their
outputs' nodes, and `backward(loss)` replays the recorded operations in
reverse topological order, accumulating gradients additively into every
node it reaches. The graph links nodes, not tensors, and each closure
captures only the arrays its backward reads, so an intermediate tensor
whose data no backward reads is freed as soon as the caller drops it.
Gradients are never overwritten on fan-out, and `backward` adds to what a
leaf already holds, so a gradient should live only inside one step: the
caller hands `backward` an `on_leaf` hook that consumes each leaf's
gradient as soon as it is complete (the optimizer's fused step), or reads
the gradients and clears them before the next backward. An op whose
result will not be recorded (`records`: grad mode off, or no parent
needing a gradient) keeps nothing that only a backward reads.

A closure maps its node's gradient to one gradient per parent, in parent
order (None where a parent needs none), and `backward` hands each to its
parent through `_accumulate`. Gradients are handed off, not copied: the
first gradient a node receives becomes its `.grad` as given, so it may be
the very array another node holds, or a view of one. That is safe under one
rule: no closure writes into the gradient it was given, and `.grad` is never
updated in place (a later gradient rebinds it, `t.grad = t.grad + g`).
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import ContractError, DimensionError

_grad_enabled = True

# bytes per cache line: where `aligned_empty` starts an array, and where a
# CKP2 writer starts its payload so that the reader can map it (`data.read_container`)
CACHE_LINE = 64


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


class Node:
    """A tensor's place in the graph: its gradient, its parents' nodes and its backward closure."""

    __slots__ = ("grad", "_parents", "_backward", "__weakref__")

    def __init__(self, parents=(), backward_fn=None):
        self.grad = None
        self._parents = parents
        self._backward = backward_fn


# the one node of every tensor that requires no gradient: it never holds one
_CONSTANT = Node()


class Tensor:
    """n-dimensional float64 array; `grad`, `_parents` and `_backward` are read through its node."""

    __slots__ = ("data", "node", "__weakref__")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.node = Node() if requires_grad else _CONSTANT

    @property
    def requires_grad(self):
        return self.node is not _CONSTANT

    @property
    def grad(self):
        return self.node.grad

    @grad.setter
    def grad(self, value):
        if self.node is _CONSTANT:
            if value is not None:
                raise ContractError("cannot set the gradient of a tensor that does not require one")
            return
        self.node.grad = value

    # kept for bench/spans.count_graph_nodes, which walks the loss's graph through these two
    @property
    def _parents(self):
        return self.node._parents

    @property
    def _backward(self):
        return self.node._backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def aligned_empty(shape):
    """An uninitialised float64 array of `shape` whose first element starts a `CACHE_LINE`-byte line.

    The owning buffer (the result's `.base`) holds 7 more elements, and the
    result is the C-contiguous slice of it that starts on a line. Placement
    matters to BLAS: on a 2-vCPU x86-64 VM at one thread, the LSTM's
    [1, 128] @ [128, 512] step product took about 7 us with its weight on a
    line and 11-12 us with it 16, 32 or 48 bytes past one.
    """
    shape = shape if isinstance(shape, tuple) else (shape,)
    count = math.prod(shape)
    raw = np.empty(count + CACHE_LINE // 8 - 1)
    skip = (-raw.ctypes.data % CACHE_LINE) // 8
    return raw[skip:][:count].reshape(shape)  # two slices: an empty raw[skip:skip] points at raw's start


def records(parents):
    """Whether an op over `parents` will be recorded: grad mode is on and some parent needs a gradient.

    An op whose result will not be recorded need keep nothing that only its backward reads.
    """
    return _grad_enabled and any(p.node is not _CONSTANT for p in parents)


def _node(data, parents, backward_fn):
    """Wrap an op result, giving it a node linked to its parents' nodes when it is recorded.

    `backward_fn(g)` returns one gradient per parent, in order.
    """
    out = Tensor(data)
    if records(parents):
        out.node = Node(tuple(p.node for p in parents), backward_fn)
    return out


def _accumulate(node, g):
    """Hand gradient `g` to `node`: stored as given first, added by rebinding after."""
    if g is None or node is _CONSTANT:
        return
    if node.grad is None:
        node.grad = np.asarray(g, dtype=np.float64)
    else:
        node.grad = node.grad + g


def backward(loss, on_leaf=None):
    """Populate grads of every requires_grad tensor reachable from `loss`.

    The recorded graph is walked in reverse topological order so each node's
    output gradient is complete before it propagates to its parents. Each
    node's closure and parent links are dropped once it has run, so the graph
    is released as the walk proceeds: the nodes of intermediates only the
    graph held are freed, while tensors the caller still holds keep their `.grad`.

    A leaf's gradient is complete when the walk pops it, so `on_leaf(node)`,
    when given, is called there for each leaf that holds a gradient. An
    optimizer can update the leaf's tensor from it and drop it, so that the
    gradients of a step never all exist at once (as LOMO, Lv et al. 2023,
    fuses the update into the backward pass).
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return

    topo = []
    visited = set()
    stack = [(loss.node, False)]
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
        if node.grad is not None:
            if node._backward is not None:
                for parent, g in zip(node._parents, node._backward(node.grad)):
                    _accumulate(parent, g)
            elif on_leaf is not None:
                on_leaf(node)
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
        return g, g

    return _node(a.data + b.data, (a, b), bw)


def mul(a, b):  # kept with sum_all: the readout of verify.probed and the probe loss of bench/spans.replay_backward
    _check_same_shape(a, b, "mul")

    a_data, b_data = a.data, b.data

    def bw(g):
        return g * b_data, g * a_data

    return _node(a_data * b_data, (a, b), bw)


def relu(x):
    out = np.maximum(x.data, 0.0)

    def bw(g):
        return (g * (out > 0),)  # out > 0 exactly where x > 0

    return _node(out, (x,), bw)


def tanh(x):  # kept as verify.SMOOTH_STREAM's activation: kink-free, so finite differences hold
    t = np.tanh(x.data)

    def bw(g):
        return (g * (1.0 - t * t),)

    return _node(t, (x,), bw)


def scale(x, s):
    s = float(s)

    def bw(g):
        return (g * s,)

    return _node(x.data * s, (x,), bw)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(x, shape):
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise DimensionError(f"reshape: {x.data.shape} does not fit {tuple(shape)}") from None

    shape_in = x.data.shape

    def bw(g):
        return (g.reshape(shape_in),)

    return _node(out, (x,), bw)


def transpose(x, axis1=-2, axis2=-1):
    """Swap two axes, by default the last two (any leading axes are batch)."""
    if x.data.ndim < 2:
        raise DimensionError(f"transpose expects a 2-d tensor or a batch of them, got {x.data.ndim}-d")
    for axis in (axis1, axis2):
        if not -x.data.ndim <= axis < x.data.ndim:
            raise DimensionError(f"transpose: axis {axis} out of range for a {x.data.ndim}-d tensor")

    def bw(g):
        return (np.swapaxes(g, axis1, axis2),)

    return _node(np.swapaxes(x.data, axis1, axis2).copy(), (x,), bw)


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
        grads = []
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            grads.append(g[tuple(idx)])
        return grads

    return _node(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bw)


# ---------------------------------------------------------------------------
# reductions and indexing


def sum_all(x):  # kept with mul, for the same two probe readouts
    shape_in = x.data.shape

    def bw(g):
        return (np.full(shape_in, float(g)),)

    return _node(np.asarray(x.data.sum()), (x,), bw)


def global_avg_pool(x):
    """Mean over the time axis (-2) of a [..., T, D] tensor."""
    if x.data.ndim < 2:
        raise DimensionError(f"global_avg_pool expects a 2-d tensor or a batch of them, got {x.data.ndim}-d")
    shape_in = x.data.shape
    t = shape_in[-2]
    if t < 1:
        raise DimensionError(f"global_avg_pool: empty time axis (axis {x.data.ndim - 2})")

    def bw(g):
        return (np.broadcast_to(np.expand_dims(g / t, -2), shape_in).copy(),)

    return _node(x.data.mean(axis=-2), (x,), bw)


# ---------------------------------------------------------------------------
# linear algebra


def _rows(a):
    """[..., D] as a [N, D] matrix of its rows (a view when a is contiguous).

    N is spelled out, since numpy cannot infer a -1 axis beside a D of 0.
    """
    return a.reshape(math.prod(a.shape[:-1]), a.shape[-1])


def matmul(a, b):
    """a [..., M, K] times b [..., K, N], each leading index of a paired with b's (none included).

    A matrix shared by every row of a batch is a weight: `dense` applies it.
    """
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(f"matmul expects 2-d tensors or batches, got {a.data.shape} and {b.data.shape}")
    if b.data.ndim == 2 and a.data.ndim > 2:
        raise DimensionError(f"matmul: rhs {b.data.shape} shared by batched rows {a.data.shape}: use dense")
    if a.data.shape[:-2] != b.data.shape[:-2]:
        raise DimensionError(f"matmul: batch axes differ ({a.data.shape[:-2]} vs {b.data.shape[:-2]})")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(f"matmul: inner dimensions disagree (lhs {a.data.shape}, rhs {b.data.shape})")

    a_data, b_data = a.data, b.data

    def bw(g):
        return g @ np.swapaxes(b_data, -1, -2), np.swapaxes(a_data, -1, -2) @ g

    return _node(a_data @ b_data, (a, b), bw)


def dense(x, weight, bias=None):
    """Rows of x [..., D_in] times a shared weight [D_in, D_out], plus bias [D_out] if given.

    Any leading axes are rows, none included: a 1-d x is one row.
    """
    if x.data.ndim < 1:
        raise DimensionError("dense expects a row or an array of rows, got 0-d")
    if weight.data.ndim != 2:
        raise DimensionError(f"dense expects a 2-d weight [D_in, D_out], got shape {weight.data.shape}")
    axis = x.data.ndim - 1
    if x.data.shape[-1] != weight.data.shape[0]:
        raise DimensionError(
            f"dense: input axis {axis} = {x.data.shape[-1]} but weight axis 0 = {weight.data.shape[0]}"
        )
    if bias is not None and bias.data.shape != (weight.data.shape[1],):
        raise DimensionError(
            f"dense: bias shape {bias.data.shape} does not match output width {weight.data.shape[1]}"
        )
    x2 = _rows(x.data)
    shape_in, w_data, x_needs_grad, no_bias = x.data.shape, weight.data, x.requires_grad, bias is None

    def bw(g):
        g2 = _rows(g)
        g_weight = x2.T @ g2
        g_x = (g2 @ w_data.T).reshape(shape_in) if x_needs_grad else None
        return (g_x, g_weight) if no_bias else (g_x, g_weight, g2.sum(axis=0))

    out = x2 @ w_data
    if bias is not None:
        out += bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)
    return _node(out.reshape(shape_in[:-1] + out.shape[-1:]), parents, bw)


# ---------------------------------------------------------------------------
# normalization


def softmax(x):
    """Row-stable softmax over the last axis; any leading axes are rows."""
    if x.data.ndim < 1:
        raise DimensionError("softmax expects a 1-d tensor or a batch of them, got 0-d")
    if x.data.shape[-1] == 0:
        raise DimensionError(f"softmax: empty axis {x.data.ndim - 1}")
    # one array throughout: the shifted logits, their exponentials, then the quotient
    s = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot),)

    return _node(s, (x,), bw)


def softmax_cross_entropy(logits, labels):
    """Mean over rows of -log softmax(logits)[label], computed through log-softmax.

    logits [..., C] with one integer label per row (labels of shape
    logits.shape[:-1]). The gradient, (softmax - onehot) / rows, stays
    useful however confidently wrong a row is.
    """
    if logits.data.ndim < 1:
        raise DimensionError("softmax_cross_entropy expects a 1-d tensor, got 0-d")
    if np.shape(labels) != logits.data.shape[:-1]:
        raise DimensionError(f"softmax_cross_entropy: index shape {np.shape(labels)} does not match "
                             f"the {logits.data.shape[:-1]} rows of the tensor")
    index = np.asarray(labels).astype(np.int64)[..., None]  # [..., 1], for take_along_axis
    width = logits.data.shape[-1]
    bad = (index < 0) | (index >= width)
    if bad.any():
        raise ContractError(f"softmax_cross_entropy index {int(index[bad][0])} out of range [0, {width})")
    rows = index.size
    if rows == 0:
        raise DimensionError(f"softmax_cross_entropy: no rows (axis {logits.data.shape.index(0)} is empty)")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    loss = -np.take_along_axis(log_probs, index, axis=-1).sum() / rows

    def bw(g):
        grad = np.exp(log_probs)
        np.put_along_axis(grad, index, np.take_along_axis(grad, index, axis=-1) - 1.0, axis=-1)
        grad *= float(g) / rows
        return (grad,)

    return _node(np.asarray(loss), (logits,), bw)


def layer_norm(x, gain, shift):
    """Per-row standardization of [..., N, D] (variance + 1e-6) followed by an affine with gain/shift."""
    if x.data.ndim < 2:
        raise DimensionError(f"layer_norm expects a 2-d tensor or a batch of them, got {x.data.ndim}-d")
    d = x.data.shape[-1]
    if d == 0:
        raise DimensionError(f"layer_norm: empty axis {x.data.ndim - 1}")
    if gain.data.shape != (d,) or shift.data.shape != (d,):
        raise DimensionError(
            f"layer_norm: gain/shift must have shape ({d},), got {gain.data.shape} and {shift.data.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-6)
    xhat = (x.data - mu) * inv
    gain_data = gain.data

    def bw(g):
        g_gain = _rows(g * xhat).sum(axis=0)
        g_shift = _rows(g).sum(axis=0)
        dxhat = g * gain_data
        g_x = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return g_x, g_gain, g_shift

    return _node(xhat * gain_data + shift.data, (x, gain, shift), bw)


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
    if k == 0:
        raise DimensionError("conv1d: kernel has no taps (axis 0 is empty)")
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
    shape_in, k_data, x_needs_grad = x.data.shape, kernel.data, x.requires_grad
    lead = shape_in[:-2]
    length = shape_in[-2]
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
    taps = np.matmul(rows, k_data).reshape(k, seqs, length, c_out)
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
        g_kernel = np.matmul(rows.T, shifted)
        g_bias = _rows(g).sum(axis=0)
        if not x_needs_grad:
            return None, g_kernel, g_bias
        dx = shifted[0] @ k_data[0].T
        term = np.empty_like(dx)
        for j in range(1, k):
            dx += np.matmul(shifted[j], k_data[j].T, out=term)
        return dx.reshape(shape_in), g_kernel, g_bias

    return _node(out.reshape(lead + (length, c_out)), (x, kernel, bias), bw)


# ---------------------------------------------------------------------------
# verification and initialization helpers


def gradient_check(f, x):
    """Max relative error between analytic and central-difference gradients.

    `f` must map the tensor `x` to a scalar tensor. The relative error per
    coordinate is |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    When `x` requires no gradient, the analytic pass differentiates a
    trainable tensor that shares `x`'s array, so `f` must compute from its
    argument; `x` itself is left as it was.
    """
    eps = 1e-5  # central-difference step
    leaf = x if x.requires_grad else Tensor(x.data, requires_grad=True)
    leaf.grad = None
    out = f(leaf)
    if out.data.size != 1:
        raise ContractError(f"gradient_check requires a scalar function, got shape {out.data.shape}")
    backward(out)
    analytic = np.zeros_like(x.data) if leaf.grad is None else leaf.grad.copy()
    leaf.grad = None

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


# while `parameter_vector` is open: [the vector, the offset of its next free element]
_vector = None


@contextlib.contextmanager
def parameter_vector(vector):
    """Inside the block, every `parameter` is the next slice of the 1-D array `vector`.

    The tensors lie back to back, unpadded, as in a CKP2 payload, and the block must use
    the whole vector. A tensor starts a `CACHE_LINE`-byte line if the vector does and
    the tensors before it fill whole lines.
    """
    global _vector
    saved = _vector
    _vector = [vector, 0]
    try:
        yield
        if _vector[1] != vector.size:
            raise ContractError(f"the build used {_vector[1]} of its vector's {vector.size} elements")
    finally:
        _vector = saved


def parameter(shape):
    """A trainable tensor of `shape`, unwritten: the next slice of the open `parameter_vector`, else its own array."""
    if _vector is None:
        return Tensor(np.empty(shape), requires_grad=True)
    vector, start = _vector
    end = start + math.prod(shape if isinstance(shape, tuple) else (shape,))
    if end > vector.size:
        raise ContractError(f"the build runs past its vector's {vector.size} elements, to {end}")
    _vector[1] = end
    return Tensor(vector[start:end].reshape(shape), requires_grad=True)


def glorot_fill(rng, out):
    """Fill `out` [..., D_in, D_out], C-contiguous, in place with uniform draws in +/- sqrt(6 / (fan_in + fan_out)):
    fan_in = prod(shape[:-1]) and fan_out = prod(shape[:-2]) * D_out, so K*C_in and K*C_out for
    a conv kernel [K, C_in, C_out] (Glorot & Bengio 2010).

    The draws and bits are those of `rng.uniform(-limit, limit, out.shape)`,
    which computes -limit + (limit - -limit) * r from the same doubles r.
    """
    shape = out.shape
    fan_in, fan_out = math.prod(shape[:-1]), math.prod(shape[:-2]) * shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    rng.random(out=out)
    out *= limit - -limit
    out += -limit


def glorot_uniform(rng, shape):
    """A trainable `parameter` of `shape`, filled by `glorot_fill`.

    With rng None nothing is drawn or written, as a structure pass or a checkpoint load inside its
    payload needs; `constant` and the modules' init functions treat rng None the same way.
    """
    t = parameter(shape)
    if rng is not None:
        glorot_fill(rng, t.data)
    return t


def constant(rng, shape, value):
    """A trainable `parameter` filled with `value`; unwritten when rng is None, as in `glorot_uniform`."""
    t = parameter(shape)
    if rng is not None:
        t.data.fill(value)
    return t
