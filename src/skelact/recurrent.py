"""LSTM and bidirectional LSTM over [T, D] sequences, or batches [..., T, D] of them.

lstm_forward is a single fused graph node: the whole recurrence runs in
numpy and the backward closure replays it in reverse (backpropagation
through time), from its own time-major copy of the input and the per-step
buffers rather than from the input tensor. This keeps the graph small
enough that training stays fast without changing any semantics. Both
loops write every step into arrays allocated once per call, each starting a
cache line, and walk precomputed per-step views of them, so a step costs a
few ufunc calls and one matmul. A call that will not be recorded (under
`no_grad`, or with no operand needing a gradient) keeps no per-step buffer
its backward alone would read: its steps reuse one row of gates and of
tanh(cell) and two rows of cells, with the same operations and bits.
`bilstm`'s reversed direction runs inside the node too (`reverse=True`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import cycle, islice

import numpy as np

from . import autodiff as ad
from .autodiff import _node
from .errors import DimensionError


@dataclass
class LstmParams:
    w_x: "ad.Tensor"   # [D, 4H], gate blocks ordered input, forget, cell, output
    w_h: "ad.Tensor"   # [H, 4H]
    bias: "ad.Tensor"  # [4H]

    @property
    def hidden(self):
        return self.w_h.data.shape[0]

    def named(self):
        yield "wx", self.w_x
        yield "wh", self.w_h
        yield "bias", self.bias


def init_lstm_params(rng, input_dim, hidden):
    w_x = ad.glorot_uniform(rng, (input_dim, 4 * hidden))
    w_h = ad.glorot_uniform(rng, (hidden, 4 * hidden))
    bias = ad.constant(rng, 4 * hidden, 0.0)
    if rng is not None:
        bias.data[hidden:2 * hidden] = 1.0  # forget gate starts open
    return LstmParams(w_x, w_h, bias)


def lstm_forward(seq, params, reverse=False):
    """Run the LSTM over all T steps from zero initial state: [..., T, D] -> [..., T, H].

    Leading axes are batch: every step advances all sequences at once as the
    rows of one [B, H] state. With `reverse` the steps run last to first; output
    row t is still the state after reading input row t.
    """
    if seq.data.ndim < 2:
        raise DimensionError(f"lstm_forward expects a 2-d sequence or a batch of them, got {seq.data.ndim}-d")
    *lead, t_len, d = seq.data.shape
    if t_len < 1:
        raise DimensionError(f"lstm_forward: empty sequence (axis {len(lead)})")
    h = params.hidden
    if params.w_x.data.shape != (d, 4 * h):
        raise DimensionError(
            f"lstm_forward: input width {d} does not match w_x shape {params.w_x.data.shape}"
        )
    if params.w_h.data.shape != (h, 4 * h) or params.bias.data.shape != (4 * h,):
        raise DimensionError("lstm_forward: recurrent weight or bias shape inconsistent with hidden size")

    w_x, w_h, bias = params.w_x.data, params.w_h.data, params.bias.data
    shape_in, seq_needs_grad = seq.data.shape, seq.requires_grad
    # time-major [T, B, *] in step order, so each step reads and writes contiguous rows
    order = slice(None, None, -1 if reverse else 1)
    steps = np.ascontiguousarray(np.swapaxes(seq.data.reshape(math.prod(lead), t_len, d), 0, 1)[order])
    batch = steps.shape[1]
    step_rows = steps.reshape(t_len * batch, d)
    # One tanh per step covers all four gates: sigmoid(z) = (1 + tanh(z/2))/2.
    # The halving is folded into the sigmoid columns (i, f and o) of zx and
    # of a copy of w_h, and the affine step into one multiply by the same
    # column scale and one add (+0.5, or -0.0 on the cell-input columns).
    # Halving is exact in float64 and 0.5*t + 0.5 rounds as (1 + t)*0.5
    # does, so the gates equal stable_sigmoid's, bit for bit.
    gate_scale = np.full(4 * h, 0.5)
    gate_scale[2 * h:3 * h] = 1.0
    gate_shift = np.full(4 * h, 0.5)
    gate_shift[2 * h:3 * h] = -0.0
    # Every per-call buffer starts a cache line; at the default sizes (H = 128)
    # so does each step's row, and the recurrent matmul runs faster for it.
    zx = ad.aligned_empty((t_len, batch, 4 * h))
    np.matmul(step_rows, w_x, out=zx.reshape(t_len * batch, 4 * h))
    zx += bias
    zx *= gate_scale
    w_h_half = ad.aligned_empty((h, 4 * h))
    np.multiply(w_h, gate_scale, out=w_h_half)
    # The backward reads every step's gates, cell and tanh(cell). A call that will
    # not be recorded keeps one row of gates and of tanh(cell), reused by every
    # step, and two rows of cells: step k reads row k % 2 and writes the other.
    parents = (seq, params.w_x, params.w_h, params.bias)
    rows = t_len if ad.records(parents) else 1
    gates = ad.aligned_empty((rows, batch, 4 * h))  # activated input, forget, cell, output
    cells = ad.aligned_empty((rows + 1, batch, h))  # row 0 is the zero initial state
    hidden = ad.aligned_empty((t_len + 1, batch, h))
    cells[0] = 0.0
    hidden[0] = 0.0
    tanh_c = ad.aligned_empty((rows, batch, h))
    blocks = gates.reshape(rows, batch, 4, h)
    # each step walks its own row views, so the loop body does no indexing;
    # `cycle` repeats the rows of a buffer that has fewer than one per step
    for a, z, i, f, g, o, c_prev, c, tc, h_prev, h_next in zip(
            cycle(gates), zx, *(cycle(blocks[:, :, k]) for k in range(4)), cycle(cells),
            islice(cycle(cells), 1, None), cycle(tanh_c), hidden, hidden[1:]):
        np.matmul(h_prev, w_h_half, a)
        np.add(a, z, a)
        np.tanh(a, a)
        np.multiply(a, gate_scale, a)
        np.add(a, gate_shift, a)
        # c = f*c_prev + i*g and h = o*tanh(c), with tc holding i*g first
        np.multiply(i, g, tc)
        np.multiply(f, c_prev, c)
        np.add(c, tc, c)
        np.tanh(c, tc)
        np.multiply(o, tc, h_next)

    def bw(g):
        g_steps = np.swapaxes(g.reshape(batch, t_len, h), 0, 1)[order]
        gate_i, gate_f, gate_g, gate_o = (gates[..., k * h:(k + 1) * h] for k in range(4))
        # Every factor that does not depend on the incoming gradient, for all T,
        # stored where the step loop scales it in place: dz_all starts as
        # [g i(1-i), c_prev f(1-f), i(1-g^2), tanh(c) o(1-o)], to be multiplied
        # by [dc, dc, dc, dh], and dc = dh*o(1-tanh^2 c) + dc_next. This closure
        # runs once (backward drops it), so tanh_c can hold o(1-tanh^2 c).
        dz_all = ad.aligned_empty((t_len, batch, 4, h))  # gate blocks as an axis of their own
        to_i, to_f, to_g, to_o = (dz_all[:, :, k] for k in range(4))
        np.subtract(1.0, gate_i, out=to_i)
        to_i *= gate_i
        to_i *= gate_g
        np.subtract(1.0, gate_f, out=to_f)
        to_f *= gate_f
        to_f *= cells[:t_len]
        np.multiply(gate_g, gate_g, out=to_g)
        np.subtract(1.0, to_g, out=to_g)
        to_g *= gate_i
        np.subtract(1.0, gate_o, out=to_o)
        to_o *= gate_o
        to_o *= tanh_c
        dc_from_dh = tanh_c
        dc_from_dh *= tanh_c
        np.subtract(1.0, dc_from_dh, out=dc_from_dh)
        dc_from_dh *= gate_o
        dh, dc, dh_next, dc_next = (ad.aligned_empty((batch, h)) for _ in range(4))
        dh_next[...] = 0.0
        dc_next[...] = 0.0
        dc_ifg = dc[:, None, :]
        w_h_t = w_h.T
        back = slice(None, None, -1)  # the steps last to first, each on its own row views
        for dz, dz_o, dz_ifg, g_t, dc_dh, f in zip(
                dz_all.reshape(t_len, batch, 4 * h)[back], to_o[back], dz_all[back, :, :3],
                g_steps[back], dc_from_dh[back], gate_f[back]):
            np.add(g_t, dh_next, dh)
            np.multiply(dz_o, dh, dz_o)
            np.multiply(dh, dc_dh, dc)
            np.add(dc, dc_next, dc)
            np.multiply(dz_ifg, dc_ifg, dz_ifg)
            np.matmul(dz, w_h_t, dh_next)
            np.multiply(dc, f, dc_next)
        dz_rows = dz_all.reshape(t_len * batch, 4 * h)
        g_w_x = step_rows.T @ dz_rows
        g_w_h = hidden[:t_len].reshape(t_len * batch, h).T @ dz_rows
        g_bias = dz_rows.sum(axis=0)
        g_seq = None
        if seq_needs_grad:
            d_steps = (dz_rows @ w_x.T).reshape(t_len, batch, d)
            g_seq = np.swapaxes(d_steps[order], 0, 1).reshape(shape_in)
        return g_seq, g_w_x, g_w_h, g_bias

    out = np.swapaxes(hidden[1:][order], 0, 1).reshape(shape_in[:-1] + (h,))
    return _node(out, parents, bw)


def bilstm(seq, fwd, bwd):
    """A forward pass and a reversed pass over the same rows, feature-concatenated.

    [..., T, D] -> [..., T, 2H]; leading axes are batch.
    """
    if fwd.hidden != bwd.hidden:
        raise DimensionError(
            f"bilstm: direction hidden sizes differ ({fwd.hidden} vs {bwd.hidden})"
        )
    return ad.concat([lstm_forward(seq, fwd), lstm_forward(seq, bwd, reverse=True)], axis=-1)
