"""LSTM and bidirectional LSTM over [T, D] sequences, or batches [..., T, D] of them.

lstm_forward is a single fused graph node: the whole recurrence runs in
numpy and the backward closure replays it in reverse (backpropagation
through time). This keeps the graph small enough that training stays fast
without changing any semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import _accumulate, _node, stable_sigmoid
from .errors import DimensionError


@dataclass
class LstmParams:
    w_x: "ad.Tensor"   # [D, 4H], gate blocks ordered input, forget, cell, output
    w_h: "ad.Tensor"   # [H, 4H]
    bias: "ad.Tensor"  # [4H]
    hidden: int

    def named(self):
        yield "wx", self.w_x
        yield "wh", self.w_h
        yield "bias", self.bias


def init_lstm_params(rng, input_dim, hidden):
    w_x = ad.glorot_uniform(rng, (input_dim, 4 * hidden), input_dim, 4 * hidden)
    w_h = ad.glorot_uniform(rng, (hidden, 4 * hidden), hidden, 4 * hidden)
    bias = np.zeros(4 * hidden)
    bias[hidden:2 * hidden] = 1.0  # forget gate starts open
    return LstmParams(w_x, w_h, ad.Tensor(bias, requires_grad=True), hidden)


def lstm_forward(seq, params):
    """Run the LSTM over all T steps from zero initial state: [..., T, D] -> [..., T, H].

    Leading axes are batch: every step advances all sequences at once as the
    rows of one [B, H] state.
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

    w_x, w_h, bias = params.w_x, params.w_h, params.bias
    # time-major [T, B, *] so each step reads and writes contiguous rows
    steps = np.ascontiguousarray(np.swapaxes(seq.data.reshape(-1, t_len, d), 0, 1))
    batch = steps.shape[1]
    step_rows = steps.reshape(t_len * batch, d)
    zx = (step_rows @ w_x.data + bias.data).reshape(t_len, batch, 4 * h)
    gates = np.empty((t_len, batch, 4 * h))  # activated input, forget, cell, output
    cells = np.empty((t_len, batch, h))
    tanh_c = np.empty((t_len, batch, h))
    hidden_seq = np.empty((t_len, batch, h))
    h_prev = np.zeros((batch, h))
    c_prev = np.zeros((batch, h))
    for t in range(t_len):
        z = zx[t] + h_prev @ w_h.data
        a = gates[t]
        a[:, :2 * h] = stable_sigmoid(z[:, :2 * h])
        a[:, 2 * h:3 * h] = np.tanh(z[:, 2 * h:3 * h])
        a[:, 3 * h:] = stable_sigmoid(z[:, 3 * h:])
        cells[t] = a[:, h:2 * h] * c_prev + a[:, :h] * a[:, 2 * h:3 * h]
        tanh_c[t] = np.tanh(cells[t])
        hidden_seq[t] = a[:, 3 * h:] * tanh_c[t]
        h_prev = hidden_seq[t]
        c_prev = cells[t]

    def bw(g):
        g_steps = np.swapaxes(g.reshape(batch, t_len, h), 0, 1)
        dz_all = np.empty((t_len, batch, 4 * h))
        dh_next = np.zeros((batch, h))
        dc_next = np.zeros((batch, h))
        for t in range(t_len - 1, -1, -1):
            a = gates[t]
            gate_i, gate_f, gate_g, gate_o = a[:, :h], a[:, h:2 * h], a[:, 2 * h:3 * h], a[:, 3 * h:]
            dh = g_steps[t] + dh_next
            c_before = cells[t - 1] if t > 0 else np.zeros((batch, h))
            do = dh * tanh_c[t]
            dc = dh * gate_o * (1.0 - tanh_c[t] ** 2) + dc_next
            di = dc * gate_g
            dg = dc * gate_i
            df = dc * c_before
            dz = dz_all[t]
            dz[:, :h] = di * gate_i * (1.0 - gate_i)
            dz[:, h:2 * h] = df * gate_f * (1.0 - gate_f)
            dz[:, 2 * h:3 * h] = dg * (1.0 - gate_g ** 2)
            dz[:, 3 * h:] = do * gate_o * (1.0 - gate_o)
            dh_next = dz @ w_h.data.T
            dc_next = dc * gate_f
        dz_rows = dz_all.reshape(t_len * batch, 4 * h)
        prev_hidden = np.concatenate([np.zeros((1, batch, h)), hidden_seq[:-1]]).reshape(t_len * batch, h)
        _accumulate(w_x, step_rows.T @ dz_rows)
        _accumulate(w_h, prev_hidden.T @ dz_rows)
        _accumulate(bias, dz_rows.sum(axis=0))
        if seq.requires_grad:
            d_steps = (dz_rows @ w_x.data.T).reshape(t_len, batch, d)
            _accumulate(seq, np.swapaxes(d_steps, 0, 1).reshape(seq.data.shape))

    out = np.swapaxes(hidden_seq, 0, 1).reshape(seq.data.shape[:-1] + (h,))
    return _node(out, (seq, w_x, w_h, bias), bw)


def bilstm(seq, fwd, bwd):
    """Forward pass plus a reversed pass re-aligned to time, feature-concatenated.

    [..., T, D] -> [..., T, 2H]; leading axes are batch.
    """
    if fwd.hidden != bwd.hidden:
        raise DimensionError(
            f"bilstm: direction hidden sizes differ ({fwd.hidden} vs {bwd.hidden})"
        )
    forward_out = lstm_forward(seq, fwd)
    backward_out = ad.reverse_rows(lstm_forward(ad.reverse_rows(seq), bwd))
    return ad.concat([forward_out, backward_out], axis=-1)
