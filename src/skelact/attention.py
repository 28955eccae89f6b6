"""Scaled dot-product attention and multi-head self-attention.

Each of the h heads has width w = D/h (the d_k = D/h convention of Vaswani
et al. 2017). The projections are stacked: W_q, W_k and W_v are [D, D] with
head i in column block i, and W_o maps the concatenated heads back to D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError

HEADS = 4  # the paper's head count, used by every model build


@dataclass
class AttentionParams:
    heads: int
    w_q: "ad.Tensor"  # [D, D], head i in columns i*w:(i+1)*w
    w_k: "ad.Tensor"  # [D, D]
    w_v: "ad.Tensor"  # [D, D]
    w_o: "ad.Tensor"  # [D, D]

    @property
    def model_dim(self):
        return self.w_q.data.shape[0]

    @property
    def head_width(self):
        return self.model_dim // self.heads

    def named(self):
        yield "wq", self.w_q
        yield "wk", self.w_k
        yield "wv", self.w_v
        yield "wo", self.w_o


def init_attention_params(rng, model_dim, heads=HEADS):
    if heads < 1:
        raise ContractError(f"attention needs at least one head, got {heads}")
    if model_dim % heads != 0:
        raise ContractError(f"heads ({heads}) must divide model_dim ({model_dim})")
    w = model_dim // heads
    stacked = [np.empty((model_dim, model_dim)) for _ in range(3)]
    # draw order q_0, k_0, v_0, q_1, ...; each block goes straight into its
    # columns, so building a wide layer holds no second copy of its weights;
    # with rng None (a checkpoint load) they are left unwritten
    for i in range(heads if rng is not None else 0):
        for projection in stacked:
            projection[:, i * w:(i + 1) * w] = ad.glorot_uniform(rng, (model_dim, w)).data
    w_q, w_k, w_v = (ad.Tensor(projection, requires_grad=True) for projection in stacked)
    return AttentionParams(heads, w_q, w_k, w_v, ad.glorot_uniform(rng, (model_dim, model_dim)))


def scaled_dot_attention(q, k, v):
    """softmax(Q K^T / sqrt(d)) V and its weights, for Q [..., T_q, d], K [..., T_k, d], V [..., T_k, d_v];
    leading axes are batch, and Q and K may have different row counts (T_q != T_k)."""
    if q.data.ndim and not q.data.shape[-1]:  # matmul refuses a 0-d query
        raise DimensionError(f"scaled_dot_attention: query width (axis {q.data.ndim - 1}) is 0")
    scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(q.data.shape[-1]))
    weights = ad.softmax(scores)
    return ad.matmul(weights, v), weights


def multi_head_self_attention(x, params, return_weights=False):
    """Self-attention (Q = K = V = x) with stacked head projections, then W_o.

    x is [T, D] or a batch [..., T, D]. Each projection is one `dense` GEMM
    over all rows; its [..., T, D] result is split into heads [..., h, T, w],
    which attend as one batch. With return_weights the weights are [..., h, T, T].
    """
    if x.data.ndim < 2:
        raise DimensionError(
            f"multi_head_self_attention expects a 2-d input or a batch of them, got {x.data.ndim}-d"
        )
    if x.data.shape[-1] != params.model_dim:
        raise DimensionError(
            f"input width {x.data.shape[-1]} does not match model_dim {params.model_dim} "
            f"(axis {x.data.ndim - 1})"
        )
    rows = x.data.shape[:-1]
    by_head = rows + (params.heads, params.head_width)

    def split(w):
        return ad.transpose(ad.reshape(ad.dense(x, w), by_head), -3, -2)

    q, k, v = split(params.w_q), split(params.w_k), split(params.w_v)
    out, weights = scaled_dot_attention(q, k, v)
    merged = ad.reshape(ad.transpose(out, -3, -2), rows + (params.model_dim,))
    projected = ad.dense(merged, params.w_o)
    if return_weights:
        return projected, weights
    return projected
