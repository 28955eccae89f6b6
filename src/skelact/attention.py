"""Scaled dot-product attention and multi-head self-attention.

The projections are stacked: W_q, W_k and W_v are [D, h*w] with head i in
column block i, and W_o maps the concatenated heads [h*w] back to D. The
default keeps every head square (w = D); a `split_heads` switch narrows each
head to w = D/h instead, the more common convention. Both use d_k = D/h as
the softmax scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError


@dataclass
class AttentionParams:
    heads: int
    model_dim: int
    w_q: "ad.Tensor"  # [D, h*w], head i in columns i*w:(i+1)*w
    w_k: "ad.Tensor"  # [D, h*w]
    w_v: "ad.Tensor"  # [D, h*w]
    w_o: "ad.Tensor"  # [h*w, D]

    @property
    def scale(self):
        return self.model_dim / self.heads

    @property
    def head_width(self):
        return self.w_q.data.shape[1] // self.heads

    def named(self):
        yield "wq", self.w_q
        yield "wk", self.w_k
        yield "wv", self.w_v
        yield "wo", self.w_o


def init_attention_params(rng, model_dim, heads=4, split_heads=False):
    if heads < 1:
        raise ContractError(f"attention needs at least one head, got {heads}")
    if model_dim % heads != 0:
        raise ContractError(f"heads ({heads}) must divide model_dim ({model_dim})")
    w = model_dim // heads if split_heads else model_dim
    stacked = [np.empty((model_dim, heads * w)) for _ in range(3)]
    # draw order q_0, k_0, v_0, q_1, ...; each block goes straight into its
    # columns, so building a wide layer holds no second copy of its weights
    for i in range(heads):
        for projection in stacked:
            projection[:, i * w:(i + 1) * w] = ad.glorot_uniform(rng, (model_dim, w), model_dim, w).data
    w_q, w_k, w_v = (ad.Tensor(projection, requires_grad=True) for projection in stacked)
    w_o = ad.glorot_uniform(rng, (heads * w, model_dim), heads * w, model_dim)
    return AttentionParams(heads, model_dim, w_q, w_k, w_v, w_o)


def scaled_dot_attention(q, k, v, d_k, return_weights=False):
    """softmax(Q K^T / sqrt(d_k)) V over [..., T, *] tensors; leading axes are batch."""
    if q.data.ndim < 2 or not q.data.ndim == k.data.ndim == v.data.ndim:
        raise DimensionError("scaled_dot_attention expects 2-d Q, K, V or equal-rank batches of them")
    if q.data.shape != k.data.shape:
        raise DimensionError(f"Q shape {q.data.shape} differs from K shape {k.data.shape}")
    if v.data.shape[:-1] != k.data.shape[:-1]:
        raise DimensionError(
            f"V has {v.data.shape[-2]} rows but K has {k.data.shape[-2]} (axis {k.data.ndim - 2})"
        )
    if d_k <= 0:
        raise ContractError(f"scale d_k must be positive, got {d_k}")
    scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(d_k))
    weights = ad.softmax(scores)
    out = ad.matmul(weights, v)
    if return_weights:
        return out, weights
    return out


def multi_head_self_attention(x, params, return_weights=False):
    """Self-attention (Q = K = V = x) with stacked head projections, then W_o.

    x is [T, D] or a batch [..., T, D]. Each projection is one GEMM over all
    rows; its [..., T, h*w] result is split into heads [..., h, T, w], which
    attend as one batch. With return_weights the weights are [..., h, T, T].
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
        return ad.transpose(ad.reshape(ad.matmul(x, w), by_head), -3, -2)

    out, weights = scaled_dot_attention(
        split(params.w_q), split(params.w_k), split(params.w_v), params.scale, return_weights=True
    )
    merged = ad.reshape(ad.transpose(out, -3, -2), rows + (params.w_o.data.shape[0],))
    projected = ad.matmul(merged, params.w_o)
    if return_weights:
        return projected, weights
    return projected
