"""Scaled dot-product attention and multi-head self-attention.

The default dimensioning keeps every head's projections square (D by D) and
maps the concatenated heads (width h*D) back to D with a single output
matrix. A `split_heads` switch narrows each head to D/h instead, the more
common convention. Both use d_k = D/h as the softmax scale.
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
    w_q: list
    w_k: list
    w_v: list
    w_o: "ad.Tensor"
    split_heads: bool = False
    tied: bool = False

    @property
    def scale(self):
        return self.model_dim / self.heads

    def named(self):
        """Yield (name, tensor) pairs, each underlying tensor exactly once."""
        for i in range(self.heads):
            yield f"wq{i}", self.w_q[i]
            if not self.tied:
                yield f"wk{i}", self.w_k[i]
                yield f"wv{i}", self.w_v[i]
        yield "wo", self.w_o


def init_attention_params(rng, model_dim, heads=4, split_heads=False, tie_projections=False):
    if heads < 1:
        raise ContractError(f"attention needs at least one head, got {heads}")
    if model_dim % heads != 0:
        raise ContractError(f"heads ({heads}) must divide model_dim ({model_dim})")
    head_width = model_dim // heads if split_heads else model_dim
    w_q, w_k, w_v = [], [], []
    for _ in range(heads):
        q = ad.glorot_uniform(rng, (model_dim, head_width), model_dim, head_width)
        if tie_projections:
            k = v = q
        else:
            k = ad.glorot_uniform(rng, (model_dim, head_width), model_dim, head_width)
            v = ad.glorot_uniform(rng, (model_dim, head_width), model_dim, head_width)
        w_q.append(q)
        w_k.append(k)
        w_v.append(v)
    w_o = ad.glorot_uniform(rng, (heads * head_width, model_dim), heads * head_width, model_dim)
    return AttentionParams(heads, model_dim, w_q, w_k, w_v, w_o,
                           split_heads=split_heads, tied=tie_projections)


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
    """Self-attention (Q = K = V = x) with per-head projections, concat, W_o.

    x is [T, D] or a batch [..., T, D]: the projections are one GEMM over all
    rows, and Q K^T and the weighted sum are batched matrix products.
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
    head_outs = []
    all_weights = []
    for i in range(params.heads):
        q = ad.matmul(x, params.w_q[i])
        k = ad.matmul(x, params.w_k[i])
        v = ad.matmul(x, params.w_v[i])
        out, w = scaled_dot_attention(q, k, v, params.scale, return_weights=True)
        head_outs.append(out)
        all_weights.append(w)
    stacked = head_outs[0] if len(head_outs) == 1 else ad.concat(head_outs, axis=-1)
    projected = ad.matmul(stacked, params.w_o)
    if return_weights:
        return projected, all_weights
    return projected
