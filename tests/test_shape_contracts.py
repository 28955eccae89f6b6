"""Shape contracts: a primitive raises DimensionError or ContractError, and nothing else, on operands that break one.

Each primitive below is listed with its operand shapes, built from a batch
prefix and four sizes, the call, and its contract as a predicate on the
shapes. The test draws valid operands, then changes one size or the rank of
one operand: if the changed shapes still meet the contract the call must
succeed, and if not it must raise one of the two named errors.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelact import autodiff as ad
from skelact.attention import scaled_dot_attention
from skelact.errors import ContractError, DimensionError
from skelact.recurrent import LstmParams, lstm_forward


def tensor(shape):
    return ad.Tensor(np.full(shape, 0.5))


def _multiplies(a, b):
    """Whether a [..., M, K] times b [..., K, N] is a `matmul`: equal leading axes, none shared by a batch."""
    return (len(a) >= 2 and len(b) >= 2 and not (len(b) == 2 and len(a) > 2)
            and a[:-2] == b[:-2] and a[-1] == b[-2])


def _lstm_fits(seq, w_x, w_h, bias):
    h = w_h[0]  # the hidden size is read off w_h
    return len(seq) >= 2 and seq[-2] > 0 and w_x == (seq[-1], 4 * h) and w_h == (h, 4 * h) and bias == (4 * h,)


def _attention_fits(q, k, v):
    return (len(k) >= 2 and q[-1] > 0 and _multiplies(q, k[:-2] + k[:-3:-1])
            and _multiplies(q[:-1] + k[-2:-1], v))


# name -> (shapes(lead, n), call(*shapes), contract(*shapes))
PRIMITIVES = {
    "add": (lambda lead, n: (lead + n[:2],) * 2,
            lambda a, b: ad.add(tensor(a), tensor(b)), lambda a, b: a == b),
    "mul": (lambda lead, n: (lead + n[:2],) * 2,
            lambda a, b: ad.mul(tensor(a), tensor(b)), lambda a, b: a == b),
    "concat": (lambda lead, n: (lead + (n[0], n[2]), lead + (n[1], n[2])),
               lambda p, q: ad.concat([tensor(p), tensor(q)], axis=-2),
               lambda p, q: len(p) == len(q) >= 2 and p[:-2] == q[:-2] and p[-1] == q[-1]),
    "matmul": (lambda lead, n: (lead + n[:2], lead + n[1:3]),
               lambda a, b: ad.matmul(tensor(a), tensor(b)), _multiplies),
    "dense": (lambda lead, n: (lead + n[:2], n[1:3], n[2:3]),
              lambda x, w, b: ad.dense(tensor(x), tensor(w), tensor(b)),
              lambda x, w, b: len(x) >= 1 and len(w) == 2 and x[-1] == w[0] and b == w[1:]),
    "layer_norm": (lambda lead, n: (lead + n[:2], n[1:2], n[1:2]),
                   lambda x, g, s: ad.layer_norm(tensor(x), tensor(g), tensor(s)),
                   lambda x, g, s: len(x) >= 2 and x[-1] > 0 and g == s == x[-1:]),
    "conv1d": (lambda lead, n: (lead + n[:2], (n[3], n[1], n[2]), n[2:3]),
               lambda x, k, b: ad.conv1d(tensor(x), tensor(k), tensor(b)),
               lambda x, k, b: len(x) >= 2 and len(k) == 3 and k[0] > 0 and x[-1] == k[1] and b == k[2:]),
    "softmax": (lambda lead, n: (lead + n[:2],), lambda x: ad.softmax(tensor(x)), lambda x: len(x) >= 1 and x[-1] > 0),
    "softmax_cross_entropy": (lambda lead, n: (lead + n[:2], lead + n[:1]),
                              lambda x, labels: ad.softmax_cross_entropy(tensor(x), np.zeros(labels, dtype=int)),
                              lambda x, labels: len(x) >= 1 and labels == x[:-1] and math.prod(x) > 0),
    "global_avg_pool": (lambda lead, n: (lead + n[:2],), lambda x: ad.global_avg_pool(tensor(x)),
                        lambda x: len(x) >= 2 and x[-2] > 0),
    "transpose": (lambda lead, n: (lead + n[:2],), lambda x: ad.transpose(tensor(x)), lambda x: len(x) >= 2),
    "reshape": (lambda lead, n: (lead + n[:2], lead + n[1::-1]),
                lambda x, shape: ad.reshape(tensor(x), shape), lambda x, shape: math.prod(x) == math.prod(shape)),
    "lstm_forward": (lambda lead, n: (lead + n[:2], (n[1], 4 * n[2]), (n[2], 4 * n[2]), (4 * n[2],)),
                     lambda seq, w_x, w_h, b: lstm_forward(tensor(seq), LstmParams(tensor(w_x), tensor(w_h), tensor(b))), _lstm_fits),
    "scaled_dot_attention": (lambda lead, n: (lead + n[:2], lead + (n[2], n[1]), lead + (n[2], n[3])),
                             lambda q, k, v: scaled_dot_attention(tensor(q), tensor(k), tensor(v)), _attention_fits),
}


@st.composite
def one_change(draw, shapes):
    """`shapes` with one operand changed: one size (0 included), or one axis inserted or deleted."""
    shapes = list(shapes)
    i = draw(st.integers(0, len(shapes) - 1))
    shape = shapes[i]
    kind = draw(st.sampled_from(["size", "insert", "delete"] if shape else ["insert"]))
    if kind == "insert":
        at = draw(st.integers(0, len(shape)))
        shape = shape[:at] + (draw(st.integers(1, 3)),) + shape[at:]
    else:
        axis = draw(st.integers(0, len(shape) - 1))
        size = () if kind == "delete" else (draw(st.integers(0, shape[axis] + 2).filter(lambda s: s != shape[axis])),)
        shape = shape[:axis] + size + shape[axis + 1:]
    shapes[i] = shape
    return tuple(shapes)


@pytest.mark.parametrize("name", PRIMITIVES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_broken_shape_contract_raises_only_a_named_error(name, data):
    shapes_of, call, fits = PRIMITIVES[name]
    lead = data.draw(st.lists(st.integers(1, 3), max_size=2).map(tuple), label="lead")
    sizes = data.draw(st.tuples(*[st.integers(1, 4)] * 4), label="sizes")
    valid = shapes_of(lead, sizes)
    assert fits(*valid)
    call(*valid)
    changed = data.draw(one_change(valid), label="changed")
    if fits(*changed):
        call(*changed)
    else:
        with pytest.raises((DimensionError, ContractError)):
            call(*changed)
