import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skelact import autodiff as ad
from skelact.errors import ContractError, DimensionError

from oracles import conv1d_oracle


def matmul_oracle(a, b):
    n, m = a.shape
    m2, p = b.shape
    out = np.zeros((n, p))
    for i in range(n):
        for j in range(p):
            for kk in range(m):
                out[i, j] += a[i, kk] * b[kk, j]
    return out


def layer_norm_oracle(x, gain, shift, eps):
    """Two-pass statistics: mean first, then variance, then affine."""
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        mean = x[i].sum() / x.shape[1]
        var = ((x[i] - mean) ** 2).sum() / x.shape[1]
        out[i] = (x[i] - mean) / np.sqrt(var + eps) * gain + shift
    return out


# ---------------------------------------------------------------------------
# conv1d


def test_conv1d_identity_kernel():
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.normal(size=(6, 4)))
    kern = ad.Tensor(np.eye(4)[None, :, :])
    bias = ad.Tensor(np.zeros(4))
    out = ad.conv1d(x, kern, bias)
    np.testing.assert_allclose(out.data, x.data, rtol=0, atol=0)


def test_conv1d_per_frame_shape():
    rng = np.random.default_rng(1)
    x = ad.Tensor(rng.normal(size=(25, 3)))
    kern = ad.Tensor(rng.normal(size=(1, 3, 64)))
    bias = ad.Tensor(rng.normal(size=64))
    out = ad.conv1d(x, kern, bias)
    assert out.data.shape == (25, 64)


def test_conv1d_oracle_property():
    rng = np.random.default_rng(3)
    for _ in range(100):
        length = int(rng.integers(1, 33))
        c_in = int(rng.integers(1, 5))
        c_out = int(rng.integers(1, 5))
        k = int(rng.integers(1, 5))
        x = rng.uniform(-10, 10, size=(length, c_in))
        kern = rng.uniform(-10, 10, size=(k, c_in, c_out))
        bias = rng.uniform(-10, 10, size=c_out)
        out = ad.conv1d(ad.Tensor(x), ad.Tensor(kern), ad.Tensor(bias))
        expect = conv1d_oracle(x, kern, bias)
        assert out.data.shape == expect.shape
        np.testing.assert_allclose(out.data, expect, atol=1e-12 * max(1, np.abs(expect).max()))


def test_conv1d_same_padding_left_bias():
    # even kernel width puts the extra zero column on the left
    x = np.arange(4.0).reshape(4, 1)
    kern = np.ones((2, 1, 1))
    bias = np.zeros(1)
    out = ad.conv1d(ad.Tensor(x), ad.Tensor(kern), ad.Tensor(bias))
    np.testing.assert_allclose(out.data[:, 0], [0.0, 1.0, 3.0, 5.0])


def test_conv1d_shape_errors():
    x = ad.Tensor(np.zeros((5, 3)))
    kern = ad.Tensor(np.zeros((2, 4, 6)))
    bias = ad.Tensor(np.zeros(6))
    with pytest.raises(DimensionError, match="axis 1"):
        ad.conv1d(x, kern, bias)
    with pytest.raises(DimensionError, match="3-d kernel"):
        ad.conv1d(x, ad.Tensor(np.zeros((3, 6))), bias)
    with pytest.raises(DimensionError, match="filter count 6"):
        ad.conv1d(x, ad.Tensor(np.zeros((2, 3, 6))), ad.Tensor(np.zeros(4)))
    # a kernel wider than the sequence still keeps every position
    wide = ad.conv1d(x, ad.Tensor(np.zeros((7, 3, 6))), bias)
    assert wide.data.shape == (5, 6)


# ---------------------------------------------------------------------------
# conv1d against the frozen im2col implementation


def reference_conv1d(x, kernel, bias, upstream):
    """The im2col 'same' conv1d forward and backward, frozen as plain numpy.

    x [..., L, C_in], kernel [K, C_in, C_out]; returns the output and the
    gradients of sum(output * upstream) with respect to x, kernel and bias.
    """
    k, c_in, c_out = kernel.shape
    lead, length = x.shape[:-2], x.shape[-2]
    pad_left, pad_right = k // 2, (k - 1) // 2
    padded_len = length + pad_left + pad_right
    out_len = padded_len - k + 1
    seqs = x.reshape(-1, length, c_in)
    padded = np.zeros((seqs.shape[0], padded_len, c_in))
    padded[:, pad_left:pad_left + length] = seqs
    cols = np.empty((seqs.shape[0], out_len, k * c_in))
    for j in range(k):
        cols[:, :, j * c_in:(j + 1) * c_in] = padded[:, j:j + out_len]
    cols = cols.reshape(-1, k * c_in)
    w2d = kernel.reshape(k * c_in, c_out)
    out = (cols @ w2d + bias).reshape(lead + (out_len, c_out))

    g2 = upstream.reshape(-1, c_out)
    dkernel = (cols.T @ g2).reshape(kernel.shape)
    dbias = g2.sum(axis=0)
    dcols = (g2 @ w2d.T).reshape(-1, out_len, k * c_in)
    dpadded = np.zeros_like(padded)
    for j in range(k):
        dpadded[:, j:j + out_len] += dcols[:, :, j * c_in:(j + 1) * c_in]
    dx = dpadded[:, pad_left:pad_left + length].reshape(x.shape)
    return out, dx, dkernel, dbias


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 5),
    length=st.integers(1, 8),
    lead=st.sampled_from([(), (1,), (2, 3)]),
    c_in=st.integers(1, 6),
    c_out=st.integers(1, 6),
    x_grad=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=5, length=1, lead=(2, 3), c_in=2, c_out=3, x_grad=True, seed=0)
@example(k=4, length=6, lead=(1,), c_in=6, c_out=1, x_grad=True, seed=1)
@example(k=3, length=3, lead=(), c_in=1, c_out=6, x_grad=False, seed=2)
def test_conv1d_matches_frozen_im2col_reference(k, length, lead, c_in, c_out, x_grad, seed):
    rng = np.random.default_rng(seed)
    x_data = rng.normal(size=lead + (length, c_in))
    k_data = rng.normal(size=(k, c_in, c_out))
    b_data = rng.normal(size=c_out)
    x = ad.Tensor(x_data, requires_grad=x_grad)
    kernel = ad.Tensor(k_data, requires_grad=True)
    bias = ad.Tensor(b_data, requires_grad=True)
    out = ad.conv1d(x, kernel, bias)
    upstream = rng.normal(size=out.data.shape)
    ad.backward(ad.sum_all(ad.mul(out, ad.Tensor(upstream))))

    want = reference_conv1d(x_data, k_data, b_data, upstream)
    # Each entry is a sum of products, so its rounding error is relative to
    # the sum of their magnitudes: the reference applied to absolute values.
    scale = reference_conv1d(np.abs(x_data), np.abs(k_data), np.abs(b_data), np.abs(upstream))
    got = (out.data, x.grad, kernel.grad, bias.grad)
    for name, actual, expected, bound in zip(("out", "x", "kernel", "bias"), got, want, scale):
        if name == "x" and not x_grad:
            assert actual is None
            continue
        assert actual.shape == expected.shape, name
        assert np.all(np.abs(actual - expected) <= 1e-12 * bound), name


# ---------------------------------------------------------------------------
# dense


def test_dense_identity():
    rng = np.random.default_rng(4)
    x = ad.Tensor(rng.normal(size=(3, 5)))
    out = ad.dense(x, ad.Tensor(np.eye(5)), ad.Tensor(np.zeros(5)))
    np.testing.assert_allclose(out.data, x.data)


def test_dense_closed_form():
    x = ad.Tensor(np.array([[1.0, 2.0]]))
    w = ad.Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    b = ad.Tensor(np.array([3.0, -3.0]))
    out = ad.dense(x, w, b)
    np.testing.assert_allclose(out.data, [[4.0, -1.0]])


def test_dense_matches_loop_matmul():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 2))
    b = rng.normal(size=2)
    out = ad.dense(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b))
    np.testing.assert_allclose(out.data, matmul_oracle(x, w) + b, atol=1e-12)


def test_dense_without_bias_is_a_two_parent_product():
    rng = np.random.default_rng(7)
    x, w = ad.Tensor(rng.normal(size=(2, 3, 4))), ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    out = ad.dense(x, w)
    np.testing.assert_array_equal(out.data, x.data @ w.data)
    assert out._parents == (x.node, w.node)
    ad.backward(ad.sum_all(out))
    assert x.grad is None  # nothing needs the input's gradient, so it is not computed
    np.testing.assert_allclose(w.grad, x.data.reshape(6, 4).T @ np.ones((6, 2)), rtol=1e-12)


def test_dense_mismatch_error():
    with pytest.raises(DimensionError):
        ad.dense(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((4, 2))), ad.Tensor(np.zeros(2)))
    with pytest.raises(DimensionError):
        ad.dense(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((3, 2))), ad.Tensor(np.zeros(5)))
    with pytest.raises(DimensionError, match="0-d"):
        ad.dense(ad.Tensor(np.float64(1.0)), ad.Tensor(np.zeros((1, 2))), ad.Tensor(np.zeros(2)))
    # the weight must be one [D_in, D_out] matrix, with or without a bias
    with pytest.raises(DimensionError, match=r"2-d weight.*\(3,\)"):
        ad.dense(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros(3)))
    with pytest.raises(DimensionError, match=r"2-d weight.*\(3, 2, 2\)"):
        ad.dense(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((3, 2, 2))), ad.Tensor(np.zeros(2)))


def test_matmul_matches_loop_oracle():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    out = ad.matmul(ad.Tensor(a), ad.Tensor(b))
    np.testing.assert_allclose(out.data, matmul_oracle(a, b), atol=1e-12)
    with pytest.raises(DimensionError, match="inner"):
        ad.matmul(ad.Tensor(a), ad.Tensor(np.zeros((3, 2))))
    # a matrix shared by batched rows is dense's job, and ranks must match
    with pytest.raises(DimensionError, match="dense"):
        ad.matmul(ad.Tensor(np.zeros((2, 3, 4))), ad.Tensor(b))
    with pytest.raises(DimensionError, match="batch axes"):
        ad.matmul(ad.Tensor(a), ad.Tensor(np.zeros((2, 4, 2))))
    with pytest.raises(DimensionError, match="2-d"):
        ad.matmul(ad.Tensor(a), ad.Tensor(np.zeros(4)))
    with pytest.raises(DimensionError, match="2-d"):
        ad.matmul(ad.Tensor(np.zeros(4)), ad.Tensor(b))


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform_row():
    out = ad.softmax(ad.Tensor(np.array([[2.5, 2.5, 2.5]])))
    np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)


def test_softmax_closed_form():
    out = ad.softmax(ad.Tensor(np.array([0.0, np.log(2.0)])))
    np.testing.assert_allclose(out.data, [1 / 3, 2 / 3], atol=1e-15)


def test_softmax_shift_invariance_and_row_sums():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.normal(size=(int(rng.integers(1, 6)), int(rng.integers(2, 8)))) * 5
        a = ad.softmax(ad.Tensor(x)).data
        b = ad.softmax(ad.Tensor(x + 7.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_allclose(a.sum(axis=-1), np.ones(x.shape[0]), atol=1e-12)
        assert (a >= 0).all()


def test_softmax_large_values_stable():
    out = ad.softmax(ad.Tensor(np.array([1000.0, 1000.0, 999.0])))
    assert np.isfinite(out.data).all()
    np.testing.assert_allclose(out.data.sum(), 1.0, atol=1e-12)


@pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 4, 84, 84)])
def test_softmax_bits_match_the_three_array_form_in_either_mode(shape):
    # shifted logits, their exponentials and the quotient in separate arrays, frozen
    x = np.random.default_rng(17).normal(size=shape) * 4.0
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    want = e / e.sum(axis=-1, keepdims=True)
    recorded = ad.softmax(ad.Tensor(x, requires_grad=True))
    assert recorded.requires_grad
    with ad.no_grad():
        plain = ad.softmax(ad.Tensor(x, requires_grad=True))
    assert not plain.requires_grad
    np.testing.assert_array_equal(recorded.data, want)
    np.testing.assert_array_equal(plain.data, want)


def test_softmax_cross_entropy_is_mean_negative_log_softmax():
    rng = np.random.default_rng(21)
    logits = ad.Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    labels = rng.integers(0, 5, size=(2, 3))
    loss = ad.softmax_cross_entropy(logits, labels)
    probs = ad.softmax(logits).data
    picked = np.take_along_axis(probs, labels[..., None], axis=-1)
    assert float(loss.data) == pytest.approx(-np.log(picked).mean(), rel=1e-14)
    ad.backward(loss)
    onehot = np.eye(5)[labels]
    np.testing.assert_allclose(logits.grad, (probs - onehot) / 6, rtol=1e-13, atol=1e-16)
    _fd(lambda t: ad.softmax_cross_entropy(t, labels), ad.Tensor(logits.data), bound=1e-6)


def test_softmax_cross_entropy_confidently_wrong_row():
    logits = ad.Tensor(np.array([0.0, 40.0]), requires_grad=True)
    loss = ad.softmax_cross_entropy(logits, 0)
    assert float(loss.data) == pytest.approx(40.0, rel=1e-15)
    ad.backward(loss)
    np.testing.assert_allclose(logits.grad, [-1.0, 1.0], rtol=0, atol=1e-15)
    with pytest.raises(DimensionError):
        ad.softmax_cross_entropy(ad.Tensor(np.zeros((2, 3))), [0])
    with pytest.raises(ContractError):
        ad.softmax_cross_entropy(ad.Tensor(np.zeros((2, 3))), [0, 3])


# ---------------------------------------------------------------------------
# layer_norm


def test_layer_norm_constant_row():
    x = ad.Tensor(np.full((1, 6), 3.7))
    out = ad.layer_norm(x, ad.Tensor(np.ones(6)), ad.Tensor(np.zeros(6)))
    np.testing.assert_allclose(out.data, np.zeros((1, 6)), atol=1e-9)


def test_layer_norm_statistics():
    rng = np.random.default_rng(8)
    # rows scaled so true variance is well above epsilon's bite
    x = rng.normal(size=(4, 16)) * 3.0
    out = ad.layer_norm(ad.Tensor(x), ad.Tensor(np.ones(16)), ad.Tensor(np.zeros(16)))
    means = out.data.mean(axis=1)
    variances = out.data.var(axis=1)
    assert np.abs(means).max() < 1e-10
    assert np.abs(variances - 1.0).max() < 1e-6


def test_layer_norm_matches_two_pass_oracle():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 5))
    gain = rng.normal(size=5)
    shift = rng.normal(size=5)
    out = ad.layer_norm(ad.Tensor(x), ad.Tensor(gain), ad.Tensor(shift))
    np.testing.assert_allclose(out.data, layer_norm_oracle(x, gain, shift, 1e-6), atol=1e-12)


def test_layer_norm_shape_error():
    with pytest.raises(DimensionError):
        ad.layer_norm(ad.Tensor(np.zeros((2, 5))), ad.Tensor(np.ones(4)), ad.Tensor(np.zeros(5)))


# ---------------------------------------------------------------------------
# elementwise


def test_elementwise_identities():
    rng = np.random.default_rng(10)
    x = ad.Tensor(rng.normal(size=(3, 3)))
    np.testing.assert_allclose(ad.add(x, ad.Tensor(np.zeros((3, 3)))).data, x.data)
    np.testing.assert_allclose(ad.sigmoid(ad.Tensor(np.zeros(2))).data, [0.5, 0.5])
    np.testing.assert_allclose(ad.tanh(ad.Tensor(np.zeros(2))).data, [0.0, 0.0])
    np.testing.assert_allclose(ad.relu(ad.Tensor(np.array([-1.0, 2.0]))).data, [0.0, 2.0])


def test_sigmoid_is_stable_and_matches_logistic():
    z = np.linspace(-30.0, 30.0, 60001)
    assert np.abs(ad.stable_sigmoid(z) - 1.0 / (1.0 + np.exp(-z))).max() < 1e-15
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        extreme = ad.sigmoid(ad.Tensor(np.array([-1000.0, 1000.0]), requires_grad=True))
        ad.backward(ad.sum_all(extreme))
    np.testing.assert_array_equal(extreme.data, [0.0, 1.0])


def test_transpose_swaps_named_axes():
    x = np.arange(24.0).reshape(2, 3, 4)
    out = ad.transpose(ad.Tensor(x), -3, -2)
    np.testing.assert_array_equal(out.data, np.swapaxes(x, 0, 1))
    np.testing.assert_array_equal(ad.transpose(ad.Tensor(x)).data, np.swapaxes(x, 1, 2))
    with pytest.raises(DimensionError, match="axis 3"):
        ad.transpose(ad.Tensor(x), 0, 3)


def test_reshape_to_another_element_count_error():
    with pytest.raises(DimensionError, match=r"\(3, 4\) does not fit \(5, 2\)"):
        ad.reshape(ad.Tensor(np.zeros((3, 4))), (5, 2))
    assert ad.reshape(ad.Tensor(np.zeros((3, 4))), (2, -1)).shape == (2, 6)


def test_elementwise_shape_mismatch():
    with pytest.raises(DimensionError, match="axis 1"):
        ad.add(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 4))))
    with pytest.raises(DimensionError):
        ad.mul(ad.Tensor(np.zeros(3)), ad.Tensor(np.zeros((3, 1))))


# ---------------------------------------------------------------------------
# concat / slicing


def test_concat_single_part():
    x = ad.Tensor(np.arange(12.0).reshape(3, 4))
    out = ad.concat([x], axis=0)
    np.testing.assert_array_equal(out.data, x.data)


def test_concat_stream_fusion_shape():
    a = ad.Tensor(np.zeros((20, 120)))
    b = ad.Tensor(np.ones((64, 120)))
    out = ad.concat([a, b], axis=0)
    assert out.data.shape == (84, 120)


def test_concat_slice_round_trip_bit_exact():
    rng = np.random.default_rng(11)
    parts = [rng.normal(size=(int(rng.integers(1, 5)), 6)) for _ in range(3)]
    out = ad.concat([ad.Tensor(p) for p in parts], axis=0)
    offset = 0
    for p in parts:
        assert (out.data[offset:offset + p.shape[0]] == p).all()
        offset += p.shape[0]


def test_concat_axis_mismatch():
    with pytest.raises(DimensionError, match="axis 1"):
        ad.concat([ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 4)))], axis=0)


# ---------------------------------------------------------------------------
# global_avg_pool


def test_gap_singleton():
    x = ad.Tensor(np.array([[1.0, -2.0, 3.0]]))
    np.testing.assert_allclose(ad.global_avg_pool(x).data, [1.0, -2.0, 3.0])


def test_gap_closed_form():
    x = ad.Tensor(np.array([[1.0, 3.0], [3.0, 1.0]]))
    np.testing.assert_allclose(ad.global_avg_pool(x).data, [2.0, 2.0])


def test_gap_matches_loop_sum():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(7, 5))
    expect = np.zeros(5)
    for t in range(7):
        expect += x[t]
    expect /= 7
    np.testing.assert_allclose(ad.global_avg_pool(ad.Tensor(x)).data, expect, atol=1e-12)


def test_gap_empty_error():
    with pytest.raises(DimensionError):
        ad.global_avg_pool(ad.Tensor(np.zeros((0, 5))))


# ---------------------------------------------------------------------------
# backward


def test_backward_sum_gives_ones():
    x = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ad.backward(ad.sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_quadratic():
    x = ad.Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    ad.backward(ad.sum_all(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, 2 * x.data)


def test_backward_diamond_accumulates_both_paths():
    # shared input feeds two branches; grads must add, checked against FD
    def f(x):
        left = ad.relu(x)
        right = ad.scale(x, 2.0)
        return ad.sum_all(ad.add(left, right))

    rng = np.random.default_rng(13)
    x = ad.Tensor(rng.normal(size=(3, 2)) + np.sign(rng.normal(size=(3, 2))) * 0.5)
    assert ad.gradient_check(f, x) < 1e-6

    y = ad.Tensor(np.array([2.0, -3.0]), requires_grad=True)
    ad.backward(f(y))
    expect = (y.data > 0).astype(float) + 2.0
    np.testing.assert_allclose(y.grad, expect)


def test_backward_requires_scalar():
    x = ad.Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        ad.backward(ad.relu(x))


def test_grad_accumulates_across_backward_calls():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    ad.backward(ad.sum_all(x))
    ad.backward(ad.sum_all(x))
    np.testing.assert_array_equal(x.grad, 2 * np.ones(3))
    x.grad = None
    ad.backward(ad.sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones(3))


def test_backward_hands_each_complete_leaf_gradient_to_on_leaf_once():
    # x feeds three consumers; w one; c needs no gradient and is never handed over
    rng = np.random.default_rng(5)
    x, w = (ad.Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(2))
    c = ad.Tensor(rng.normal(size=(2, 3)))

    def loss():
        return ad.sum_all(ad.add(ad.mul(ad.relu(x), ad.tanh(x)), ad.mul(ad.mul(x, w), c)))

    ad.backward(loss())
    want = {id(x.node): x.grad, id(w.node): w.grad}
    x.grad = w.grad = None
    seen = []

    def on_leaf(node):
        seen.append(id(node))
        np.testing.assert_array_equal(node.grad, want[id(node)])
        node.grad = None

    ad.backward(loss(), on_leaf=on_leaf)
    assert sorted(seen) == sorted(want)
    assert x.grad is None and w.grad is None


def test_records_needs_grad_mode_and_a_parent_that_needs_a_gradient():
    const, leaf = ad.Tensor(np.ones(2)), ad.Tensor(np.ones(2), requires_grad=True)
    assert ad.records((const, leaf)) and not ad.records((const, const))
    with ad.no_grad():
        assert not ad.records((const, leaf))


def test_no_grad_suppresses_graph():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        y = ad.sum_all(x)
    assert y._parents == () and not y.requires_grad


# ---------------------------------------------------------------------------
# gradient_check


def test_gradient_check_exact_linear():
    x = ad.Tensor(np.array([1.0, 2.0, 3.0]))
    assert ad.gradient_check(ad.sum_all, x) < 1e-10


def test_gradient_check_softmax_pick():
    rng = np.random.default_rng(14)
    x = ad.Tensor(rng.normal(size=4))
    err = ad.gradient_check(lambda t: _entry(ad.softmax(t), 0), x)
    assert err < 1e-6


def test_gradient_check_of_a_constant_leaves_it_constant():
    # the analytic pass differentiates a trainable tensor sharing x's array
    rng = np.random.default_rng(16)
    x = ad.Tensor(rng.normal(size=(3, 4)))
    w = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)

    def f(t):
        return ad.sum_all(ad.tanh(ad.matmul(t, w)))

    err = ad.gradient_check(f, x)
    assert err == ad.gradient_check(f, ad.Tensor(x.data.copy(), requires_grad=True))
    assert err < 1e-6
    assert not x.requires_grad and x.grad is None


def test_a_tensors_node_is_fixed_at_construction():
    t = ad.Tensor(np.zeros(2), requires_grad=True)
    node = t.node
    with pytest.raises(AttributeError):
        t.requires_grad = False
    with pytest.raises(AttributeError):
        ad.Tensor(np.zeros(2)).requires_grad = True
    assert t.node is node and t.requires_grad


def test_gradient_check_rejects_vector_function():
    with pytest.raises(ContractError):
        ad.gradient_check(lambda t: ad.relu(t), ad.Tensor(np.zeros(3)))


# ---------------------------------------------------------------------------
# finite-difference property per primitive


def _entry(t, j):
    """Entry j of a vector tensor, read out as sum(t * one-hot)."""
    return ad.sum_all(ad.mul(t, ad.Tensor(np.eye(t.data.size)[j])))


def _fd(f, x, bound=1e-4):
    err = ad.gradient_check(f, x)
    assert err < bound, f"relative error {err}"


def test_fd_elementwise_ops():
    rng = np.random.default_rng(15)
    for _ in range(100):
        shape = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        x = ad.Tensor(rng.normal(size=shape))
        other = ad.Tensor(rng.normal(size=shape), requires_grad=True)
        _fd(lambda t: ad.sum_all(ad.add(t, other)), x)
        _fd(lambda t: ad.sum_all(ad.mul(t, other)), x)
        _fd(lambda t: ad.sum_all(ad.sigmoid(t)), x)
        _fd(lambda t: ad.sum_all(ad.tanh(t)), x)
        _fd(lambda t: ad.sum_all(ad.scale(t, -1.7)), x)
        # keep relu inputs away from the kink
        y = ad.Tensor(np.sign(rng.normal(size=shape)) * rng.uniform(0.2, 2.0, size=shape))
        _fd(lambda t: ad.sum_all(ad.relu(t)), y)


def test_fd_shape_ops():
    rng = np.random.default_rng(16)
    for _ in range(100):
        x = ad.Tensor(rng.normal(size=(3, 4)))
        _fd(lambda t: ad.sum_all(ad.reshape(t, (2, 6))), x)
        _fd(lambda t: ad.sum_all(ad.mul(ad.transpose(t), ad.transpose(t))), x)
        other = ad.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        half = ad.Tensor(rng.normal(size=(2, 4)))
        _fd(lambda t: ad.sum_all(ad.mul(ad.concat([t, other], axis=0), ad.concat([other, t], axis=0))), half)
        j = int(rng.integers(0, 12))
        _fd(lambda t: _entry(ad.reshape(t, (12,)), j), x)
        _fd(lambda t: ad.sum_all(ad.mul(ad.global_avg_pool(t), ad.global_avg_pool(t))), x)


def test_fd_linear_algebra_ops():
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = ad.Tensor(rng.normal(size=(3, 4)))
        b = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        bias = ad.Tensor(rng.normal(size=2), requires_grad=True)
        _fd(lambda t: ad.sum_all(ad.matmul(t, b)), a)
        _fd(lambda t: ad.sum_all(ad.matmul(a, t)), b)
        _fd(lambda t: ad.sum_all(ad.dense(a, t, bias)), b)
        _fd(lambda t: ad.sum_all(ad.dense(a, b, t)), bias)
        _fd(lambda t: ad.sum_all(ad.dense(t, b)), a)
        _fd(lambda t: ad.sum_all(ad.dense(a, t)), b)


def test_fd_conv1d_all_inputs():
    rng = np.random.default_rng(18)
    for trial in range(100):
        length = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(4, length) + 1))
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 4))
        x = ad.Tensor(rng.normal(size=(length, c_in)))
        kern = ad.Tensor(rng.normal(size=(k, c_in, c_out)), requires_grad=True)
        bias = ad.Tensor(rng.normal(size=c_out), requires_grad=True)
        _fd(lambda t: ad.sum_all(ad.conv1d(t, kern, bias)), x)
        _fd(lambda t: ad.sum_all(ad.conv1d(x, t, bias)), kern)
        _fd(lambda t: ad.sum_all(ad.conv1d(x, kern, t)), bias)


def test_fd_softmax_and_layer_norm():
    rng = np.random.default_rng(19)
    for _ in range(100):
        x = ad.Tensor(rng.normal(size=(2, 5)))
        j = int(rng.integers(0, 5))
        _fd(lambda t: _entry(ad.reshape(ad.softmax(t), (10,)), j), x)
        gain = ad.Tensor(rng.normal(size=5), requires_grad=True)
        shift = ad.Tensor(rng.normal(size=5), requires_grad=True)
        weights = ad.Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        _fd(lambda t: ad.sum_all(ad.mul(ad.layer_norm(t, gain, shift), weights)), x)
        _fd(lambda t: ad.sum_all(ad.mul(ad.layer_norm(x, t, shift), weights)), gain)
        _fd(lambda t: ad.sum_all(ad.mul(ad.layer_norm(x, gain, t), weights)), shift)


def test_forward_outputs_finite():
    rng = np.random.default_rng(20)
    x = ad.Tensor(rng.normal(size=(4, 4)) * 100)
    for out in (
        ad.softmax(x),
        ad.layer_norm(x, ad.Tensor(np.ones(4)), ad.Tensor(np.zeros(4))),
        ad.sigmoid(x),
        ad.tanh(x),
    ):
        assert np.isfinite(out.data).all()


@settings(max_examples=60, deadline=None)
@given(shape=st.one_of(
    st.sampled_from([(), (0,), (1,), (2, 3)]),
    st.lists(st.integers(0, 4).map(lambda n: 2 * n + 1), min_size=1, max_size=3).map(tuple),
    st.integers(131073, 140001).map(lambda n: (n,)),  # over 1 MB
))
@example(shape=())
@example(shape=(0,))
@example(shape=(1,))
@example(shape=(2, 3))
@example(shape=(131075,))
def test_aligned_empty_starts_a_cache_line(shape):
    a = ad.aligned_empty(shape)
    assert a.ctypes.data % 64 == 0
    assert a.shape == shape and a.dtype == np.float64
    assert a.flags.c_contiguous and a.flags.writeable
    a[...] = 1.0
    assert a.sum() == a.size


# ---------------------------------------------------------------------------
# empty axes


# (op, operand shapes, numpy forward of the operands' data, or the message of
# the DimensionError raised where the op has no value)
EMPTY_AXIS_CASES = {
    "dense_input_width_0": (ad.dense, [(3, 0), (0, 4), (4,)], lambda x, w, b: x @ w + b),
    "dense_output_width_0": (ad.dense, [(3, 2), (2, 0), (0,)], lambda x, w, b: x @ w + b),
    "conv1d_in_channels_0": (ad.conv1d, [(5, 0), (3, 0, 2), (2,)], conv1d_oracle),
    "conv1d_out_channels_0": (ad.conv1d, [(5, 2), (3, 2, 0), (0,)], conv1d_oracle),
    "conv1d_no_taps": (ad.conv1d, [(5, 2), (0, 2, 3), (3,)], "no taps"),
    "softmax_empty_axis": (ad.softmax, [(3, 0)], "axis 1"),
    "cross_entropy_no_rows": (lambda t: ad.softmax_cross_entropy(t, np.zeros(0, int)), [(0, 3)], "axis 0"),
    "layer_norm_width_0": (ad.layer_norm, [(3, 0), (0,), (0,)], "axis 1"),
}


@pytest.mark.parametrize("case", EMPTY_AXIS_CASES)
def test_empty_axes(case):
    op, shapes, expect = EMPTY_AXIS_CASES[case]
    rng = np.random.default_rng(22)
    args = [ad.Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]
    if isinstance(expect, str):
        with pytest.raises(DimensionError, match=expect):
            ad.backward(ad.sum_all(op(*args)))
        return
    out = op(*args)
    np.testing.assert_allclose(out.data, expect(*(a.data for a in args)), rtol=0, atol=1e-12)
    probe = rng.normal(size=out.shape)
    ad.backward(ad.sum_all(ad.mul(out, ad.Tensor(probe))))
    # with a channel axis empty every product is zero-size or an empty sum, so only
    # the bias, which gets the probe summed over rows, can have a nonzero gradient
    x, weight, bias = args
    np.testing.assert_array_equal(x.grad, np.zeros(x.shape))
    np.testing.assert_array_equal(weight.grad, np.zeros(weight.shape))
    np.testing.assert_allclose(bias.grad, probe.sum(axis=0), rtol=0, atol=1e-12)


def reference_glorot(rng, shape, fan_in, fan_out):
    """Glorot-uniform with the fans passed in: the draw `glorot_uniform` must equal bit for bit."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


@pytest.mark.parametrize("shape,fan_in,fan_out", [
    ((5, 7), 5, 7),  # a dense weight [D_in, D_out]
    ((3, 4, 6), 12, 18),  # a conv kernel [K, C_in, C_out]: K*C_in and K*C_out
    ((1, 3, 2), 3, 2),  # a one-tap conv kernel, whose fans are a dense weight's
])
def test_glorot_fans_come_from_the_shape(shape, fan_in, fan_out):
    got = ad.glorot_uniform(np.random.default_rng(23), shape)
    want = reference_glorot(np.random.default_rng(23), shape, fan_in, fan_out)
    assert got.requires_grad and got.data.shape == shape
    np.testing.assert_array_equal(got.data, want)
