import numpy as np
import pytest

from skelact import autodiff as ad
from skelact.attention import (
    AttentionParams,
    init_attention_params,
    multi_head_self_attention,
    scaled_dot_attention,
)
from skelact.errors import ContractError, DimensionError
from skelact.verify import check_named, probed


def softmax_rows(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def mha_oracle(x, params):
    """Each head (column block i of the stacked projections) computed independently
    with plain numpy, then concatenated."""
    heads = []
    w = params.head_width
    for i in range(params.heads):
        cols = slice(i * w, (i + 1) * w)
        q = x @ params.w_q.data[:, cols]
        k = x @ params.w_k.data[:, cols]
        v = x @ params.w_v.data[:, cols]
        attn = softmax_rows(q @ k.T / np.sqrt(params.head_width))
        heads.append(attn @ v)
    return np.concatenate(heads, axis=1) @ params.w_o.data


def test_single_position_returns_value_row():
    rng = np.random.default_rng(0)
    q = ad.Tensor(rng.normal(size=(1, 4)))
    k = ad.Tensor(rng.normal(size=(1, 4)))
    v = ad.Tensor(rng.normal(size=(1, 4)))
    out, _ = scaled_dot_attention(q, k, v)
    np.testing.assert_allclose(out.data, v.data, atol=1e-12)


def test_identical_keys_give_mean_of_values():
    rng = np.random.default_rng(1)
    q = ad.Tensor(rng.normal(size=(3, 4)))
    k = ad.Tensor(np.tile(rng.normal(size=(1, 4)), (3, 1)))
    v = ad.Tensor(rng.normal(size=(3, 4)))
    out, _ = scaled_dot_attention(q, k, v)
    expect = np.tile(v.data.mean(axis=0), (3, 1))
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


def test_scaled_dot_attention_small_oracle():
    rng = np.random.default_rng(2)
    q = rng.normal(size=(2, 2))
    k = rng.normal(size=(2, 2))
    v = rng.normal(size=(2, 2))
    out, _ = scaled_dot_attention(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v))
    # per-position loop
    expect = np.zeros((2, 2))
    for t in range(2):
        scores = np.array([q[t] @ k[s] / np.sqrt(2.0) for s in range(2)])
        w = np.exp(scores - scores.max())
        w = w / w.sum()
        for s in range(2):
            expect[t] += w[s] * v[s]
    np.testing.assert_allclose(out.data, expect, atol=1e-10)


def test_scaled_dot_attention_query_and_key_lengths_differ():
    rng = np.random.default_rng(13)
    q = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    k = ad.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    v = ad.Tensor(rng.normal(size=(5, 2)), requires_grad=True)
    out, _ = scaled_dot_attention(q, k, v)
    expect = softmax_rows(q.data @ k.data.T / 2.0) @ v.data
    np.testing.assert_allclose(out.data, expect, rtol=0, atol=1e-12)
    ad.backward(ad.sum_all(out))
    assert (q.grad.shape, k.grad.shape, v.grad.shape) == ((3, 4), (5, 4), (5, 2))


def test_attention_weight_rows_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(25):
        t = int(rng.integers(1, 7))
        d = int(rng.integers(1, 9))
        q = ad.Tensor(rng.normal(size=(t, d)) * 3)
        k = ad.Tensor(rng.normal(size=(t, d)) * 3)
        v = ad.Tensor(rng.normal(size=(t, d)))
        _, weights = scaled_dot_attention(q, k, v)
        np.testing.assert_allclose(weights.data.sum(axis=1), np.ones(t), atol=1e-12)


def test_scaled_dot_attention_errors():
    q = ad.Tensor(np.zeros((3, 4)))
    with pytest.raises(DimensionError):
        scaled_dot_attention(q, ad.Tensor(np.zeros((3, 5))), q)
    with pytest.raises(DimensionError):
        scaled_dot_attention(q, q, ad.Tensor(np.zeros((2, 4))))


def test_empty_query_width_raises():
    empty = ad.Tensor(np.zeros((3, 0)))
    with pytest.raises(DimensionError, match=r"^scaled_dot_attention: query width \(axis 1\) is 0$"):
        scaled_dot_attention(empty, empty, ad.Tensor(np.ones((3, 2))))


def test_single_head_identity_projections_reduce():
    rng = np.random.default_rng(4)
    d = 5
    x = ad.Tensor(rng.normal(size=(4, d)))
    eye = lambda: ad.Tensor(np.eye(d), requires_grad=True)
    params = AttentionParams(1, eye(), eye(), eye(), eye())
    out = multi_head_self_attention(x, params)
    expect, _ = scaled_dot_attention(x, x, x)
    np.testing.assert_allclose(out.data, expect.data, atol=1e-12)


def test_shape_preserved_pose_and_rgb_widths():
    rng = np.random.default_rng(5)
    pose_params = init_attention_params(rng, 120, heads=4)
    x = ad.Tensor(rng.normal(size=(84, 120)))
    assert multi_head_self_attention(x, pose_params).data.shape == (84, 120)

    rgb_params = init_attention_params(rng, 1536, heads=4)
    feats = ad.Tensor(rng.normal(size=(20, 1536)))
    assert multi_head_self_attention(feats, rgb_params).data.shape == (20, 1536)


def test_matches_per_head_oracle():
    rng = np.random.default_rng(6)
    for heads in (1, 2, 4):
        for _ in range(20):
            t = int(rng.integers(1, 7))
            d = int(rng.integers(1, 3)) * heads
            params = init_attention_params(rng, d, heads=heads)
            x = rng.normal(size=(t, d))
            out = multi_head_self_attention(ad.Tensor(x), params)
            np.testing.assert_allclose(out.data, mha_oracle(x, params), atol=1e-10)


def test_split_heads_variant():
    rng = np.random.default_rng(7)
    params = init_attention_params(rng, 8, heads=4)
    assert params.head_width == 2
    for w in (params.w_q, params.w_k, params.w_v, params.w_o):
        assert w.data.shape == (8, 8)
    x = rng.normal(size=(5, 8))
    out = multi_head_self_attention(ad.Tensor(x), params)
    assert out.data.shape == (5, 8)
    np.testing.assert_allclose(out.data, mha_oracle(x, params), atol=1e-10)


def test_square_heads_stack_four_projections():
    """The four projections are square [D, D]; each of the h heads is D/h wide."""
    params = init_attention_params(np.random.default_rng(8), 6, heads=2)
    assert params.head_width == 3
    assert [n for n, _ in params.named()] == ["wq", "wk", "wv", "wo"]
    for w in (params.w_q, params.w_k, params.w_v, params.w_o):
        assert w.data.shape == (6, 6)


@pytest.mark.parametrize("model_dim,heads", [(6, 2), (8, 4), (5, 1)])
def test_widths_are_read_from_the_projections(model_dim, heads):
    rng = np.random.default_rng(25)
    weights = [ad.Tensor(rng.normal(size=(model_dim, model_dim))) for _ in range(4)]
    params = AttentionParams(heads, *weights)
    assert (params.model_dim, params.head_width) == (model_dim, model_dim // heads)
    x = rng.normal(size=(3, model_dim))
    np.testing.assert_allclose(multi_head_self_attention(ad.Tensor(x), params).data, mha_oracle(x, params), atol=1e-10)


@pytest.mark.parametrize("model_dim,heads", [(6, 2), (8, 4), (5, 1)])
def test_stacked_columns_equal_per_head_draws(model_dim, heads):
    """Head i's blocks are drawn q_i, k_i, v_i in turn, then W_o, each glorot-uniform."""
    params = init_attention_params(np.random.default_rng(21), model_dim, heads=heads)
    rng = np.random.default_rng(21)
    w = model_dim // heads
    limit = np.sqrt(6.0 / (model_dim + w))
    for i in range(heads):
        cols = slice(i * w, (i + 1) * w)
        for stacked in (params.w_q, params.w_k, params.w_v):
            block = rng.uniform(-limit, limit, size=(model_dim, w))
            np.testing.assert_array_equal(stacked.data[:, cols], block)
    limit_o = np.sqrt(6.0 / (2 * model_dim))
    np.testing.assert_array_equal(
        params.w_o.data, rng.uniform(-limit_o, limit_o, size=(model_dim, model_dim))
    )


def test_return_weights_stacks_heads():
    rng = np.random.default_rng(22)
    params = init_attention_params(rng, 8, heads=4)
    x = rng.normal(size=(3, 5, 8))
    out, weights = multi_head_self_attention(ad.Tensor(x), params, return_weights=True)
    assert out.data.shape == (3, 5, 8)
    assert weights.data.shape == (3, 4, 5, 5)
    np.testing.assert_allclose(weights.data.sum(axis=-1), np.ones((3, 4, 5)), atol=1e-12)
    w = params.head_width
    for i in range(4):
        cols = slice(i * w, (i + 1) * w)
        q = x[1] @ params.w_q.data[:, cols]
        k = x[1] @ params.w_k.data[:, cols]
        expect = softmax_rows(q @ k.T / np.sqrt(params.head_width))
        np.testing.assert_allclose(weights.data[1, i], expect, atol=1e-12)


def test_permutation_equivariance():
    rng = np.random.default_rng(9)
    for _ in range(20):
        t = int(rng.integers(2, 8))
        params = init_attention_params(rng, 8, heads=4)
        x = rng.normal(size=(t, 8))
        perm = rng.permutation(t)
        out_then_perm = multi_head_self_attention(ad.Tensor(x), params).data[perm]
        perm_then_out = multi_head_self_attention(ad.Tensor(x[perm]), params).data
        np.testing.assert_allclose(out_then_perm, perm_then_out, atol=1e-10)


def test_head_divisibility_enforced():
    rng = np.random.default_rng(10)
    with pytest.raises(ContractError):
        init_attention_params(rng, 6, heads=4)
    with pytest.raises(ContractError):
        init_attention_params(rng, 8, heads=0)


def test_input_width_checked():
    rng = np.random.default_rng(11)
    params = init_attention_params(rng, 8, heads=2)
    with pytest.raises(DimensionError, match="axis 1"):
        multi_head_self_attention(ad.Tensor(np.zeros((3, 5))), params)


def test_gradients_pass_finite_differences():
    rng = np.random.default_rng(12)
    params = init_attention_params(rng, 4, heads=2)
    x = ad.Tensor(rng.normal(size=(3, 4)))
    loss = probed(rng, lambda t: multi_head_self_attention(t, params), x)
    assert ad.gradient_check(loss, x) < 1e-4
    for name, err in check_named("", lambda _: loss(x), params.named()):
        assert err < 1e-4, name


def test_init_is_seed_deterministic():
    a = init_attention_params(np.random.default_rng(77), 8, heads=4)
    b = init_attention_params(np.random.default_rng(77), 8, heads=4)
    for (na, ta), (nb, tb) in zip(a.named(), b.named()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)
