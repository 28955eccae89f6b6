import warnings

import numpy as np
import pytest

from skelact import autodiff as ad
from skelact.errors import DimensionError
from skelact.recurrent import LstmParams, bilstm, init_lstm_params, lstm_forward


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def lstm_oracle(seq, w_x, w_h, bias, hidden):
    """Step-by-step recurrence with per-gate slices, no shared code."""
    out = np.zeros((seq.shape[0], hidden))
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    for t in range(seq.shape[0]):
        z = seq[t] @ w_x + h @ w_h + bias
        gi = sigmoid(z[:hidden])
        gf = sigmoid(z[hidden:2 * hidden])
        gg = np.tanh(z[2 * hidden:3 * hidden])
        go = sigmoid(z[3 * hidden:])
        c = gf * c + gi * gg
        h = go * np.tanh(c)
        out[t] = h
    return out


def make_params(rng, d, h):
    return init_lstm_params(rng, d, h)


def test_zero_weights_give_zero_states():
    params = LstmParams(
        ad.Tensor(np.zeros((3, 8)), requires_grad=True),
        ad.Tensor(np.zeros((2, 8)), requires_grad=True),
        ad.Tensor(np.zeros(8), requires_grad=True),
        hidden=2,
    )
    seq = ad.Tensor(np.random.default_rng(0).normal(size=(5, 3)))
    out = lstm_forward(seq, params)
    np.testing.assert_array_equal(out.data, np.zeros((5, 2)))


def test_two_step_hand_recurrence():
    w_x = np.array([[0.5, -0.3, 0.8, 0.2]])
    w_h = np.array([[0.1, 0.4, -0.2, 0.3]])
    bias = np.array([0.05, 1.0, -0.1, 0.2])
    seq = np.array([[1.0], [-0.5]])

    # step 1 by hand
    z1 = seq[0, 0] * w_x[0] + bias
    i1, f1 = sigmoid(z1[0]), sigmoid(z1[1])
    g1, o1 = np.tanh(z1[2]), sigmoid(z1[3])
    c1 = i1 * g1
    h1 = o1 * np.tanh(c1)
    # step 2 by hand
    z2 = seq[1, 0] * w_x[0] + h1 * w_h[0] + bias
    i2, f2 = sigmoid(z2[0]), sigmoid(z2[1])
    g2, o2 = np.tanh(z2[2]), sigmoid(z2[3])
    c2 = f2 * c1 + i2 * g2
    h2 = o2 * np.tanh(c2)

    params = LstmParams(ad.Tensor(w_x), ad.Tensor(w_h), ad.Tensor(bias), hidden=1)
    out = lstm_forward(ad.Tensor(seq), params)
    np.testing.assert_allclose(out.data[:, 0], [h1, h2], atol=1e-12)


def test_matches_recurrence_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        t = int(rng.integers(1, 8))
        d = int(rng.integers(1, 5))
        h = int(rng.integers(1, 5))
        params = make_params(rng, d, h)
        seq = rng.normal(size=(t, d))
        out = lstm_forward(ad.Tensor(seq), params)
        expect = lstm_oracle(seq, params.w_x.data, params.w_h.data, params.bias.data, h)
        np.testing.assert_allclose(out.data, expect, atol=1e-12)


def test_outputs_bounded():
    rng = np.random.default_rng(2)
    for _ in range(10):
        params = make_params(rng, 3, 4)
        seq = rng.normal(size=(6, 3)) * 50
        out = lstm_forward(ad.Tensor(seq), params)
        assert (np.abs(out.data) < 1.0).all()


def test_saturated_gates_stay_finite_without_warnings():
    rng = np.random.default_rng(23)
    params = make_params(rng, 3, 2)
    seq = ad.Tensor(1e4 * rng.normal(size=(6, 3)), requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = lstm_forward(seq, params)
        ad.backward(ad.sum_all(out))
    assert np.isfinite(out.data).all() and np.abs(out.data).max() <= 1.0
    assert np.isfinite(seq.grad).all()


def test_forget_bias_initialized_to_one():
    params = init_lstm_params(np.random.default_rng(3), 5, 4)
    np.testing.assert_array_equal(params.bias.data[4:8], np.ones(4))
    np.testing.assert_array_equal(params.bias.data[:4], np.zeros(4))
    assert params.w_x.data.shape == (5, 16)
    assert params.w_h.data.shape == (4, 16)


def test_shape_errors():
    params = init_lstm_params(np.random.default_rng(4), 3, 2)
    with pytest.raises(DimensionError):
        lstm_forward(ad.Tensor(np.zeros((4, 5))), params)
    with pytest.raises(DimensionError):
        lstm_forward(ad.Tensor(np.zeros((0, 3))), params)
    with pytest.raises(DimensionError):
        lstm_forward(ad.Tensor(np.zeros(3)), params)


def test_bilstm_shape():
    rng = np.random.default_rng(5)
    fwd = make_params(rng, 3, 4)
    bwd = make_params(rng, 3, 4)
    out = bilstm(ad.Tensor(rng.normal(size=(7, 3))), fwd, bwd)
    assert out.data.shape == (7, 8)


def test_bilstm_two_pass_oracle():
    rng = np.random.default_rng(6)
    fwd = make_params(rng, 2, 2)
    bwd = make_params(rng, 2, 2)
    seq = rng.normal(size=(3, 2))
    out = bilstm(ad.Tensor(seq), fwd, bwd)
    first = lstm_forward(ad.Tensor(seq), fwd).data
    second = lstm_forward(ad.Tensor(seq[::-1].copy()), bwd).data[::-1]
    np.testing.assert_allclose(out.data, np.hstack([first, second]), atol=1e-12)


def swap_halves(x):
    h = x.shape[1] // 2
    return np.hstack([x[:, h:], x[:, :h]])


def test_bilstm_reversal_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(30):
        t = int(rng.integers(1, 7))
        d = int(rng.integers(1, 4))
        h = int(rng.integers(1, 4))
        p = make_params(rng, d, h)
        q = make_params(rng, d, h)
        seq = rng.normal(size=(t, d))
        left = bilstm(ad.Tensor(seq[::-1].copy()), p, q).data
        right = swap_halves(bilstm(ad.Tensor(seq), q, p).data)[::-1]
        np.testing.assert_allclose(left, right, atol=1e-12)


def test_gradients_pass_finite_differences():
    rng = np.random.default_rng(8)
    params = make_params(rng, 2, 2)
    seq = ad.Tensor(rng.normal(size=(3, 2)))
    readout = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)

    def wrt_seq(t):
        return ad.sum_all(ad.mul(lstm_forward(t, params), readout))

    def wrt_param(_):
        return ad.sum_all(ad.mul(lstm_forward(seq, params), readout))

    assert ad.gradient_check(wrt_seq, seq) < 1e-4
    for tensor in (params.w_x, params.w_h, params.bias):
        assert ad.gradient_check(wrt_param, tensor) < 1e-4


def test_bilstm_gradients_pass_finite_differences():
    rng = np.random.default_rng(9)
    fwd = make_params(rng, 2, 2)
    bwd = make_params(rng, 2, 2)
    seq = ad.Tensor(rng.normal(size=(3, 2)))
    readout = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)

    def wrt(tensor_role_seq):
        def f(t):
            inner = t if tensor_role_seq else seq
            return ad.sum_all(ad.mul(bilstm(inner, fwd, bwd), readout))
        return f

    assert ad.gradient_check(wrt(True), seq) < 1e-4
    for tensor in (fwd.w_x, fwd.w_h, fwd.bias, bwd.w_x, bwd.w_h, bwd.bias):
        assert ad.gradient_check(wrt(False), tensor) < 1e-4


def test_hidden_size_mismatch_between_directions():
    rng = np.random.default_rng(10)
    with pytest.raises(DimensionError):
        bilstm(ad.Tensor(np.zeros((3, 2))), make_params(rng, 2, 2), make_params(rng, 2, 3))
