import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skelact import autodiff as ad
from skelact.errors import DimensionError
from skelact.recurrent import LstmParams, bilstm, init_lstm_params, lstm_forward
from skelact.verify import check_named, probed


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


def test_zero_weights_give_zero_states():
    params = LstmParams(
        ad.Tensor(np.zeros((3, 8)), requires_grad=True),
        ad.Tensor(np.zeros((2, 8)), requires_grad=True),
        ad.Tensor(np.zeros(8), requires_grad=True),
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

    params = LstmParams(ad.Tensor(w_x), ad.Tensor(w_h), ad.Tensor(bias))
    out = lstm_forward(ad.Tensor(seq), params)
    np.testing.assert_allclose(out.data[:, 0], [h1, h2], atol=1e-12)


def test_matches_recurrence_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        t = int(rng.integers(1, 8))
        d = int(rng.integers(1, 5))
        h = int(rng.integers(1, 5))
        params = init_lstm_params(rng, d, h)
        seq = rng.normal(size=(t, d))
        out = lstm_forward(ad.Tensor(seq), params)
        expect = lstm_oracle(seq, params.w_x.data, params.w_h.data, params.bias.data, h)
        np.testing.assert_allclose(out.data, expect, atol=1e-12)


def test_outputs_bounded():
    rng = np.random.default_rng(2)
    for _ in range(10):
        params = init_lstm_params(rng, 3, 4)
        seq = rng.normal(size=(6, 3)) * 50
        out = lstm_forward(ad.Tensor(seq), params)
        assert (np.abs(out.data) < 1.0).all()


def test_saturated_gates_stay_finite_without_warnings():
    rng = np.random.default_rng(23)
    params = init_lstm_params(rng, 3, 2)
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


@pytest.mark.parametrize("d,h", [(3, 2), (5, 4), (0, 1)])
def test_hidden_size_is_read_from_the_recurrent_weight(d, h):
    rng = np.random.default_rng(24)
    w_x, w_h, bias = (ad.Tensor(rng.normal(size=shape)) for shape in ((d, 4 * h), (h, 4 * h), (4 * h,)))
    params = LstmParams(w_x, w_h, bias)
    assert params.hidden == h
    assert lstm_forward(ad.Tensor(rng.normal(size=(2, d))), params).data.shape == (2, h)


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
    fwd = init_lstm_params(rng, 3, 4)
    bwd = init_lstm_params(rng, 3, 4)
    out = bilstm(ad.Tensor(rng.normal(size=(7, 3))), fwd, bwd)
    assert out.data.shape == (7, 8)


def test_bilstm_two_pass_oracle():
    rng = np.random.default_rng(6)
    fwd = init_lstm_params(rng, 2, 2)
    bwd = init_lstm_params(rng, 2, 2)
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
        p = init_lstm_params(rng, d, h)
        q = init_lstm_params(rng, d, h)
        seq = rng.normal(size=(t, d))
        left = bilstm(ad.Tensor(seq[::-1].copy()), p, q).data
        right = swap_halves(bilstm(ad.Tensor(seq), q, p).data)[::-1]
        np.testing.assert_allclose(left, right, atol=1e-12)


def test_gradients_pass_finite_differences():
    rng = np.random.default_rng(8)
    params = init_lstm_params(rng, 2, 2)
    seq = ad.Tensor(rng.normal(size=(3, 2)))
    loss = probed(rng, lambda t: lstm_forward(t, params), seq)
    assert ad.gradient_check(loss, seq) < 1e-4
    for name, err in check_named("", lambda _: loss(seq), params.named()):
        assert err < 1e-4, name


def test_bilstm_gradients_pass_finite_differences():
    rng = np.random.default_rng(9)
    fwd = init_lstm_params(rng, 2, 2)
    bwd = init_lstm_params(rng, 2, 2)
    seq = ad.Tensor(rng.normal(size=(3, 2)))
    loss = probed(rng, lambda t: bilstm(t, fwd, bwd), seq)
    assert ad.gradient_check(loss, seq) < 1e-4
    for prefix, params in (("fwd.", fwd), ("bwd.", bwd)):
        for name, err in check_named(prefix, lambda _: loss(seq), params.named()):
            assert err < 1e-4, name


def test_hidden_size_mismatch_between_directions():
    rng = np.random.default_rng(10)
    with pytest.raises(DimensionError):
        bilstm(ad.Tensor(np.zeros((3, 2))), init_lstm_params(rng, 2, 2), init_lstm_params(rng, 2, 3))


@pytest.mark.parametrize("shape", [[3, 0], [2, 3, 0]])
def test_bilstm_runs_forward_and_backward_on_a_zero_width_input(shape):
    # numpy cannot infer a -1 sequence count beside an input width of 0
    rng = np.random.default_rng(11)
    fwd, bwd = init_lstm_params(rng, 0, 2), init_lstm_params(rng, 0, 2)
    seq = ad.Tensor(np.zeros(shape), requires_grad=True)
    out = bilstm(seq, fwd, bwd)
    assert out.data.shape == (*shape[:-1], 4)
    ad.backward(ad.sum_all(out))
    assert seq.grad.shape == tuple(shape)
    assert fwd.w_x.grad.shape == (0, 8)


# ---------------------------------------------------------------------------
# in-place recurrence against the allocating per-step reference


def reference_sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def reference_lstm(seq, w_x, w_h, bias, upstream):
    """The allocating per-step LSTM forward and BPTT loop, frozen as plain numpy.

    seq [..., T, D]; returns the output [..., T, H] and the gradients of
    sum(output * upstream) with respect to seq, w_x, w_h and bias.
    """
    *lead, t_len, d = seq.shape
    h = w_h.shape[0]
    steps = np.ascontiguousarray(np.swapaxes(seq.reshape(-1, t_len, d), 0, 1))
    batch = steps.shape[1]
    step_rows = steps.reshape(t_len * batch, d)
    zx = (step_rows @ w_x + bias).reshape(t_len, batch, 4 * h)
    gates = np.empty((t_len, batch, 4 * h))
    cells = np.empty((t_len, batch, h))
    tanh_c = np.empty((t_len, batch, h))
    hidden_seq = np.empty((t_len, batch, h))
    h_prev = np.zeros((batch, h))
    c_prev = np.zeros((batch, h))
    for t in range(t_len):
        z = zx[t] + h_prev @ w_h
        a = gates[t]
        a[:, :2 * h] = reference_sigmoid(z[:, :2 * h])
        a[:, 2 * h:3 * h] = np.tanh(z[:, 2 * h:3 * h])
        a[:, 3 * h:] = reference_sigmoid(z[:, 3 * h:])
        cells[t] = a[:, h:2 * h] * c_prev + a[:, :h] * a[:, 2 * h:3 * h]
        tanh_c[t] = np.tanh(cells[t])
        hidden_seq[t] = a[:, 3 * h:] * tanh_c[t]
        h_prev = hidden_seq[t]
        c_prev = cells[t]
    out = np.swapaxes(hidden_seq, 0, 1).reshape(seq.shape[:-1] + (h,))

    g_steps = np.swapaxes(upstream.reshape(batch, t_len, h), 0, 1)
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
        dz = dz_all[t]
        dz[:, :h] = dc * gate_g * gate_i * (1.0 - gate_i)
        dz[:, h:2 * h] = dc * c_before * gate_f * (1.0 - gate_f)
        dz[:, 2 * h:3 * h] = dc * gate_i * (1.0 - gate_g ** 2)
        dz[:, 3 * h:] = do * gate_o * (1.0 - gate_o)
        dh_next = dz @ w_h.T
        dc_next = dc * gate_f
    dz_rows = dz_all.reshape(t_len * batch, 4 * h)
    prev_hidden = np.concatenate([np.zeros((1, batch, h)), hidden_seq[:-1]]).reshape(t_len * batch, h)
    d_steps = (dz_rows @ w_x.T).reshape(t_len, batch, d)
    d_seq = np.swapaxes(d_steps, 0, 1).reshape(seq.shape)
    return out, d_seq, step_rows.T @ dz_rows, prev_hidden.T @ dz_rows, dz_rows.sum(axis=0)


# float64 rounding: the in-place backward reassociates the gate products
GRAD_RTOL, GRAD_ATOL = 1e-12, 1e-13


def param_grads(params):
    return [params.w_x.grad, params.w_h.grad, params.bias.grad]


def assert_grads_close(actual, expected):
    for got, want in zip(actual, expected):
        np.testing.assert_allclose(got, want, rtol=GRAD_RTOL, atol=GRAD_ATOL)


@settings(max_examples=60, deadline=None)
@given(
    t_len=st.integers(1, 7),
    lead=st.sampled_from([(), (1,), (3,), (2, 2)]),
    d=st.integers(1, 5),
    h=st.integers(1, 5),
    input_scale=st.sampled_from([1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(t_len=84, lead=(1,), d=5, h=6, input_scale=1.0, seed=0)
@example(t_len=20, lead=(4,), d=5, h=6, input_scale=1e3, seed=1)
def test_lstm_and_bilstm_match_per_step_reference(t_len, lead, d, h, input_scale, seed):
    rng = np.random.default_rng(seed)
    fwd, bwd = init_lstm_params(rng, d, h), init_lstm_params(rng, d, h)
    for params in (fwd, bwd):
        params.bias.data = rng.normal(size=4 * h)
    seq_data = input_scale * rng.normal(size=lead + (t_len, d))

    upstream = rng.normal(size=lead + (t_len, h))
    seq = ad.Tensor(seq_data, requires_grad=True)
    out = lstm_forward(seq, fwd)
    ad.backward(ad.sum_all(ad.mul(out, ad.Tensor(upstream))))
    want_out, want_dseq, *want_params = reference_lstm(
        seq_data, fwd.w_x.data, fwd.w_h.data, fwd.bias.data, upstream)
    np.testing.assert_array_equal(out.data, want_out)
    assert_grads_close([seq.grad] + param_grads(fwd), [want_dseq] + want_params)

    for params in (fwd, bwd):
        params.w_x.grad = params.w_h.grad = params.bias.grad = None
    upstream = rng.normal(size=lead + (t_len, 2 * h))
    seq = ad.Tensor(seq_data, requires_grad=True)
    out = bilstm(seq, fwd, bwd)
    ad.backward(ad.sum_all(ad.mul(out, ad.Tensor(upstream))))
    want_f, dseq_f, *want_fwd = reference_lstm(
        seq_data, fwd.w_x.data, fwd.w_h.data, fwd.bias.data, upstream[..., :h])
    reversed_seq = seq_data[..., ::-1, :]
    want_b, dseq_b, *want_bwd = reference_lstm(
        reversed_seq, bwd.w_x.data, bwd.w_h.data, bwd.bias.data, upstream[..., ::-1, h:])
    np.testing.assert_array_equal(out.data, np.concatenate([want_f, want_b[..., ::-1, :]], axis=-1))
    assert_grads_close([seq.grad] + param_grads(fwd) + param_grads(bwd),
                       [dseq_f + dseq_b[..., ::-1, :]] + want_fwd + want_bwd)


# ---------------------------------------------------------------------------
# bilstm against the frozen two-node composition


def reference_bilstm(seq_data, fwd, bwd, upstream):
    """The BiLSTM as a forward lstm_forward beside one over the rows flipped with
    numpy, its output flipped back, frozen as the reference for the reversed pass.

    Returns the output and the gradients of sum(output * upstream) with respect
    to the input and to the six parameters (fwd w_x, w_h, bias, then bwd's);
    the parameters' own `.grad` slots are overwritten.
    """
    h = fwd.hidden
    for params in (fwd, bwd):
        params.w_x.grad = params.w_h.grad = params.bias.grad = None
    forward_in = ad.Tensor(seq_data, requires_grad=True)
    backward_in = ad.Tensor(np.flip(seq_data, -2).copy(), requires_grad=True)
    forward_out = lstm_forward(forward_in, fwd)
    backward_out = lstm_forward(backward_in, bwd)
    loss = ad.add(ad.sum_all(ad.mul(forward_out, ad.Tensor(upstream[..., :h]))),
                  ad.sum_all(ad.mul(backward_out, ad.Tensor(np.flip(upstream[..., h:], -2).copy()))))
    ad.backward(loss)
    out = np.concatenate([forward_out.data, np.flip(backward_out.data, -2)], axis=-1)
    d_seq = forward_in.grad + np.flip(backward_in.grad, -2)
    return out, d_seq, param_grads(fwd) + param_grads(bwd)


@settings(max_examples=40, deadline=None)
@given(
    t_len=st.integers(1, 6),
    lead=st.sampled_from([(), (1,), (2, 3)]),
    d=st.integers(1, 4),
    h=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(t_len=1, lead=(), d=1, h=1, seed=0)
@example(t_len=6, lead=(2, 3), d=4, h=4, seed=1)
def test_bilstm_matches_frozen_reference(t_len, lead, d, h, seed):
    rng = np.random.default_rng(seed)
    fwd, bwd = init_lstm_params(rng, d, h), init_lstm_params(rng, d, h)
    seq_data = rng.normal(size=lead + (t_len, d))
    upstream = rng.normal(size=lead + (t_len, 2 * h))
    want_out, want_dseq, want_params = reference_bilstm(seq_data, fwd, bwd, upstream)

    for params in (fwd, bwd):
        params.w_x.grad = params.w_h.grad = params.bias.grad = None
    seq = ad.Tensor(seq_data, requires_grad=True)
    out = bilstm(seq, fwd, bwd)
    ad.backward(ad.sum_all(ad.mul(out, ad.Tensor(upstream))))
    np.testing.assert_array_equal(out.data, want_out)
    np.testing.assert_array_equal(seq.grad, want_dseq)
    for got, want in zip(param_grads(fwd) + param_grads(bwd), want_params, strict=True):
        np.testing.assert_array_equal(got, want)
    with ad.no_grad():
        np.testing.assert_array_equal(bilstm(ad.Tensor(seq_data), fwd, bwd).data, want_out)


# ---------------------------------------------------------------------------
# parameter alignment may change speed only


def bilstm_bits(values, offset, seq_data, upstream, h):
    """Output and every gradient of a bilstm whose six parameters are copied,
    in order, into one vector that starts `offset` bytes past a cache line,
    and built unwritten inside it, as a checkpoint load builds in its payload."""
    total = sum(v.size for v in values)
    flat = ad.aligned_empty(total + 8)[offset // 8:offset // 8 + total]
    assert flat.ctypes.data % 64 == offset
    np.concatenate([v.ravel() for v in values], out=flat)
    d = values[0].shape[0]
    with ad.parameter_vector(flat):
        fwd, bwd = init_lstm_params(None, d, h), init_lstm_params(None, d, h)
    tensors = [tensor for params in (fwd, bwd) for _, tensor in params.named()]
    seq = ad.Tensor(seq_data, requires_grad=True)
    out = bilstm(seq, fwd, bwd)
    ad.backward(ad.sum_all(ad.mul(out, ad.Tensor(upstream))))
    return [out.data, seq.grad] + [t.grad for t in tensors]


@pytest.mark.parametrize("lead", [(), (4,)])
def test_bilstm_bits_do_not_depend_on_parameter_alignment(lead):
    # the default pose BiLSTM's hidden size, over 84 steps at batch 1 and 4
    rng = np.random.default_rng(11)
    d, h, t_len = 24, 128, 84
    values = []
    for _ in range(2):
        params = init_lstm_params(rng, d, h)
        params.bias.data = rng.normal(size=4 * h)
        values += [params.w_x.data, params.w_h.data, params.bias.data]
    seq_data = rng.normal(size=lead + (t_len, d))
    upstream = rng.normal(size=lead + (t_len, 2 * h))
    aligned = bilstm_bits(values, 0, seq_data, upstream, h)
    for offset in (8, 16, 48):
        for got, want in zip(bilstm_bits(values, offset, seq_data, upstream, h), aligned, strict=True):
            np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# a forward that will not be recorded keeps no backward buffers


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("lead", [(), (1,), (16,)])
def test_no_grad_forward_gives_the_grad_mode_bits(lead, reverse):
    rng = np.random.default_rng(21)
    params = init_lstm_params(rng, 6, 5)
    params.bias.data = rng.normal(size=20)
    seq_data = rng.normal(size=lead + (13, 6))
    recorded = lstm_forward(ad.Tensor(seq_data, requires_grad=True), params, reverse=reverse)
    assert recorded.requires_grad
    with ad.no_grad():
        plain = lstm_forward(ad.Tensor(seq_data, requires_grad=True), params, reverse=reverse)
    assert not plain.requires_grad
    np.testing.assert_array_equal(plain.data, recorded.data)


def traced_peak(fn):
    """Peak bytes traced while `fn()` runs, above what was traced before it; fn's result is kept."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        kept = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    del kept
    return peak


def test_no_grad_bilstm_peaks_below_grad_mode_by_the_gate_buffer():
    # the default clip length, at the validation pass's 16 clips per forward
    t_len, batch, d, h = 84, 16, 16, 32
    rng = np.random.default_rng(22)
    fwd, bwd = init_lstm_params(rng, d, h), init_lstm_params(rng, d, h)
    seq_data = rng.normal(size=(batch, t_len, d))
    recorded = traced_peak(lambda: bilstm(ad.Tensor(seq_data, requires_grad=True), fwd, bwd))
    with ad.no_grad():
        plain = traced_peak(lambda: bilstm(ad.Tensor(seq_data, requires_grad=True), fwd, bwd))
    # grad mode holds both directions' [T, B, 4H] gates for backward; no_grad never
    # holds one whole
    assert recorded - plain >= 2 * t_len * batch * 4 * h * 8, (recorded, plain)
