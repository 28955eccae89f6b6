import re

import numpy as np
import pytest

from skelact import autodiff as ad
from skelact.errors import ContractError, DimensionError
from skelact.streams import (
    SEU_KERNELS,
    TEU_KERNELS,
    ConvParams,
    StreamConfig,
    apply_conv_stack,
    init_conv_stack,
    init_stream_params,
    plain_encode,
    seu_encode,
    stream_forward,
    teu_encode,
)
from skelact.verify import check_named, probed

from oracles import conv1d_oracle

LINEAR3 = ("linear", "linear", "linear")


def relu(x):
    return np.maximum(x, 0.0)


def default_seu_layers(rng):
    return init_conv_stack(rng, 3, (32, 48, 64), SEU_KERNELS)


def default_teu_layers(rng, frames=20):
    return init_conv_stack(rng, frames, (32, 48, 64), TEU_KERNELS)


# ---------------------------------------------------------------------------
# spatial encoder


def test_seu_output_shape():
    rng = np.random.default_rng(0)
    pose = ad.Tensor(rng.normal(size=(20, 25, 3)))
    out = seu_encode(pose, default_seu_layers(rng))
    assert out.data.shape == (20, 1600)


def test_seu_duplicate_frames_give_identical_rows():
    rng = np.random.default_rng(1)
    pose = rng.normal(size=(5, 7, 3))
    pose[1] = pose[0]
    out = seu_encode(ad.Tensor(pose), default_seu_layers(rng))
    assert (out.data[0] == out.data[1]).all()


def test_seu_single_layer_identity():
    rng = np.random.default_rng(2)
    pose = rng.normal(size=(4, 6, 3))
    layers = [ConvParams(ad.Tensor(np.eye(3)[None]), ad.Tensor(np.zeros(3)))]
    out = seu_encode(ad.Tensor(pose), layers, activations=("linear",))
    np.testing.assert_allclose(out.data, pose.reshape(4, 18), atol=0)


def test_seu_matches_per_frame_oracle():
    rng = np.random.default_rng(3)
    layers = init_conv_stack(rng, 3, (4, 5, 6), (1, 1, 1))
    pose = rng.normal(size=(6, 5, 3))
    out = seu_encode(ad.Tensor(pose), layers)
    expect = np.zeros((6, 5 * 6))
    for t in range(6):
        frame = pose[t]
        frame = relu(conv1d_oracle(frame, layers[0].kernel.data, layers[0].bias.data))
        frame = relu(conv1d_oracle(frame, layers[1].kernel.data, layers[1].bias.data))
        frame = conv1d_oracle(frame, layers[2].kernel.data, layers[2].bias.data)
        expect[t] = frame.reshape(-1)
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


def test_seu_wide_kernel_path_matches_oracle():
    # kernel width > 1 mixes neighbouring joints, but never neighbouring frames
    rng = np.random.default_rng(4)
    layers = init_conv_stack(rng, 2, (3, 3, 4), (3, 1, 2))
    pose = rng.normal(size=(3, 6, 2))
    out = seu_encode(ad.Tensor(pose), layers)
    expect = np.zeros((3, 6 * 4))
    for t in range(3):
        frame = pose[t]
        frame = relu(conv1d_oracle(frame, layers[0].kernel.data, layers[0].bias.data))
        frame = relu(conv1d_oracle(frame, layers[1].kernel.data, layers[1].bias.data))
        frame = conv1d_oracle(frame, layers[2].kernel.data, layers[2].bias.data)
        expect[t] = frame.reshape(-1)
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


def test_seu_time_distributed_permutation():
    rng = np.random.default_rng(5)
    for _ in range(20):
        layers = init_conv_stack(rng, 3, (3, 4, 4), (1, 1, 1))
        pose = rng.normal(size=(6, 4, 3))
        perm = rng.permutation(6)
        direct = seu_encode(ad.Tensor(pose[perm]), layers).data
        permuted = seu_encode(ad.Tensor(pose), layers).data[perm]
        np.testing.assert_allclose(direct, permuted, atol=1e-10)


def test_seu_linearity_with_linear_zero_bias():
    rng = np.random.default_rng(6)
    layers = init_conv_stack(rng, 3, (4, 4, 5), (1, 1, 1))
    pose = rng.normal(size=(5, 6, 3))
    a = 2.7
    scaled = seu_encode(ad.Tensor(a * pose), layers, activations=LINEAR3).data
    base = seu_encode(ad.Tensor(pose), layers, activations=LINEAR3).data
    np.testing.assert_allclose(scaled, a * base, atol=1e-10 * max(1, np.abs(base).max()))


# ---------------------------------------------------------------------------
# temporal encoder


def test_teu_output_shape_and_leading_axis():
    rng = np.random.default_rng(7)
    pose = ad.Tensor(rng.normal(size=(20, 25, 3)))
    out = teu_encode(pose, default_teu_layers(rng))
    assert out.data.shape == (64, 75)

    # leading axis equals the final filter count for other configurations too
    layers = init_conv_stack(rng, 6, (3, 4, 7), (3, 3, 3))
    pose_small = ad.Tensor(rng.normal(size=(6, 4, 2)))
    out_small = teu_encode(pose_small, layers)
    assert out_small.data.shape == (7, 8)


def test_teu_one_layer_matches_conv_then_transpose_oracle():
    rng = np.random.default_rng(8)
    pose = rng.normal(size=(6, 2, 1))
    layers = [ConvParams(ad.Tensor(rng.normal(size=(2, 6, 3))), ad.Tensor(rng.normal(size=3)))]
    out = teu_encode(ad.Tensor(pose), layers, activations=("linear",))
    trajectories = pose.reshape(6, 2).T  # [J*D, T]
    expect = conv1d_oracle(trajectories, layers[0].kernel.data, layers[0].bias.data).T
    assert out.data.shape == expect.shape == (3, 2)
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


def test_teu_time_constant_input_collapses_time_channels():
    # all frames equal: the time channels contribute only through the kernel's
    # channel sum, so a collapsed single-channel conv reproduces the output
    rng = np.random.default_rng(9)
    frame = rng.normal(size=(5, 2))
    pose = np.tile(frame[None], (4, 1, 1))
    kern = rng.normal(size=(2, 4, 3))
    layers = [ConvParams(ad.Tensor(kern), ad.Tensor(np.zeros(3)))]
    out = teu_encode(ad.Tensor(pose), layers, activations=("linear",))

    collapsed = kern.sum(axis=1, keepdims=True)  # [K_w, 1, C_out]
    trajectories = frame.reshape(1, 10).T  # [J*D, 1]
    expect = conv1d_oracle(trajectories, collapsed, np.zeros(3)).T
    np.testing.assert_allclose(out.data, expect, atol=1e-12)

    # replicating a different number of identical frames with matching kernels
    # leaves nothing time-dependent: same trajectories, same collapsed conv
    pose2 = np.tile(frame[None], (4, 1, 1)) + 0.0
    out2 = teu_encode(ad.Tensor(pose2), layers, activations=("linear",))
    np.testing.assert_allclose(out.data, out2.data, atol=0)


def test_teu_linearity_with_linear_zero_bias():
    rng = np.random.default_rng(10)
    layers = init_conv_stack(rng, 5, (3, 4, 4), (3, 3, 3))
    pose = rng.normal(size=(5, 3, 2))
    a = -1.3
    scaled = teu_encode(ad.Tensor(a * pose), layers, activations=LINEAR3).data
    base = teu_encode(ad.Tensor(pose), layers, activations=LINEAR3).data
    np.testing.assert_allclose(scaled, a * base, atol=1e-10 * max(1, np.abs(base).max()))


def test_plain_encode_shape():
    rng = np.random.default_rng(11)
    layers = init_conv_stack(rng, 75, (32, 48, 64), (3, 3, 3))
    pose = ad.Tensor(rng.normal(size=(20, 25, 3)))
    out = plain_encode(pose, layers)
    assert out.data.shape == (20, 64)


# ---------------------------------------------------------------------------
# stream forward


def zeroed_stream_params(config, in_channels):
    params = init_stream_params(np.random.default_rng(0), in_channels, config)
    for conv in params.post:
        conv.kernel.data[:] = 0.0
        conv.bias.data[:] = 0.0
    return params


def test_stream_forward_residual_dominates_with_zero_post():
    config = StreamConfig(post_filters=(4, 5, 8))
    rng = np.random.default_rng(12)
    encoded = ad.Tensor(rng.normal(size=(6, 8)))
    params = zeroed_stream_params(config, 8)
    assert params.proj is None
    out = stream_forward(encoded, params)
    expect = ad.layer_norm(encoded, params.ln_gain, params.ln_shift)
    np.testing.assert_allclose(out.data, expect.data, atol=1e-12)


def test_stream_forward_channel_dim_is_120_for_both_streams():
    rng = np.random.default_rng(13)
    config = StreamConfig()
    seu_out = ad.Tensor(rng.normal(size=(20, 1600)))
    teu_out = ad.Tensor(rng.normal(size=(64, 75)))
    spatial = stream_forward(seu_out, init_stream_params(rng, 1600, config))
    temporal = stream_forward(teu_out, init_stream_params(rng, 75, config))
    assert spatial.data.shape == (20, 120)
    assert temporal.data.shape == (64, 120)


def test_stream_forward_row_statistics():
    rng = np.random.default_rng(14)
    config = StreamConfig(post_filters=(4, 5, 6))
    encoded = ad.Tensor(rng.normal(size=(5, 9)))
    out = stream_forward(encoded, init_stream_params(rng, 9, config))
    assert np.abs(out.data.mean(axis=1)).max() < 1e-10


def test_stream_forward_gradient_through_residual_path():
    config = StreamConfig(post_filters=(3, 3, 4))
    rng = np.random.default_rng(15)
    encoded = ad.Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    params = zeroed_stream_params(config, 6)
    f = probed(rng, lambda t: stream_forward(t, params), encoded)
    assert ad.gradient_check(f, encoded) < 1e-4
    ad.backward(f(encoded))
    assert np.abs(encoded.grad).max() > 0


def test_stream_forward_full_gradients():
    config = StreamConfig(post_filters=(3, 3, 4))
    rng = np.random.default_rng(16)
    encoded = ad.Tensor(rng.normal(size=(4, 5)))
    params = init_stream_params(rng, 5, config)
    loss = probed(rng, lambda t: stream_forward(t, params), encoded)
    for name, err in check_named("", lambda _: loss(encoded), params.named()):
        assert err < 1e-4, name


def test_stream_forward_residual_width_mismatch():
    rng = np.random.default_rng(18)
    params = init_stream_params(rng, 6, StreamConfig(post_filters=(3, 3, 4)))
    params.proj = None  # the 6-wide input now meets the 4-wide post stack unprojected
    with pytest.raises(DimensionError, match="axis 1"):
        stream_forward(ad.Tensor(rng.normal(size=(5, 6))), params)


# ---------------------------------------------------------------------------
# fusion


def test_fuse_shapes_and_order():
    rng = np.random.default_rng(17)
    spatial = ad.Tensor(rng.normal(size=(20, 120)))
    temporal = ad.Tensor(rng.normal(size=(64, 120)))
    fused = ad.concat([spatial, temporal], axis=-2)
    assert fused.data.shape == (84, 120)
    assert (fused.data[:20] == spatial.data).all()
    assert (fused.data[20:] == temporal.data).all()


def test_fuse_channel_mismatch():
    with pytest.raises(DimensionError, match="axis 1"):
        ad.concat([ad.Tensor(np.zeros((4, 8))), ad.Tensor(np.zeros((4, 6)))], axis=-2)
    with pytest.raises(DimensionError, match="axis 0"):
        ad.concat([ad.Tensor(np.zeros((2, 4, 8))), ad.Tensor(np.zeros((3, 4, 8)))], axis=-2)


# ---------------------------------------------------------------------------
# config validation


def test_stream_config_validation():
    with pytest.raises(ContractError):
        StreamConfig(seu_filters=(32, 48))
    with pytest.raises(ContractError):
        StreamConfig(activations=("relu", "relu", "softplus"))
    # every filter count is an integer >= 1, and the error names the entry
    for name, bad, index in (("post_filters", (3, 3, 0), 2), ("post_filters", (3, 3, -4), 2),
                             ("seu_filters", (2, 2.5, 2), 1), ("teu_filters", (True, 2, 2), 0),
                             ("post_filters", (3, 3, "wide"), 2)):
        with pytest.raises(ContractError, match=re.escape(f"StreamConfig.{name}[{index}] must be an integer >= 1")):
            StreamConfig(**{name: bad})
    config = StreamConfig()
    assert config.post_filters[-1] == config.channel_dim == 120
    # the stream width is the last post filter count, never set on its own
    assert StreamConfig(post_filters=(96, 112, 100)).channel_dim == 100
    with pytest.raises(AttributeError):
        config.channel_dim = 100


def test_apply_conv_stack_activation_count_checked():
    rng = np.random.default_rng(18)
    layers = init_conv_stack(rng, 3, (4, 4, 4), (1, 1, 1))
    with pytest.raises(ContractError):
        apply_conv_stack(ad.Tensor(np.zeros((5, 3))), layers, ("relu", "linear"))
