"""Pose encoders and their convolutional streams.

The spatial encoder maps each frame's joints through a shared conv stack;
the temporal encoder runs convolutions along the joint-trajectory axis with
the time samples as channels and then transposes, so its filter count
becomes the sequence's new row (learned-temporal) axis. Both feed a
three-layer post stack with a residual connection and layer normalization.
Every function takes one clip or a batch: leading axes are batch.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from .errors import ContractError, DimensionError, require_integer

_ACTIVATIONS = {
    "relu": ad.relu,
    "sigmoid": ad.sigmoid,
    "tanh": ad.tanh,
    "linear": lambda t: t,
}


@dataclass
class ConvParams:
    kernel: "ad.Tensor"  # [K_w, C_in, C_out]
    bias: "ad.Tensor"    # [C_out]

    def named(self):
        yield "kernel", self.kernel
        yield "bias", self.bias


# per-layer kernel widths: SEU convs see one joint, TEU and post convs three positions
SEU_KERNELS = (1, 1, 1)
TEU_KERNELS = (3, 3, 3)
POST_KERNELS = (3, 3, 3)


@dataclass
class StreamConfig:
    """Filter counts and activations of the three-layer encoder and post stacks.

    Kernel widths are the module's fixed SEU/TEU/POST_KERNELS, and the
    stream's output width `channel_dim` is the last post filter count.
    """

    seu_filters: tuple = (32, 48, 64)
    teu_filters: tuple = (32, 48, 64)
    post_filters: tuple = (96, 112, 120)
    activations: tuple = ("relu", "relu", "linear")

    def __post_init__(self):
        for name in ("seu_filters", "teu_filters", "post_filters", "activations"):
            value = tuple(getattr(self, name))
            setattr(self, name, value)
            if len(value) != 3:
                raise ContractError(f"StreamConfig.{name} must list exactly 3 layers, got {len(value)}")
        for name in ("seu_filters", "teu_filters", "post_filters"):
            for index, count in enumerate(getattr(self, name)):
                require_integer("StreamConfig", f"{name}[{index}]", count, 1)
        for act in self.activations:
            if act not in _ACTIVATIONS:
                raise ContractError(f"unknown activation {act!r}")

    @property
    def channel_dim(self):
        return self.post_filters[-1]


@dataclass
class StreamParams:
    post: list
    proj: ConvParams | None
    ln_gain: "ad.Tensor"
    ln_shift: "ad.Tensor"

    def named(self):
        yield from named_conv_stack("post", self.post)
        if self.proj is not None:
            yield from prefixed("proj.", self.proj.named())
        yield "ln.gain", self.ln_gain
        yield "ln.shift", self.ln_shift


def prefixed(prefix, named):
    """The (name, tensor) pairs of `named` with `prefix` put before every name."""
    return ((prefix + name, tensor) for name, tensor in named)


def named_conv_stack(prefix, layers):
    """(name, tensor) leaves of a conv stack, layers numbered from 1: `{prefix}{i}.kernel`."""
    for idx, conv in enumerate(layers, start=1):
        yield from prefixed(f"{prefix}{idx}.", conv.named())


def init_conv_params(rng, kernel_width, c_in, c_out):
    return ConvParams(ad.glorot_uniform(rng, (kernel_width, c_in, c_out)), ad.constant(rng, c_out, 0.0))


def init_conv_stack(rng, c_in, filters, kernels):
    layers = []
    for c_out, k in zip(filters, kernels):
        layers.append(init_conv_params(rng, k, c_in, c_out))
        c_in = c_out
    return layers


def init_stream_params(rng, in_channels, config):
    post = init_conv_stack(rng, in_channels, config.post_filters, POST_KERNELS)
    proj = None
    if in_channels != config.channel_dim:
        proj = init_conv_params(rng, 1, in_channels, config.channel_dim)
    return StreamParams(
        post,
        proj,
        ad.constant(rng, config.channel_dim, 1.0),
        ad.constant(rng, config.channel_dim, 0.0),
    )


def apply_conv_stack(x, layers, activations):
    if len(layers) != len(activations):
        raise ContractError(
            f"{len(layers)} conv layers but {len(activations)} activations"
        )
    for conv, act in zip(layers, activations):
        x = _ACTIVATIONS[act](ad.conv1d(x, conv.kernel, conv.bias))
    return x


def _check_pose(pose):
    if pose.data.ndim < 3:
        raise DimensionError(
            f"pose tensor must be 3-d [T, J, D] or a batch [..., T, J, D], got {pose.data.ndim}-d"
        )


def _frames_as_rows(pose):
    """[..., T, J, D] -> [..., T, J*D]: each frame's joints flattened into one row."""
    *lead, t_len, joints, coords = pose.data.shape
    return ad.reshape(pose, (*lead, t_len, joints * coords))


def seu_encode(pose, layers, activations=StreamConfig.activations):
    """Per-frame conv over the joint axis; frames stacked back as rows [..., T, J*F].

    Frames are batch rows of the convolution, so no frame sees another.
    """
    _check_pose(pose)
    encoded = apply_conv_stack(pose, layers, activations)
    *lead, t_len, joints, filters = encoded.data.shape
    return ad.reshape(encoded, (*lead, t_len, joints * filters))


def teu_encode(pose, layers, activations=StreamConfig.activations):
    """Conv along the trajectory axis with time samples as channels, then transpose.

    [..., T, J, D] -> trajectories [..., J*D, T] -> conv stack -> [..., J*D, F]
    -> [..., F, J*D], so the learned filter axis replaces time as the row axis.
    """
    _check_pose(pose)
    trajectories = ad.transpose(_frames_as_rows(pose))
    encoded = apply_conv_stack(trajectories, layers, activations)
    return ad.transpose(encoded)


def plain_encode(pose, layers, activations=StreamConfig.activations):
    """Baseline stream input: convs straight over time on raw flattened coordinates."""
    _check_pose(pose)
    return apply_conv_stack(_frames_as_rows(pose), layers, activations)


def stream_forward(encoded, params, activations=StreamConfig.activations):
    """Three post conv layers, residual from the encoder output, then layer norm."""
    post_out = apply_conv_stack(encoded, params.post, activations)
    if params.proj is not None:
        residual = ad.conv1d(encoded, params.proj.kernel, params.proj.bias)
    else:
        residual = encoded
    return ad.layer_norm(ad.add(post_out, residual), params.ln_gain, params.ln_shift)
