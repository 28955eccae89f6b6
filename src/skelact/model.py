"""Network assembly: pose branch, RGB branch, late fusing of the two, ablation variants.

Every component draws its initial weights from its own seeded stream, so
toggling one ablation flag never shifts the initialization of the others;
two builds of the same (config, seed) are bit-identical, and a variant with
an extra module enabled keeps all shared parameters equal.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .attention import AttentionParams, init_attention_params, multi_head_self_attention
from .data import COORDS, read_container, write_container
from .errors import ContractError, DimensionError, ParseError, require_integer
from .recurrent import LstmParams, bilstm, init_lstm_params
from .streams import (
    SEU_KERNELS,
    TEU_KERNELS,
    StreamConfig,
    StreamParams,
    fuse_pose_streams,
    init_conv_stack,
    init_stream_params,
    named_conv_stack,
    plain_encode,
    prefixed,
    seu_encode,
    stream_forward,
    teu_encode,
)

VARIANT_FLAGS = {
    "baseline": (False, False, False),
    "seu": (True, False, False),
    "seu+teu": (True, True, False),
    "full": (True, True, True),
}


@dataclass
class AblationConfig:
    use_seu: bool = True
    use_teu: bool = True
    use_attention: bool = True
    branch: str = "pose"

    def __post_init__(self):
        for name in ("use_seu", "use_teu", "use_attention"):
            if not isinstance(getattr(self, name), bool):
                raise ContractError(f"AblationConfig.{name} must be a bool, got {getattr(self, name)!r}")
        if self.branch not in ("pose", "rgb", "both"):
            raise ContractError(f"branch must be pose, rgb, or both, got {self.branch!r}")


def variant_config(name, branch="pose"):
    if name not in VARIANT_FLAGS:
        raise ContractError(f"unknown variant {name!r}, expected one of {sorted(VARIANT_FLAGS)}")
    seu, teu, attention = VARIANT_FLAGS[name]
    return AblationConfig(seu, teu, attention, branch)


@dataclass
class ModelDims:
    frames: int = 20
    joints: int = 25
    rgb_width: int = 1536
    hidden: int = 128
    num_classes: int = 4
    stream: StreamConfig = field(default_factory=StreamConfig)

    def __post_init__(self):
        if isinstance(self.stream, dict):
            self.stream = StreamConfig(**self.stream)
        if not isinstance(self.stream, StreamConfig):
            raise ContractError(f"ModelDims.stream must be a StreamConfig or a dict, got {self.stream!r}")
        for name in ("frames", "joints", "rgb_width", "hidden", "num_classes"):
            require_integer("ModelDims", name, getattr(self, name), 1)


@dataclass
class TailParams:
    """The end of both branches: residual multi-head attention (or none), then a BiLSTM."""
    attention: AttentionParams | None
    lstm_fwd: LstmParams
    lstm_bwd: LstmParams

    def named(self):
        if self.attention is not None:
            yield from prefixed("attention.", self.attention.named())
        yield from prefixed("lstm.fwd.", self.lstm_fwd.named())
        yield from prefixed("lstm.bwd.", self.lstm_bwd.named())


@dataclass
class PoseBranchParams:
    spatial_enc: list
    temporal_enc: list
    spatial_stream: StreamParams
    temporal_stream: StreamParams
    tail: TailParams


@dataclass
class ModelParams:
    ablation: AblationConfig
    dims: ModelDims
    seed: int
    pose: PoseBranchParams | None
    rgb: TailParams | None
    classifier_w: "ad.Tensor"
    classifier_b: "ad.Tensor"

    def named_parameters(self):
        if self.pose is not None:
            yield from named_conv_stack("pose.spatial.enc", self.pose.spatial_enc)
            yield from prefixed("pose.spatial.", self.pose.spatial_stream.named())
            yield from named_conv_stack("pose.temporal.enc", self.pose.temporal_enc)
            yield from prefixed("pose.temporal.", self.pose.temporal_stream.named())
            yield from prefixed("pose.", self.pose.tail.named())
        if self.rgb is not None:
            yield from prefixed("rgb.", self.rgb.named())
        yield "classifier.weight", self.classifier_w
        yield "classifier.bias", self.classifier_b

    def tensors(self):
        return [tensor for _, tensor in self.named_parameters()]

    def parameter_count(self):
        return sum(t.size for t in self.tensors())

    def zero_grads(self):
        for t in self.tensors():
            t.grad = None


def _component_rng(seed, component):
    # fixed component ids keep sibling initializations independent of flags
    ids = {
        "pose.spatial.enc": 1,
        "pose.spatial.stream": 2,
        "pose.temporal.enc": 3,
        "pose.temporal.stream": 4,
        "pose.attention": 5,
        "pose.lstm": 6,
        "rgb.attention": 7,
        "rgb.lstm": 8,
        "classifier": 9,
    }
    return np.random.default_rng([seed, ids[component]])


def init_tail(seed, branch, width, hidden, use_attention):
    """The tail of `branch` ("pose" or "rgb") over rows of `width`, drawn from that branch's streams."""
    attention = None
    if use_attention:
        attention = init_attention_params(_component_rng(seed, f"{branch}.attention"), width)
    lstm_rng = _component_rng(seed, f"{branch}.lstm")
    fwd, bwd = (init_lstm_params(lstm_rng, width, hidden) for _ in range(2))
    return TailParams(attention, fwd, bwd)


def build_variant(ablation, dims, seed=0):
    """Construct and initialize exactly the sub-modules the variant needs."""
    cfg = dims.stream
    pose = None
    rgb = None
    if ablation.branch in ("pose", "both"):
        flat = dims.joints * COORDS
        # without SEU or TEU an encoder is plain time-axis convs on raw flattened coordinates
        seu_out, teu_out = cfg.seu_filters[-1], cfg.teu_filters[-1]
        if ablation.use_seu:
            spatial_in, spatial_kernels, spatial_width = COORDS, SEU_KERNELS, dims.joints * seu_out
        else:
            spatial_in, spatial_kernels, spatial_width = flat, TEU_KERNELS, seu_out
        temporal_in, temporal_width = (dims.frames, flat) if ablation.use_teu else (flat, teu_out)
        spatial_enc = init_conv_stack(
            _component_rng(seed, "pose.spatial.enc"), spatial_in, cfg.seu_filters, spatial_kernels
        )
        temporal_enc = init_conv_stack(
            _component_rng(seed, "pose.temporal.enc"), temporal_in, cfg.teu_filters, TEU_KERNELS
        )
        spatial_stream = init_stream_params(
            _component_rng(seed, "pose.spatial.stream"), spatial_width, cfg
        )
        temporal_stream = init_stream_params(
            _component_rng(seed, "pose.temporal.stream"), temporal_width, cfg
        )
        tail = init_tail(seed, "pose", cfg.channel_dim, dims.hidden, ablation.use_attention)
        pose = PoseBranchParams(spatial_enc, temporal_enc, spatial_stream, temporal_stream, tail)
    if ablation.branch in ("rgb", "both"):
        rgb = init_tail(seed, "rgb", dims.rgb_width, dims.hidden, ablation.use_attention)

    fused_width = 2 * dims.hidden
    head_rng = _component_rng(seed, "classifier")
    classifier_w = ad.glorot_uniform(
        head_rng, (fused_width, dims.num_classes), fused_width, dims.num_classes
    )
    classifier_b = ad.zeros(dims.num_classes)
    return ModelParams(ablation, dims, seed, pose, rgb, classifier_w, classifier_b)


# ---------------------------------------------------------------------------
# forward passes


def tail_forward(x, tail):
    """[..., T, D] -> [..., T, 2H]: x plus its self-attention when the tail has one, then the BiLSTM."""
    if tail.attention is not None:
        x = ad.add(x, multi_head_self_attention(x, tail.attention))
    return bilstm(x, tail.lstm_fwd, tail.lstm_bwd)


def pose_branch(pose, params):
    """Two encoder streams fused along the time axis, optional attention, bi-LSTM.

    pose is [T, J, D] or a batch [B, T, J, D]; the result is [(B,) T', 2H].
    """
    if params.pose is None:
        raise ContractError("model has no pose branch")
    branch = params.pose
    cfg = params.dims.stream
    spatial_encode = seu_encode if params.ablation.use_seu else plain_encode
    temporal_encode = teu_encode if params.ablation.use_teu else plain_encode
    fused = fuse_pose_streams(
        stream_forward(spatial_encode(pose, branch.spatial_enc, cfg.activations), branch.spatial_stream),
        stream_forward(temporal_encode(pose, branch.temporal_enc, cfg.activations), branch.temporal_stream),
    )
    return tail_forward(fused, branch.tail)


def rgb_branch(features, params):
    """Optional attention over per-frame features, then bi-LSTM.

    features is [T, W] or a batch [B, T, W]; the result is [(B,) T, 2H].
    """
    if params.rgb is None:
        raise ContractError("model has no RGB branch")
    axis = features.data.ndim - 1
    if features.data.ndim < 2 or features.data.shape[-1] != params.dims.rgb_width:
        raise DimensionError(
            f"feature width {features.data.shape[-1]} does not match "
            f"configured width {params.dims.rgb_width} (axis {axis})"
        )
    if features.data.shape[-2] != params.dims.frames:
        raise DimensionError(
            f"feature sequence has {features.data.shape[-2]} frames, "
            f"expected {params.dims.frames} (axis {axis - 1})"
        )
    return tail_forward(features, params.rgb)


def late_fuse_and_classify(pose_out, rgb_out, params):
    """Fuse branch sequences, pool over time, classify; returns class logits.

    Branch outputs are [T', 2H] or batches [B, T', 2H]; the result is [C] or [B, C].
    """
    outs = [o for o in (pose_out, rgb_out) if o is not None]
    if not outs:
        raise ContractError("no branch outputs to classify")
    fused = outs[0] if len(outs) == 1 else ad.concat(outs, axis=-2)
    return ad.dense(ad.global_avg_pool(fused), params.classifier_w, params.classifier_b)


def forward(params, pose=None, features=None, logits=False):
    """Full variant forward to class probabilities: [C] for one sample, [B, C] for a batch.

    pose is [T, J, D] or [B, T, J, D] and features [T, W] or [B, T, W]; with
    both branches, both inputs have the same leading axes. With logits=True
    the result is the pre-softmax class scores, which the training loss reads.
    """
    pose_out = None
    rgb_out = None
    if params.pose is not None:
        if pose is None:
            raise ContractError("variant requires pose input")
        pose_out = pose_branch(pose, params)
    if params.rgb is not None:
        if features is None:
            raise ContractError("variant requires RGB features")
        rgb_out = rgb_branch(features, params)
    scores = late_fuse_and_classify(pose_out, rgb_out, params)
    return scores if logits else ad.softmax(scores)


# ---------------------------------------------------------------------------
# checkpoints

_CKPT_MAGIC = b"CKP2"
_MANIFEST_KEYS = {"ablation", "dims", "seed", "tensors"}


def save_checkpoint(path, params):
    manifest = {
        "ablation": asdict(params.ablation),
        "dims": asdict(params.dims),
        "seed": params.seed,
        "tensors": [(name, list(tensor.data.shape)) for name, tensor in params.named_parameters()],
    }
    blob = json.dumps(manifest).encode("utf-8")
    header = struct.pack("<I", len(blob)) + blob
    write_container(path, _CKPT_MAGIC, header, [tensor.data for tensor in params.tensors()])


def _is_size(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _checkpoint_header(path, blob):
    """(ablation, dims, seed, tensor entries), payload offset and float64 count of a CKP2 file."""
    (manifest_len,) = struct.unpack("<I", blob[4:8])
    if len(blob) < 8 + manifest_len:
        raise ParseError(f"{path}: manifest truncated at byte offset {len(blob)}")
    try:
        manifest = json.loads(blob[8:8 + manifest_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: unreadable manifest at byte offset 8 ({exc})") from None
    try:
        if not isinstance(manifest, dict) or set(manifest) != _MANIFEST_KEYS:
            raise ContractError(f"manifest must be an object with keys {sorted(_MANIFEST_KEYS)}")
        entries = [[name, shape] for name, shape in manifest["tensors"]]
        for name, shape in entries:
            if not isinstance(name, str) or not isinstance(shape, list) or not all(map(_is_size, shape)):
                raise ContractError(f"tensor entry {[name, shape]!r} is not [name, list of sizes]")
        ablation = AblationConfig(**manifest["ablation"])
        dims = ModelDims(**manifest["dims"])
    except (TypeError, ValueError) as exc:  # ContractError and DimensionError included
        raise ParseError(f"{path}: invalid manifest at byte offset 8 ({exc})") from None
    count = sum(math.prod(shape) for _, shape in entries)
    return (ablation, dims, manifest["seed"], entries), 8 + manifest_len, count


def load_checkpoint(path):
    """Rebuild the manifest's variant and copy the payload into its tensors in place.

    The payload length is checked against the manifest's shapes before
    anything is built, and the manifest's tensor list must then equal the
    build's, names, shapes and order.
    """
    (ablation, dims, seed, entries), payload = read_container(path, _CKPT_MAGIC, 4, _checkpoint_header)
    try:
        params = build_variant(ablation, dims, seed)
    except (TypeError, ValueError, MemoryError) as exc:
        raise ParseError(f"{path}: invalid manifest at byte offset 8 ({exc})") from None
    named = list(params.named_parameters())
    built = [[name, list(tensor.data.shape)] for name, tensor in named]
    for index, (entry, expected) in enumerate(itertools.zip_longest(entries, built)):
        if entry != expected:
            raise ParseError(f"{path}: invalid manifest at byte offset 8 "
                             f"(tensor {index} is {entry}, the build has {expected})")
    start = 0
    for _, tensor in named:
        tensor.data[...] = payload[start:start + tensor.data.size].reshape(tensor.data.shape)
        start += tensor.data.size
    return params
