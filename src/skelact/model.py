"""Network assembly: pose branch, RGB branch, late fusing of the two, ablation variants.

Every component draws its initial weights from its own seeded stream, so
toggling one ablation flag never shifts the initialization of the others;
two builds of the same (config, seed) are bit-identical, and a variant with
an extra module enabled keeps all shared parameters equal.
"""

from __future__ import annotations

import json
import numbers
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .attention import AttentionParams, init_attention_params, multi_head_self_attention
from .errors import ContractError, DimensionError, ParseError
from .recurrent import LstmParams, bilstm, init_lstm_params
from .streams import (
    StreamConfig,
    StreamParams,
    fuse_pose_streams,
    init_conv_stack,
    init_stream_params,
    plain_encode,
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
    coords: int = 3
    rgb_width: int = 1536
    hidden: int = 128
    num_classes: int = 4
    heads: int = 4
    stream: StreamConfig = field(default_factory=StreamConfig)
    attention_split_heads: bool = False

    def __post_init__(self):
        if isinstance(self.stream, dict):
            self.stream = StreamConfig(**self.stream)
        if not isinstance(self.stream, StreamConfig):
            raise ContractError(f"ModelDims.stream must be a StreamConfig or a dict, got {self.stream!r}")
        if not isinstance(self.attention_split_heads, bool):
            raise ContractError(
                f"ModelDims.attention_split_heads must be a bool, got {self.attention_split_heads!r}"
            )
        for name in ("frames", "joints", "coords", "rgb_width", "hidden", "num_classes", "heads"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
                raise ContractError(f"ModelDims.{name} must be a positive integer, got {value!r}")


@dataclass
class PoseBranchParams:
    spatial_enc: list
    temporal_enc: list
    spatial_stream: StreamParams
    temporal_stream: StreamParams
    attention: AttentionParams | None
    lstm_fwd: LstmParams
    lstm_bwd: LstmParams


@dataclass
class RgbBranchParams:
    attention: AttentionParams | None
    lstm_fwd: LstmParams
    lstm_bwd: LstmParams


@dataclass
class ModelParams:
    ablation: AblationConfig
    dims: ModelDims
    seed: int
    pose: PoseBranchParams | None
    rgb: RgbBranchParams | None
    classifier_w: "ad.Tensor"
    classifier_b: "ad.Tensor"

    def named_parameters(self):
        def conv_stack(prefix, layers):
            for idx, conv in enumerate(layers, start=1):
                for leaf, tensor in conv.named():
                    yield f"{prefix}{idx}.{leaf}", tensor

        if self.pose is not None:
            yield from conv_stack("pose.spatial.enc", self.pose.spatial_enc)
            for leaf, tensor in self.pose.spatial_stream.named():
                yield f"pose.spatial.{leaf}", tensor
            yield from conv_stack("pose.temporal.enc", self.pose.temporal_enc)
            for leaf, tensor in self.pose.temporal_stream.named():
                yield f"pose.temporal.{leaf}", tensor
            if self.pose.attention is not None:
                for leaf, tensor in self.pose.attention.named():
                    yield f"pose.attention.{leaf}", tensor
            for direction, lstm in (("fwd", self.pose.lstm_fwd), ("bwd", self.pose.lstm_bwd)):
                for leaf, tensor in lstm.named():
                    yield f"pose.lstm.{direction}.{leaf}", tensor
        if self.rgb is not None:
            if self.rgb.attention is not None:
                for leaf, tensor in self.rgb.attention.named():
                    yield f"rgb.attention.{leaf}", tensor
            for direction, lstm in (("fwd", self.rgb.lstm_fwd), ("bwd", self.rgb.lstm_bwd)):
                for leaf, tensor in lstm.named():
                    yield f"rgb.lstm.{direction}.{leaf}", tensor
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


def build_variant(ablation, dims, seed=0):
    """Construct and initialize exactly the sub-modules the variant needs."""
    cfg = dims.stream
    pose = None
    rgb = None
    if ablation.branch in ("pose", "both"):
        flat = dims.joints * dims.coords
        if ablation.use_seu:
            spatial_enc = init_conv_stack(
                _component_rng(seed, "pose.spatial.enc"), dims.coords, cfg.seu_filters, cfg.seu_kernels
            )
            spatial_width = dims.joints * cfg.seu_filters[-1]
        else:
            # baseline: plain time-axis convs on raw flattened coordinates
            spatial_enc = init_conv_stack(
                _component_rng(seed, "pose.spatial.enc"), flat, cfg.seu_filters, cfg.teu_kernels
            )
            spatial_width = cfg.seu_filters[-1]
        if ablation.use_teu:
            temporal_enc = init_conv_stack(
                _component_rng(seed, "pose.temporal.enc"), dims.frames, cfg.teu_filters, cfg.teu_kernels
            )
            temporal_width = flat
        else:
            temporal_enc = init_conv_stack(
                _component_rng(seed, "pose.temporal.enc"), flat, cfg.teu_filters, cfg.teu_kernels
            )
            temporal_width = cfg.teu_filters[-1]
        spatial_stream = init_stream_params(
            _component_rng(seed, "pose.spatial.stream"), spatial_width, cfg
        )
        temporal_stream = init_stream_params(
            _component_rng(seed, "pose.temporal.stream"), temporal_width, cfg
        )
        attention = None
        if ablation.use_attention:
            attention = init_attention_params(
                _component_rng(seed, "pose.attention"),
                cfg.channel_dim,
                heads=dims.heads,
                split_heads=dims.attention_split_heads,
            )
        lstm_rng = _component_rng(seed, "pose.lstm")
        pose = PoseBranchParams(
            spatial_enc,
            temporal_enc,
            spatial_stream,
            temporal_stream,
            attention,
            init_lstm_params(lstm_rng, cfg.channel_dim, dims.hidden),
            init_lstm_params(lstm_rng, cfg.channel_dim, dims.hidden),
        )
    if ablation.branch in ("rgb", "both"):
        attention = None
        if ablation.use_attention:
            attention = init_attention_params(
                _component_rng(seed, "rgb.attention"),
                dims.rgb_width,
                heads=dims.heads,
                split_heads=dims.attention_split_heads,
            )
        lstm_rng = _component_rng(seed, "rgb.lstm")
        rgb = RgbBranchParams(
            attention,
            init_lstm_params(lstm_rng, dims.rgb_width, dims.hidden),
            init_lstm_params(lstm_rng, dims.rgb_width, dims.hidden),
        )

    fused_width = 2 * dims.hidden
    head_rng = _component_rng(seed, "classifier")
    classifier_w = ad.glorot_uniform(
        head_rng, (fused_width, dims.num_classes), fused_width, dims.num_classes
    )
    classifier_b = ad.zeros(dims.num_classes)
    return ModelParams(ablation, dims, seed, pose, rgb, classifier_w, classifier_b)


# ---------------------------------------------------------------------------
# forward passes


def pose_branch(pose, params):
    """Two encoder streams fused along the time axis, optional attention, bi-LSTM.

    pose is [T, J, D] or a batch [B, T, J, D]; the result is [(B,) T', 2H].
    """
    if params.pose is None:
        raise ContractError("model has no pose branch")
    branch = params.pose
    cfg = params.dims.stream
    if params.ablation.use_seu:
        spatial_in = seu_encode(pose, branch.spatial_enc, cfg.activations)
    else:
        spatial_in = plain_encode(pose, branch.spatial_enc, cfg.activations)
    if params.ablation.use_teu:
        temporal_in = teu_encode(pose, branch.temporal_enc, cfg.activations)
    else:
        temporal_in = plain_encode(pose, branch.temporal_enc, cfg.activations)
    fused = fuse_pose_streams(
        stream_forward(spatial_in, branch.spatial_stream),
        stream_forward(temporal_in, branch.temporal_stream),
    )
    if branch.attention is not None:
        fused = ad.add(fused, multi_head_self_attention(fused, branch.attention))
    return bilstm(fused, branch.lstm_fwd, branch.lstm_bwd)


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
    x = features
    if params.rgb.attention is not None:
        x = ad.add(x, multi_head_self_attention(x, params.rgb.attention))
    return bilstm(x, params.rgb.lstm_fwd, params.rgb.lstm_bwd)


def late_fuse_and_classify(pose_out, rgb_out, params):
    """Fuse branch sequences, pool over time, classify; returns probabilities.

    Branch outputs are [T', 2H] or batches [B, T', 2H]; the result is [C] or [B, C].
    """
    outs = [o for o in (pose_out, rgb_out) if o is not None]
    if not outs:
        raise ContractError("no branch outputs to classify")
    fused = outs[0] if len(outs) == 1 else ad.concat(outs, axis=-2)
    pooled = ad.global_avg_pool(fused)
    rows = ad.reshape(pooled, (-1, pooled.data.shape[-1]))
    logits = ad.dense(rows, params.classifier_w, params.classifier_b)
    return ad.reshape(ad.softmax(logits), pooled.data.shape[:-1] + (params.dims.num_classes,))


def forward(params, pose=None, features=None):
    """Full variant forward to class probabilities: [C] for one sample, [B, C] for a batch.

    pose is [T, J, D] or [B, T, J, D] and features [T, W] or [B, T, W]; with
    both branches, both inputs have the same leading axes.
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
    return late_fuse_and_classify(pose_out, rgb_out, params)


# ---------------------------------------------------------------------------
# checkpoints

_CKPT_MAGIC = b"CKP2"
_MANIFEST_KEYS = {"ablation", "dims", "seed", "tensors"}


def save_checkpoint(path, params):
    names = [(name, list(tensor.data.shape)) for name, tensor in params.named_parameters()]
    manifest = {
        "ablation": asdict(params.ablation),
        "dims": asdict(params.dims),
        "seed": params.seed,
        "tensors": names,
    }
    blob = json.dumps(manifest).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, tensor in params.named_parameters():
            fh.write(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())


def load_checkpoint(path):
    blob = open(path, "rb").read()
    if blob[:4] != _CKPT_MAGIC:
        raise ParseError(f"{path}: bad magic at byte offset 0, expected {_CKPT_MAGIC.decode()}")
    if len(blob) < 8:
        raise ParseError(f"{path}: truncated header at byte offset {len(blob)}")
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
        entries = [(name, shape) for name, shape in manifest["tensors"]]
        params = build_variant(
            AblationConfig(**manifest["ablation"]), ModelDims(**manifest["dims"]), manifest["seed"]
        )
    except (TypeError, ValueError) as exc:  # ContractError and DimensionError included
        raise ParseError(f"{path}: invalid manifest at byte offset 8 ({exc})") from None
    tensors = dict(params.named_parameters())
    offset = 8 + manifest_len
    for name, shape in entries:
        if not isinstance(name, str) or name not in tensors:
            raise ParseError(f"{path}: manifest names unknown tensor {name!r}")
        tensor = tensors.pop(name)
        if list(tensor.data.shape) != shape:
            raise ParseError(
                f"{path}: tensor {name!r} has shape {shape} in manifest, build expects {list(tensor.data.shape)}"
            )
        count = tensor.data.size
        end = offset + count * 8
        if end > len(blob):
            raise ParseError(f"{path}: payload for {name!r} truncated at byte offset {len(blob)}")
        values = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        if not np.isfinite(values).all():
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ParseError(f"{path}: non-finite value at byte offset {offset + bad * 8}")
        tensor.data = values.reshape(tensor.data.shape).copy()
        offset = end
    if tensors:
        raise ParseError(f"{path}: payload missing tensors {sorted(tensors)}")
    if offset != len(blob):
        raise ParseError(f"{path}: {len(blob) - offset} trailing bytes at byte offset {offset}")
    return params
