"""Network assembly: pose branch, RGB branch, late fusing of the two, ablation variants.

Every component draws its initial weights from its own seeded stream, so
adding one module never shifts the initialization of the others; two builds
of the same (config, seed) are bit-identical, and a row of the ablation
table keeps all the parameters it shares with the rows above it equal.
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
from .data import COORDS, FEATURE_WIDTH, TARGET_FRAMES, read_container, write_container
from .errors import ContractError, DimensionError, ParseError, require_integer
from .recurrent import LstmParams, bilstm, init_lstm_params
from .streams import (
    SEU_KERNELS,
    TEU_KERNELS,
    StreamConfig,
    StreamParams,
    init_conv_stack,
    init_stream_params,
    named_conv_stack,
    plain_encode,
    prefixed,
    seu_encode,
    stream_forward,
    teu_encode,
)

# the ablation table, in row order: each variant's row label; each row adds one module to the row above
VARIANT_ROWS = {
    "baseline": "Baseline",
    "seu": "+ SEU",
    "seu+teu": "+ TEU",
    "full": "+ Multi-Head Self Attention",
}
# the variants each branch builds: the RGB branch has no pose encoder, so only attention changes its model
BRANCH_VARIANTS = {"pose": tuple(VARIANT_ROWS), "rgb": ("baseline", "full"), "both": tuple(VARIANT_ROWS)}
BRANCHES = tuple(BRANCH_VARIANTS)


@dataclass(frozen=True)
class AblationConfig:
    """One row of the ablation table on one branch; the modules it uses follow from the row."""
    variant: str
    branch: str

    def __post_init__(self):
        if self.branch not in BRANCHES:
            raise ContractError(f"branch must be pose, rgb, or both, got {self.branch!r}")
        allowed = BRANCH_VARIANTS[self.branch]
        if self.variant not in allowed:
            raise ContractError(f"branch {self.branch} has variants {', '.join(allowed)}, got {self.variant!r}")

    use_seu = property(lambda self: self.variant != "baseline")
    use_teu = property(lambda self: self.variant in ("seu+teu", "full"))
    use_attention = property(lambda self: self.variant == "full")


def variant_config(name, branch="pose"):
    return AblationConfig(name, branch)


@dataclass
class ModelDims:
    # no flag sets frames, rgb_width, hidden or stream: verify.model_dims and CKP2 manifests do
    frames: int = TARGET_FRAMES
    joints: int = 25
    rgb_width: int = FEATURE_WIDTH
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


def init_tail(component_rng, branch, width, hidden, use_attention):
    """The tail of `branch` ("pose" or "rgb") over rows of `width`.

    `component_rng(name)` gives the stream of component `name`, or None to draw nothing.
    """
    attention = None
    if use_attention:
        attention = init_attention_params(component_rng(f"{branch}.attention"), width)
    lstm_rng = component_rng(f"{branch}.lstm")
    fwd, bwd = (init_lstm_params(lstm_rng, width, hidden) for _ in range(2))
    return TailParams(attention, fwd, bwd)


def build_variant(ablation, dims, seed=0):
    """Construct and initialize exactly the sub-modules the variant needs.

    Every tensor is a slice of one vector that the build allocates, in
    `named_parameters()` order, each starting a cache line
    (`ad.parameter_vector`), and each init draws straight into its slice. A
    first pass builds the structure unwritten, for its shapes.
    """
    shapes = [t.shape for t in _build(ablation, dims, seed, lambda component: None).tensors()]
    with ad.parameter_vector(ad.aligned_empty(ad.vector_size(shapes))):
        return _build(ablation, dims, seed, lambda component: _component_rng(seed, component))


def _build(ablation, dims, seed, component_rng):
    """The variant's modules, each drawn from `component_rng(name)`, created in `named_parameters()` order.

    Where that returns None the tensors are allocated and left unwritten
    (see `ad.glorot_uniform`), for `load_checkpoint` to bind.
    """
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
            component_rng("pose.spatial.enc"), spatial_in, cfg.seu_filters, spatial_kernels
        )
        spatial_stream = init_stream_params(component_rng("pose.spatial.stream"), spatial_width, cfg)
        temporal_enc = init_conv_stack(
            component_rng("pose.temporal.enc"), temporal_in, cfg.teu_filters, TEU_KERNELS
        )
        temporal_stream = init_stream_params(component_rng("pose.temporal.stream"), temporal_width, cfg)
        tail = init_tail(component_rng, "pose", cfg.channel_dim, dims.hidden, ablation.use_attention)
        pose = PoseBranchParams(spatial_enc, temporal_enc, spatial_stream, temporal_stream, tail)
    if ablation.branch in ("rgb", "both"):
        rgb = init_tail(component_rng, "rgb", dims.rgb_width, dims.hidden, ablation.use_attention)

    head_rng = component_rng("classifier")
    classifier_w = ad.glorot_uniform(head_rng, (2 * dims.hidden, dims.num_classes))
    classifier_b = ad.constant(head_rng, dims.num_classes, 0.0)
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
    acts = params.dims.stream.activations
    spatial_encode = seu_encode if params.ablation.use_seu else plain_encode
    temporal_encode = teu_encode if params.ablation.use_teu else plain_encode
    # spatial rows, then temporal, along time (-2); no local keeps a stream's output past the
    # concat, and each call is positional, so a tracer keeping positional arguments can replay it
    fused = ad.concat([
        stream_forward(spatial_encode(pose, branch.spatial_enc, acts), branch.spatial_stream, acts),
        stream_forward(temporal_encode(pose, branch.temporal_enc, acts), branch.temporal_stream, acts),
    ], axis=-2)
    return tail_forward(fused, branch.tail)


def rgb_branch(features, params):
    """Optional attention over per-frame features, then bi-LSTM.

    features is [T, W] or a batch [B, T, W], W checked by the tail's first layer; the result is [(B,) T, 2H].
    """
    if params.rgb is None:
        raise ContractError("model has no RGB branch")
    if features.data.ndim < 2 or features.data.shape[-2] != params.dims.frames:
        raise DimensionError(
            f"features of shape {features.data.shape} do not have {params.dims.frames} frames on axis -2"
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
    """Write `params` as a CKP2 file; the manifest's trailing spaces start the payload on a cache line.

    The padding lies inside the declared manifest length, and JSON allows
    it, so any CKP2 reader parses the file. `load_checkpoint` maps a payload
    so placed instead of copying it.
    """
    manifest = {
        "ablation": asdict(params.ablation),
        "dims": asdict(params.dims),
        "seed": params.seed,
        "tensors": [(name, list(tensor.data.shape)) for name, tensor in params.named_parameters()],
    }
    blob = json.dumps(manifest).encode("utf-8")
    blob += b" " * (-(len(_CKPT_MAGIC) + 4 + len(blob)) % ad.CACHE_LINE)
    header = struct.pack("<I", len(blob)) + blob
    write_container(path, _CKPT_MAGIC, header, [tensor.data for tensor in params.tensors()])


def _checkpoint_header(path, head, read):
    """(ablation, dims, seed, tensor entries) and float64 count of a CKP2 file."""
    (manifest_len,) = struct.unpack("<I", head[4:8])
    text = read(manifest_len, "manifest")
    try:
        manifest = json.loads(text.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: unreadable manifest at byte offset 8 ({exc})") from None
    try:
        if not isinstance(manifest, dict) or set(manifest) != _MANIFEST_KEYS:
            raise ContractError(f"manifest must be an object with keys {sorted(_MANIFEST_KEYS)}")
        require_integer("manifest", "seed", manifest["seed"], 0)
        entries = [[name, shape] for name, shape in manifest["tensors"]]
        for name, shape in entries:
            if not isinstance(name, str) or not isinstance(shape, list):
                raise ContractError(f"tensor entry {[name, shape]!r} is not [name, list of sizes]")
            for size in shape:
                require_integer("manifest", f"tensors[{name!r}]", size, 0)
        ablation = AblationConfig(**manifest["ablation"])
        dims = ModelDims(**manifest["dims"])
    except (TypeError, ValueError) as exc:  # ContractError and DimensionError included
        raise ParseError(f"{path}: invalid manifest at byte offset 8 ({exc})") from None
    count = sum(math.prod(shape) for _, shape in entries)
    return (ablation, dims, manifest["seed"], entries), count


def load_checkpoint(path):
    """Rebuild the manifest's variant and bind its tensors to the payload, with no weight draw.

    The payload length is checked against the manifest's shapes before
    anything is built. The variant's structure is then built with every
    tensor left unwritten, and the manifest's tensor list must equal the
    build's, names, shapes and order. Each tensor's data becomes its
    C-contiguous slice of the one payload array.

    A payload that `save_checkpoint` placed on a cache line is not copied:
    the array is a writable view of a copy-on-write map of the file (see
    `data.read_container`), and the loaded model keeps the file open and
    mapped while it lives. So while a process holds a checkpoint, replace
    its file (as `save_checkpoint` does, by a rename), never rewrite it in
    place. A checkpoint written before that padding is read into an owned,
    aligned array, with the same values.
    """
    (ablation, dims, seed, entries), payload = read_container(path, _CKPT_MAGIC, 4, _checkpoint_header)
    try:
        params = _build(ablation, dims, seed, lambda component: None)
    except (TypeError, ValueError, MemoryError) as exc:
        raise ParseError(f"{path}: invalid manifest at byte offset 8 ({exc})") from None
    named = list(params.named_parameters())
    built = [[name, list(tensor.data.shape)] for name, tensor in named]
    for index, (entry, expected) in enumerate(itertools.zip_longest(entries, built)):
        if entry != expected:
            raise ParseError(f"{path}: invalid manifest at byte offset 8 "
                             f"(tensor {index} is {entry}, the build has {expected})")
    bind(params.tensors(), payload)
    return params


def bind(tensors, flat):
    """Rebind each tensor's data, in order, to its C-contiguous slice of the vector `flat`."""
    start = 0
    for t in tensors:
        t.data = flat[start:start + t.data.size].reshape(t.data.shape)
        start += t.data.size
