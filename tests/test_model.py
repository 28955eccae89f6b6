import hashlib
import json
import mmap
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import skelact.autodiff as ad
from skelact import model, verify
from skelact.attention import multi_head_self_attention
from skelact.data import COORDS
from skelact.errors import ContractError, DimensionError, ParseError
from skelact.model import (
    VARIANT_ROWS,
    AblationConfig,
    ModelDims,
    build_variant,
    forward,
    late_fuse_and_classify,
    load_checkpoint,
    pose_branch,
    rgb_branch,
    save_checkpoint,
    variant_config,
)
from skelact.recurrent import bilstm
from skelact.streams import StreamConfig, seu_encode, stream_forward, teu_encode
from skelact.training import cross_entropy
from skelact.verify import check_named


def tiny_dims(activations=("relu", "relu", "linear"), post_filters=(3, 3, 4), **kw):
    """Smallest configuration that still exercises projection layers."""
    stream = StreamConfig(
        seu_filters=(2, 2, 3),
        teu_filters=(2, 2, 2),
        post_filters=post_filters,
        activations=activations,
    )
    base = dict(frames=3, joints=2, rgb_width=4, hidden=2, num_classes=2, stream=stream)
    base.update(kw)
    return ModelDims(**base)


def random_pose(rng, dims):
    return ad.Tensor(rng.normal(size=(dims.frames, dims.joints, COORDS)))


def random_features(rng, dims):
    return ad.Tensor(rng.normal(size=(dims.frames, dims.rgb_width)))


# ---------------------------------------------------------------------------
# shapes


def test_pose_branch_full_variant_shape():
    dims = ModelDims()
    params = build_variant(variant_config("full"), dims, seed=0)
    pose = random_pose(np.random.default_rng(0), dims)
    out = pose_branch(pose, params)
    assert out.data.shape == (84, 256)


def test_pose_branch_baseline_shape():
    dims = ModelDims()
    params = build_variant(variant_config("baseline"), dims, seed=0)
    pose = random_pose(np.random.default_rng(1), dims)
    out = pose_branch(pose, params)
    assert out.data.shape == (40, 256)


def test_rgb_branch_shape():
    dims = ModelDims()
    params = build_variant(variant_config("full", branch="rgb"), dims, seed=0)
    features = random_features(np.random.default_rng(2), dims)
    out = rgb_branch(features, params)
    assert out.data.shape == (20, 256)


def test_forward_probability_vector():
    dims = tiny_dims(num_classes=7)
    params = build_variant(variant_config("full", branch="both"), dims, seed=3)
    rng = np.random.default_rng(3)
    pose, features = random_pose(rng, dims), random_features(rng, dims)
    probs = forward(params, pose=pose, features=features)
    assert probs.data.shape == (7,)
    assert abs(probs.data.sum() - 1.0) < 1e-12
    assert (probs.data > 0).all()
    logits = forward(params, pose=pose, features=features, logits=True)
    np.testing.assert_array_equal(ad.softmax(logits).data, probs.data)


def test_no_grad_forward_of_the_full_model_gives_the_grad_mode_bits():
    # the validation pass's 16 clips per forward, through attention's softmax and the BiLSTM
    dims = ModelDims()
    params = build_variant(variant_config("full"), dims, seed=0)
    pose = np.random.default_rng(3).normal(size=(16, dims.frames, dims.joints, COORDS))
    recorded = forward(params, pose=ad.Tensor(pose), logits=True)
    assert recorded.requires_grad
    with ad.no_grad():
        plain = forward(params, pose=ad.Tensor(pose), logits=True)
    assert not plain.requires_grad
    np.testing.assert_array_equal(plain.data, recorded.data)


def test_late_fuse_time_axis_shapes():
    dims = tiny_dims()
    params = build_variant(variant_config("baseline", branch="both"), dims, seed=4)
    pose_out = ad.Tensor(np.random.default_rng(4).normal(size=(11, 4)))
    rgb_out = ad.Tensor(np.random.default_rng(5).normal(size=(3, 4)))
    logits = late_fuse_and_classify(pose_out, rgb_out, params)
    assert logits.data.shape == (2,)
    probs = ad.softmax(logits)
    assert abs(probs.data.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("variant,pose_share", [
    ("baseline", 40 / 60), ("seu", 40 / 60),    # 20 spatial + 20 time rows beside 20 RGB frames
    ("seu+teu", 84 / 104), ("full", 84 / 104),  # TEU's 64 learned-temporal rows for the 20 time rows
], ids=["baseline", "seu", "seu+teu", "full"])
def test_late_fusion_weights_each_branch_by_its_share_of_rows(variant, pose_share):
    # the default frames and filters fix the row counts; a narrow RGB width keeps the build small
    dims = ModelDims(rgb_width=64)
    params = build_variant(variant_config(variant, "both"), dims, seed=5)
    rng = np.random.default_rng(5)
    with ad.no_grad():
        for lead in ((), (2,)):
            pose = ad.Tensor(rng.normal(size=(*lead, dims.frames, dims.joints, COORDS)))
            features = ad.Tensor(rng.normal(size=(*lead, dims.frames, dims.rgb_width)))
            p = pose_branch(pose, params).data.mean(axis=-2)
            r = rgb_branch(features, params).data.mean(axis=-2)
            fused = pose_share * p + (1.0 - pose_share) * r
            want = fused @ params.classifier_w.data + params.classifier_b.data
            got = forward(params, pose=pose, features=features, logits=True).data
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_zero_classifier_gives_uniform_probabilities():
    dims = tiny_dims(num_classes=5)
    params = build_variant(variant_config("full"), dims, seed=7)
    params.classifier_w.data[:] = 0.0
    params.classifier_b.data[:] = 0.0
    probs = forward(params, pose=random_pose(np.random.default_rng(7), dims))
    np.testing.assert_allclose(probs.data, np.full(5, 0.2), atol=1e-15)


# ---------------------------------------------------------------------------
# ablation ladder


def test_variant_config_mapping():
    # each row of the ladder adds one module to the row above it
    modules = {v: (c.use_seu, c.use_teu, c.use_attention) for v in VARIANT_ROWS for c in [variant_config(v)]}
    assert modules == {
        "baseline": (False, False, False),
        "seu": (True, False, False),
        "seu+teu": (True, True, False),
        "full": (True, True, True),
    }
    for branch in ("rgb", "both"):
        assert variant_config("full", branch).use_attention and not variant_config("baseline", branch).use_attention
    with pytest.raises(ContractError, match="has variants baseline, seu, seu\\+teu, full"):
        variant_config("everything")
    # the RGB branch has no pose encoder to ablate
    for variant in ("seu", "seu+teu"):
        with pytest.raises(ContractError, match="branch rgb has variants baseline, full, got"):
            variant_config(variant, "rgb")
    with pytest.raises(ContractError):
        AblationConfig("full", "audio")


def test_variant_parameter_names_nest():
    dims = tiny_dims()
    ladder = ["baseline", "seu", "seu+teu", "full"]
    names = [
        {name for name, _ in build_variant(variant_config(v), dims, 0).named_parameters()}
        for v in ladder
    ]
    for smaller, larger in zip(names, names[1:]):
        assert smaller <= larger, f"parameter names must nest along {ladder}"
    assert any("attention" in n for n in names[3])
    assert not any("attention" in n for n in names[2])


def test_seu_adds_parameters_over_baseline():
    dims = ModelDims()
    base = build_variant(variant_config("baseline"), dims, 0)
    seu = build_variant(variant_config("seu"), dims, 0)
    assert seu.parameter_count() > base.parameter_count()


def test_branch_selection_controls_parameter_groups():
    dims = tiny_dims()
    pose_only = {n for n, _ in build_variant(variant_config("full", "pose"), dims, 0).named_parameters()}
    rgb_only = {n for n, _ in build_variant(variant_config("full", "rgb"), dims, 0).named_parameters()}
    both = {n for n, _ in build_variant(variant_config("full", "both"), dims, 0).named_parameters()}
    assert not any(n.startswith("rgb.") for n in pose_only)
    assert not any(n.startswith("pose.") for n in rgb_only)
    assert pose_only | rgb_only == both
    assert "classifier.weight" in pose_only and "classifier.weight" in rgb_only


def test_shared_parameters_identical_across_variants():
    dims = tiny_dims()
    seu = dict(build_variant(variant_config("seu+teu"), dims, 5).named_parameters())
    full = dict(build_variant(variant_config("full"), dims, 5).named_parameters())
    for name, tensor in seu.items():
        np.testing.assert_array_equal(tensor.data, full[name].data, err_msg=name)


def test_attention_with_zero_output_projection_is_identity():
    dims = tiny_dims()
    rng = np.random.default_rng(8)
    pose = random_pose(rng, dims)
    plain = build_variant(variant_config("seu+teu"), dims, seed=5)
    gated = build_variant(variant_config("full"), dims, seed=5)
    gated.pose.tail.attention.w_o.data[:] = 0.0
    np.testing.assert_array_equal(
        forward(plain, pose=pose).data, forward(gated, pose=pose).data
    )


def test_rgb_attention_residual_is_permutation_equivariant():
    dims = tiny_dims(rgb_width=8)
    params = build_variant(variant_config("full", branch="rgb"), dims, seed=9)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(dims.frames, 8))
    perm = rng.permutation(dims.frames)
    attention = params.rgb.attention

    def residual(rows):
        t = ad.Tensor(rows)
        return ad.add(t, multi_head_self_attention(t, attention)).data

    out = residual(x)
    out_perm = residual(x[perm])
    np.testing.assert_allclose(out_perm, out[perm], atol=1e-10)


@pytest.mark.parametrize("lead", [(), (2,)], ids=["clip", "batch"])
def test_branches_compose_their_modules_in_order(lead):
    """Each branch is its modules in order: spatial rows before temporal, residual attention, BiLSTM."""
    dims = verify.model_dims()
    params = build_variant(variant_config("full", branch="both"), dims, seed=4)
    rng = np.random.default_rng(4)
    pose = ad.Tensor(rng.normal(size=(*lead, dims.frames, dims.joints, COORDS)))
    features = ad.Tensor(rng.normal(size=(*lead, dims.frames, dims.rgb_width)))
    acts = dims.stream.activations

    def tail(x, t):
        return bilstm(ad.Tensor(x.data + multi_head_self_attention(x, t.attention).data), t.lstm_fwd, t.lstm_bwd)

    with ad.no_grad():
        branch = params.pose
        spatial = stream_forward(seu_encode(pose, branch.spatial_enc, acts), branch.spatial_stream, acts)
        temporal = stream_forward(teu_encode(pose, branch.temporal_enc, acts), branch.temporal_stream, acts)
        x = ad.Tensor(np.concatenate([spatial.data, temporal.data], axis=-2))
        np.testing.assert_array_equal(pose_branch(pose, params).data, tail(x, branch.tail).data)
        np.testing.assert_array_equal(rgb_branch(features, params).data, tail(features, params.rgb).data)


# ---------------------------------------------------------------------------
# determinism


def test_build_is_bit_reproducible():
    dims = tiny_dims()
    a = dict(build_variant(variant_config("full", "both"), dims, 42).named_parameters())
    b = dict(build_variant(variant_config("full", "both"), dims, 42).named_parameters())
    assert a.keys() == b.keys()
    for name in a:
        np.testing.assert_array_equal(a[name].data, b[name].data, err_msg=name)
    c = dict(build_variant(variant_config("full", "both"), dims, 43).named_parameters())
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a)


# sha256 of every (name, shape, bytes) of each default-dims build, recorded when each
# tensor was still drawn into its own array by `rng.uniform`
FROZEN_BUILDS = {
    ("pose", "baseline", 0): "18731ed8b5d4a911302831402da3afa9d743294b9115a6f4dee73cdc6be87655",
    ("pose", "baseline", 1): "6f31e3592a410015a82294bc391ab777b7e4d7d02bb3746b729066a601db98a2",
    ("pose", "seu", 0): "5f6e21fcbe920fa97bee16fa554ef576c71a2a41735ecaf37c6a6396cd0eca5b",
    ("pose", "seu", 1): "11ce30eef2cade01b5b3865ee3e451bd4297af570043a5529ff3796669599a5e",
    ("pose", "seu+teu", 0): "d954b72b79d6165daaec198c3cc9714dda4d30da44a3e5dffc9e2682e845384d",
    ("pose", "seu+teu", 1): "7b2ef452142b4ee1c25af1cfb5871b93874146907cf59198c91cc40790abb1c4",
    ("pose", "full", 0): "7b13ad3fb031d0d70a0ceadfd4271eef67e8e245f2c78fcbc979fb864c580d96",
    ("pose", "full", 1): "c9f95229cf6fb6d683a05ce04b3a0999f91f0d9083cfc801c192e388aef3de5c",
    ("rgb", "baseline", 0): "22591586f281c3ac3809d63c1183565c454e450812a9f228f46e632d1ac4cbbe",
    ("rgb", "baseline", 1): "85a2878bb3e581fda4b3e9d8bc0e2f10dfa3460b89d01ffb15bbae9ec745afeb",
    ("rgb", "full", 0): "e0085ad05dd041b71d088146582bcfe973984570dc71c85f83149d0c6abeac9e",
    ("rgb", "full", 1): "af6878973dc641f420ff305af4a533dc43752fea28a1c151b2fcf5e0f16a1044",
    ("both", "baseline", 0): "f8959349418590bac27071ee40d063382749f39a67d059ffd7e6b1260e4dab93",
    ("both", "baseline", 1): "36fdd29948f2f323cc439b37f532c6fb115ac962148e805574916a1130ae2521",
    ("both", "seu", 0): "6f523592ae52a5a426956450e93926b119660b67a10925a46249498e4bcd2963",
    ("both", "seu", 1): "582747974aa76e742fc8b7fcd0b7bd1dd5806fc52b889a64e31ef1da2a4907c6",
    ("both", "seu+teu", 0): "a08f90859e5c272fa0a4b215249f269e0f9d9a467ba903e63a18555faf70aad8",
    ("both", "seu+teu", 1): "5847e25ba19d8827f624ea279ca6310d6c3f0eb9114de0c8273f78571342a154",
    ("both", "full", 0): "060979cf6b0fcbbefb070cd34bb981ea005164fcf4705956c8cbd15c5597f268",
    ("both", "full", 1): "1157f9ad19daf245b7166ce19f9781cac47ff985fcb385753dcd52388e1702fe",
}


def build_digest(params):
    digest = hashlib.sha256()
    for name, tensor in params.named_parameters():
        digest.update(f"{name} {tensor.data.shape}\n".encode())
        digest.update(tensor.data.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("branch,variant,seed", list(FROZEN_BUILDS))
def test_build_matches_its_frozen_digest(branch, variant, seed):
    params = build_variant(variant_config(variant, branch), ModelDims(), seed)
    assert build_digest(params) == FROZEN_BUILDS[branch, variant, seed]


@pytest.mark.parametrize("branch", model.BRANCHES)
def test_a_build_is_one_vector_of_line_aligned_tensors(branch):
    # tiny dims: most tensor sizes are not a multiple of a line's 8 elements
    builds = [build_variant(variant_config("full", branch), tiny_dims(), seed=0) for _ in range(2)]
    for params in builds:
        tensors = params.tensors()
        vector = tensors[0].data.base
        for t in tensors:
            assert t.data.base is vector and not t.data.flags.owndata
            assert t.data.flags.c_contiguous and t.data.ctypes.data % 64 == 0
        # in named_parameters() order, each tensor followed by the rest of its last line
        starts = [t.data.ctypes.data for t in tensors]
        assert [b - a for a, b in zip(starts, starts[1:])] == [-(-t.data.nbytes // 64) * 64 for t in tensors[:-1]]
        assert starts[-1] + tensors[-1].data.nbytes <= vector.ctypes.data + vector.nbytes
    assert not np.shares_memory(builds[0].tensors()[0].data.base, builds[1].tensors()[0].data.base)


# ---------------------------------------------------------------------------
# input validation


def test_missing_modality_errors():
    dims = tiny_dims()
    both = build_variant(variant_config("full", "both"), dims, 0)
    rng = np.random.default_rng(10)
    with pytest.raises(ContractError, match="pose"):
        forward(both, features=random_features(rng, dims))
    with pytest.raises(ContractError, match="RGB"):
        forward(both, pose=random_pose(rng, dims))
    pose_only = build_variant(variant_config("full", "pose"), dims, 0)
    with pytest.raises(ContractError, match="RGB branch"):
        rgb_branch(random_features(rng, dims), pose_only)


def test_rgb_branch_rejects_wrong_width():
    dims = tiny_dims()
    params = build_variant(variant_config("full", "rgb"), dims, 0)
    with pytest.raises(DimensionError, match="width"):
        rgb_branch(ad.Tensor(np.zeros((dims.frames, 5))), params)
    with pytest.raises(DimensionError, match="frames"):
        rgb_branch(ad.Tensor(np.zeros((dims.frames + 1, dims.rgb_width))), params)
    # a 0-d or 1-d tensor has no frame axis, through the branch or the whole forward
    for features in (np.float64(1.0), np.zeros(dims.rgb_width)):
        with pytest.raises(DimensionError, match="frames"):
            rgb_branch(ad.Tensor(features), params)
        with pytest.raises(DimensionError, match="frames"):
            forward(params, features=ad.Tensor(features))
    # without attention the BiLSTM is the tail's first layer, and it checks the width
    no_attention = build_variant(variant_config("baseline", "rgb"), dims, 0)
    with pytest.raises(DimensionError, match="width"):
        rgb_branch(ad.Tensor(np.zeros((dims.frames, 5))), no_attention)


# ---------------------------------------------------------------------------
# gradients through the assembled network


def test_gradient_check_every_parameter_group():
    # smooth activations: central differences are meaningless at relu kinks,
    # which zero-bias init hits exactly when a whole row is clipped
    dims = tiny_dims(activations=("tanh", "sigmoid", "linear"))
    params = build_variant(variant_config("full", "both"), dims, seed=11)
    rng = np.random.default_rng(11)
    pose = ad.Tensor(rng.normal(size=(dims.frames, dims.joints, COORDS)))
    features = ad.Tensor(rng.normal(size=(dims.frames, dims.rgb_width)))

    def loss_fn(_):
        return cross_entropy(forward(params, pose=pose, features=features, logits=True), 1)

    for name, err in check_named("", loss_fn, params.named_parameters()):
        assert err < 1e-4, f"{name}: relative gradient error {err:.3e}"


def test_gradient_check_inputs():
    dims = tiny_dims(activations=("tanh", "sigmoid", "linear"))
    params = build_variant(variant_config("full", "both"), dims, seed=12)
    rng = np.random.default_rng(12)
    pose = ad.Tensor(rng.normal(size=(dims.frames, dims.joints, COORDS)))
    features = ad.Tensor(rng.normal(size=(dims.frames, dims.rgb_width)))

    def loss_via_pose(p):
        return cross_entropy(forward(params, pose=p, features=features, logits=True), 0)

    def loss_via_features(f):
        return cross_entropy(forward(params, pose=pose, features=f, logits=True), 0)

    assert ad.gradient_check(loss_via_pose, pose) < 1e-4
    assert ad.gradient_check(loss_via_features, features) < 1e-4


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    dims = tiny_dims()
    params = build_variant(variant_config("full", "both"), dims, seed=13)
    rng = np.random.default_rng(13)
    for _, tensor in params.named_parameters():
        tensor.data += rng.normal(size=tensor.data.shape)  # move off the init
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert loaded.ablation == params.ablation
    assert loaded.dims == params.dims
    restored = dict(loaded.named_parameters())
    for name, tensor in params.named_parameters():
        np.testing.assert_array_equal(tensor.data, restored[name].data, err_msg=name)


def test_checkpoint_manifest_schema_is_frozen(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, build_variant(variant_config("full", "both"), tiny_dims(), seed=0))
    blob = path.read_bytes()
    length = struct.unpack("<I", blob[4:8])[0]
    dims = json.loads(blob[8:8 + length])["dims"]
    assert list(dims) == ["frames", "joints", "rgb_width", "hidden", "num_classes", "stream"]
    assert list(dims["stream"]) == ["seu_filters", "teu_filters", "post_filters", "activations"]


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"ZZZZ" + b"\x00" * 64)
    with pytest.raises(ParseError, match="byte offset 0"):
        load_checkpoint(path)


def test_checkpoint_previous_format_rejected_at_offset_0(tmp_path):
    params = build_variant(variant_config("full"), tiny_dims(), seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    blob = path.read_bytes()
    assert blob[:4] == b"CKP2"
    path.write_bytes(b"CKP1" + blob[4:])
    with pytest.raises(ParseError, match="byte offset 0"):
        load_checkpoint(path)


def _rewrite_manifest(path, edit):
    blob = path.read_bytes()
    length = struct.unpack("<I", blob[4:8])[0]
    manifest = edit(json.loads(blob[8:8 + length]))
    text = json.dumps(manifest).encode()
    path.write_bytes(blob[:4] + struct.pack("<I", len(text)) + text + blob[8 + length:])


def _with_dims(manifest, **fields):
    return {**manifest, "dims": {**manifest["dims"], **fields}}


def _with_sizes(manifest, edit):
    return {**manifest, "tensors": [[name, [edit(size) for size in shape]] for name, shape in manifest["tensors"]]}


BAD_MANIFESTS = {
    "list": lambda m: [m],
    "string": lambda m: "manifest",
    "no-ablation": lambda m: {k: v for k, v in m.items() if k != "ablation"},
    "extra-key": lambda m: {**m, "extra": 1},
    "bad-branch": lambda m: {**m, "ablation": {**m["ablation"], "branch": "hands"}},
    # a parent's bool flag where the variant name goes
    "flag-string": lambda m: {**m, "ablation": {**m["ablation"], "variant": True}},
    "parent-ablation-flags": lambda m: {**m, "ablation": {
        "use_seu": True, "use_teu": True, "use_attention": True, "branch": "both",
    }},
    "rgb-seu": lambda m: {**m, "ablation": {"variant": "seu", "branch": "rgb"}},
    "parent-split-heads": lambda m: _with_dims(m, attention_split_heads=True),
    "dims-tied-key": lambda m: _with_dims(m, attention_tied=False),
    "dims-fusion-key": lambda m: _with_dims(m, fusion="time"),
    "frames-string": lambda m: _with_dims(m, frames="x"),
    "frames-float": lambda m: _with_dims(m, frames=2.5),
    "frames-zero": lambda m: _with_dims(m, frames=0),
    "stream-list": lambda m: _with_dims(m, stream=[1, 2]),
    "stream-width-string": lambda m: _with_dims(m, stream={"post_filters": [3, 3, "wide"]}),
    # a zero or negative filter count used to escape as ZeroDivisionError or OverflowError
    "post-filters-zero": lambda m: _with_dims(m, stream={**m["dims"]["stream"], "post_filters": [3, 3, 0]}),
    "post-filters-negative": lambda m: _with_dims(m, stream={**m["dims"]["stream"], "post_filters": [3, 3, -4]}),
    # a manifest written before kernel widths, coords and heads became constants
    # and channel_dim became the last post filter count
    "parent-dims-keys": lambda m: _with_dims(m, coords=3, heads=4, stream={
        **m["dims"]["stream"], "channel_dim": 4,
        "seu_kernels": [1, 1, 1], "teu_kernels": [3, 3, 3], "post_kernels": [3, 3, 3],
    }),
    "seed-string": lambda m: {**m, "seed": "x"},
    "seed-negative": lambda m: {**m, "seed": -1},
    # a load draws nothing from the seed, so only the manifest check rejects these
    "seed-float": lambda m: {**m, "seed": 1.5},
    "seed-bool": lambda m: {**m, "seed": True},
    "tensor-entry-short": lambda m: {**m, "tensors": [["classifier.bias"]]},
    "tensors-int": lambda m: {**m, "tensors": 7},
    "tensor-name-list": lambda m: {**m, "tensors": [[["classifier", "bias"], [2]]]},
    # every size of every entry edited; [True] == [1] and [2.0] == [2], so a comparison
    # with the build's list alone would accept the first two
    "size-bool": lambda m: _with_sizes(m, lambda size: True if size == 1 else size),
    "size-float": lambda m: _with_sizes(m, float),
    "size-negative": lambda m: _with_sizes(m, lambda size: -size),
    # one [1e7, 1e7] projection is larger than the address space: MemoryError at once
    "rgb-width-huge": lambda m: _with_dims(m, rgb_width=10**7),
    "shape-total": lambda m: {**m, "tensors": [
        [name, [size + 1 for size in shape] if name == "classifier.bias" else shape]
        for name, shape in m["tensors"]
    ]},
    # these keep the payload size, so only the comparison with the build's list catches them;
    # a swap used to load, each tensor reading the other's payload slice
    "swap-entries": lambda m: {**m, "tensors": [m["tensors"][1], m["tensors"][0], *m["tensors"][2:]]},
    "rename-entry": lambda m: {**m, "tensors": [
        ["classifier.offset" if name == "classifier.bias" else name, shape] for name, shape in m["tensors"]
    ]},
    "reshape-two": lambda m: {**m, "tensors": [
        [name, {"classifier.weight": shape[::-1], "classifier.bias": [1, *shape]}.get(name, shape)]
        for name, shape in m["tensors"]
    ]},
}


@pytest.mark.parametrize("case", BAD_MANIFESTS)
def test_checkpoint_bad_manifest_is_parse_error(tmp_path, case):
    params = build_variant(variant_config("full", "both"), tiny_dims(), seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    _rewrite_manifest(path, BAD_MANIFESTS[case])
    # the shape edit makes the tensors overrun the payload, so that error names where the file ends
    expected = "payload truncated" if case == "shape-total" else "invalid manifest at byte offset 8 "
    with pytest.raises(ParseError, match=expected):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    dims = tiny_dims()
    params = build_variant(variant_config("baseline"), dims, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    blob = path.read_bytes()
    path.write_bytes(blob[:-9])
    with pytest.raises(ParseError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes(tmp_path):
    dims = tiny_dims()
    params = build_variant(variant_config("baseline"), dims, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ParseError, match="trailing"):
        load_checkpoint(path)


def test_checkpoint_restores_forward_exactly(tmp_path):
    dims = tiny_dims()
    params = build_variant(variant_config("full"), dims, seed=14)
    pose = random_pose(np.random.default_rng(14), dims)
    before = forward(params, pose=pose).data.copy()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    after = forward(load_checkpoint(path), pose=pose).data
    np.testing.assert_array_equal(before, after)


def test_checkpoint_load_draws_no_weights(tmp_path, monkeypatch):
    params = build_variant(variant_config("full", "both"), tiny_dims(), seed=3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)

    def no_draw(seed, component):
        raise AssertionError(f"the load drew the {component} weights")

    monkeypatch.setattr(model, "_component_rng", no_draw)
    loaded = load_checkpoint(path)
    for (name, a), (_, b) in zip(params.named_parameters(), loaded.named_parameters()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)


def _mapped_file(array):
    """The map at the end of `array`'s base chain (numpy holds it through a memoryview), else None."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    base = array.base.obj if isinstance(array.base, memoryview) else array.base
    return base if isinstance(base, mmap.mmap) else None


def test_loaded_tensors_are_views_of_one_payload(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, build_variant(variant_config("full", "both"), tiny_dims(), seed=3))
    tensors = load_checkpoint(path).tensors()
    # the payload views the file's map, past the header, and holds exactly the tensors
    payload = tensors[0].data.base
    assert _mapped_file(payload) is not None and payload.size == sum(t.size for t in tensors)
    assert tensors[0].data.ctypes.data % 64 == 0
    for t in tensors:
        assert not t.data.flags.owndata and np.shares_memory(t.data, payload)
        assert t.data.flags.c_contiguous and t.data.flags.writeable


def test_checkpoint_without_manifest_padding_is_read_into_an_owned_aligned_payload(tmp_path):
    # a CKP2 file written before the writer padded its manifest: the payload starts off a cache line
    params = build_variant(variant_config("full"), ModelDims(), seed=0)
    padded, unpadded = tmp_path / "padded.ckpt", tmp_path / "unpadded.ckpt"
    save_checkpoint(padded, params)
    save_checkpoint(unpadded, params)
    _rewrite_manifest(unpadded, lambda manifest: manifest)
    length = struct.unpack("<I", unpadded.read_bytes()[4:8])[0]
    assert (8 + length) % 64 != 0 and unpadded.stat().st_size < padded.stat().st_size
    tensors = load_checkpoint(unpadded).tensors()
    # read, not mapped: the owner is an aligned_empty buffer, up to 7 elements longer than the payload
    payload = tensors[0].data.base
    assert payload.flags.owndata and 0 <= payload.size - sum(t.size for t in tensors) <= 7
    for built, mapped, read in zip(params.tensors(), load_checkpoint(padded).tensors(), tensors):
        assert read.data.tobytes() == built.data.tobytes() == mapped.data.tobytes()
        assert read.data.ctypes.data % 64 == 0 and np.shares_memory(read.data, payload)


def test_a_loaded_checkpoint_survives_a_save_onto_its_path(tmp_path):
    path = tmp_path / "model.ckpt"
    old = build_variant(variant_config("full", "both"), tiny_dims(), seed=3)
    new = build_variant(variant_config("full", "both"), tiny_dims(), seed=4)
    save_checkpoint(path, old)
    loaded = load_checkpoint(path)
    assert _mapped_file(loaded.tensors()[0].data) is not None
    # the save renames a new file onto the path, so the mapped file, and what the load holds, stay as they were
    save_checkpoint(path, new)
    held, reloaded = dict(loaded.named_parameters()), dict(load_checkpoint(path).named_parameters())
    for name, tensor in old.named_parameters():
        np.testing.assert_array_equal(held[name].data, tensor.data, err_msg=name)
    for name, tensor in new.named_parameters():
        np.testing.assert_array_equal(reloaded[name].data, tensor.data, err_msg=name)


def test_writes_to_a_loaded_tensor_never_reach_its_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, build_variant(variant_config("full", "both"), tiny_dims(), seed=3))
    blob = path.read_bytes()
    for t in load_checkpoint(path).tensors():
        t.data += 1.0  # the map is copy-on-write: a page written becomes the process's own
    assert path.read_bytes() == blob


def test_checkpoint_load_then_save_gives_the_same_bytes(tmp_path):
    first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
    save_checkpoint(first, build_variant(variant_config("full", "both"), tiny_dims(), seed=5))
    save_checkpoint(second, load_checkpoint(first))
    assert second.read_bytes() == first.read_bytes()


_PEAK_GROWTH = """
import resource, sys
from skelact.model import load_checkpoint
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
params = load_checkpoint(sys.argv[1])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.fixture(scope="module")
def default_both_checkpoint(tmp_path_factory):
    """The default `full` both-branch checkpoint: 12.3 M parameters, a 93 MiB file."""
    path = tmp_path_factory.mktemp("default") / "full.ckpt"
    save_checkpoint(path, build_variant(variant_config("full", "both"), ModelDims(), seed=0))
    return path


def _growth_on_load(script, path):
    run = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True, text=True,
                         env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert run.returncode == 0, run.stderr
    return 1024 * int(run.stdout)  # both counts are in KiB on Linux


def test_checkpoint_load_peak_memory_is_near_the_file_size(default_both_checkpoint):
    # The payload is mapped, and its pages count once they are read. A weight
    # draw into the build, or a bytes copy of the file, would each add about 1x.
    size = default_both_checkpoint.stat().st_size
    grown = _growth_on_load(_PEAK_GROWTH, default_both_checkpoint)
    assert grown < 1.5 * size, f"peak RSS grew by {grown} bytes loading a {size}-byte checkpoint"


_ANON_GROWTH = """
import re, sys
from skelact.model import load_checkpoint
def anon():
    with open("/proc/self/status") as fh:
        return int(re.search(r"RssAnon:\\s+(\\d+) kB", fh.read()).group(1))
before = anon()
params = load_checkpoint(sys.argv[1])
print(anon() - before)
"""


def test_checkpoint_load_makes_no_anonymous_copy(default_both_checkpoint):
    # A copy of the payload would grow RssAnon by the file size; the copy-on-write
    # map's pages are the file's own until a tensor is written.
    status = Path("/proc/self/status")
    if not (status.exists() and "RssAnon:" in status.read_text()):
        pytest.skip("no RssAnon in /proc/self/status")
    size = default_both_checkpoint.stat().st_size
    grown = _growth_on_load(_ANON_GROWTH, default_both_checkpoint)
    assert grown < 0.1 * size, f"RssAnon grew by {grown} bytes loading a {size}-byte checkpoint"


# ---------------------------------------------------------------------------
# configuration validation


def test_dims_validation():
    with pytest.raises(ContractError):
        ModelDims(frames=0)
    with pytest.raises(ContractError):
        ModelDims(frames=2.5)
    with pytest.raises(ContractError):
        ModelDims(hidden=True)
    dims = ModelDims(stream={"post_filters": (96, 112, 120)})
    assert isinstance(dims.stream, StreamConfig)
    assert dims.stream.channel_dim == 120


def test_heads_must_divide_channel_dim():
    dims = tiny_dims(post_filters=(3, 3, 6))  # channel_dim 6 not divisible by the 4 heads
    with pytest.raises(ContractError):
        build_variant(variant_config("full"), dims, 0)
