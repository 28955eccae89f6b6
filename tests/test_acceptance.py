"""Acceptance suite: one test per shipping criterion, each at its stated
tolerance. Every test ends by printing a single [PASS] line; a failure keeps
the line absent so the run log reads as a checklist.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import skelact.autodiff as ad
from skelact.attention import init_attention_params, multi_head_self_attention
from skelact.data import (
    COORDS,
    FEATURE_WIDTH,
    FrameFeatureSequence,
    RawSkeletonSample,
    load_feature_file,
    load_skeleton_file,
    normalize_positions,
    normalize_spine,
    sample_frames,
    write_feature_file,
    write_skeleton_file,
)
from skelact.errors import ParseError
from skelact.model import (
    ModelDims,
    build_variant,
    forward,
    load_checkpoint,
    save_checkpoint,
    variant_config,
)
from skelact.recurrent import bilstm, init_lstm_params
from skelact.streams import SEU_KERNELS, TEU_KERNELS, init_conv_stack, seu_encode, teu_encode
from skelact.verify import model_dims

SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
}


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "skelact.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, **SINGLE_THREAD},
    )


@pytest.fixture(scope="module")
def default_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "data"
    result = run_cli("gen-data", "--out", str(out), "--seed", "0")
    assert result.returncode == 0, result.stderr
    return out


def softmax_rows(z):
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def attention_oracle(x, params):
    heads = []
    w = params.head_width
    for i in range(params.heads):
        cols = slice(i * w, (i + 1) * w)  # head i is column block i of the stacked projections
        q = x @ params.w_q.data[:, cols]
        k = x @ params.w_k.data[:, cols]
        v = x @ params.w_v.data[:, cols]
        weights = softmax_rows(q @ k.T / np.sqrt(params.head_width))
        heads.append(weights @ v)
    return np.concatenate(heads, axis=1) @ params.w_o.data


# ---------------------------------------------------------------------------


def test_gradient_integrity_model_scope():
    """gradcheck --scope model: every parameter group < 1e-4, under 60 s."""
    start = time.perf_counter()
    result = run_cli("gradcheck", "--scope", "model", "--seed", "0")
    elapsed = time.perf_counter() - start
    assert result.returncode == 0, result.stderr
    reported = {}
    for line in result.stdout.strip().split("\n"):
        if line.startswith("component="):
            name, err = line.split()
            reported[name.split("=", 1)[1]] = float(err.split("=", 1)[1])
    assert all(err < 1e-4 for err in reported.values())
    expected = {
        name
        for name, _ in build_variant(
            variant_config("full", branch="both"), model_dims(), seed=0
        ).named_parameters()
    }
    assert set(reported) == expected, "report must audit every parameter group"
    assert elapsed < 60.0, f"model-scope gradcheck took {elapsed:.1f}s"
    print(f"\n[PASS] gradient integrity: {len(reported)} parameter groups, "
          f"worst {max(reported.values()):.2e} < 1e-4, {elapsed:.1f}s < 60s")


def test_attention_oracle_equivalence():
    """multi_head_self_attention matches the per-head loop within 1e-10."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        h = int(rng.choice([1, 2, 4]))
        d = h * int(rng.integers(1, 8 // h + 1))
        t = int(rng.integers(1, 7))
        params = init_attention_params(rng, d, heads=h)
        x = rng.normal(size=(t, d))
        got = multi_head_self_attention(ad.Tensor(x), params).data
        want = attention_oracle(x, params)
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst < 1e-10
    print(f"\n[PASS] attention oracle equivalence: 100 trials, worst |diff| {worst:.2e} < 1e-10")


def test_shape_contracts():
    """Encoder and attention output shapes match their closed forms."""
    rng = np.random.default_rng(12)
    dims = ModelDims()
    cfg = dims.stream
    seu_layers = init_conv_stack(rng, COORDS, cfg.seu_filters, SEU_KERNELS)
    pose = ad.Tensor(rng.normal(size=(20, 25, 3)))
    seu_out = seu_encode(pose, seu_layers, cfg.activations)
    assert seu_out.data.shape == (20, 25 * cfg.seu_filters[-1]) == (20, 1600)

    teu_layers = init_conv_stack(rng, dims.frames, cfg.teu_filters, TEU_KERNELS)
    teu_out = teu_encode(pose, teu_layers, cfg.activations)
    assert teu_out.data.shape[0] == cfg.teu_filters[-1] == 64
    assert teu_out.data.shape == (64, 75)

    for t, d in ((84, 120), (20, 1536)):
        params = init_attention_params(rng, d, heads=4)
        x = ad.Tensor(rng.normal(size=(t, d)))
        assert multi_head_self_attention(x, params).data.shape == (t, d)
    print("\n[PASS] shape contracts: SEU (20,25,3)->(20,1600), TEU leading axis 64, "
          "MHA preserves (84,120) and (20,1536)")


def test_equivariance_and_purity():
    """MHA permutation equivariance and SEU per-frame purity within 1e-10."""
    rng = np.random.default_rng(13)
    worst_attn = 0.0
    for _ in range(25):
        d = int(rng.choice([4, 8]))
        t = int(rng.integers(2, 9))
        params = init_attention_params(rng, d, heads=4)
        x = rng.normal(size=(t, d))
        perm = rng.permutation(t)
        out = multi_head_self_attention(ad.Tensor(x), params).data
        out_perm = multi_head_self_attention(ad.Tensor(x[perm]), params).data
        worst_attn = max(worst_attn, float(np.abs(out_perm - out[perm]).max()))
    assert worst_attn < 1e-10

    worst_seu = 0.0
    layers = init_conv_stack(rng, 3, (4, 4, 4), (1, 1, 1))
    for _ in range(25):
        t = int(rng.integers(2, 9))
        pose = rng.normal(size=(t, 5, 3))
        perm = rng.permutation(t)
        out = seu_encode(ad.Tensor(pose), layers).data
        out_perm = seu_encode(ad.Tensor(pose[perm]), layers).data
        worst_seu = max(worst_seu, float(np.abs(out_perm - out[perm]).max()))
    assert worst_seu < 1e-10
    print(f"\n[PASS] equivariance and purity: MHA worst {worst_attn:.2e}, "
          f"SEU worst {worst_seu:.2e}, both < 1e-10")


def test_probability_normalization():
    """Attention rows and classifier outputs each sum to 1 within 1e-12."""
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(20):
        d = 8
        t = int(rng.integers(1, 7))
        params = init_attention_params(rng, d, heads=2)
        x = ad.Tensor(rng.normal(size=(t, d)))
        _, weights = multi_head_self_attention(x, params, return_weights=True)
        assert weights.data.shape == (2, t, t)
        worst = max(worst, float(np.abs(weights.data.sum(axis=-1) - 1.0).max()))
    assert worst < 1e-12

    dims = ModelDims(num_classes=6)
    params = build_variant(variant_config("full"), dims, seed=14)
    worst_cls = 0.0
    for _ in range(5):
        pose = ad.Tensor(rng.normal(size=(dims.frames, dims.joints, COORDS)))
        probs = forward(params, pose=pose).data
        worst_cls = max(worst_cls, abs(float(probs.sum()) - 1.0))
    assert worst_cls < 1e-12
    print(f"\n[PASS] probability normalization: attention rows {worst:.2e}, "
          f"classifier {worst_cls:.2e}, both < 1e-12")


def test_end_to_end_learnability(default_dataset, tmp_path):
    """Full pose variant reaches >= 90% held-out accuracy within 5 epochs."""
    config = tmp_path / "train.cfg"
    config.write_text("optimizer=adam\nepochs=5\nseed=0\n")
    ckpt = tmp_path / "full.ckpt"
    start = time.perf_counter()
    result = run_cli(
        "train", "--data", str(default_dataset), "--variant", "full",
        "--branch", "pose", "--config", str(config), "--out", str(ckpt),
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 0, result.stderr
    val_acc = [
        float(line.rsplit("=", 1)[1])
        for line in result.stdout.strip().split("\n")
        if line.startswith("epoch=") and "split=val" in line
    ]
    assert len(val_acc) <= 30
    best = max(val_acc)
    assert best >= 90.0, f"held-out accuracy {best}"
    assert elapsed < 600.0, f"training took {elapsed:.0f}s"
    print(f"\n[PASS] end-to-end learnability: {best:.2f}% held-out >= 90% "
          f"within {len(val_acc)} epochs, {elapsed:.0f}s < 600s")


def test_ablation_harness(default_dataset, tmp_path):
    """Four labeled rows; full >= baseline - 2.0; bitwise reproducible."""
    config = tmp_path / "ablate.cfg"
    config.write_text("optimizer=adam\nepochs=3\nseed=0\n")
    args = ("ablate", "--data", str(default_dataset), "--branch", "pose",
            "--config", str(config))
    first = run_cli(*args)
    assert first.returncode == 0, first.stderr
    lines = first.stdout.strip().split("\n")
    rows = [line.split("|")[1:3] for line in lines[2:]]
    labels = [cells[0].strip() for cells in rows]
    scores = {cells[0].strip(): float(cells[1].strip()) for cells in rows}
    assert labels == ["Baseline", "+ SEU", "+ TEU", "+ Multi-Head Self Attention"]
    assert scores["+ Multi-Head Self Attention"] >= scores["Baseline"] - 2.0
    second = run_cli(*args)
    assert second.stdout == first.stdout, "ablation must be bitwise reproducible"
    print(f"\n[PASS] ablation harness: 4 rows, full {scores['+ Multi-Head Self Attention']:.2f} "
          f">= baseline {scores['Baseline']:.2f} - 2.0, rerun identical")


def test_preprocessing_closed_forms():
    """Frame sampling closed forms exact; normalization invariances < 1e-12."""
    assert sample_frames(20, 20) == list(range(20))
    assert sample_frames(39, 20) == list(range(0, 39, 2))
    assert sample_frames(5, 20) == [0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4]

    rng = np.random.default_rng(15)
    positions = rng.normal(size=(9, 1, 7, 3)) + 2.0
    sample = RawSkeletonSample(positions, 7, 1, 2, 0)
    pose = normalize_spine(sample)
    assert np.abs(pose[:, 2, :]).max() == 0.0

    shifted = RawSkeletonSample(positions + np.array([4.0, -1.0, 9.0]), 7, 1, 2, 0)
    shift_err = float(np.abs(normalize_spine(shifted) - pose).max())
    assert shift_err < 1e-12

    once = normalize_positions(positions[:, 0], 2)
    idem_err = float(np.abs(normalize_positions(once, 2) - once).max())
    assert idem_err < 1e-12
    print(f"\n[PASS] preprocessing: closed forms exact, translation {shift_err:.2e} "
          f"and idempotence {idem_err:.2e} < 1e-12")


def test_bilstm_reversal_symmetry():
    """Reversing the input swaps and reverses the two halves, within 1e-12."""
    rng = np.random.default_rng(16)
    worst = 0.0
    for _ in range(100):
        t = int(rng.integers(2, 9))
        d = int(rng.integers(1, 6))
        h = int(rng.integers(1, 5))
        fwd = init_lstm_params(rng, d, h)
        bwd = init_lstm_params(rng, d, h)
        x = rng.normal(size=(t, d))
        out = bilstm(ad.Tensor(x), fwd, bwd).data
        rev = bilstm(ad.Tensor(x[::-1].copy()), bwd, fwd).data
        swapped = np.concatenate([rev[:, h:], rev[:, :h]], axis=1)[::-1]
        worst = max(worst, float(np.abs(out - swapped).max()))
    assert worst < 1e-12
    print(f"\n[PASS] bilstm reversal symmetry: 100 trials, worst {worst:.2e} < 1e-12")


def test_file_format_round_trips(tmp_path):
    """SKL1, FTR1, and checkpoint round-trip bit-exact; bad magic rejected."""
    rng = np.random.default_rng(17)
    skeleton = RawSkeletonSample(rng.normal(size=(6, 2, 5, 3)), 5, 2, 1, 3)
    spath = tmp_path / "a.skl"
    write_skeleton_file(spath, skeleton)
    assert np.array_equal(load_skeleton_file(spath).positions, skeleton.positions)

    features = FrameFeatureSequence(rng.normal(size=(6, FEATURE_WIDTH)), 3)
    fpath = tmp_path / "a.ftr"
    write_feature_file(fpath, features)
    assert np.array_equal(load_feature_file(fpath).features, features.features)

    params = build_variant(variant_config("seu"), ModelDims(joints=4, num_classes=2), seed=17)
    cpath = tmp_path / "a.ckpt"
    save_checkpoint(cpath, params)
    reloaded = load_checkpoint(cpath)
    for (name, a), (_, b) in zip(params.named_parameters(), reloaded.named_parameters()):
        assert np.array_equal(a.data, b.data), name

    for path, loader in ((spath, load_skeleton_file), (fpath, load_feature_file),
                         (cpath, load_checkpoint)):
        corrupt = tmp_path / ("bad_" + path.name)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"WXYZ"
        corrupt.write_bytes(bytes(blob))
        with pytest.raises(ParseError):
            loader(corrupt)
    print("\n[PASS] file round trips: SKL1, FTR1, checkpoint bit-exact; corrupted magic rejected")
