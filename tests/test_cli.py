import codecs
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from skelact import cli, verify
from skelact.cli import load_dataset_dir, main
from skelact.data import (
    FEATURE_WIDTH,
    FrameFeatureSequence,
    RawSkeletonSample,
    load_feature_file,
    load_skeleton_file,
    preprocess_features,
    preprocess_skeleton,
    sample_frames,
    write_feature_file,
    write_skeleton_file,
)
from skelact.errors import ContractError
from skelact.model import (
    BRANCH_VARIANTS,
    BRANCHES,
    VARIANT_ROWS,
    ModelDims,
    build_variant,
    load_checkpoint,
    save_checkpoint,
    variant_config,
)
from skelact.streams import StreamConfig

from oracles import preprocess_skeleton_oracle

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
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = root / "gen.cfg"
    spec.write_text("num_classes=2\nsamples_per_class=3\njoints=4\nframes=10\n")
    config = root / "train.cfg"
    config.write_text("optimizer=adam\nepochs=1\nbatch_size=4\nseed=0\n")
    data = root / "data"
    result = run_cli("gen-data", "--spec", str(spec), "--out", str(data), "--seed", "5")
    assert result.returncode == 0, result.stderr
    return root


def file_digests(directory):
    import hashlib

    out = {}
    for path in sorted(directory.iterdir()):
        out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_gen_data_writes_expected_files(workspace):
    data = workspace / "data"
    names = sorted(p.name for p in data.iterdir())
    assert "manifest.json" in names
    assert sum(n.endswith(".skl") for n in names) == 6
    assert sum(n.endswith(".ftr") for n in names) == 6
    import json

    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["total"] == 6
    assert manifest["counts"] == {"0": 3, "1": 3}


def test_gen_data_deterministic(workspace):
    spec = workspace / "gen.cfg"
    again = workspace / "data_again"
    result = run_cli("gen-data", "--spec", str(spec), "--out", str(again), "--seed", "5")
    assert result.returncode == 0, result.stderr
    assert file_digests(workspace / "data") == file_digests(again)


def test_gen_data_refuses_a_directory_that_holds_clips(workspace, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    before = file_digests(data)
    spec = tmp_path / "two.cfg"
    spec.write_text("num_classes=2\nsamples_per_class=1\njoints=4\nframes=10\n")
    result = run_cli("gen-data", "--spec", str(spec), "--out", str(data), "--seed", "6")
    assert result.returncode == 1
    assert str(data) in result.stderr and ".skl" in result.stderr
    assert file_digests(data) == before
    # a directory without clips is written into as before
    other = tmp_path / "other"
    other.mkdir()
    (other / "notes.txt").write_text("kept\n")
    assert run_cli("gen-data", "--spec", str(spec), "--out", str(other)).returncode == 0
    assert len(list(other.glob("*.skl"))) == 2 and (other / "notes.txt").read_text() == "kept\n"


def test_gen_data_missing_out_is_usage_error():
    result = run_cli("gen-data")
    assert result.returncode == 2
    assert result.stdout == ""


@pytest.mark.parametrize("settings, refusal", [
    pytest.param("samples_per_class=2\nnoise_sigma=nan\n", "SyntheticSpec.noise_sigma", id="noise_sigma=nan"),
    # a finite sigma whose draws overflow: the clips would be files the skeleton reader refuses
    pytest.param("noise_sigma=1e308\nsamples_per_class=1\n",
                 "synthetic clip 0 (class 0) has non-finite skeleton positions", id="noise_sigma=1e308"),
    pytest.param("rgb_noise_sigma=1e308\nsamples_per_class=1\n",
                 "synthetic clip 0 (class 0) has non-finite RGB features", id="rgb_noise_sigma=1e308"),
    # finite coordinates whose squares overflow: train would refuse every clip's scale
    pytest.param("amplitude=1e155\nsamples_per_class=1\n",
                 "synthetic clip 0 (class 0) at amplitude=1e+155 has a degenerate skeleton: scale "
                 "(mean joint distance from the spine) inf", id="amplitude=1e155"),
    # a finite frequency whose angular rate overflows: inf * 0 at the first frame would warn
    pytest.param("base_frequency=1e308\nsamples_per_class=1\n",
                 "synthetic class 0 has frequency 1e+308", id="base_frequency=1e308"),
])
def test_gen_data_non_finite_spec_rejected(tmp_path, settings, refusal):
    spec = tmp_path / "gen.cfg"
    spec.write_text(settings)
    out = tmp_path / "data"
    result = run_cli("gen-data", "--spec", str(spec), "--out", str(out))
    assert result.returncode == 1
    assert refusal in result.stderr and "Warning" not in result.stderr, result.stderr
    assert not out.exists()


@pytest.mark.parametrize("field, refusal", [
    ("base_frequency", "synthetic class 0 has frequency 1e+308 = base_frequency 1e+308 + 0 * frequency_gap 0.75"),
    ("frequency_gap", "synthetic class 1 has frequency 1e+308 = base_frequency 1.0 + 1 * frequency_gap 1e+308"),
])
def test_gen_data_refuses_an_overflowing_frequency_before_numpy_warns(tmp_path, capsys, field, refusal):
    spec = tmp_path / "gen.cfg"
    spec.write_text(f"{field}=1e308\nsamples_per_class=1\n")
    out = tmp_path / "data"
    assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {refusal}, and 2*pi*frequency is not finite\n"
    assert not out.exists()


def test_train_eval_inspect_round_trip(workspace):
    data = workspace / "data"
    ckpt = workspace / "run.ckpt"
    result = run_cli(
        "train", "--data", str(data), "--variant", "baseline", "--branch", "pose",
        "--config", str(workspace / "train.cfg"), "--out", str(ckpt),
    )
    assert result.returncode == 0, result.stderr
    assert "epoch=1 split=train" in result.stdout
    assert ckpt.exists() and (workspace / "run.ckpt.log").exists()
    assert (workspace / "run.ckpt.best").exists()
    log_lines = (workspace / "run.ckpt.log").read_text().strip().split("\n")
    stdout_lines = [l for l in result.stdout.strip().split("\n") if l.startswith("epoch=")]
    assert log_lines == stdout_lines

    params = load_checkpoint(ckpt)
    assert params.ablation.branch == "pose"

    result = run_cli("eval", "--checkpoint", str(ckpt), "--data", str(data))
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().split("\n")
    assert lines[0].startswith("accuracy=")
    assert lines[1] == "confusion:"
    confusion = np.array([[int(v) for v in row.split()] for row in lines[2:]])
    assert confusion.shape == (2, 2)
    assert confusion.sum() == 6

    result = run_cli("inspect", "--checkpoint", str(ckpt))
    assert result.returncode == 0, result.stderr
    assert "branch=pose" in result.stdout
    assert "total" in result.stdout


def test_inspect_prints_every_line_of_a_tiny_checkpoint(tmp_path):
    # coords, channel_dim and heads come from constants and the stream's last
    # post filter count; the dims line reads as when each was a stored setting
    stream = StreamConfig(seu_filters=(2, 2, 3), teu_filters=(2, 2, 2), post_filters=(3, 3, 4))
    dims = ModelDims(frames=3, joints=2, rgb_width=4, hidden=2, num_classes=2, stream=stream)
    ckpt = tmp_path / "tiny.ckpt"
    save_checkpoint(ckpt, build_variant(variant_config("full", "both"), dims, seed=0))
    result = run_cli("inspect", "--checkpoint", str(ckpt))
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout == (
        "branch=both variant=full seed=0\n"
        "dims: frames=3 joints=2 coords=3 channel_dim=4 hidden=2 heads=4 classes=2 rgb_width=4\n"
        "parameters:\n"
        "  classifier 10\n"
        "  pose.attention 64\n"
        "  pose.lstm 112\n"
        "  pose.spatial 186\n"
        "  pose.temporal 211\n"
        "  rgb.attention 64\n"
        "  rgb.lstm 112\n"
        "  total 759\n"
    )


def test_train_missing_modality_names_it(workspace, tmp_path):
    pose_only = tmp_path / "pose_only"
    pose_only.mkdir()
    for path in (workspace / "data").glob("*.skl"):
        (pose_only / path.name).write_bytes(path.read_bytes())
    result = run_cli(
        "train", "--data", str(pose_only), "--variant", "baseline", "--branch", "both",
        "--out", str(tmp_path / "x.ckpt"),
    )
    assert result.returncode == 1
    assert "RGB" in result.stderr
    assert result.stderr.strip() != ""
    assert "error" in result.stderr


def test_feature_file_without_its_skeleton_is_rejected_in_a_both_branch_load(workspace, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    orphan = data / "orphan.ftr"
    shutil.copy(data / "sample_00000_c0.ftr", orphan)
    with pytest.raises(ContractError) as info:
        load_dataset_dir(data, True, True)
    assert str(orphan) in str(info.value)
    samples, _, _ = load_dataset_dir(data, False, True)  # an RGB-only run reads every .ftr
    assert len(samples) == len(list(data.glob("*.ftr")))


def test_skeleton_file_without_its_features_is_rejected_in_a_both_branch_load(workspace, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    lone = data / "lone.skl"
    shutil.copy(data / "sample_00000_c0.skl", lone)
    with pytest.raises(ContractError) as info:
        load_dataset_dir(data, True, True)
    assert str(lone) in str(info.value) and str(data / "lone.ftr") in str(info.value)
    samples, _, _ = load_dataset_dir(data, True, False)  # a pose-only run reads every .skl
    assert len(samples) == len(list(data.glob("*.skl")))


def test_clips_load_in_the_order_of_their_first_file_names(workspace, tmp_path):
    # "clip-2.skl" sorts before "clip.skl" although the stem "clip" sorts before "clip-2"
    data = tmp_path / "data"
    data.mkdir()
    sources = {"clip": "sample_00000_c0", "clip-2": next((workspace / "data").glob("*_c1.skl")).stem}
    for stem, source in sources.items():
        for suffix in (".skl", ".ftr"):
            shutil.copy(workspace / "data" / f"{source}{suffix}", data / f"{stem}{suffix}")
    for need_pose, need_rgb in ((True, False), (False, True), (True, True)):
        samples, _, _ = load_dataset_dir(data, need_pose, need_rgb)
        assert [sample.label for sample in samples] == [1, 0]


def test_clip_whose_skeleton_and_feature_labels_disagree_is_rejected(workspace, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    ftr = data / "sample_00000_c0.ftr"
    raw = bytearray(ftr.read_bytes())
    raw[12:16] = struct.pack("<I", 1)  # FTR1 header: magic, frames, width, label
    ftr.write_bytes(bytes(raw))
    with pytest.raises(ContractError) as info:
        load_dataset_dir(data, True, True)
    message = str(info.value)
    assert str(data / "sample_00000_c0.skl") in message and str(ftr) in message
    assert "label 0" in message and "label 1" in message
    # a run that reads one of the two files has no second label to disagree with
    assert load_dataset_dir(data, True, False)[0][0].label == 0
    assert load_dataset_dir(data, False, True)[0][0].label == 1


@pytest.mark.parametrize("degenerate", [
    pytest.param(lambda p, spine: p[:, :, spine:spine + 1], id="joints-on-the-spine"),  # scale 0
    pytest.param(lambda p, spine: p * 1e200, id="coordinates-x1e200"),  # finite, but the scale overflows
])
def test_train_names_the_file_of_a_degenerate_skeleton(workspace, tmp_path, degenerate):
    data = tmp_path / "data"
    data.mkdir()
    for path in sorted((workspace / "data").glob("*.skl"))[:3]:
        shutil.copy(path, data / path.name)
    bad = sorted(data.glob("*.skl"))[1]
    raw = load_skeleton_file(bad)
    raw.positions[...] = degenerate(raw.positions, raw.spine_index)
    write_skeleton_file(bad, raw)
    result = run_cli("train", "--data", str(data), "--variant", "baseline", "--out", str(tmp_path / "x.ckpt"))
    assert result.returncode == 1
    assert f"error: {bad}: degenerate skeleton" in result.stderr, result.stderr
    assert not (tmp_path / "x.ckpt").exists()


def _mixed_layout_dir(directory):
    """Skeleton files of two layouts with 10 effective joints each, interleaved, at frame
    counts below, at and above the 20 sampled, each with an RGB feature file beside it
    whose frame counts also lie below, at and above 20; returns the skeleton paths in
    load order."""
    rng = np.random.default_rng(11)
    layouts = [(1, 10, 3), (2, 5, 1), (2, 5, 4), (1, 10, 3), (2, 5, 1), (1, 10, 0), (2, 5, 1)]
    skeleton_frames = (1, 7, 20, 33, 19, 64, 2)
    feature_frames = (7, 1, 33, 20, 64, 2, 19)
    paths = []
    for index, ((subjects, joints, spine), frames) in enumerate(zip(layouts, skeleton_frames)):
        positions = rng.normal(size=(frames, subjects, joints, 3)) * (index + 1) + rng.normal(size=3)
        paths.append(directory / f"clip_{index}.skl")
        write_skeleton_file(paths[-1], RawSkeletonSample(positions, joints, subjects, spine, index % 3))
        features = rng.normal(size=(feature_frames[index], FEATURE_WIDTH))
        write_feature_file(paths[-1].with_suffix(".ftr"), FrameFeatureSequence(features, index % 3))
    return paths


def test_cli_binds_the_pose_pass_by_its_own_name():
    # bench/spans.py names the span of a preprocessor after the attribute cli binds it to
    assert cli.preprocess_skeleton is preprocess_skeleton


def test_batched_poses_equal_the_per_clip_recipe_bit_for_bit(tmp_path):
    paths = _mixed_layout_dir(tmp_path)
    for need_pose, need_rgb in ((True, False), (True, True), (False, True)):
        samples, joints_eff, num_classes = load_dataset_dir(tmp_path, need_pose, need_rgb)
        assert (joints_eff, num_classes, len(samples)) == (10 if need_pose else None, 3, len(paths))
        for sample, path in zip(samples, paths):
            raw = load_skeleton_file(path)
            assert sample.label == raw.label
            if need_pose:
                np.testing.assert_array_equal(sample.pose, preprocess_skeleton_oracle(raw.positions, raw.spine_index),
                                              err_msg=str(path))
            else:
                assert sample.pose is None
            if need_rgb:
                fseq = load_feature_file(path.with_suffix(".ftr"))
                np.testing.assert_array_equal(sample.features, preprocess_features(fseq), err_msg=str(path))
                np.testing.assert_array_equal(sample.features, fseq.features[sample_frames(len(fseq.features))])
            else:
                assert sample.features is None
        if need_rgb:
            # each clip's features are its row of one block that starts a cache line
            rows = [sample.features for sample in samples]
            block = rows[0].base
            assert all(row.base is block and row.flags.c_contiguous for row in rows)
            starts = [row.ctypes.data for row in rows]
            assert starts[0] % 64 == 0
            assert [b - a for a, b in zip(starts, starts[1:])] == [rows[0].nbytes] * (len(rows) - 1)


# clips 4 and 6 share a layout; clip 5's layout is normalized after theirs
@pytest.mark.parametrize("bad", [[4], [6, 4], [6, 5]], ids=["one", "two-of-a-layout", "two-layouts"])
def test_batched_loader_names_the_first_degenerate_skeleton(tmp_path, bad):
    paths = _mixed_layout_dir(tmp_path)
    for index in bad:
        raw = load_skeleton_file(paths[index])
        raw.positions[...] = raw.positions[:, :, raw.spine_index:raw.spine_index + 1]  # scale 0
        write_skeleton_file(paths[index], raw)
    with pytest.raises(ContractError) as info:
        load_dataset_dir(tmp_path, True, False)
    assert str(info.value).startswith(f"{paths[min(bad)]}: degenerate skeleton: scale "
                                      "(mean joint distance from the spine) 0.0 ")


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("settings,warns", [
    pytest.param("optimizer=sgd\nlr=1e6\nepochs=1\n", True, id="lr-1e6"),  # lr * l2_lambda = 10
    pytest.param("epochs=1\n", False, id="defaults"),  # sgd at lr 0.1, l2_lambda 1e-5
])
def test_sgd_l2_factor_at_or_below_zero_warns(workspace, tmp_path, command, settings, warns):
    config = tmp_path / "run.cfg"
    config.write_text(settings)
    out = ["--variant", "baseline", "--out", str(tmp_path / "x.ckpt")] if command == "train" else []
    result = run_cli(command, "--data", str(workspace / "data"), "--config", str(config), *out)
    assert ("warning: sgd lr*l2_lambda = 10 >= 1" in result.stderr) == warns, result.stderr
    assert "warning" not in result.stdout


@pytest.mark.parametrize("flag", ["--config", "--spec"])
def test_unknown_config_key_rejected(workspace, tmp_path, flag):
    bad = tmp_path / "bad.cfg"
    bad.write_text("learning_rate=0.1\n")
    out = tmp_path / "out"
    if flag == "--config":
        what, argv = "training", ("train", "--data", str(workspace / "data"), "--variant", "baseline",
                                  "--config", str(bad), "--out", str(out))
    else:
        what, argv = "generator", ("gen-data", "--spec", str(bad), "--out", str(out))
    result = run_cli(*argv)
    assert result.returncode == 1
    assert f"error: {bad}: unknown {what} keys ['learning_rate']; allowed: [" in result.stderr
    assert not out.exists()


def test_repeated_config_key_rejected(workspace, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("lr=0.1\nepochs=1\n# a later value must not win silently\nlr=1\n")
    ckpt = tmp_path / "x.ckpt"
    result = run_cli(
        "train", "--data", str(workspace / "data"), "--variant", "baseline",
        "--config", str(bad), "--out", str(ckpt),
    )
    assert result.returncode == 1
    assert "key 'lr'" in result.stderr
    assert f"{bad}:4:" in result.stderr and "line 1" in result.stderr
    assert result.stdout == ""
    assert not ckpt.exists()


@pytest.mark.parametrize("value, shown", [("3.0", "3.0"), ("true", "'true'")], ids=["epochs=3.0", "epochs=true"])
def test_non_integer_epochs_in_config_rejected(workspace, tmp_path, value, shown):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"epochs={value}\n")
    result = run_cli(
        "train", "--data", str(workspace / "data"), "--variant", "baseline",
        "--config", str(bad), "--out", str(tmp_path / "x.ckpt"),
    )
    assert result.returncode == 1
    assert f"TrainConfig.epochs must be an integer >= 1, got {shown}" in result.stderr
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("command, setting, seed, where, message", [
    ("train", "lr=abc", (), ":2", "TrainConfig.lr must be a finite real >= 0, got 'abc'"),
    ("gen-data", "joints=1", (), ":2", "SyntheticSpec.joints must be an integer >= 2, got 1"),
    # a refused --seed is named with the file whose seed it overrides, and no line
    ("gen-data", "seed=3", ("--seed", "-1"), "", "SyntheticSpec.seed must be an integer >= 0, got -1"),
], ids=["train-lr", "gen-data-joints", "gen-data-seed-flag"])
def test_refused_setting_names_its_file_and_line(workspace, tmp_path, command, setting, seed, where, message):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"# a comment\n{setting}\n")
    out = tmp_path / "out"
    if command == "train":
        argv = ("train", "--data", str(workspace / "data"), "--variant", "baseline", "--config", str(bad))
    else:
        argv = ("gen-data", "--spec", str(bad))
    result = run_cli(*argv, *seed, "--out", str(out))
    assert result.returncode == 1
    assert result.stderr == f"error: {bad}{where}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("setting", [
    "epochs=1_0", "lr=1_0.5", "batch_size=0_4",
    pytest.param("epochs=\u0661\u0660", id="epochs=arabic-indic-10"),
    pytest.param("lr=\u0660.\u0661", id="lr=arabic-indic-0.1"),
])
def test_digit_separated_number_in_config_rejected(workspace, tmp_path, setting):
    # int() and float() accept '_' separators and any script's digits: epochs=1_0 and
    # epochs=١٠ would silently read as 10
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"optimizer=adam\n{setting}\n", encoding="utf-8")
    ckpt = tmp_path / "x.ckpt"
    result = run_cli(
        "train", "--data", str(workspace / "data"), "--variant", "baseline",
        "--config", str(bad), "--out", str(ckpt),
    )
    key, value = setting.split("=")
    assert result.returncode == 1
    assert f"{bad}:2: key '{key}': '{value}' is not a plain number" in result.stderr
    assert result.stdout == ""
    assert not ckpt.exists()


def test_underscores_in_a_non_numeric_value_stay_a_string(tmp_path):
    path = tmp_path / "kv.cfg"
    path.write_text("name=a_b\ncount=12\nrate=2.5e-3\n")
    assert cli.parse_kv_file(path) == {"name": "a_b", "count": 12, "rate": 2.5e-3}


@pytest.mark.parametrize("flag", ["--config", "--spec"])
def test_settings_file_with_a_byte_order_mark_reads_as_without(workspace, tmp_path, flag):
    # an editor that saves UTF-8 with a BOM must not turn the first key into '\ufeffepochs'
    settings = "epochs=1\noptimizer=adam\n" if flag == "--config" else "samples_per_class=2\njoints=4\n"
    path = tmp_path / "bom.cfg"
    path.write_bytes(codecs.BOM_UTF8 + settings.encode("utf-8"))
    plain = tmp_path / "plain.cfg"
    plain.write_text(settings, encoding="utf-8")
    assert cli.parse_kv_file(path) == cli.parse_kv_file(plain)
    out = tmp_path / "out"
    if flag == "--config":
        argv = ("train", "--data", str(workspace / "data"), "--variant", "baseline",
                "--config", str(path), "--out", str(out))
    else:
        argv = ("gen-data", "--spec", str(path), "--out", str(out))
    result = run_cli(*argv)
    assert result.returncode == 0, result.stderr
    assert out.exists()


@pytest.mark.parametrize("flag", ["--config", "--spec"])
def test_non_utf8_settings_file_is_named(workspace, tmp_path, flag):
    # the offset is the bad byte's in the file, past the decoder's 8 KB chunks and a BOM
    long = b"#" + b"a" * 10000 + b"\n\xff"
    for content, offset in [("seed=0\n# r\u00e9glage\n".encode("latin-1"), 10),
                            (long, 10002), (codecs.BOM_UTF8 + long, 10005)]:
        bad = tmp_path / "not_utf8.cfg"
        bad.write_bytes(content)
        with pytest.raises(ContractError, match=rf"^{bad}: not UTF-8 text \(byte {offset}: "):
            cli.parse_kv_file(bad)
    out = tmp_path / "out"
    if flag == "--config":
        argv = ("train", "--data", str(workspace / "data"), "--variant", "baseline",
                "--config", str(bad), "--out", str(out))
    else:
        argv = ("gen-data", "--spec", str(bad), "--out", str(out))
    result = run_cli(*argv)
    assert result.returncode == 1
    assert f"error: {bad}: not UTF-8 text" in result.stderr
    assert not out.exists()


def test_non_finite_loss_exits_1_without_checkpoint(tmp_path):
    data = tmp_path / "data"
    assert run_cli("gen-data", "--out", str(data), "--seed", "0").returncode == 0
    config = tmp_path / "diverge.cfg"
    config.write_text("optimizer=sgd\nlr=1e6\nepochs=2\n")
    ckpt = tmp_path / "x.ckpt"
    result = run_cli(
        "train", "--data", str(data), "--variant", "baseline",
        "--config", str(config), "--out", str(ckpt),
    )
    assert result.returncode == 1
    assert "non-finite training loss" in result.stderr
    assert "at epoch 2, step " in result.stderr and "global step" in result.stderr
    assert not ckpt.exists() and not (tmp_path / "x.ckpt.best").exists()


def test_non_finite_run_leaves_only_its_log(tmp_path):
    # epoch 1 validates and writes a .best candidate; epoch 2 goes non-finite
    data = tmp_path / "data"
    assert run_cli("gen-data", "--out", str(data), "--seed", "0").returncode == 0
    config = tmp_path / "diverge.cfg"
    config.write_text("optimizer=sgd\nlr=1e6\nepochs=2\n")
    out = tmp_path / "out"
    out.mkdir()
    result = run_cli(
        "train", "--data", str(data), "--variant", "baseline",
        "--config", str(config), "--out", str(out / "x.ckpt"),
    )
    assert result.returncode == 1
    assert "epoch=1 split=val" in result.stdout
    assert "at epoch 2, step " in result.stderr
    assert sorted(os.listdir(out)) == ["x.ckpt.log"]


def test_confidently_wrong_run_reports_its_true_loss(workspace, tmp_path):
    # After one SGD step at lr=1e6 the baseline is confidently wrong on its
    # validation clips. A clamped probability would pin the loss at
    # -log(1e-12) = 13.815511 with a zero gradient; the logits-first loss
    # reads the true size and keeps moving, or training stops non-finite.
    config = tmp_path / "huge-lr.cfg"
    config.write_text("optimizer=sgd\nlr=1e6\nepochs=2\n")
    ckpt = tmp_path / "x.ckpt"
    result = run_cli(
        "train", "--data", str(workspace / "data"), "--variant", "baseline",
        "--config", str(config), "--out", str(ckpt),
    )
    if result.returncode == 1:
        assert "non-finite training loss" in result.stderr
        assert not ckpt.exists()
        return
    assert result.returncode == 0, result.stderr
    assert "loss=13.815511" not in result.stdout
    val = [float(line.split("loss=")[1].split()[0])
           for line in result.stdout.splitlines() if "split=val" in line]
    assert len(val) == 2 and val[0] != val[1]


def test_ablate_table_and_determinism(workspace):
    args = (
        "ablate", "--data", str(workspace / "data"),
        "--branch", "pose", "--config", str(workspace / "train.cfg"),
    )
    first = run_cli(*args)
    assert first.returncode == 0, first.stderr
    lines = first.stdout.strip().split("\n")
    assert lines[0] == "| Variant | Accuracy (%) |"
    assert lines[1] == "|---|---|"
    labels = [line.split("|")[1].strip() for line in lines[2:]]
    assert labels == ["Baseline", "+ SEU", "+ TEU", "+ Multi-Head Self Attention"]
    second = run_cli(*args)
    assert second.stdout == first.stdout


def ablate_rows(workspace, branch, capsys):
    code = main(["ablate", "--data", str(workspace / "data"), "--branch", branch,
                 "--config", str(workspace / "train.cfg")])
    assert code == 0
    return [line.split("|")[1].strip() for line in capsys.readouterr().out.strip().split("\n")[2:]]


def test_ablate_prints_one_row_per_variant_in_table_order(workspace, monkeypatch, capsys):
    trained = []

    def fake_train(samples, params, config):
        trained.append(params.ablation)
        return [{"split": "val", "accuracy": 50.0}]

    monkeypatch.setattr(cli, "train", fake_train)
    for branch in BRANCHES:
        trained.clear()
        labels = ablate_rows(workspace, branch, capsys)
        assert [(a.variant, a.branch) for a in trained] == [(v, branch) for v in BRANCH_VARIANTS[branch]]
        assert labels == [VARIANT_ROWS[v] for v in BRANCH_VARIANTS[branch]]


def test_ablate_rgb_trains_baseline_and_full_once_each(workspace, monkeypatch, capsys):
    # seu and seu+teu would build the rgb baseline again: the RGB branch has no pose encoder
    calls = []
    real_train = cli.train

    def counting_train(samples, params, config):
        calls.append(params.ablation.variant)
        return real_train(samples, params, config)

    monkeypatch.setattr(cli, "train", counting_train)
    assert ablate_rows(workspace, "rgb", capsys) == ["Baseline", "+ Multi-Head Self Attention"]
    assert calls == ["baseline", "full"]


@pytest.mark.parametrize("variant", ["seu", "seu+teu"])
def test_train_refuses_a_pose_encoder_variant_on_the_rgb_branch(workspace, tmp_path, capsys, variant):
    # the data directory does not exist: the refusal comes before any data is read
    code = main(["train", "--data", str(tmp_path / "absent"), "--branch", "rgb", "--variant", variant,
                 "--config", str(workspace / "train.cfg"), "--out", str(tmp_path / "x.ckpt")])
    assert code == 1
    err = capsys.readouterr().err
    assert "baseline" in err and "full" in err
    assert os.listdir(tmp_path) == []


def test_train_and_ablate_describe_their_shared_flags_alike(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "100")
    flag_lines = []
    for command in ("train", "ablate"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        lines = capsys.readouterr().out.split("\n")
        flag_lines.append([" ".join(line.split()) for flag in ("--data", "--branch", "--config", "--seed")
                           for line in lines if line.startswith(f"  {flag} ")])
    assert len(flag_lines[0]) == 4
    assert flag_lines[0] == flag_lines[1]


# every component each scope reports, frozen so no check drops out unnoticed
GRADCHECK_COMPONENTS = {
    "op": (
        "add mul relu tanh scale reshape transpose concat sum_all "
        "global_avg_pool matmul dense dense_no_bias softmax layer_norm conv1d_same conv1d_k1 "
        "conv1d_even_same_k2 conv1d_even_same_k4 batched.conv1d_same "
        "batched.conv1d_k1 batched.conv1d_even_same_k2 batched.conv1d_even_same_k4 "
        "batched.layer_norm batched.softmax batched.transpose batched.transpose_heads "
        "batched.global_avg_pool batched.dense_no_bias add.other mul.other concat.other matmul.mat "
        "dense.mat dense.bias layer_norm.gain layer_norm.shift conv1d_same.k3 conv1d_same.kbias "
        "conv1d_k1.k1 conv1d_k1.kbias conv1d_even_same_k2.k2 conv1d_even_same_k2.kbias "
        "conv1d_even_same_k4.k4 conv1d_even_same_k4.kbias"
    ).split(),
    "module": (
        "attention.input attention.wq attention.wk attention.wv attention.wo "
        "lstm.input lstm.wx lstm.wh lstm.bias bilstm.fwd.wx bilstm.fwd.wh bilstm.fwd.bias "
        "bilstm.bwd.wx bilstm.bwd.wh bilstm.bwd.bias streams.enc1.kernel streams.enc1.bias "
        "streams.enc2.kernel streams.enc2.bias streams.enc3.kernel streams.enc3.bias "
        "streams.post1.kernel streams.post1.bias streams.post2.kernel streams.post2.bias "
        "streams.post3.kernel streams.post3.bias streams.proj.kernel streams.proj.bias "
        "streams.ln.gain streams.ln.shift streams.tenc1.kernel streams.tenc1.bias "
        "streams.tenc2.kernel streams.tenc2.bias streams.tenc3.kernel streams.tenc3.bias "
        "loss.softmax_cross_entropy"
    ).split(),
}


@pytest.mark.parametrize("scope", ["op", "module"])
def test_gradcheck_scope_passes(scope):
    result = run_cli("gradcheck", "--scope", scope, "--seed", "3")
    assert result.returncode == 0, result.stderr
    *lines, summary = result.stdout.strip().split("\n")
    names = [line.split()[0].removeprefix("component=") for line in lines]
    assert names == GRADCHECK_COMPONENTS[scope]
    assert summary.startswith(f"scope={scope} components={len(names)} ")
    assert summary.endswith("=> PASS")
    assert result.stderr == ""


def test_dropping_an_op_case_moves_no_other_result(monkeypatch):
    full = verify.op_suite(3)
    monkeypatch.setattr(verify, "OPS", {name: op for name, op in verify.OPS.items() if name != "add"})
    assert verify.op_suite(3) == [case for case in full if case[0] != "add"]
    monkeypatch.setattr(verify, "BATCHED", tuple(name for name in verify.BATCHED if name != "softmax"))
    assert verify.op_suite(3) == [case for case in full if case[0] not in ("add", "batched.softmax")]


def test_gradcheck_rejects_unknown_scope():
    result = run_cli("gradcheck", "--scope", "galaxy")
    assert result.returncode == 2


def test_eval_bad_checkpoint_is_runtime_error(tmp_path):
    bogus = tmp_path / "bogus.ckpt"
    bogus.write_bytes(b"not a checkpoint")
    result = run_cli("eval", "--checkpoint", str(bogus), "--data", str(tmp_path))
    assert result.returncode == 1
    assert "error" in result.stderr
    assert result.stdout == ""
