import numpy as np
import pytest

from skelact.data import (
    FEATURE_WIDTH,
    FrameFeatureSequence,
    RawSkeletonSample,
    SyntheticSpec,
    generate_raw,
    generate_synthetic,
    load_feature_file,
    load_skeleton_file,
    normalize_positions,
    normalize_spine,
    preprocess_features,
    preprocess_skeleton,
    sample_frames,
    write_container,
    write_feature_file,
    write_skeleton_file,
)
from skelact.errors import ContractError, ParseError


def make_sample(rng, frames=8, joints=5, subjects=1, spine_index=1, label=0):
    positions = rng.normal(size=(frames, subjects, joints, 3)) + 5.0
    return RawSkeletonSample(positions, joints, subjects, spine_index, label)


# ---------------------------------------------------------------------------
# frame sampling


def test_sample_frames_identity():
    assert sample_frames(20, 20) == list(range(20))


def test_sample_frames_downsample():
    assert sample_frames(39, 20) == list(range(0, 39, 2))


def test_sample_frames_upsample_short_sequence():
    assert sample_frames(5, 20) == [0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4]


def test_sample_frames_singleton():
    assert sample_frames(1, 20) == [0] * 20


def test_sample_frames_properties():
    rng = np.random.default_rng(0)
    for _ in range(200):
        length = int(rng.integers(1, 200))
        target = int(rng.integers(1, 40))
        idx = sample_frames(length, target)
        assert len(idx) == target
        assert idx == sorted(idx)
        assert idx[0] == 0 and idx[-1] == length - 1 if target > 1 else idx == [0]
        assert all(0 <= i < length for i in idx)


def test_sample_frames_empty_error():
    with pytest.raises(ContractError):
        sample_frames(0, 20)


# ---------------------------------------------------------------------------
# normalization


def test_spine_maps_to_origin():
    rng = np.random.default_rng(1)
    sample = make_sample(rng, spine_index=2)
    pose = normalize_spine(sample)
    np.testing.assert_array_equal(pose[:, 2, :], np.zeros((8, 3)))


def test_translation_invariance():
    rng = np.random.default_rng(2)
    sample = make_sample(rng)
    shifted = RawSkeletonSample(
        sample.positions + np.array([3.0, -7.0, 11.0]), 5, 1, 1, 0
    )
    np.testing.assert_allclose(normalize_spine(sample), normalize_spine(shifted), atol=1e-12)


def test_scale_invariance():
    rng = np.random.default_rng(3)
    sample = make_sample(rng)
    doubled = RawSkeletonSample(sample.positions * 2.0, 5, 1, 1, 0)
    np.testing.assert_array_equal(normalize_spine(sample), normalize_spine(doubled))
    scaled = RawSkeletonSample(sample.positions * 1.7, 5, 1, 1, 0)
    np.testing.assert_allclose(normalize_spine(sample), normalize_spine(scaled), atol=1e-12)


def test_normalization_idempotent():
    rng = np.random.default_rng(4)
    once = normalize_positions(rng.normal(size=(6, 7, 3)), 1)
    twice = normalize_positions(once, 1)
    np.testing.assert_allclose(once, twice, atol=1e-12)


def test_subjects_normalized_independently():
    rng = np.random.default_rng(5)
    positions = rng.normal(size=(6, 2, 5, 3)) + np.array([[0.0], [50.0]])[None, :, :, None][..., 0, None] * 0
    positions[:, 1] += 40.0  # second subject lives far away
    sample = RawSkeletonSample(positions, 5, 2, 1, 0)
    pose = normalize_spine(sample)
    assert pose.shape == (6, 10, 3)
    np.testing.assert_allclose(pose[:, :5], normalize_positions(positions[:, 0], 1), atol=0)
    np.testing.assert_allclose(pose[:, 5:], normalize_positions(positions[:, 1], 1), atol=0)


def test_degenerate_skeleton_rejected():
    positions = np.zeros((4, 1, 5, 3))
    sample = RawSkeletonSample(positions, 5, 1, 1, 0)
    with pytest.raises(ContractError, match="scale"):
        normalize_spine(sample)


def test_preprocess_skeleton_shape():
    rng = np.random.default_rng(6)
    sample = make_sample(rng, frames=33, joints=25)
    pose = preprocess_skeleton(sample)
    assert pose.shape == (20, 25, 3)


# ---------------------------------------------------------------------------
# synthetic generator


def small_spec(**kw):
    base = dict(num_classes=3, samples_per_class=4, joints=6, frames=12, seed=9)
    base.update(kw)
    return SyntheticSpec(**base)


@pytest.mark.parametrize("field,value", [
    ("num_classes", 1),
    ("num_classes", 3.0),
    ("samples_per_class", 2.5),
    ("samples_per_class", True),
    ("joints", 1),
    ("frames", "12"),
    ("spine_index", -1),
    ("spine_index", 6),  # small_spec has 6 joints
    ("spine_index", 1.0),
    ("seed", -3),
    ("seed", False),
    ("base_frequency", float("nan")),
    ("frequency_gap", float("-inf")),
    ("amplitude", float("inf")),
    ("amplitude", True),
    ("noise_sigma", float("nan")),
    ("noise_sigma", -0.1),
    ("rgb_noise_sigma", float("inf")),
    ("rgb_noise_sigma", "0.5"),
])
def test_synthetic_spec_rejects_bad_value(field, value):
    with pytest.raises(ContractError, match=f"SyntheticSpec.{field} "):
        small_spec(**{field: value})


def test_synthetic_spec_accepts_signed_motion_and_zero_noise():
    spec = small_spec(base_frequency=-1.0, frequency_gap=0, amplitude=-0.5,
                      noise_sigma=0, rgb_noise_sigma=0.0, seed=0)
    assert len(generate_raw(spec)) == 12


def test_generator_deterministic():
    a = generate_synthetic(small_spec())
    b = generate_synthetic(small_spec())
    assert len(a) == len(b) == 12
    for sa, sb in zip(a, b):
        assert sa.label == sb.label
        np.testing.assert_array_equal(sa.pose, sb.pose)
        np.testing.assert_array_equal(sa.features, sb.features)


def test_generator_label_balance():
    data = generate_synthetic(small_spec())
    labels = [s.label for s in data]
    for c in range(3):
        assert labels.count(c) == 4


def test_noiseless_generator_collapses_classes():
    data = generate_synthetic(small_spec(noise_sigma=0.0))
    by_class = {}
    for s in data:
        by_class.setdefault(s.label, []).append(s.pose)
    for poses in by_class.values():
        for p in poses[1:]:
            np.testing.assert_array_equal(poses[0], p)


def test_nearest_centroid_oracle_on_noiseless_data():
    data = generate_synthetic(small_spec(noise_sigma=0.0))
    flat = np.stack([s.pose.reshape(-1) for s in data])
    labels = np.array([s.label for s in data])
    centroids = np.stack([flat[labels == c].mean(axis=0) for c in range(3)])
    predicted = np.argmin(((flat[:, None] - centroids[None]) ** 2).sum(axis=2), axis=1)
    assert (predicted == labels).all()


def test_generated_poses_are_normalized():
    for s in generate_synthetic(small_spec()):
        assert s.pose.shape == (20, 6, 3)
        np.testing.assert_allclose(s.pose[:, 1], np.zeros((20, 3)), atol=1e-12)
        assert s.features.shape == (20, FEATURE_WIDTH)


# ---------------------------------------------------------------------------
# binary formats


def test_skeleton_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    sample = make_sample(rng, frames=5, joints=4, subjects=2, spine_index=3, label=11)
    path = tmp_path / "a.skl"
    write_skeleton_file(path, sample)
    loaded = load_skeleton_file(path)
    assert (loaded.joints_per_subject, loaded.subjects) == (4, 2)
    assert (loaded.spine_index, loaded.label) == (3, 11)
    np.testing.assert_array_equal(loaded.positions, sample.positions)


def test_failed_container_write_keeps_the_previous_file(tmp_path):
    rng = np.random.default_rng(12)
    sample = make_sample(rng, frames=5, joints=4)
    path = tmp_path / "a.skl"
    write_skeleton_file(path, sample)
    before = path.read_bytes()

    def arrays():
        yield np.ones(8)
        raise OSError("device full")

    with pytest.raises(OSError, match="device full"):
        write_container(path, b"SKL1", b"\x00" * 20, arrays())
    assert [p.name for p in tmp_path.iterdir()] == ["a.skl"]
    assert path.read_bytes() == before
    np.testing.assert_array_equal(load_skeleton_file(path).positions, sample.positions)
    # a write that completes replaces the file and leaves nothing beside it
    other = make_sample(rng, frames=5, joints=4)
    write_skeleton_file(path, other)
    assert [p.name for p in tmp_path.iterdir()] == ["a.skl"]
    np.testing.assert_array_equal(load_skeleton_file(path).positions, other.positions)


def test_skeleton_bad_magic(tmp_path):
    path = tmp_path / "bad.skl"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ParseError, match="byte offset 0"):
        load_skeleton_file(path)


def test_skeleton_truncated_payload(tmp_path):
    rng = np.random.default_rng(8)
    sample = make_sample(rng, frames=3, joints=4)
    path = tmp_path / "t.skl"
    write_skeleton_file(path, sample)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(ParseError, match="byte offset"):
        load_skeleton_file(path)


def test_skeleton_non_finite_rejected(tmp_path):
    rng = np.random.default_rng(9)
    sample = make_sample(rng, frames=3, joints=4)
    path = tmp_path / "nan.skl"
    write_skeleton_file(path, sample)
    blob = bytearray(path.read_bytes())
    blob[24:32] = np.float64("nan").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError, match="byte offset 24"):
        load_skeleton_file(path)


def test_feature_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    fseq = FrameFeatureSequence(rng.normal(size=(6, FEATURE_WIDTH)), 3)
    path = tmp_path / "a.ftr"
    write_feature_file(path, fseq)
    loaded = load_feature_file(path)
    assert loaded.label == 3
    np.testing.assert_array_equal(loaded.features, fseq.features)


def test_feature_wrong_width_rejected(tmp_path):
    import struct

    path = tmp_path / "w.ftr"
    payload = np.zeros(6 * 512)
    path.write_bytes(b"FTR1" + struct.pack("<3I", 6, 512, 0) + payload.tobytes())
    with pytest.raises(ParseError, match="1536"):
        load_feature_file(path)


def test_feature_bad_magic(tmp_path):
    path = tmp_path / "m.ftr"
    path.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(ParseError, match="byte offset 0"):
        load_feature_file(path)


def test_feature_sequence_invariants():
    with pytest.raises(ContractError):
        FrameFeatureSequence(np.zeros((4, 100)), 0)
    bad = np.zeros((4, FEATURE_WIDTH))
    bad[2, 7] = np.inf
    with pytest.raises(ContractError):
        FrameFeatureSequence(bad, 0)


def test_preprocess_features_shape():
    rng = np.random.default_rng(11)
    fseq = FrameFeatureSequence(rng.normal(size=(32, FEATURE_WIDTH)), 0)
    assert preprocess_features(fseq).shape == (20, FEATURE_WIDTH)


def test_raw_files_match_generator(tmp_path):
    spec = small_spec()
    raw = generate_raw(spec)
    skeleton, features = raw[0]
    spath = tmp_path / "s.skl"
    fpath = tmp_path / "f.ftr"
    write_skeleton_file(spath, skeleton)
    write_feature_file(fpath, features)
    np.testing.assert_array_equal(load_skeleton_file(spath).positions, skeleton.positions)
    np.testing.assert_array_equal(load_feature_file(fpath).features, features.features)
