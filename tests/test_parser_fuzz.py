"""Damaged SKL1, FTR1 and CKP2 files: the loaders raise ParseError and nothing else.
Settings files (`--config`, `--spec`): any bytes build the dataclass or raise
ContractError or ParseError, and a valid dataclass written out reads back equal."""

import dataclasses
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelact import cli, data
from skelact.data import (
    FrameFeatureSequence,
    RawSkeletonSample,
    SyntheticSpec,
    load_feature_file,
    load_skeleton_file,
    write_feature_file,
    write_skeleton_file,
)
from skelact.errors import ContractError, ParseError
from skelact.model import ModelDims, build_variant, load_checkpoint, save_checkpoint, variant_config
from skelact.streams import StreamConfig
from skelact.training import TrainConfig


def tiny_checkpoint(path):
    stream = StreamConfig(seu_filters=(2, 2, 2), teu_filters=(2, 2, 2), post_filters=(3, 3, 4))
    dims = ModelDims(frames=4, joints=3, hidden=2, num_classes=2, stream=stream)
    save_checkpoint(path, build_variant(variant_config("baseline"), dims, seed=1))


def skeleton_file(path):
    rng = np.random.default_rng(0)
    write_skeleton_file(path, RawSkeletonSample(rng.normal(size=(3, 1, 2, 3)), 2, 1, 1, 1))


def feature_file(path):
    rng = np.random.default_rng(1)
    write_feature_file(path, FrameFeatureSequence(rng.normal(size=(1, 1536)), 2))


# format -> (writer, loader, length of the header plus manifest, read from the file)
FORMATS = {
    "SKL1": (skeleton_file, load_skeleton_file, lambda blob: 24),
    "FTR1": (feature_file, load_feature_file, lambda blob: 16),
    "CKP2": (tiny_checkpoint, load_checkpoint, lambda blob: 8 + int.from_bytes(blob[4:8], "little")),
}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    blobs = {}
    for name, (write, load, _) in FORMATS.items():
        path = root / f"original.{name}"
        write(path)
        load(path)  # the undamaged file loads
        blobs[name] = path.read_bytes()
    return root, blobs


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_every_truncation_of_header_or_manifest_is_a_parse_error(name, originals):
    root, blobs = originals
    blob, load, header_end = blobs[name], FORMATS[name][1], FORMATS[name][2](blobs[name])
    path = root / f"truncated.{name}"
    for cut in range(header_end + 1):
        path.write_bytes(blob[:cut])
        with pytest.raises(ParseError):
            load(path)


@settings(max_examples=500, deadline=None)
@given(
    name=st.sampled_from(sorted(FORMATS)),
    truncate=st.booleans(),
    in_payload=st.booleans(),
    position=st.floats(0.0, 1.0, exclude_max=True),
    bit=st.integers(0, 7),
)
def test_truncations_and_bit_flips_raise_only_parse_error(name, truncate, in_payload, position, bit,
                                                          originals):
    """A truncated file raises ParseError; a file with one bit flipped loads or raises ParseError."""
    root, blobs = originals
    blob = bytearray(blobs[name])
    load, header_end = FORMATS[name][1], FORMATS[name][2](blob)
    lo, hi = (header_end, len(blob)) if in_payload else (0, header_end)
    offset = lo + int(position * (hi - lo))
    path = root / f"damaged.{name}"
    if truncate:
        path.write_bytes(bytes(blob[:offset]))
        with pytest.raises(ParseError):
            load(path)
        return
    blob[offset] ^= 1 << bit
    path.write_bytes(bytes(blob))
    try:
        load(path)
    except ParseError:
        pass


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_non_finite_payload_error_names_file_and_offset(name, originals):
    # the payload's last float: in a checkpoint it lies in the last tensor
    root, blobs = originals
    blob = bytearray(blobs[name])
    offset = len(blob) - 8
    blob[offset:] = np.float64("inf").tobytes()
    path = root / f"non_finite.{name}"
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError, match=re.escape(f"{path}: non-finite value at byte offset {offset}")):
        FORMATS[name][1](path)


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_payload_must_end_the_file_exactly(name, originals):
    # one container reader serves all three formats, so they share these errors
    root, blobs = originals
    blob, load = blobs[name], FORMATS[name][1]
    path = root / f"length.{name}"
    path.write_bytes(blob[:-8])
    with pytest.raises(ParseError, match=re.escape(f"{path}: payload truncated at byte offset {len(blob) - 8}")):
        load(path)
    path.write_bytes(blob + bytes(8))
    with pytest.raises(ParseError, match=re.escape(f"{path}: 8 trailing bytes at byte offset {len(blob)}")):
        load(path)


@pytest.mark.parametrize("name", sorted(FORMATS))
@pytest.mark.parametrize("change", [-8, 8])
def test_file_resized_after_its_size_was_read_is_a_parse_error(name, change, originals, monkeypatch):
    # the reader is told the original size while the file on disk lost or gained 8 bytes,
    # as if it changed between the fstat and the read: no unread memory may be returned
    root, blobs = originals
    blob, load = blobs[name], FORMATS[name][1]
    path = root / f"resized.{name}"
    path.write_bytes(blob[:change] if change < 0 else blob + bytes(change))
    fstat = data.os.fstat
    monkeypatch.setattr(data.os, "fstat", lambda fd: SimpleNamespace(st_size=fstat(fd).st_size - change))
    expected = (f"payload truncated at byte offset {len(blob) + change}" if change < 0
                else f"trailing bytes at byte offset {len(blob)}")
    with pytest.raises(ParseError, match=re.escape(f"{path}: {expected}")):
        load(path)


# ---------------------------------------------------------------------------
# settings files


SETTINGS = {"training": TrainConfig, "generator": SyntheticSpec}
KEYS = sorted({field.name for cls in SETTINGS.values() for field in dataclasses.fields(cls)})
# a value: a number as Python writes it, one the reader refuses or reads as a string, or any text
VALUES = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["", "1_0", "\u0661\u0660", "nan", "-inf", "1e999", "-1", "true", "adam", "sgd", "0x10"]),
    st.text(max_size=8),
)
LINES = st.one_of(st.tuples(st.sampled_from(KEYS) | st.text(max_size=4), VALUES).map("=".join),
                  st.text(max_size=12))


def settings_bytes(cls):
    """Any bytes; lines of any keys and text; or one line for each of some of `cls`'s fields."""
    own = st.dictionaries(st.sampled_from([field.name for field in dataclasses.fields(cls)]), VALUES)
    lines = st.lists(LINES, max_size=6) | own.map(lambda pairs: [f"{key}={value}" for key, value in pairs.items()])
    return st.binary(max_size=64) | st.tuples(lines, st.sampled_from(["\n", "\r\n", "\r"]), st.booleans()).map(
        lambda drawn: ("\ufeff" * drawn[2] + drawn[1].join(drawn[0])).encode("utf-8", "surrogatepass"))


@pytest.fixture(scope="module")
def settings_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("settings")


@pytest.mark.parametrize("what", sorted(SETTINGS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_settings_file_builds_or_raises_contract_or_parse_error(what, data, settings_dir):
    path = settings_dir / f"{what}.cfg"
    path.write_bytes(data.draw(settings_bytes(SETTINGS[what])))
    try:
        built = cli._settings(SETTINGS[what], path, None, what)
    except (ContractError, ParseError):
        return
    assert type(built) is SETTINGS[what]


@st.composite
def valid_settings(draw, cls):
    reals = st.floats(min_value=0.0, allow_infinity=False)
    if cls is TrainConfig:
        return TrainConfig(
            optimizer=draw(st.sampled_from(["adam", "sgd"])), lr=draw(reals), lr_decay=draw(reals),
            l2_lambda=draw(reals), batch_size=draw(st.integers(1, 2**70)), epochs=draw(st.integers(1, 2**70)),
            seed=draw(st.integers(0, 2**70)), val_fraction=draw(st.floats(0.0, 1.0, exclude_max=True)),
        )
    joints = draw(st.integers(2, 2**70))
    anything = st.floats(allow_nan=False, allow_infinity=False)
    return SyntheticSpec(
        num_classes=draw(st.integers(2, 2**70)), samples_per_class=draw(st.integers(1, 2**70)), joints=joints,
        frames=draw(st.integers(2, 2**70)), spine_index=draw(st.integers(0, joints - 1)),
        base_frequency=draw(anything), frequency_gap=draw(anything), amplitude=draw(anything),
        noise_sigma=draw(reals), rgb_noise_sigma=draw(reals), seed=draw(st.integers(0, 2**70)),
    )


@pytest.mark.parametrize("what", sorted(SETTINGS))
@settings(max_examples=75, deadline=None)
@given(data=st.data())
def test_valid_settings_written_as_key_value_lines_read_back_equal(what, data, settings_dir):
    cls = SETTINGS[what]
    value = data.draw(valid_settings(cls))
    lines = [f"{key}={item!r}" if not isinstance(item, str) else f"{key}={item}"
             for key, item in dataclasses.asdict(value).items()]
    path = settings_dir / f"{what}.roundtrip.cfg"
    path.write_text("\n".join(data.draw(st.permutations(lines))) + "\n")
    assert cli._settings(cls, path, None, what) == value
