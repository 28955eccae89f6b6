"""Damaged SKL1, FTR1 and CKP2 files: the loaders raise ParseError and nothing else."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelact.data import (
    FrameFeatureSequence,
    RawSkeletonSample,
    load_feature_file,
    load_skeleton_file,
    write_feature_file,
    write_skeleton_file,
)
from skelact.errors import ParseError
from skelact.model import ModelDims, build_variant, load_checkpoint, save_checkpoint, variant_config
from skelact.streams import StreamConfig


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
