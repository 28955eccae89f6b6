"""Dataset ingestion, preprocessing, and the synthetic benchmark generator.

File formats (little-endian throughout):
  SKL1  magic "SKL1", u32 frames/joints/subjects/spine_index/label, then
        frames*subjects*joints*3 float64 joint coordinates, row-major.
  FTR1  magic "FTR1", u32 frames/width/label, then frames*width float64
        per-frame feature values, row-major. Width is fixed at 1536.
Both, and `model`'s CKP2 checkpoints, go through one container writer and
reader, `write_container` and `read_container`.

The reader reads a payload that does not start a cache line of its file
(SKL1's starts at byte 24, FTR1's at byte 16) into a new aligned array: for a
clip file of tens of KB that costs less than a map. A payload that starts a
multiple of `CACHE_LINE` bytes into the file (CKP2's, which the writer pads
its manifest for) is mapped copy-on-write instead, so a 93 MiB checkpoint is
not copied, and the returned array is a writable view of that private map
that starts a cache line just as an aligned copy does. Writing to it changes
the process's pages, never the file. The map holds the file open for as long
as an array views it, so a file some process may have loaded must be
replaced (as `write_container` does, by a rename), never rewritten in place:
a shrunk file would fault the process that maps it.

Values are checked for finiteness once, where they enter: by `read_container`
for files and by `generate_raw` for synthetic clips. The clip records
`RawSkeletonSample` and `FrameFeatureSequence` check only their own layout.
`generate_raw` also makes every clip's scale check, so it never writes a clip
that preprocessing refuses.

Preprocessing follows the recipe: pick 20 equally spaced frames, move every
subject's joints to spine-centered coordinates, and divide by the sequence
mean joint-to-spine distance so scale is normalized too. `normalize_poses`
does the last two steps for a whole block of clips in a few vectorized passes;
a dataset loader gathers each clip's frames into one block as it reads the
clip and then calls `preprocess_poses` once. The one-clip functions
(`normalize_positions`, `normalize_spine`, `preprocess_skeleton`) are the
same pass over a block of one clip, so both give the same bits.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import CACHE_LINE, aligned_empty
from .errors import ContractError, ParseError, require_finite, require_integer

FEATURE_WIDTH = 1536
TARGET_FRAMES = 20
COORDS = 3  # x, y, z per joint

_SKL_MAGIC = b"SKL1"
_FTR_MAGIC = b"FTR1"


@dataclass
class RawSkeletonSample:
    positions: np.ndarray  # [T_raw, subjects, J, COORDS]
    joints_per_subject: int
    subjects: int
    spine_index: int
    label: int

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        expected = (self.positions.shape[0], self.subjects, self.joints_per_subject, COORDS)
        if self.positions.shape != expected:
            raise ContractError(
                f"skeleton positions shape {self.positions.shape} does not match {expected}"
            )
        if not 0 <= self.spine_index < self.joints_per_subject:
            raise ContractError(f"spine index {self.spine_index} outside joint range")
        if self.label < 0:
            raise ContractError(f"negative label {self.label}")


@dataclass
class FrameFeatureSequence:
    features: np.ndarray  # [T_raw, 1536]
    label: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[1] != FEATURE_WIDTH:
            raise ContractError(
                f"feature width must be {FEATURE_WIDTH}, got shape {self.features.shape}"
            )


@dataclass
class SyntheticSpec:
    num_classes: int = 4
    samples_per_class: int = 50
    joints: int = 25
    frames: int = 32
    spine_index: int = 1
    base_frequency: float = 1.0
    frequency_gap: float = 0.75
    amplitude: float = 0.35
    noise_sigma: float = 0.04
    rgb_noise_sigma: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name, low in (("num_classes", 2), ("samples_per_class", 1), ("joints", 2),
                          ("frames", 2), ("spine_index", 0), ("seed", 0)):
            require_integer("SyntheticSpec", name, getattr(self, name), low)
        if not self.spine_index < self.joints:
            raise ContractError(
                f"SyntheticSpec.spine_index {self.spine_index} outside joint range [0, {self.joints})"
            )
        for name in ("base_frequency", "frequency_gap", "amplitude"):
            require_finite("SyntheticSpec", name, getattr(self, name))
        for name in ("noise_sigma", "rgb_noise_sigma"):
            require_finite("SyntheticSpec", name, getattr(self, name), low=0)


@dataclass
class Sample:
    """One preprocessed dataset item; features may be absent for pose-only data."""
    pose: np.ndarray            # [20, J_eff, COORDS]
    features: np.ndarray | None  # [20, 1536]
    label: int


# ---------------------------------------------------------------------------
# preprocessing


def sample_frames(length, target=TARGET_FRAMES):
    """Equally spaced frame indices, nearest-frame duplication when short."""
    if length < 1:
        raise ContractError("cannot sample frames from an empty sequence")
    if target < 1:
        raise ContractError("target frame count must be positive")
    if target == 1:
        return [0]
    step = (length - 1) / (target - 1)
    return [math.floor(i * step + 0.5) for i in range(target)]


class DegenerateSkeleton(ContractError):
    """A clip with a subject whose scale is zero (every joint on the spine) or overflows; `clip` indexes its block."""

    def __init__(self, clip, scale):
        super().__init__(f"degenerate skeleton: scale (mean joint distance from the spine) {scale} "
                         "is not positive and finite")
        self.clip = clip


def normalize_poses(poses, subjects, spine_index):
    """Spine-center and scale-normalize, in place, a C-contiguous block of clips of one layout.

    `poses` is [N, T, subjects * J, COORDS], each clip's subjects side by side
    on the joint axis. Every subject of every clip is moved so that its spine
    joint is the origin, then divided by its scale: its mean joint-to-spine
    distance over the T frames. A squared distance is summed as (x² + y²) + z²
    and each clip-subject's T·J distances are reduced as one contiguous row,
    which is how numpy sums one subject alone, so the block's bits are those of
    normalizing each clip on its own. Raises DegenerateSkeleton for the first
    clip with a scale that is zero or overflows, before dividing anything.
    """
    if not poses.flags.c_contiguous:
        raise ContractError("normalize_poses works in place on a C-contiguous block")
    clips, frames, joints_eff, _ = poses.shape
    joints = joints_eff // subjects
    by_subject = poses.reshape(clips, frames, subjects, joints, COORDS)
    dist = np.empty((clips, subjects, frames, joints))  # one row of T·J distances per clip-subject
    with np.errstate(over="ignore"):  # coordinates too large to square give scale inf, refused below
        by_subject -= by_subject[:, :, :, spine_index:spine_index + 1].copy()
        x, y, z = (by_subject[..., axis].transpose(0, 2, 1, 3) for axis in range(COORDS))
        np.multiply(x, x, out=dist)
        dist += y * y
        dist += z * z
    np.sqrt(dist, out=dist)
    scales = dist.reshape(clips, subjects, frames * joints).sum(axis=2) / (frames * joints)
    bad = ~((scales > 0.0) & (scales < np.inf))
    if bad.any():
        clip, subject = np.argwhere(bad)[0]
        raise DegenerateSkeleton(int(clip), scales[clip, subject])
    by_subject /= scales[:, None, :, None, None]


def preprocess_poses(poses, layouts):
    """Normalize in place a block [N, T, J_eff, COORDS] of clips whose (subjects, spine index) are `layouts`.

    The clips of each layout go through `normalize_poses` together. A
    DegenerateSkeleton names the first such clip of the block.
    """
    groups = {}
    for clip, layout in enumerate(layouts):
        groups.setdefault(layout, []).append(clip)
    first = None
    for (subjects, spine_index), clips in groups.items():
        whole = len(clips) == len(poses)
        part = poses if whole else poses[clips]
        try:
            normalize_poses(part, subjects, spine_index)
        except DegenerateSkeleton as err:
            err.clip = clips[err.clip]
            first = err if first is None or err.clip < first.clip else first
            continue
        if not whole:
            poses[clips] = part
    if first is not None:
        raise first


def _normalized(positions, spine_index):
    """A normalized copy [T, subjects * J, COORDS] of one clip's [T, subjects, J, COORDS]."""
    frames, subjects, joints, _ = positions.shape
    pose = np.array(positions, dtype=np.float64).reshape(1, frames, subjects * joints, COORDS)
    normalize_poses(pose, subjects, spine_index)
    return pose[0]


def normalize_positions(positions, spine_index):
    """Spine-centered, scale-normalized coordinates for one subject [T, J, 3]."""
    return _normalized(np.asarray(positions)[:, None], spine_index)


def normalize_spine(sample):
    """Per-subject normalization of a whole clip; returns [T_raw, subjects*J, 3]."""
    return _normalized(sample.positions, sample.spine_index)


def preprocess_skeleton(sample, target=TARGET_FRAMES):
    """Frame sampling then normalization; yields the network's [target, J_eff, 3] pose."""
    return _normalized(sample.positions[sample_frames(sample.positions.shape[0], target)], sample.spine_index)


def preprocess_features(fseq, target=TARGET_FRAMES):
    indices = sample_frames(fseq.features.shape[0], target)
    return fseq.features[indices]


# ---------------------------------------------------------------------------
# synthetic benchmark


def _synthetic_layout(spec):
    """Base skeleton and per-class motion parameters, all drawn from one stream."""
    rng = np.random.default_rng(spec.seed)
    base = rng.normal(size=(spec.joints, COORDS))
    classes = []
    for _ in range(spec.num_classes):
        amplitude = rng.uniform(0.5, 1.0, size=(spec.joints, COORDS)) * spec.amplitude
        amplitude[spec.spine_index] = 0.0  # keep the reference joint steady
        phase = rng.uniform(0.0, 2.0 * np.pi, size=(spec.joints, COORDS))
        centroid = rng.normal(size=FEATURE_WIDTH)
        classes.append((amplitude, phase, centroid))
    return rng, base, classes


def generate_raw(spec):
    """Raw (skeleton, features) pairs for writing to disk; deterministic in seed."""
    rng, base, classes = _synthetic_layout(spec)
    t_axis = np.arange(spec.frames) / spec.frames
    out = []
    for label in range(spec.num_classes):
        amplitude, phase, centroid = classes[label]
        freq = spec.base_frequency + label * spec.frequency_gap
        angle = 2.0 * np.pi * freq * t_axis[:, None, None] + phase[None]
        clean = base[None] + amplitude[None] * np.sin(angle)
        for _ in range(spec.samples_per_class):
            noise = rng.normal(scale=spec.noise_sigma, size=clean.shape) if spec.noise_sigma > 0 else 0.0
            positions = (clean + noise)[:, None, :, :]  # single subject
            feat_noise = (
                rng.normal(scale=spec.rgb_noise_sigma, size=(spec.frames, FEATURE_WIDTH))
                if spec.rgb_noise_sigma > 0
                else np.zeros((spec.frames, FEATURE_WIDTH))
            )
            features = centroid[None] + feat_noise
            for values, what in ((positions, "skeleton positions"), (features, "RGB features")):
                if not np.isfinite(values).all():
                    raise ContractError(f"synthetic clip {len(out)} (class {label}) has non-finite {what}")
            skeleton = RawSkeletonSample(positions, spec.joints, 1, spec.spine_index, label)
            try:
                preprocess_skeleton(skeleton)  # the scale check every loader makes of the clip
            except DegenerateSkeleton as err:
                raise ContractError(f"synthetic clip {len(out)} (class {label}) at "
                                    f"amplitude={spec.amplitude!r} has a {err}") from None
            out.append((skeleton, FrameFeatureSequence(features, label)))
    return out


def generate_synthetic(spec, target=TARGET_FRAMES):
    """Preprocessed dataset of Sample items, samples_per_class per class."""
    return [
        Sample(preprocess_skeleton(skeleton, target), preprocess_features(features, target), label=skeleton.label)
        for skeleton, features in generate_raw(spec)
    ]


# ---------------------------------------------------------------------------
# binary formats: a magic, a header, then a float64 payload that ends the file


def write_container(path, magic, header, arrays):
    """Write `magic`, the `header` bytes, then each array as little-endian float64.

    A C-contiguous `<f8` array is written from its own buffer, with no copy.
    The bytes go to a new file beside `path`, which `os.replace` then renames
    onto it: a reader sees the old file or the whole new one, and a write that
    raises removes its file and leaves `path` as it was. There is no fsync, so
    this holds against a failing process, not a power cut.
    """
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(magic + header)
            for array in arrays:
                fh.write(np.ascontiguousarray(array, dtype="<f8"))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def read_container(path, magic, header_size, parse_header):
    """(header, payload) of a container file; the payload, a writable float64 array, starts a cache line.

    Once the magic and `header_size` header bytes are present,
    `parse_header(path, head, read)` returns (header, float64 count): `head`
    is the file's bytes up to there, and `read(n, what)` returns the next n
    bytes, or raises ParseError naming `what` if the file is shorter. The
    payload follows whatever was read, must end the file exactly and must
    hold only finite values. Its length is checked against the file's size
    before it is allocated or mapped. A payload that starts a multiple of
    `CACHE_LINE` bytes into the file is a view of a copy-on-write map of the
    file, whose length is checked too, and which stays open while the array
    lives: replace such a file, never rewrite it in place (module docstring).
    Any other payload is read straight into a new aligned array. The file is
    read unbuffered, one read call per part: a buffer would only add a copy of
    bytes that are each read once (200 SKL1 loads took 0.6-0.8 ms less).
    """
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(4 + header_size)
        if head[:4] != magic:
            raise ParseError(f"{path}: bad magic at byte offset 0, expected {magic.decode()}")
        if len(head) < 4 + header_size:
            raise ParseError(f"{path}: truncated header at byte offset {len(head)}")

        def read(n, what):
            start = fh.tell()
            if start + n > size:
                raise ParseError(f"{path}: {what} truncated at byte offset {size}")
            chunk = fh.read(n)
            if len(chunk) < n:
                raise ParseError(f"{path}: {what} truncated at byte offset {start + len(chunk)}")
            return chunk

        header, count = parse_header(path, head, read)
        offset = fh.tell()
        end = offset + 8 * count
        if end > size:
            raise ParseError(f"{path}: payload truncated at byte offset {size}, it ends at {end}")
        if end < size:
            raise ParseError(f"{path}: {size - end} trailing bytes at byte offset {end}")
        # the file may have changed size since fstat: check what the map or the read got
        mapped = count > 0 and offset % CACHE_LINE == 0
        if mapped:
            view = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
            got = len(view) - offset
        else:
            payload = aligned_empty(count).view("<f8")
            got = fh.readinto(payload) + len(fh.read(1))  # a byte past the payload: the file grew
        if got < 8 * count:
            raise ParseError(f"{path}: payload truncated at byte offset {offset + got}, it ends at {end}")
        if got > 8 * count:
            raise ParseError(f"{path}: trailing bytes at byte offset {end}")
        if mapped:
            payload = np.frombuffer(view, "<f8", count, offset)
    finite = np.isfinite(payload)
    if not finite.all():
        raise ParseError(f"{path}: non-finite value at byte offset {offset + 8 * int(np.argmin(finite))}")
    return header, payload


def _skeleton_header(path, head, read):
    frames, joints, subjects, spine_index, label = struct.unpack("<5I", head[4:24])
    if frames < 1 or joints < 1 or subjects < 1:
        raise ParseError(f"{path}: empty dimensions in header at byte offset 4")
    if spine_index >= joints:
        raise ParseError(f"{path}: spine index out of range at byte offset 16")
    return (frames, joints, subjects, spine_index, label), frames * subjects * joints * COORDS


def write_skeleton_file(path, sample):
    header = struct.pack("<5I", sample.positions.shape[0], sample.joints_per_subject, sample.subjects,
                         sample.spine_index, sample.label)
    write_container(path, _SKL_MAGIC, header, [sample.positions])


def load_skeleton_file(path):
    header, payload = read_container(path, _SKL_MAGIC, 20, _skeleton_header)
    frames, joints, subjects, spine_index, label = header
    positions = payload.reshape(frames, subjects, joints, COORDS)
    return RawSkeletonSample(positions, joints, subjects, spine_index, label)


def _feature_header(path, head, read):
    frames, width, label = struct.unpack("<3I", head[4:16])
    if width != FEATURE_WIDTH:
        raise ParseError(f"{path}: feature width {width} at byte offset 8, must be {FEATURE_WIDTH}")
    if frames < 1:
        raise ParseError(f"{path}: empty frame count at byte offset 4")
    return (frames, label), frames * width


def write_feature_file(path, fseq):
    header = struct.pack("<3I", fseq.features.shape[0], FEATURE_WIDTH, fseq.label)
    write_container(path, _FTR_MAGIC, header, [fseq.features])


def load_feature_file(path):
    (frames, label), payload = read_container(path, _FTR_MAGIC, 12, _feature_header)
    return FrameFeatureSequence(payload.reshape(frames, FEATURE_WIDTH), label)
