"""Counting checks, percentiles with a sample-count rule, and input digests."""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

PROB_TOLERANCE = 1e-12  # the acceptance bound on probability normalization
MIN_BEYOND = 10         # samples a reported percentile must have above it
FAILURES_KEPT = 20


class Checks:
    """Operations attempted and failed; error_rate = failed / attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, ok, what, count=1):
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.failures) < FAILURES_KEPT:
                self.failures.append(what)

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0


def check_probabilities(checks, probs):
    """One forward: probabilities finite and summing to 1 within PROB_TOLERANCE."""
    probs = np.asarray(probs)
    total = float(probs.sum())
    ok = bool(np.isfinite(probs).all()) and abs(total - 1.0) <= PROB_TOLERANCE
    checks.record(ok, "" if ok else f"probabilities sum to {total!r}: {probs.tolist()}")


def percentile(values, q):
    """Nearest-rank q-th percentile, refused with fewer than MIN_BEYOND samples above it."""
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; at least {MIN_BEYOND} are required"
        )
    return sorted(values)[rank - 1]


def files_digest(directory):
    """sha256 over the names and bytes of every file in `directory`, in name order."""
    digest = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        if path.is_file():
            digest.update(path.name.encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def params_digest(params):
    """sha256 over every named parameter's name, shape and float64 bytes."""
    digest = hashlib.sha256()
    for name, tensor in params.named_parameters():
        digest.update(f"{name}{list(tensor.data.shape)}".encode())
        digest.update(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())
    return digest.hexdigest()


# CKP1 layout: magic "CKP1", u32 manifest length, JSON manifest, float64 payload


def manifest_digest(ckpt_path):
    """sha256 of a CKP1 checkpoint's JSON manifest."""
    with open(ckpt_path, "rb") as fh:
        length = int.from_bytes(fh.read(8)[4:8], "little")
        return hashlib.sha256(fh.read(length)).hexdigest()


def checkpoint_holds(ckpt_path, params):
    """Whether a CKP1 payload is exactly the parameters' float64 bytes, in order."""
    blob = Path(ckpt_path).read_bytes()
    payload = blob[8 + int.from_bytes(blob[4:8], "little"):]
    expected = b"".join(np.ascontiguousarray(t.data, dtype="<f8").tobytes() for t in params.tensors())
    return payload == expected
