"""Loop-level numpy oracles shared by more than one test module."""

import numpy as np


def conv1d_oracle(x, kern, bias):
    """Direct sliding-window sum, quadruple loop, explicit 'same' zero padding."""
    k, c_in, c_out = kern.shape
    pl, pr = k // 2, (k - 1) // 2
    padded = np.zeros((x.shape[0] + pl + pr, c_in))
    padded[pl:pl + x.shape[0]] = x
    out_len = padded.shape[0] - k + 1
    out = np.zeros((out_len, c_out))
    for t in range(out_len):
        for f in range(c_out):
            acc = bias[f]
            for kk in range(k):
                for c in range(c_in):
                    acc += padded[t + kk, c] * kern[kk, c, f]
            out[t, f] = acc
    return out


def preprocess_skeleton_oracle(positions, spine_index, target=20):
    """One clip [T_raw, subjects, J, 3] to its [target, subjects*J, 3] pose, the recipe spelled out:
    nearest equally spaced frames, then per subject spine-centered and divided by the mean
    joint-to-spine distance."""
    step = (positions.shape[0] - 1) / (target - 1)
    frames = positions[[int(np.floor(i * step + 0.5)) for i in range(target)]]
    parts = []
    for s in range(frames.shape[1]):
        centered = frames[:, s] - frames[:, s, spine_index:spine_index + 1]
        scale = np.sqrt((centered ** 2).sum(axis=2)).mean()
        parts.append(centered / scale)
    return np.concatenate(parts, axis=1)
