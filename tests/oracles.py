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
