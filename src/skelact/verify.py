"""Finite-difference gradient suites: every primitive, every module, the whole model.

Each suite maps a seed to a list of (component name, max relative error)
pairs; `skelact gradcheck --scope {op,module,model}` prints them and fails
any at or above `THRESHOLD`. The tests build their checks from the same
two helpers, `probed` and `check_named`.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import autodiff as ad
from .attention import init_attention_params, multi_head_self_attention
from .data import COORDS
from .model import ModelDims, build_variant, forward, variant_config
from .recurrent import bilstm, init_lstm_params, lstm_forward
from .streams import (
    SEU_KERNELS,
    TEU_KERNELS,
    StreamConfig,
    init_conv_stack,
    init_stream_params,
    named_conv_stack,
    seu_encode,
    stream_forward,
    teu_encode,
)
from .training import cross_entropy

THRESHOLD = 1e-4
# smooth activations: finite differences are invalid at relu kinks
SMOOTH_STREAM = StreamConfig(
    seu_filters=(2, 2, 2), teu_filters=(2, 2, 2), post_filters=(3, 3, 4),
    activations=("tanh", "tanh", "linear"),
)
# ops also checked on a leading batch axis, each mapping every [4, 5] slice of a [2, 4, 5] input
BATCHED = (
    "conv1d_same", "conv1d_k1", "conv1d_even_same_k2", "conv1d_even_same_k4",
    "layer_norm", "softmax", "transpose", "transpose_heads", "global_avg_pool", "dense_no_bias",
)
# the operands the op cases read, drawn from the seed in this order
OPERANDS = {"other": (4, 5), "mat": (5, 3), "bias": (3,), "gain": (5,), "shift": (5,), "kbias": (2,),
            "k1": (1, 5, 2), "k2": (2, 5, 2), "k3": (3, 5, 2), "k4": (4, 5, 2)}
# each op case maps its input t and the operands o to the output it checks;
# K=1 conv is a plain GEMM and even K shifts asymmetrically: distinct code paths
OPS = {
    "add": lambda t, o: ad.add(t, o["other"]),
    "mul": lambda t, o: ad.mul(t, o["other"]),
    "relu": lambda t, o: ad.relu(t),
    "tanh": lambda t, o: ad.tanh(t),
    "scale": lambda t, o: ad.scale(t, -1.7),
    "reshape": lambda t, o: ad.reshape(t, (5, 4)),
    "transpose": lambda t, o: ad.transpose(t),
    "concat": lambda t, o: ad.concat([t, o["other"]], axis=0),
    "sum_all": lambda t, o: ad.sum_all(t),
    "global_avg_pool": lambda t, o: ad.global_avg_pool(t),
    "matmul": lambda t, o: ad.matmul(t, o["mat"]),
    "dense": lambda t, o: ad.dense(t, o["mat"], o["bias"]),
    "dense_no_bias": lambda t, o: ad.dense(t, o["mat"]),
    "softmax": lambda t, o: ad.softmax(t),
    "layer_norm": lambda t, o: ad.layer_norm(t, o["gain"], o["shift"]),
    "conv1d_same": lambda t, o: ad.conv1d(t, o["k3"], o["kbias"]),
    "conv1d_k1": lambda t, o: ad.conv1d(t, o["k1"], o["kbias"]),
    "conv1d_even_same_k2": lambda t, o: ad.conv1d(t, o["k2"], o["kbias"]),
    "conv1d_even_same_k4": lambda t, o: ad.conv1d(t, o["k4"], o["kbias"]),
    # swaps axes -3 and -2, so it runs only on the batch
    "transpose_heads": lambda t, o: ad.transpose(t, -3, -2),
}
# each differentiable operand an op case reads besides its input, checked with the input held
# fixed; "dense.mat" is op case dense against operand mat; bound here, so dropping an OPS case keeps them
OPERAND_CASES = {case: (OPS[case.split(".")[0]], case.split(".")[1]) for case in (
    "add.other mul.other concat.other matmul.mat dense.mat dense.bias layer_norm.gain layer_norm.shift "
    "conv1d_same.k3 conv1d_same.kbias conv1d_k1.k1 conv1d_k1.kbias conv1d_even_same_k2.k2 "
    "conv1d_even_same_k2.kbias conv1d_even_same_k4.k4 conv1d_even_same_k4.kbias"
).split()}


def _away_from_kinks(rng, shape):
    signs = rng.choice([-1.0, 1.0], size=shape)
    return rng.uniform(0.2, 1.5, size=shape) * signs


def probed(rng, f, x):
    """`t -> sum(f(t) * probe)` with one fixed normal probe shaped like `f(x)`.

    A non-uniform cotangent keeps structural mistakes from cancelling out.
    """
    with ad.no_grad():
        shape = f(x).data.shape
    probe = ad.Tensor(rng.normal(size=shape))
    return lambda t: ad.sum_all(ad.mul(f(t), probe))


def check_named(prefix, loss_fn, named):
    """Gradient-check `loss_fn` against each (name, tensor) leaf, as `prefix + name`."""
    return [(prefix + name, ad.gradient_check(loss_fn, tensor)) for name, tensor in named]


def op_suite(seed):
    rng = np.random.default_rng(seed)
    operands = {name: ad.Tensor(rng.normal(size=shape)) for name, shape in OPERANDS.items()}
    x = ad.Tensor(_away_from_kinks(rng, (4, 5)))
    batch = ad.Tensor(_away_from_kinks(rng, (2, 4, 5)))
    cases = [(name, op, None, x) for name, op in OPS.items() if name != "transpose_heads"]
    cases += [(f"batched.{name}", OPS[name], None, batch) for name in BATCHED]
    cases += [(name, op, key, operands[key]) for name, (op, key) in OPERAND_CASES.items()]
    results = []
    for name, op, key, t in cases:
        # each case's probe has a stream of its own, so dropping a case moves no other result
        probe_rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        f = (lambda u: op(u, operands)) if key is None else (lambda u: op(x, {**operands, key: u}))
        results.append((name, ad.gradient_check(probed(probe_rng, f, t), t)))
    return results


def module_suite(seed):
    rng = np.random.default_rng(seed)

    attn = init_attention_params(np.random.default_rng([seed, 101]), 6, heads=2)
    x = ad.Tensor(rng.normal(size=(5, 6)))
    attn_loss = probed(rng, lambda t: multi_head_self_attention(t, attn), x)
    results = [("attention.input", ad.gradient_check(attn_loss, x))]
    results += check_named("attention.", lambda _: attn_loss(x), attn.named())

    fwd = init_lstm_params(np.random.default_rng([seed, 102]), 3, 2)
    bwd = init_lstm_params(np.random.default_rng([seed, 103]), 3, 2)
    seq = ad.Tensor(rng.normal(size=(6, 3)))
    lstm_loss = probed(rng, lambda t: lstm_forward(t, fwd), seq)
    bilstm_loss = probed(rng, lambda t: bilstm(t, fwd, bwd), seq)
    results.append(("lstm.input", ad.gradient_check(lstm_loss, seq)))
    results += check_named("lstm.", lambda _: lstm_loss(seq), fwd.named())
    results += check_named("bilstm.fwd.", lambda _: bilstm_loss(seq), fwd.named())
    results += check_named("bilstm.bwd.", lambda _: bilstm_loss(seq), bwd.named())

    cfg = SMOOTH_STREAM
    pose = ad.Tensor(rng.normal(size=(4, 3, 2)))
    enc = init_conv_stack(np.random.default_rng([seed, 104]), 2, cfg.seu_filters, SEU_KERNELS)
    stream = init_stream_params(np.random.default_rng([seed, 105]), 3 * 2, cfg)
    acts = cfg.activations
    seu_loss = probed(rng, lambda t: stream_forward(seu_encode(t, enc, acts), stream, acts), pose)
    seu_named = [*named_conv_stack("enc", enc), *stream.named()]
    results += check_named("streams.", lambda _: seu_loss(pose), seu_named)

    tenc = init_conv_stack(np.random.default_rng([seed, 106]), 4, cfg.teu_filters, TEU_KERNELS)
    teu_loss = probed(rng, lambda t: teu_encode(t, tenc, acts), pose)
    results += check_named("streams.", lambda _: teu_loss(pose), named_conv_stack("tenc", tenc))

    logits = ad.Tensor(rng.normal(size=(3, 5)))
    results.append(("loss.softmax_cross_entropy", ad.gradient_check(
        lambda t: cross_entropy(t, [2, 0, 4]), logits)))
    return results


def model_dims():
    """Tiny smooth dims for the model suite: every parameter group in seconds."""
    return ModelDims(frames=4, joints=3, rgb_width=8, hidden=4, num_classes=4, stream=SMOOTH_STREAM)


def model_suite(seed):
    dims = model_dims()
    params = build_variant(variant_config("full", branch="both"), dims, seed=seed)
    rng = np.random.default_rng(seed)
    # a batch of two clips with different labels, so the check covers the batch axis
    pose = ad.Tensor(rng.normal(size=(2, dims.frames, dims.joints, COORDS)))
    features = ad.Tensor(rng.normal(size=(2, dims.frames, dims.rgb_width)))
    labels = np.array([1, 2])

    def loss_fn(_):
        return cross_entropy(forward(params, pose=pose, features=features, logits=True), labels)

    return check_named("", loss_fn, params.named_parameters())


SUITES = {"op": op_suite, "module": module_suite, "model": model_suite}
