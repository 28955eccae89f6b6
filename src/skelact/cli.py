"""Command-line interface: dataset generation, training, evaluation, ablation,
gradient verification, and checkpoint inspection.

All informational output goes to stdout; diagnostics go to stderr. Exit codes:
0 success, 1 runtime failure, 2 usage error (argparse). Every random choice
derives from an explicit seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .attention import init_attention_params, multi_head_self_attention
from .data import (
    Sample,
    SyntheticSpec,
    generate_raw,
    load_feature_file,
    load_skeleton_file,
    preprocess_features,
    preprocess_skeleton,
    write_feature_file,
    write_skeleton_file,
)
from .errors import ContractError
from .model import (
    ModelDims,
    build_variant,
    forward,
    load_checkpoint,
    variant_config,
)
from .recurrent import bilstm, init_lstm_params, lstm_forward
from .streams import (
    StreamConfig,
    init_conv_stack,
    init_stream_params,
    seu_encode,
    stream_forward,
    teu_encode,
)
from .training import TrainConfig, cross_entropy, evaluate, train

GRADCHECK_THRESHOLD = 1e-4
# smooth activations: finite differences are invalid at relu kinks
GRADCHECK_STREAM = StreamConfig(
    seu_filters=(2, 2, 2), teu_filters=(2, 2, 2), post_filters=(3, 3, 4),
    seu_kernels=(1, 1, 1), teu_kernels=(3, 3, 3), post_kernels=(3, 3, 3),
    channel_dim=4, activations=("tanh", "sigmoid", "linear"),
)
ABLATION_ROWS = [
    ("Baseline", "baseline"),
    ("+ SEU", "seu"),
    ("+ TEU", "seu+teu"),
    ("+ Multi-Head Self Attention", "full"),
]

TRAIN_KEYS = {f.name for f in dataclasses.fields(TrainConfig)}
SPEC_KEYS = {f.name for f in dataclasses.fields(SyntheticSpec)}


# ---------------------------------------------------------------------------
# config files


def _coerce(value):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            pass
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    return value


def parse_kv_file(path):
    """Flat key=value text; '#' starts a comment, blank lines are skipped."""
    pairs = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ContractError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            pairs[key.strip()] = _coerce(value.strip())
    return pairs


def _filtered(pairs, allowed, path, what):
    unknown = sorted(set(pairs) - allowed)
    if unknown:
        raise ContractError(f"{path}: unknown {what} keys {unknown}; allowed: {sorted(allowed)}")
    return pairs


# ---------------------------------------------------------------------------
# dataset directories


def _dataset_paths(data_dir, suffix):
    return sorted(Path(data_dir).glob(f"*{suffix}"))


def load_dataset_dir(data_dir, need_pose, need_rgb):
    """Preprocessed samples plus the dims implied by the files on disk."""
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise ContractError(f"{data_dir} is not a directory")
    samples = []
    joints_eff = None
    if need_pose:
        skl_paths = _dataset_paths(data_dir, ".skl")
        if not skl_paths:
            raise ContractError(f"no skeleton (.skl) files in {data_dir}; the pose branch requires them")
        for path in skl_paths:
            raw = load_skeleton_file(path)
            pose = preprocess_skeleton(raw)
            if joints_eff is None:
                joints_eff = pose.shape[1]
            elif pose.shape[1] != joints_eff:
                raise ContractError(
                    f"{path}: {pose.shape[1]} effective joints, other files have {joints_eff}"
                )
            features = None
            if need_rgb:
                ftr_path = path.with_suffix(".ftr")
                if not ftr_path.exists():
                    raise ContractError(
                        f"missing RGB feature file {ftr_path}; this run requires both modalities"
                    )
                features = preprocess_features(load_feature_file(ftr_path))
            samples.append(Sample(pose, features, raw.label))
    else:
        ftr_paths = _dataset_paths(data_dir, ".ftr")
        if not ftr_paths:
            raise ContractError(f"no RGB feature (.ftr) files in {data_dir}; the RGB branch requires them")
        for path in ftr_paths:
            fseq = load_feature_file(path)
            samples.append(Sample(None, preprocess_features(fseq), fseq.label))
    num_classes = max(s.label for s in samples) + 1
    return samples, joints_eff, num_classes


def _dims_for_dataset(samples, joints_eff, num_classes):
    kwargs = dict(num_classes=num_classes)
    if joints_eff is not None:
        kwargs["joints"] = joints_eff
    return ModelDims(**kwargs)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args):
    pairs = {}
    if args.spec:
        pairs = _filtered(parse_kv_file(args.spec), SPEC_KEYS, args.spec, "generator")
    if args.seed is not None:
        pairs["seed"] = args.seed
    spec = SyntheticSpec(**pairs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    counts = {}
    files = []
    for index, (skeleton, features) in enumerate(generate_raw(spec)):
        stem = f"sample_{index:05d}_c{skeleton.label}"
        write_skeleton_file(out / f"{stem}.skl", skeleton)
        write_feature_file(out / f"{stem}.ftr", features)
        counts[str(skeleton.label)] = counts.get(str(skeleton.label), 0) + 1
        files.append(stem)
    manifest = {
        "total": len(files),
        "num_classes": spec.num_classes,
        "samples_per_class": spec.samples_per_class,
        "counts": counts,
        "joints": spec.joints,
        "raw_frames": spec.frames,
        "spine_index": spec.spine_index,
        "seed": spec.seed,
        "files": files,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(files)} samples ({spec.num_classes} classes) to {out}")
    return 0


def _resolve_train_config(args):
    pairs = {}
    if args.config:
        pairs = _filtered(parse_kv_file(args.config), TRAIN_KEYS, args.config, "training")
    if args.seed is not None:
        pairs["seed"] = args.seed
    return TrainConfig(**pairs)


def cmd_train(args):
    config = _resolve_train_config(args)
    ablation = variant_config(args.variant, branch=args.branch)
    need_pose = args.branch in ("pose", "both")
    need_rgb = args.branch in ("rgb", "both")
    samples, joints_eff, num_classes = load_dataset_dir(args.data, need_pose, need_rgb)
    dims = _dims_for_dataset(samples, joints_eff, num_classes)
    params = build_variant(ablation, dims, seed=config.seed)
    log_path = Path(str(args.out) + ".log")
    with open(log_path, "w") as log_file:

        def log_fn(line):
            print(line)
            log_file.write(line + "\n")

        train(samples, params, config, ckpt_path=args.out, log_fn=log_fn)
    print(f"checkpoint written to {args.out}")
    return 0


def cmd_eval(args):
    params = load_checkpoint(args.checkpoint)
    need_pose = params.pose is not None
    need_rgb = params.rgb is not None
    samples, _, _ = load_dataset_dir(args.data, need_pose, need_rgb)
    accuracy, confusion = evaluate(samples, params)
    print(f"accuracy={accuracy:.2f}")
    print("confusion:")
    for row in confusion:
        print(" ".join(str(int(v)) for v in row))
    return 0


def cmd_ablate(args):
    config = _resolve_train_config(args)
    need_pose = args.branch in ("pose", "both")
    need_rgb = args.branch in ("rgb", "both")
    samples, joints_eff, num_classes = load_dataset_dir(args.data, need_pose, need_rgb)
    dims = _dims_for_dataset(samples, joints_eff, num_classes)
    rows = []
    for label, variant in ABLATION_ROWS:
        params = build_variant(variant_config(variant, branch=args.branch), dims, seed=config.seed)
        records = train(samples, params, config)
        val_accuracies = [r["accuracy"] for r in records if r["split"] == "val"]
        if val_accuracies:
            accuracy = max(val_accuracies)
        else:
            accuracy = records[-1]["accuracy"]
        rows.append((label, accuracy))
    print("| Variant | Accuracy (%) |")
    print("|---|---|")
    for label, accuracy in rows:
        print(f"| {label} | {accuracy:.2f} |")
    return 0


def cmd_inspect(args):
    params = load_checkpoint(args.checkpoint)
    ablation = params.ablation
    flags = f"seu={ablation.use_seu} teu={ablation.use_teu} attention={ablation.use_attention}"
    print(f"branch={ablation.branch} {flags} seed={params.seed}")
    d = params.dims
    print(
        f"dims: frames={d.frames} joints={d.joints} coords={d.coords} "
        f"channel_dim={d.stream.channel_dim} hidden={d.hidden} heads={d.heads} "
        f"classes={d.num_classes} rgb_width={d.rgb_width}"
    )
    groups = {}
    for name, tensor in params.named_parameters():
        parts = name.split(".")
        group = parts[0] if len(parts) < 3 else ".".join(parts[:2])
        groups[group] = groups.get(group, 0) + tensor.data.size
    print("parameters:")
    for group in sorted(groups):
        print(f"  {group} {groups[group]}")
    print(f"  total {params.parameter_count()}")
    return 0


# ---------------------------------------------------------------------------
# gradient verification


def _away_from_kinks(rng, shape, low=0.2, high=1.5):
    signs = rng.choice([-1.0, 1.0], size=shape)
    return rng.uniform(low, high, size=shape) * signs


def _scalarize(out):
    return out if out.data.size == 1 else ad.sum_all(out)


def _gradcheck_ops(seed):
    rng = np.random.default_rng(seed)
    results = []

    def check(name, f, data):
        results.append((name, ad.gradient_check(f, ad.Tensor(np.array(data, dtype=np.float64)))))

    def probe(*shape):
        # non-uniform cotangent so structural mistakes cannot cancel out
        return ad.Tensor(rng.normal(size=shape))

    x45 = rng.normal(size=(4, 5))
    other = probe(4, 5)
    check("add", lambda t: _scalarize(ad.mul(ad.add(t, other), other)), x45)
    check("mul", lambda t: _scalarize(ad.mul(t, other)), x45)
    check("relu", lambda t: _scalarize(ad.mul(ad.relu(t), other)), _away_from_kinks(rng, (4, 5)))
    check("sigmoid", lambda t: _scalarize(ad.mul(ad.sigmoid(t), other)), x45)
    check("tanh", lambda t: _scalarize(ad.mul(ad.tanh(t), other)), x45)
    check("scale", lambda t: _scalarize(ad.mul(ad.scale(t, -1.7), other)), x45)
    c54 = probe(5, 4)
    check("reshape", lambda t: _scalarize(ad.mul(ad.reshape(t, (5, 4)), c54)), x45)
    check("transpose", lambda t: _scalarize(ad.mul(ad.transpose(t), c54)), x45)
    check("reverse_rows", lambda t: _scalarize(ad.mul(ad.reverse_rows(t), other)), x45)
    c85 = probe(8, 5)
    check("concat", lambda t: _scalarize(ad.mul(ad.concat([t, other], axis=0), c85)), x45)
    check("sum_all", lambda t: ad.sum_all(ad.mul(t, other)), x45)
    check("pick", lambda t: ad.pick(t, 2), rng.normal(size=6))
    c5 = probe(5)
    check("global_avg_pool", lambda t: _scalarize(ad.mul(ad.global_avg_pool(t), c5)), x45)
    mat = probe(5, 3)
    c43 = probe(4, 3)
    check("matmul", lambda t: _scalarize(ad.mul(ad.matmul(t, mat), c43)), x45)
    bias = probe(3)
    check("dense", lambda t: _scalarize(ad.mul(ad.dense(t, mat, bias), c43)), x45)
    check("softmax", lambda t: ad.pick(ad.reshape(ad.softmax(t), (20,)), 7), x45)
    gain = probe(5)
    shift = probe(5)
    check("layer_norm", lambda t: _scalarize(ad.mul(ad.layer_norm(t, gain, shift), other)), x45)
    kernel = probe(3, 5, 2)
    kbias = probe(2)
    c42 = probe(4, 2)
    c22 = probe(2, 2)
    check("conv1d_same", lambda t: _scalarize(ad.mul(ad.conv1d(t, kernel, kbias, padding="same"), c42)), x45)
    check("conv1d_valid", lambda t: _scalarize(ad.mul(ad.conv1d(t, kernel, kbias, padding="valid"), c22)), x45)
    # K=1 is a plain GEMM and even K shifts asymmetrically: distinct code paths
    kernels = {width: probe(width, 5, 2) for width in (1, 2, 4)}
    check("conv1d_k1", lambda t: _scalarize(ad.mul(ad.conv1d(t, kernels[1], kbias), c42)), x45)
    for width in (2, 4):
        check(f"conv1d_even_same_k{width}",
              lambda t, w=kernels[width]: _scalarize(ad.mul(ad.conv1d(t, w, kbias, padding="same"), c42)), x45)

    # leading batch axes: each op maps every [4, 5] slice of a [2, 4, 5] batch
    x245 = rng.normal(size=(2, 4, 5))
    b245 = probe(2, 4, 5)
    b242 = probe(2, 4, 2)
    b222 = probe(2, 2, 2)
    check("batched.conv1d_same",
          lambda t: _scalarize(ad.mul(ad.conv1d(t, kernel, kbias, padding="same"), b242)), x245)
    check("batched.conv1d_valid",
          lambda t: _scalarize(ad.mul(ad.conv1d(t, kernel, kbias, padding="valid"), b222)), x245)
    check("batched.conv1d_k1", lambda t: _scalarize(ad.mul(ad.conv1d(t, kernels[1], kbias), b242)), x245)
    for width in (2, 4):
        check(f"batched.conv1d_even_same_k{width}",
              lambda t, w=kernels[width]: _scalarize(ad.mul(ad.conv1d(t, w, kbias, padding="same"), b242)),
              x245)
    check("batched.layer_norm", lambda t: _scalarize(ad.mul(ad.layer_norm(t, gain, shift), b245)), x245)
    check("batched.softmax", lambda t: _scalarize(ad.mul(ad.softmax(t), b245)), x245)
    b254 = probe(2, 5, 4)
    check("batched.transpose", lambda t: _scalarize(ad.mul(ad.transpose(t), b254)), x245)
    b425 = probe(4, 2, 5)
    check("batched.transpose_heads",
          lambda t: _scalarize(ad.mul(ad.transpose(t, -3, -2), b425)), x245)
    b25 = probe(2, 5)
    check("batched.global_avg_pool", lambda t: _scalarize(ad.mul(ad.global_avg_pool(t), b25)), x245)
    return results


def _gradcheck_modules(seed):
    rng = np.random.default_rng(seed)
    results = []

    attn = init_attention_params(np.random.default_rng([seed, 101]), 6, heads=2)
    x = ad.Tensor(rng.normal(size=(5, 6)))
    attn_probe = ad.Tensor(rng.normal(size=(5, 6)))

    def attn_loss(_):
        return ad.sum_all(ad.mul(multi_head_self_attention(x, attn), attn_probe))

    results.append(("attention.input", ad.gradient_check(lambda t: ad.sum_all(
        ad.mul(multi_head_self_attention(t, attn), attn_probe)), x)))
    for name, tensor in attn.named():
        results.append((f"attention.{name}", ad.gradient_check(attn_loss, tensor)))

    fwd = init_lstm_params(np.random.default_rng([seed, 102]), 3, 2)
    bwd = init_lstm_params(np.random.default_rng([seed, 103]), 3, 2)
    seq = ad.Tensor(rng.normal(size=(6, 3)))
    lstm_probe = ad.Tensor(rng.normal(size=(6, 2)))
    bilstm_probe = ad.Tensor(rng.normal(size=(6, 4)))

    def lstm_loss(_):
        return ad.sum_all(ad.mul(lstm_forward(seq, fwd), lstm_probe))

    def bilstm_loss(_):
        return ad.sum_all(ad.mul(bilstm(seq, fwd, bwd), bilstm_probe))

    results.append(("lstm.input", ad.gradient_check(lambda t: ad.sum_all(
        ad.mul(lstm_forward(t, fwd), lstm_probe)), seq)))
    for name, tensor in fwd.named():
        results.append((f"lstm.{name}", ad.gradient_check(lstm_loss, tensor)))
    for direction, p in (("fwd", fwd), ("bwd", bwd)):
        for name, tensor in p.named():
            results.append((f"bilstm.{direction}.{name}", ad.gradient_check(bilstm_loss, tensor)))

    cfg = GRADCHECK_STREAM
    pose = ad.Tensor(rng.normal(size=(4, 3, 2)))
    enc = init_conv_stack(np.random.default_rng([seed, 104]), 2, cfg.seu_filters, cfg.seu_kernels)
    stream = init_stream_params(np.random.default_rng([seed, 105]), 3 * 2, cfg)
    stream_probe = ad.Tensor(rng.normal(size=(4, 4)))

    def seu_loss(_):
        encoded = seu_encode(pose, enc, cfg.activations)
        return ad.sum_all(ad.mul(stream_forward(encoded, stream), stream_probe))

    for idx, conv in enumerate(enc, start=1):
        for leaf, tensor in conv.named():
            results.append((f"streams.enc{idx}.{leaf}", ad.gradient_check(seu_loss, tensor)))
    for name, tensor in stream.named():
        results.append((f"streams.{name}", ad.gradient_check(seu_loss, tensor)))

    tenc = init_conv_stack(np.random.default_rng([seed, 106]), 4, cfg.teu_filters, cfg.teu_kernels)
    teu_probe = ad.Tensor(rng.normal(size=(2, 6)))

    def teu_loss(_):
        encoded = teu_encode(pose, tenc, cfg.activations)
        return ad.sum_all(ad.mul(encoded, teu_probe))

    for idx, conv in enumerate(tenc, start=1):
        for leaf, tensor in conv.named():
            results.append((f"streams.tenc{idx}.{leaf}", ad.gradient_check(teu_loss, tensor)))

    logits = ad.Tensor(rng.normal(size=(3, 5)))
    results.append(("loss.softmax_cross_entropy", ad.gradient_check(
        lambda t: cross_entropy(t, [2, 0, 4]), logits)))
    return results


def _model_gradcheck_dims():
    return ModelDims(
        frames=4, joints=3, coords=3, rgb_width=8, hidden=4, num_classes=4,
        heads=4, stream=GRADCHECK_STREAM,
    )


def _gradcheck_model(seed):
    dims = _model_gradcheck_dims()
    params = build_variant(variant_config("full", branch="both"), dims, seed=seed)
    rng = np.random.default_rng(seed)
    # a batch of two clips with different labels, so the check covers the batch axis
    pose = ad.Tensor(rng.normal(size=(2, dims.frames, dims.joints, dims.coords)))
    features = ad.Tensor(rng.normal(size=(2, dims.frames, dims.rgb_width)))
    labels = np.array([1, 2])

    def loss_fn(_):
        return cross_entropy(forward(params, pose=pose, features=features, logits=True), labels)

    return [(name, ad.gradient_check(loss_fn, tensor)) for name, tensor in params.named_parameters()]


def cmd_gradcheck(args):
    suites = {"op": _gradcheck_ops, "module": _gradcheck_modules, "model": _gradcheck_model}
    results = suites[args.scope](args.seed)
    failures = [(name, err) for name, err in results if not err < GRADCHECK_THRESHOLD]
    for name, err in results:
        print(f"component={name} max_rel_err={err:.3e}")
    worst_name, worst = max(results, key=lambda item: item[1])
    status = "FAIL" if failures else "PASS"
    print(f"scope={args.scope} components={len(results)} worst={worst_name} "
          f"max_rel_err={worst:.3e} => {status}")
    if failures:
        for name, err in failures:
            print(f"gradcheck failure: {name} max_rel_err={err:.3e} >= {GRADCHECK_THRESHOLD}",
                  file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = argparse.ArgumentParser(prog="skelact", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset directory")
    p.add_argument("--spec", help="key=value generator settings file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train one variant")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--variant", required=True, choices=["baseline", "seu", "seu+teu", "full"])
    p.add_argument("--branch", default="pose", choices=["pose", "rgb", "both"])
    p.add_argument("--config", help="key=value training settings file")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="train the four ablation variants, print a table")
    p.add_argument("--data", required=True)
    p.add_argument("--branch", default="pose", choices=["pose", "rgb", "both"])
    p.add_argument("--config", help="key=value training settings file")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference verification suites")
    p.add_argument("--scope", required=True, choices=["op", "module", "model"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("inspect", help="print checkpoint manifest and parameter counts")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=cmd_inspect)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # diagnostics belong on stderr, exit nonzero
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
