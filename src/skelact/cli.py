"""Command-line interface: dataset generation, training, evaluation, ablation,
gradient verification, and checkpoint inspection.

All informational output goes to stdout; diagnostics go to stderr. Exit codes:
0 success, 1 runtime failure, 2 usage error (argparse). Every random choice
derives from an explicit seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import verify
from .attention import HEADS
from .autodiff import aligned_empty
from .data import (
    COORDS,
    FEATURE_WIDTH,
    TARGET_FRAMES,
    DegenerateSkeleton,
    Sample,
    SyntheticSpec,
    generate_raw,
    load_feature_file,
    load_skeleton_file,
    preprocess_features,
    preprocess_skeleton,
    sample_frames,
    write_feature_file,
    write_skeleton_file,
)
from .errors import ContractError
from .model import BRANCH_VARIANTS, BRANCHES, VARIANT_ROWS, ModelDims, build_variant, load_checkpoint, variant_config
from .training import TrainConfig, evaluate, train


# ---------------------------------------------------------------------------
# config files


def _coerce(value, where):
    """A number, or else the string itself (`true` and `false` too). int() and float()
    accept '_' digit separators and the digits of every script, so epochs=1_0 and
    epochs=١٠ would read as 10: such a value is refused, with `where` naming the
    file, line and key."""
    for cast in (int, float):
        try:
            number = cast(value)
        except ValueError:
            continue
        if "_" in value or not value.isascii():
            raise ContractError(f"{where}: {value!r} is not a plain number "
                                "(only ASCII digits, with no '_' separators, are accepted)")
        return number
    return value


def parse_kv_file(path, first_line=None):
    """Flat UTF-8 key=value text, BOM skipped; '#' starts a comment, blank lines are skipped, a key may appear once.
    The file is decoded whole, so a non-UTF-8 byte is named by its offset in the file;
    lines end at \n, \r\n or \r, as in a text-mode read. A dict `first_line` receives each key's line number."""
    pairs = {}
    first_line = {} if first_line is None else first_line
    try:
        text = Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as err:
        raise ContractError(f"{path}: not UTF-8 text (byte {err.start}: {err.reason})") from None
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContractError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in first_line:
            raise ContractError(
                f"{path}:{lineno}: key {key!r} repeats the one on line {first_line[key]}"
            )
        first_line[key] = lineno
        pairs[key] = _coerce(value.strip(), f"{path}:{lineno}: key {key!r}")
    return pairs


def _settings(cls, path, seed, what):
    """`cls` built from the key=value file at `path`, if given, whose keys must be fields of
    `cls`; a `seed` that is not None overrides the file's. A value that `cls` refuses is
    reported with `path` and the line of the key its message starts with (`cls.key`)."""
    lines = {}
    pairs = parse_kv_file(path, lines) if path else {}
    allowed = sorted(field.name for field in dataclasses.fields(cls))
    unknown = sorted(set(pairs) - set(allowed))
    if unknown:
        raise ContractError(f"{path}: unknown {what} keys {unknown}; allowed: {allowed}")
    if seed is not None:
        pairs["seed"] = seed
        lines.pop("seed", None)
    try:
        return cls(**pairs)
    except ContractError as exc:
        if not path:
            raise
        key = str(exc).partition(" ")[0].removeprefix(f"{cls.__name__}.")
        where = f"{path}:{lines[key]}" if key in lines else path
        raise ContractError(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# dataset directories


def load_dataset_dir(data_dir, need_pose, need_rgb):
    """Preprocessed samples plus the dims implied by the files on disk.

    A clip is a stem listed with any suffix the run reads (`.skl` for pose, `.ftr`
    for RGB) and must be listed with each, in the order of its first suffix's file
    names. When both are read, a clip must carry one label in both. Each
    modality is gathered into one block: a clip's sampled frames go into its
    row as its file is read, and each pose and feature array is a view of its
    block. The pose block is normalized in one pass after the last file, so a
    degenerate skeleton is reported once every file has been read.
    """
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise ContractError(f"{data_dir} is not a directory")
    modality = {".skl": "skeleton", ".ftr": "RGB feature"}
    suffixes = [suffix for suffix, need in zip(modality, (need_pose, need_rgb)) if need]
    listed = [{path.stem: path for path in data_dir.glob(f"*{suffix}")} for suffix in suffixes]
    stems = sorted(set().union(*listed), key=lambda stem: stem + suffixes[0])
    if not stems:
        raise ContractError(f"no {' or '.join(suffixes)} files in {data_dir}; this run requires them")
    poses = None  # [clips, TARGET_FRAMES, J_eff, COORDS]: each skeleton's sampled frames, as it is read
    layouts = []  # (subjects, spine index) of each clip, for the one normalizing pass
    frame_indices = {}  # raw frame count -> the indices of its sampled frames
    features = aligned_empty((len(stems), TARGET_FRAMES, FEATURE_WIDTH)) if need_rgb else None
    labels = []
    for index, stem in enumerate(stems):
        paths = [files.get(stem) for files in listed]
        if None in paths:
            suffix = suffixes[paths.index(None)]
            there = next(path for path in paths if path is not None)
            raise ContractError(f"missing {modality[suffix]} file {data_dir / (stem + suffix)} for {there}; "
                                "this run requires both modalities")
        path = paths[0]
        label = None
        if need_pose:
            raw = load_skeleton_file(path)
            frames, subjects, joints, _ = raw.positions.shape
            if poses is None:
                poses = aligned_empty((len(stems), TARGET_FRAMES, subjects * joints, COORDS))
            elif subjects * joints != poses.shape[2]:
                raise ContractError(f"{path}: {subjects * joints} effective joints, "
                                    f"other files have {poses.shape[2]}")
            if frames not in frame_indices:
                frame_indices[frames] = np.array(sample_frames(frames))
            # mode="clip" writes straight into the block (the default buffers); every index is in range
            np.take(raw.positions.reshape(frames, subjects * joints, COORDS), frame_indices[frames],
                    axis=0, out=poses[index], mode="clip")
            layouts.append((subjects, raw.spine_index))
            label = raw.label
        if need_rgb:
            ftr_path = paths[-1]
            fseq = load_feature_file(ftr_path)
            if need_pose and fseq.label != label:
                raise ContractError(f"{path} has label {label} but {ftr_path} has label {fseq.label}")
            preprocess_features(fseq, out=features[index])
            label = fseq.label
        labels.append(label)
    if need_pose:
        try:
            preprocess_skeleton(poses, layouts)
        except DegenerateSkeleton as err:
            raise ContractError(f"{listed[0][stems[err.clip]]}: {err}") from None
    samples = [Sample(poses[i] if need_pose else None, features[i] if need_rgb else None, label)
               for i, label in enumerate(labels)]
    joints_eff = poses.shape[2] if need_pose else None
    num_classes = max(s.label for s in samples) + 1
    return samples, joints_eff, num_classes


def _branch_dataset(args):
    """The samples of `args.data` that `args.branch` reads, and the model dims they imply."""
    need_pose = args.branch in ("pose", "both")
    need_rgb = args.branch in ("rgb", "both")
    samples, joints_eff, num_classes = load_dataset_dir(args.data, need_pose, need_rgb)
    kwargs = dict(num_classes=num_classes)
    if joints_eff is not None:
        kwargs["joints"] = joints_eff
    return samples, ModelDims(**kwargs)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args):
    spec = _settings(SyntheticSpec, args.spec, args.seed, "generator")
    out = Path(args.out)
    clip = next((path for suffix in (".skl", ".ftr") for path in out.glob(f"*{suffix}")), None)
    if clip is not None:
        raise ContractError(f"{out} already holds clips ({clip}); write the dataset to a new directory")
    clips = generate_raw(spec)  # before the mkdir: a spec the generator refuses leaves no directory
    out.mkdir(parents=True, exist_ok=True)
    counts = {}
    files = []
    for index, (skeleton, features) in enumerate(clips):
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
    config = _settings(TrainConfig, args.config, args.seed, "training")
    if config.optimizer == "sgd" and config.lr * config.l2_lambda >= 1:
        print(f"warning: sgd lr*l2_lambda = {config.lr * config.l2_lambda:g} >= 1: the L2 factor "
              f"1 - lr*l2_lambda <= 0 flips or zeroes every weight each step", file=sys.stderr)
    return config


def cmd_train(args):
    config = _resolve_train_config(args)
    ablation = variant_config(args.variant, branch=args.branch)
    samples, dims = _branch_dataset(args)
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
    samples, dims = _branch_dataset(args)
    rows = []
    for variant in BRANCH_VARIANTS[args.branch]:
        params = build_variant(variant_config(variant, branch=args.branch), dims, seed=config.seed)
        records = train(samples, params, config)
        val_accuracies = [r["accuracy"] for r in records if r["split"] == "val"]
        accuracy = max(val_accuracies) if val_accuracies else records[-1]["accuracy"]
        rows.append((VARIANT_ROWS[variant], accuracy))
    print("| Variant | Accuracy (%) |")
    print("|---|---|")
    for label, accuracy in rows:
        print(f"| {label} | {accuracy:.2f} |")
    return 0


def cmd_inspect(args):
    params = load_checkpoint(args.checkpoint)
    ablation = params.ablation
    print(f"branch={ablation.branch} variant={ablation.variant} seed={params.seed}")
    d = params.dims
    print(
        f"dims: frames={d.frames} joints={d.joints} coords={COORDS} "
        f"channel_dim={d.stream.channel_dim} hidden={d.hidden} heads={HEADS} "
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


def cmd_gradcheck(args):
    results = verify.SUITES[args.scope](args.seed)
    failures = [(name, err) for name, err in results if not err < verify.THRESHOLD]
    for name, err in results:
        print(f"component={name} max_rel_err={err:.3e}")
    worst_name, worst = max(results, key=lambda item: item[1])
    status = "FAIL" if failures else "PASS"
    print(f"scope={args.scope} components={len(results)} worst={worst_name} "
          f"max_rel_err={worst:.3e} => {status}")
    if failures:
        for name, err in failures:
            print(f"gradcheck failure: {name} max_rel_err={err:.3e} >= {verify.THRESHOLD}",
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

    shared = argparse.ArgumentParser(add_help=False)  # the flags of train and ablate
    shared.add_argument("--data", required=True, help="dataset directory")
    shared.add_argument("--branch", default="pose", choices=BRANCHES)
    shared.add_argument("--config", help="key=value training settings file")
    shared.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("train", parents=[shared], help="train one variant")
    p.add_argument("--variant", required=True, choices=list(VARIANT_ROWS))
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", parents=[shared], help="train each variant of the branch, print a table")
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
