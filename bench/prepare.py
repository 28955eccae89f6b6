"""Write a workload's inputs: the default synthetic dataset and, with
--checkpoint, a CKP1 checkpoint of the full two-branch variant.

    python3 bench/prepare.py --out DIR --seed N [--checkpoint PATH]

run.py starts this in a child process, so that generating inputs does not
count in the measured process's peak RSS, the way a user runs
`skelact gen-data` before `skelact eval`. The last stdout line is JSON with
digests of what was written.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from skelact import cli, model  # noqa: E402

from measure import files_digest, manifest_digest, params_digest  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--checkpoint")
    args = parser.parse_args(argv)

    if cli.main(["gen-data", "--out", args.out, "--seed", str(args.seed)]) != 0:
        return 1
    result = {"dataset_sha256": files_digest(args.out)}
    if args.checkpoint:
        _, joints, classes = cli.load_dataset_dir(args.out, True, False)
        dims = model.ModelDims(joints=joints, num_classes=classes)
        params = model.build_variant(model.variant_config("full", branch="both"), dims, seed=args.seed)
        model.save_checkpoint(args.checkpoint, params)
        result["written_params_sha256"] = params_digest(params)
        result["checkpoint_manifest_sha256"] = manifest_digest(args.checkpoint)
        result["params"] = params.parameter_count()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
