"""skelact benchmark: one workload in one process on one CPU, BLAS/OpenMP/MKL on one thread.

    python3 bench/run.py --workload {pose_train,pose_infer,both_eval} \
        --seed N --seconds S --trace {0,1}

Generates the default synthetic dataset from --seed (and, for both_eval, a
checkpoint of the two-branch model) in a child process, then sets up and
measures the workload in this one (see workloads.py). Outputs are checked
while it runs; error_rate = failed checks / checks attempted.

--trace 0 measures the unmodified call path and reports the end-to-end
metrics; --trace 1 installs span wrappers (spans.py) and reports the
per-layer metrics. The metric names and units come from BENCHMARK.json.
Every metric is printed by name with its unit and sample count, with the
run's provenance; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. A full record, and in traced runs
the spans, are written to bench/out/.

A run refuses to start (exit 2) when a thread variable is set to anything
but 1 or BLAS reports more than one thread, and fails (exit 1) when the
skelact sources are not in src/ next to this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads")


class Refused(Exception):
    """The run's environment does not meet the benchmark's conditions."""


def pin_threads():
    """Set every thread variable to 1, refusing one already set to another value."""
    for var in THREAD_VARS:
        value = os.environ.setdefault(var, "1")
        if value != "1":
            raise Refused(f"{var}={value}: the benchmark runs BLAS single-threaded")


def pin_cpu():
    """Keep this process on the highest-numbered CPU it may use; returns that CPU.

    CPU 0 usually also serves the machine's interrupts, and a process the
    scheduler moves between CPUs times less steadily than one that stays.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def blas_threads():
    """Threads the BLAS bundled with numpy reports, or None when it cannot be asked."""
    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*blas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in BLAS_THREAD_QUERIES:
            query = getattr(handle, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


def git_sha(root):
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, threads, cpu):
    import numpy

    from measure import files_digest

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "source_sha256": files_digest(ROOT / "src" / "skelact"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": threads},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "machine": platform.machine(),
    }


def prepare(run):
    """Generate the run's inputs in a child process; returns its digests."""
    command = [sys.executable, str(BENCH / "prepare.py"), "--out", str(run.data_dir),
               "--seed", str(run.seed)]
    if run.workload == "both_eval":
        command += ["--checkpoint", str(run.checkpoint)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"input preparation failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pose_train", "pose_infer", "both_eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        pin_threads()
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    cpu = pin_cpu()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    # numpy and skelact load only now, after the thread variables are pinned
    try:
        import skelact
    except ImportError as exc:
        print(f"cannot import skelact from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    if Path(skelact.__file__).resolve().parent != ROOT / "src" / "skelact":
        print(f"skelact imported from {skelact.__file__}, not from this checkout", file=sys.stderr)
        return 1
    threads = blas_threads()
    if threads not in (None, 1):
        print(f"refused: BLAS reports {threads} threads; the benchmark runs single-threaded",
              file=sys.stderr)
        return 2

    from workloads import WORKLOADS, Run, execute

    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, args.seconds, work, prepared={}, traced=bool(args.trace))
        run.prepared = prepare(run)
        execute(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still has its directory there
            pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.put("peak_rss_mb", peak_rss_mb, "MB")
    run.put("error_rate", run.checks.error_rate, "share", run.checks.attempted)

    aliases = WORKLOADS[args.workload].aliases
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        source = run.named[aliases.get(entry["name"], entry["name"])]
        if source["unit"] != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: measured in {source['unit']}, declared {entry['unit']}")
        metrics[entry["name"]] = {"value": source["value"], "unit": entry["unit"]}

    record = {
        "provenance": provenance(args, threads, cpu),
        "inputs": {**run.prepared, **run.digests},
        "checks": {"attempted": run.checks.attempted, "failed": run.checks.failed,
                   "error_rate": run.checks.error_rate, "failures": run.checks.failures},
        "named": run.named,
        "metrics": metrics,
    }
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run.tracer is not None:
        record["spans_summary"] = run.tracer.summary()
        (out / f"{stem}.spans.json").write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent"], "spans": run.tracer.spans}))
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, entry in run.named.items():
        n = "" if entry["n"] is None else f" (n={entry['n']})"
        print(f"{name} = {entry['value']} {entry['unit']}{n}")
    for failure in run.checks.failures:
        print(f"check failed: {failure}")
    if run.tracer is not None:
        print(f"{'span':40s} {'calls':>7s} {'total_ms':>12s} {'self_ms':>12s}")
        for name, row in sorted(record["spans_summary"].items(), key=lambda kv: -kv[1]["self_ms"]):
            print(f"{name:40s} {row['calls']:7d} {row['total_ms']:12.3f} {row['self_ms']:12.3f}")
    print("provenance " + json.dumps({**record["provenance"], **record["inputs"]}, sort_keys=True))
    print(json.dumps({"correct": run.checks.failed == 0, "attempted": run.checks.attempted,
                      "failed": run.checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
