"""setsum benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload setsum_2d16 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with only light clocks
installed; ``--trace 1`` runs the traced variant and reports the per-layer
metrics instead.  Every metric is printed as ``name = value unit``, then an
``env`` line, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The same result
plus the environment stamp is written to ``.perfbench_run/`` (the traced
run's span dump too).  Exit code 0 means the run completed, whether or not
its checks passed; any other code means no result was produced.
"""

import os

# BLAS is pinned to one thread before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def git_commit(root: Path) -> str:
    """HEAD of the checkout; 'unknown' when it is not a git repository
    (a repository above the checkout does not count)."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment_stamp() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(ROOT),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="little work on the same code path (self-tests)")
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "setsum").is_dir():
        print(f"perfbench: no setsum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import summarize
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_run"
    out_dir.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke_variant()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    work = out_dir / f"work-{tag}-{os.getpid()}"
    work.mkdir()
    try:
        if args.trace:
            result = workloads.trace(workload, args.seed, args.seconds, work,
                                     out_dir / f"{tag}-spans.json")
        else:
            result = workloads.measure(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = summarize.UNITS if args.trace else workloads.UNITS
    ledger = result.ledger
    for name, value in result.metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, value in result.info.items():
        print(f"info {name} = {value}")
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    env = environment_stamp()
    print("env " + json.dumps(env, sort_keys=True))
    final = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
             "failed": ledger.failed,
             "metrics": {name: {"value": value, "unit": units[name]}
                         for name, value in result.metrics.items()}}
    (out_dir / f"{tag}.json").write_text(json.dumps(
        {**final, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "info": result.info, "failures": ledger.failures, "env": env}, indent=1))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
