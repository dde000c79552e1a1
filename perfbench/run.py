"""Time-to-verdict benchmark of the passivity checker.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Workloads: ``table1``, ``corner_sweep`` and ``served_mix`` (see README.md).
The program is imported from ``src/`` next to this directory.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.
"""

import os

# Pin BLAS/OpenMP threads before numpy loads; pool workers inherit them.
for _variable in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_variable] = "1"

import time  # noqa: E402

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table1", "corner_sweep", "served_mix")


def _git_sha() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def _blas() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)

    import numpy
    import scipy

    import repro  # noqa: F401 - start-up cost belongs to set-up time

    startup_s = time.perf_counter() - _START
    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
        f"trace {args.trace}  git {_git_sha()}  nproc {os.cpu_count()}  "
        f"python {platform.python_version()}  numpy {numpy.__version__}  "
        f"scipy {scipy.__version__}  blas {_blas()}  "
        f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}",
        flush=True,
    )
    from measure import WRONG, stop_children

    module = __import__(args.workload)
    try:
        result = module.run(args.seed, args.seconds, bool(args.trace), startup_s)
    finally:
        # Pool workers and the shared-memory resource tracker must not
        # outlive the run, whether it ends with a result or an error.
        stop_children()

    for line in result.notes:
        print(line)
    tally = result.tally
    causes = ", ".join(f"{cause}: {n}" for cause, n in sorted(tally.failures.items()))
    print(f"{args.workload}: attempted {tally.attempted}, failed {tally.failed}"
          + (f" ({causes})" if causes else ""))

    if args.trace:
        chosen = {m["name"]: (result.layers.get(m["name"], 0.0), m["unit"]) for m in spec["per_layer"]}
    else:
        chosen = {m["name"]: (result.end_to_end[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    for name, (value, unit) in chosen.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failures.get(WRONG, 0) == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
