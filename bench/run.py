#!/usr/bin/env python3
"""rmlab benchmark: end-to-end and per-layer timings of `rmlab simulate`.

    python3 bench/run.py --workload c9-bsc --seed 1 --seconds 32 --trace 0

Runs the workload's configs through the public path `rmlab simulate`
takes (`sim.config_from_dict` -> `sim.run_simulation` -> `sim.csv_report`)
in rounds until `--seconds` have passed, checks every CSV row, and prints
one JSON object as the last line of stdout:

    {"correct": ..., "attempted": <sweep points>, "failed": <bad points>,
     "metrics": {name: {"value": ..., "unit": ...}}}

`--trace 0` reports the end-to-end metrics; `--trace 1` runs the harness
untraced next to a traced replay of its trial loop (replay.py) and reports
the per-layer metrics.  Lines before the last one are `#` comments: the run
manifest and per-config details.  README.md documents workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread per process, so a serial run uses one core.
# A two-thread ML codebook product on a shared two-core machine swings by
# a third from run to run; one thread is steadier.  Set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().with_name("reference_rows.json")
SETUP_PROBES = 7


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None, help="workload seed (default: the reference seed)")
    ap.add_argument("--seconds", type=float, default=10.0, help="measurement time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_program():
    if not (SRC / "rmlab" / "__init__.py").is_file():
        sys.exit(f"bench/run.py: no rmlab sources under {SRC}; run it from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import rmlab

    if Path(rmlab.__file__).resolve().parent != SRC / "rmlab":
        sys.exit(f"bench/run.py: imported rmlab from {rmlab.__file__}, not from {SRC}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    from measure import Bench, warm_up
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench/run.py: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    configs = workload.with_seed(seed)
    warm_up(configs)
    if args.setup_probe:
        print(time.monotonic())
        return 0
    stored = _stored_rows(workload, seed)
    bench = Bench(workload, configs, stored)
    if args.trace:
        metrics = bench.traced(args.seconds)
    else:
        metrics = bench.untraced(args.seconds)
        setup_s, setup_wall_s = _setup_seconds(args.workload, seed, bench.kernel)
        metrics["setup_s"] = (setup_s, "s")
        bench.details.append(f"setup_wall_s={setup_wall_s:.6g}")
    correct = bench.failed == 0 and not bench.errors
    for line in bench.errors:
        print(f"bench/run.py: {line}", file=sys.stderr)
    print("# manifest " + json.dumps(_manifest(workload, seed, args, bench.rounds)))
    for line in bench.details:
        print("# " + line)
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def _stored_rows(workload, seed):
    """Reference CSV rows recorded from the seed commit, or None for other seeds."""
    table = json.loads(REFERENCE.read_text())
    if seed != table["seed"]:
        return None
    entry = table["workloads"][workload.name]
    if entry["config_sha256"] != workload.config_hash(seed):
        sys.exit(f"bench/run.py: {REFERENCE.name} is stale for {workload.name}; re-run record_reference.py")
    return entry["rows"]


def _setup_seconds(workload_name: str, seed: int, kernel: list) -> tuple[float, float]:
    """Median time from starting a fresh process until it has imported
    rmlab, parsed the workload's configs and warmed up every decoder, in
    reference seconds (reference.py) and in wall seconds.

    The probe prints the system-wide monotonic clock when it is ready, so
    its exit and the parent's polling for it are not timed.  The median
    probe time is scaled by the median of every reference-kernel time of
    the run: `kernel` holds the timed loop's, and the kernel runs once more
    after each probe.  A kernel time right next to a probe swings by a
    third on its own, so the run's median gauges the machine better.
    """
    from reference import REFERENCE_S, kernel_seconds

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload_name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True, timeout=120)
        times.append(float(proc.stdout.split()[-1]) - t0)
        kernel.append(kernel_seconds())
    wall = statistics.median(times)
    return wall * REFERENCE_S / statistics.median(kernel), wall


def _git_rev():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def _manifest(workload, seed, args, rounds):
    import numpy
    import scipy

    return {
        "workload": workload.name,
        "seed": seed,
        "config_sha256": workload.config_hash(seed),
        "trace": args.trace,
        "seconds": args.seconds,
        "rounds": rounds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": _git_rev(),
    }


if __name__ == "__main__":
    sys.exit(main())
