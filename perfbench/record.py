#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it as one trajectory point.

    python3 perfbench/record.py --out perfbench/trajectory/NAME.json

Run it from a git checkout of the commit to record.  For every workload in
BENCHMARK.json it runs ``perfbench/run.py`` untraced once per seed 1..10 and
traced once per seed 1..2, one run at a time.
Per end-to-end metric it records the values, median, quartiles and the
spread (q3 - q1) / median next to the metric's bound; per-layer metrics are
the medians over the traced runs.  The environment (Python and numpy
versions, CPU count, BLAS threads in effect, cache sizes) is recorded too.
"""
import os

# The same BLAS setting as run.py, so the thread count reported is the one in effect there.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300
SEEDS = range(1, 11)         # untraced runs per workload
TRACE_SEEDS = range(1, 3)    # traced runs per workload


def blas_threads():
    """Threads the numpy-bundled OpenBLAS will use, or None if it is not found."""
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getattr(lib, symbol).restype = ctypes.c_int
                return getattr(lib, symbol)()
    return None


def cache_bytes(level: int):
    try:
        out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
        return int(out) if out else None
    except (OSError, subprocess.SubprocessError, ValueError):
        return None


def commit() -> str:
    return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=10, check=True).stdout.strip()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "l2_cache_bytes": cache_bytes(2),
        "l3_cache_bytes": cache_bytes(3),
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float], bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    out = {"values": values, "median": med, "q1": q1, "q3": q3,
           "spread": (q3 - q1) / med if med else None}
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"commit": commit(), "run_seconds": spec["run_seconds"],
              "environment": environment(), "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run_once(name, seed, spec["run_seconds"], 0) for seed in SEEDS]
        entry = {"seeds": list(SEEDS),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "correct": all(r["correct"] for r in runs), "end_to_end": {}}
        for metric in spec["end_to_end"]:
            summary = summarise([r["metrics"][metric["name"]]["value"] for r in runs],
                                metric["bound"])
            entry["end_to_end"][metric["name"]] = dict(summary, unit=metric["unit"])
            print(f"{name:14s} {metric['name']:13s} median {summary['median']:.6g} "
                  f"{metric['unit']:4s} spread {summary['spread']:.4f} (bound {metric['bound']})")
        traced = [run_once(name, seed, spec["run_seconds"], 1) for seed in TRACE_SEEDS]
        entry["per_layer"] = {
            m["name"]: {"median": statistics.median(r["metrics"][m["name"]]["value"]
                                                    for r in traced), "unit": m["unit"]}
            for m in spec["per_layer"]}
        record["workloads"][name] = entry
        print(f"{name:14s} correct {entry['correct']}, "
              f"{entry['failed']} of {entry['attempted']} invocations failed")
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
