#!/usr/bin/env python3
"""Benchmark for icobattery: one workload through `icobattery.cli.main`.

Run from the repository root:

    python3 perfbench/run.py --workload repro-both --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

A run is a closed loop with one client in one process.  It imports the
package from ``src/``, makes one untimed reference repetition whose outputs
are checked in full, then repeats the workload for ``--seconds``; every later
repetition must write byte-identical files.

With ``--trace 0`` it reports the end-to-end metrics named in BENCHMARK.json.
``wall_s`` is the wall time of one repetition (``main()`` calls after
import, file writing included) expressed at a fixed reference host speed:
the median over repetitions of its wall time divided by the wall time of a
fixed calibration kernel run right before it, times the kernel's reference
time.  On a shared host the speed of the same code drifts by tens of
percent over tens of seconds; the ratio cancels that drift while any change
in the program's own cost shows in full.  The raw wall-time deciles are
printed alongside.  ``points_per_s`` is grid points per repetition over
``wall_s``.  ``setup_s`` is the time for a fresh interpreter to import
``icobattery.cli``, probed about once a second between repetitions, and
expressed the same way against the start-up of a bare interpreter probed
right after it (process start-up follows the host's memory and file-system
load more than its CPU speed).  ``peak_rss_mb`` is the process's peak
resident memory.

With ``--trace 1`` it alternates untraced and traced repetitions and reports
the per-layer metrics (medians over traced repetitions) and the tracing
overhead; the spans of the last traced repetition are written to
``.perfbench_out/<workload>/spans.jsonl``.  The last line of standard output
is one JSON object.  ``--smoke`` runs every workload at a tiny size, checks
that every metric named in BENCHMARK.json is emitted and that a corrupted
output file is detected.
"""
import os

# One client, one BLAS thread: the host has two cores, and the process must
# not compete with itself.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_REPS = 3
# Calibration kernel time on the reference host (2-vCPU x86-64 VM, Python
# 3.11, numpy 2.4, one BLAS thread); wall_s is expressed at this host speed.
CAL_REF_S = 0.013
SETUP_INTERVAL_S = 1.0   # one set-up probe between repetitions this often
# Fresh interpreter: import the CLI, then report where it came from.
SETUP_PROBE = ("import sys, icobattery.cli; "
               "sys.stdout.write(icobattery.cli.__file__ + '\\n'); sys.stdout.flush()")
BARE_PROBE = "import sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
# Bare interpreter start-up on the reference host; setup_s is expressed at
# the process start-up speed this implies.
BARE_REF_S = 0.067


def _import_package():
    """Import icobattery from this checkout's src/, or exit 2."""
    if not (SRC / "icobattery" / "cli.py").is_file():
        sys.exit(f"error: {SRC} holds no icobattery package; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import icobattery.cli
    if not Path(icobattery.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: icobattery imported from {icobattery.cli.__file__}, not {SRC}")
    return icobattery.cli


cli = _import_package()
import numpy as np  # noqa: E402
import spans  # noqa: E402  (imports icobattery)
from workloads import WORKLOADS  # noqa: E402


def _time_to_first_line(code: str) -> float:
    """Seconds from starting a fresh interpreter running `code` until it
    prints its first line; that line must name a file under src/ if it is a path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or (line.strip() != "ready"
                                and not Path(line.strip()).resolve().is_relative_to(SRC)):
        raise RuntimeError(f"start-up probe failed: exit {proc.returncode}, {line!r}")
    return elapsed


def measure_setup() -> tuple[float, float]:
    """(seconds until a fresh interpreter has imported icobattery.cli,
    seconds until a bare interpreter is ready), measured back to back."""
    return _time_to_first_line(SETUP_PROBE), _time_to_first_line(BARE_PROBE)


def calibration_kernel() -> float:
    """Wall time of a fixed mix of interpreter work, small numpy calls and a
    cache-sized complex matmul that does not touch icobattery."""
    start = time.perf_counter()
    small = np.arange(16.0).reshape(4, 4) + 0j
    eye = np.eye(16)
    acc = 0.0
    for _ in range(60):
        m = np.kron(small, eye)
        m = m @ m
        acc += float(m[0, 0].real) + sum(j * j for j in range(100))
    big = np.full((160, 160), 1 / 160, dtype=complex)
    for _ in range(4):
        big = big @ big
    return time.perf_counter() - start


def _digests(run_dir: Path, inv) -> dict[str, str]:
    out = {}
    for rel in inv.outputs:
        path = run_dir / rel
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            key = str(f.relative_to(run_dir))
            out[key] = hashlib.sha256(f.read_bytes()).hexdigest() if f.is_file() else "missing"
    return out


def _clear(run_dir: Path, inv) -> None:
    for rel in inv.outputs:
        path = run_dir / rel
        if path.is_dir():
            for f in sorted(path.rglob("*"), reverse=True):
                f.rmdir() if f.is_dir() else f.unlink()
            path.rmdir()
        elif path.exists():
            path.unlink()


def run_rep(plan, run_dir: Path, call):
    """One repetition: every invocation once.  Returns the summed wall time
    of the `call`s and, per invocation, (exit code or None, output digests)."""
    for inv in plan.invocations:
        _clear(run_dir, inv)
    gc.collect()
    wall, results = 0.0, []
    for inv in plan.invocations:
        start = time.perf_counter()
        try:
            rc = call(list(inv.argv))
        except Exception:  # a traceback is a failed invocation, not a crashed benchmark
            traceback.print_exc()
            rc = None
        wall += time.perf_counter() - start
        results.append((rc, _digests(run_dir, inv)))
    return wall, results


def reference(plan, run_dir: Path):
    """Run the untimed reference repetition and check its outputs in full.
    Returns (per-invocation results, list of errors)."""
    _, results = run_rep(plan, run_dir, cli.main)
    errors = [f"{inv.argv[0]} exited {rc}" for inv, (rc, _) in zip(plan.invocations, results)
              if rc != 0]
    if not errors:
        try:
            errors = plan.check()
        except Exception as exc:  # unreadable output is a failed check
            errors = [f"output check raised {type(exc).__name__}: {exc}"]
    return results, errors


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Measure one workload; returns counts, failures and the raw metric values."""
    run_dir = OUT / name
    run_dir.mkdir(parents=True, exist_ok=True)
    plan = WORKLOADS[name](run_dir, seed, smoke)
    for inv in plan.invocations:
        print("icobattery " + " ".join(inv.argv))

    ref, errors = reference(plan, run_dir)
    attempted = len(plan.invocations)
    failed = attempted if errors else 0
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)

    tracer = spans.Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)
    untraced_walls, traced_walls, layer_samples, setup_samples = [], [], [], []
    calibration = []  # kernel time right before each untraced repetition
    deadline = time.perf_counter() + seconds
    next_probe = 0.0
    while (time.perf_counter() < deadline or len(untraced_walls) < MIN_REPS
           or (trace and len(traced_walls) < MIN_REPS)):
        traced = trace and len(traced_walls) < len(untraced_walls)
        if traced:
            with tracer.recording():
                wall, results = run_rep(plan, run_dir, traced_main)
            traced_walls.append(wall)
            layer_samples.append(tracer.metrics())
        else:
            calibration.append(calibration_kernel())
            wall, results = run_rep(plan, run_dir, cli.main)
            untraced_walls.append(wall)
            if not trace and time.perf_counter() >= next_probe:
                setup_samples.append(measure_setup())
                next_probe = time.perf_counter() + SETUP_INTERVAL_S
        for (rc, digests), (_, want) in zip(results, ref):
            attempted += 1
            if errors or rc != 0 or digests != want:
                failed += 1
                if not errors:
                    print(f"repetition failed: exit {rc}, outputs "
                          f"{'identical' if digests == want else 'differ'}", file=sys.stderr)

    deciles = statistics.quantiles(untraced_walls, n=10)
    print(f"raw repetition wall time over {len(untraced_walls)} untraced repetitions: "
          f"p10 {deciles[0]:.6g} s, median {statistics.median(untraced_walls):.6g} s, "
          f"p90 {deciles[-1]:.6g} s; calibration kernel median "
          f"{statistics.median(calibration):.6g} s (reference {CAL_REF_S} s)")
    wall_s = CAL_REF_S * statistics.median(w / k for w, k in zip(untraced_walls, calibration))
    values = {"wall_s": wall_s, "points_per_s": plan.points / wall_s}
    if trace:
        tracer.dump(run_dir / "spans.jsonl")
        values.update({key: statistics.median(s[key] for s in layer_samples)
                       for key in layer_samples[0]})
        # traced repetition i directly follows untraced repetition i
        values["trace.overhead_ratio"] = statistics.median(
            t / u for t, u in zip(traced_walls, untraced_walls)) - 1
    else:
        print(f"raw set-up time over {len(setup_samples)} probes: median "
              f"{statistics.median(p for p, _ in setup_samples):.6g} s; bare interpreter "
              f"median {statistics.median(b for _, b in setup_samples):.6g} s "
              f"(reference {BARE_REF_S} s)")
        values["setup_s"] = BARE_REF_S * statistics.median(p / b for p, b in setup_samples)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"attempted": attempted, "failed": failed, "plan": plan, "run_dir": run_dir,
            "reps": len(untraced_walls) + len(traced_walls), "values": values}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def listed_metrics(trace: bool) -> list[dict]:
    return benchmark_spec()["per_layer" if trace else "end_to_end"]


def result_line(run: dict, trace: bool) -> dict:
    metrics = {m["name"]: {"value": run["values"][m["name"]], "unit": m["unit"]}
               for m in listed_metrics(trace)}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate = {run['failed'] / run['attempted']:.6g} "
          f"({run['failed']} of {run['attempted']} invocations, {run['reps']} repetitions)")
    return {"correct": run["failed"] == 0, "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def corruption_detected(run: dict) -> bool:
    """Truncate the first output file and confirm the checks reject it."""
    plan, run_dir = run["plan"], run["run_dir"]
    path = run_dir / plan.invocations[0].outputs[0]
    before = _digests(run_dir, plan.invocations[0])
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    try:
        errors = plan.check()
    except Exception:  # an unreadable file is a detected corruption too
        errors = ["raised"]
    return bool(errors) and _digests(run_dir, plan.invocations[0]) != before


def smoke() -> int:
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            run = run_workload(name, seed=0, seconds=0, trace=trace, smoke=True)
            try:
                line = result_line(run, trace)
            except KeyError as exc:
                problems.append(f"{name}: metric {exc} not emitted")
                continue
            if not line["correct"]:
                problems.append(f"{name}: {line['failed']} of {line['attempted']} failed")
        if not corruption_detected(run):
            problems.append(f"{name}: corrupted output was not detected")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and check the metric set")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result_line(run, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
