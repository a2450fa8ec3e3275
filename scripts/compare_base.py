#!/usr/bin/env python3
"""Compare this tree with a base commit: the bytes its commands write, or its benchmark.

Usage: python scripts/compare_base.py BASE
       python scripts/compare_base.py BASE --bench W

BASE is a commit of this repository; its files are taken with `git archive`
into a temporary directory.  Without --bench, each command of COMMANDS runs
in a fresh process under each tree, the base's and the working tree this
script lies in, with PYTHONPATH=<tree>/src and its outputs in a temporary
directory.  Exits 0 when both trees write the same files with the same
bytes, and 1 naming the first differing file and line, a file that one tree
alone wrote, or a command that did not exit 0.

With --bench, PAIRS (10) pairs of `perfbench/run.py --workload W --trace 0`
run under the two trees, the base first in odd pairs and the working tree
first in even ones, with seed i in pair i.  For each end-to-end metric of
BENCHMARK.json it prints both series, their medians and quartiles, the
pairs the change won and a verdict (see `verdict`); it exits 1 on a
regression, on a larger share of failed invocations than the base's, or on
a run that did not exit 0 within RUN_TIMEOUT_S, and 2 when the trees'
perfbench/ or BENCHMARK.json differ.  Either mode exits 2 when BASE cannot be archived.
"""
from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
N_2_TO_32 = ",".join(map(str, range(2, 33)))
CLI = (sys.executable, "-m", "icobattery.cli")
PAIRS = 10              # the claim rule: at least 9 of 10 pairs won
RUN_TIMEOUT_S = 300     # one perfbench/run.py run, as in perfbench/record.py

# Run from the output directory; "{tree}" stands for the tree's root.
COMMANDS = (
    # the paper's window at 31 charger counts, through both engines
    (*CLI, "sweep", "--n", N_2_TO_32, "--points", "400", "--engine", "both", "--out", "sweep.csv"),
    (*CLI, "bursts", "--n", N_2_TO_32, "--points", "400", "--out", "bursts.json"),
    (*CLI, "noise-study", "--n", "2", "--points", "30", "--shots", "20000", "--depol-p", "0.05",
     "--out", "noise.csv"),
    # most of the 3-shot study's bootstrap resamples have an empty branch or an undefined P,
    # and its 2000 rows span two BOOTSTRAP_CHUNK calls
    (*CLI, "noise-study", "--n", "2", "--t-min", "0", "--points", "2000", "--shots", "3",
     "--depol-p", "0.0", "--out", "noise_3_shots.csv"),
    (*CLI, "export-circuits", "--n", "2", "--points", "30", "--out", "circuits"),
    # the numeric engine splits N = 200's rows into chunks and holds one row of N = 1000 a chunk
    (*CLI, "sweep", "--n", "2,200,1000", "--points", "30", "--engine", "both",
     "--out", "sweep_chunks.csv"),
    # omega * lambda * t rounds differently in each order of the products (it does not at
    # omega = 1 or lambda = 2)
    (*CLI, "sweep", "--n", "2,3,7,32", "--points", "400", "--omega", "1.3", "--lambda", "0.1",
     "--engine", "both", "--out", "sweep_omega_lambda.csv"),
    # a grid longer than WRITE_BLOCK, in two time blocks per N, at omega != 1 and lambda > 1
    (*CLI, "sweep", "--n", "3,2", "--points", "20000", "--omega", "0.37", "--lambda", "2",
     "--engine", "both", "--out", "sweep_blocks.csv"),
    # an exact passivity tie at t = 7.5 pi, and at t = 0 the rest-weight fallback state
    (*CLI, "sweep", "--n", "3", "--points", "17", "--engine", "both", "--out", "sweep_tie.csv"),
    # the products of the levels -+omega/2 with the populations reach the subnormal range
    (*CLI, "sweep", "--n", "2,5", "--points", "9", "--omega", "1e-298", "--engine", "numeric",
     "--out", "sweep_subnormal.csv"),
    (sys.executable, "{tree}/scripts/reproduce_bursts.py", "scripts"),
    (sys.executable, "{tree}/scripts/noise_study.py", "scripts"),
    (sys.executable, "{tree}/scripts/export_circuits.py", "scripts/circuits"),
)


def run_commands(tree: Path, out: Path) -> str | None:
    """Run COMMANDS under `tree`, writing into `out`; the first command that
    did not exit 0, with its stderr, or None."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    for command in COMMANDS:
        args = [arg.replace("{tree}", str(tree)) for arg in command]
        done = subprocess.run(args, cwd=out, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            return f"{' '.join(args[1:])} exited {done.returncode} under {tree}:\n{done.stderr}"
    return None


def files(root: Path) -> set[str]:
    """The paths of the files under `root`, relative to it, bytecode caches left out."""
    return {path.relative_to(root).as_posix() for path in root.rglob("*")
            if path.is_file() and "__pycache__" not in path.parts}


def compare_dirs(base: Path, head: Path) -> str | None:
    """The first difference between the files under `base` and `head`: a file
    one side alone holds, or the first differing line of a file; None when
    both hold the same files with the same bytes."""
    base_files, head_files = files(base), files(head)
    one_side = sorted(base_files ^ head_files)
    if one_side:
        side = "the base" if one_side[0] in base_files else "this tree"
        return f"{one_side[0]}: written under {side} only"
    for name in sorted(base_files):
        old, new = (root.joinpath(name).read_bytes() for root in (base, head))
        if old != new:
            lines = itertools.zip_longest(old.splitlines(), new.splitlines())
            for number, (a, b) in enumerate(lines, start=1):
                if a != b:
                    return f"{name}:{number}: the base wrote {a!r}, this tree {b!r}"
            return f"{name}: the line ends differ"
    return None


def verdict(base: list[float], head: list[float], better: str, bound: float) -> tuple[str, int]:
    """The verdict on one metric over pairs (base[i], head[i]), with the pairs
    the change won (ties count for neither); `better` is "lower" or "higher",
    `bound` the worsening BENCHMARK.json allows, as a fraction of the base's median.
    - "regression": the change's median is worse by more than the bound;
    - "gain": there are at least PAIRS pairs, the change won at least 9/10
      of them, and its median is better by more than the base's
      interquartile range;
    - "unresolved": the wider interquartile range of the two series exceeds
      the bound, unless every run of the change reads better than every run
      of the base;
    - "unchanged" otherwise."""
    sign = 1.0 if better == "lower" else -1.0       # compare sign * value, lower is better
    base, head = [sign * v for v in base], [sign * v for v in head]
    won = sum(h < b for b, h in zip(base, head))
    allowed = bound * abs(statistics.median(base))
    gap = statistics.median(base) - statistics.median(head)
    iqr = [q[2] - q[0] for q in (statistics.quantiles(x, n=4) for x in (base, head))]
    if -gap > allowed:
        return "regression", won
    if len(base) >= PAIRS and 10 * won >= 9 * len(base) and gap > iqr[0]:
        return "gain", won
    if max(iqr) > allowed and not max(head) < min(base):
        return "unresolved", won
    return "unchanged", won


def run_bench(tree: Path, workload: str, seed: int) -> dict | str:
    """The result line of one `perfbench/run.py` run under `tree`, or why it failed."""
    try:
        done = subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
                               workload, "--trace", "0", "--seed", str(seed)], cwd=tree,
                              env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
                              capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"perfbench/run.py did not finish in {RUN_TIMEOUT_S} s under {tree}"
    if done.returncode != 0:
        return f"perfbench/run.py exited {done.returncode} under {tree}:\n{done.stderr}"
    return json.loads(done.stdout.splitlines()[-1])


def bench(base_name: str, base: Path, workload: str) -> int:
    """Run PAIRS alternating pairs of the workload under `base` and ROOT,
    print each metric's series, statistics and verdict; the exit status."""
    if compare_dirs(base / "perfbench", ROOT / "perfbench") or (
            (base / "BENCHMARK.json").read_bytes() != (ROOT / "BENCHMARK.json").read_bytes()):
        print("perfbench/ or BENCHMARK.json differ between the trees", file=sys.stderr)
        return 2
    runs = {base: [], ROOT: []}
    for pair in range(1, PAIRS + 1):
        for tree in (base, ROOT) if pair % 2 else (ROOT, base):
            result = run_bench(tree, workload, seed=pair)
            if isinstance(result, str):
                print(result, file=sys.stderr)
                return 1
            runs[tree].append(result)
        print(f"pair {pair}/{PAIRS}, seed {pair}: "
              + ", ".join(f"{name} {runs[base][-1]['metrics'][name]['value']:.6g} -> "
                          f"{runs[ROOT][-1]['metrics'][name]['value']:.6g}"
                          for name in runs[ROOT][-1]["metrics"]))
    status = 0
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]:
        name = metric["name"]
        series = [[run["metrics"][name]["value"] for run in runs[tree]] for tree in (base, ROOT)]
        result, won = verdict(*series, metric["better"], metric["bound"])
        print(f"{name} ({metric['better']} is better, bound {metric['bound']:.0%}): {result}, "
              f"the change won {won} of {PAIRS} pairs")
        for label, values in zip((base_name, "this tree"), series):
            q1, median, q3 = statistics.quantiles(values, n=4)
            print(f"  {label}: median {median:.6g}, quartiles "
                  f"{q1:.6g} {q3:.6g}; " + " ".join(f"{v:.6g}" for v in values))
        status |= result == "regression"
    shares = [sum(r["failed"] for r in runs[t]) / sum(r["attempted"] for r in runs[t])
              for t in (base, ROOT)]
    print(f"failed invocations: {shares[0]:.3g} under {base_name}, {shares[1]:.3g} here")
    return 1 if status or shares[1] > shares[0] else 0


def compare_outputs(base_name: str, base: Path, tmp: Path) -> int:
    """Run COMMANDS under `base` and ROOT and compare what they wrote; the exit status."""
    for name, tree, out in ((base_name, base, tmp / "base"), ("this tree", ROOT, tmp / "head")):
        out.mkdir()
        start = time.perf_counter()
        failure = run_commands(tree, out)
        if failure:
            print(failure, file=sys.stderr)
            return 1
        print(f"{name}: {len(COMMANDS)} commands in {time.perf_counter() - start:.1f} s")
    difference = compare_dirs(tmp / "base", tmp / "head")
    if difference:
        print(difference, file=sys.stderr)
        return 1
    print(f"identical: {len(files(tmp / 'base'))} files")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(usage=__doc__.split("\n\n")[1].removeprefix("Usage: "))
    parser.add_argument("base")
    parser.add_argument("--bench", metavar="W")
    args = parser.parse_args(argv)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", args.base],
                             capture_output=True)
    if archive.returncode != 0:
        print(archive.stderr.decode(), end="", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "tree", filter="data")
        if args.bench:
            return bench(args.base, tmp / "tree", args.bench)
        return compare_outputs(args.base, tmp / "tree", tmp)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
