#!/usr/bin/env python3
"""Check that this tree's commands write the same bytes as a base commit's.

Usage: python scripts/compare_base.py BASE

BASE is a commit of this repository; its files are taken with `git archive`
into a temporary directory.  Each command of COMMANDS then runs in a fresh
process under each tree, the base's and the working tree this script lies
in, with PYTHONPATH=<tree>/src and its outputs in a temporary directory.
Exits 0 when both trees write the same files with the same bytes, and 1
naming the first differing file and line, a file that one tree alone wrote,
or a command that did not exit 0; exits 2 when BASE cannot be archived.
"""
from __future__ import annotations

import io
import itertools
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
N_2_TO_32 = ",".join(map(str, range(2, 33)))
CLI = (sys.executable, "-m", "icobattery.cli")

# Run from the output directory; "{tree}" stands for the tree's root.
COMMANDS = (
    # the paper's window at 31 charger counts, through both engines
    (*CLI, "sweep", "--n", N_2_TO_32, "--points", "400", "--engine", "both", "--out", "sweep.csv"),
    (*CLI, "bursts", "--n", N_2_TO_32, "--points", "400", "--out", "bursts.json"),
    (*CLI, "noise-study", "--n", "2", "--points", "30", "--shots", "20000", "--depol-p", "0.05",
     "--out", "noise.csv"),
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
    """The paths of the files under `root`, relative to it."""
    return {path.relative_to(root).as_posix() for path in root.rglob("*") if path.is_file()}


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


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base = argv[0]
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", base],
                             capture_output=True)
    if archive.returncode != 0:
        print(archive.stderr.decode(), end="", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "tree", filter="data")
        for name, tree, out in ((base, tmp / "tree", tmp / "base"),
                                ("this tree", ROOT, tmp / "head")):
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


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
