#!/usr/bin/env python3
"""Export the two-charger protocol as OpenQASM 3 programs over a time grid.

Usage: python scripts/export_circuits.py [out_dir] [points]
"""
import sys
from pathlib import Path

from icobattery.cli import main

out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results/circuits")
points = sys.argv[2] if len(sys.argv) > 2 else "20"
out_dir.parent.mkdir(parents=True, exist_ok=True)

rc = main(["export-circuits", "--n", "2", "--points", points,
           "--out", str(out_dir)])
if rc:
    sys.exit(rc)
print(f"wrote {points} QASM files and manifest.csv to {out_dir}")
