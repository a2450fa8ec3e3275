"""The experiment scripts under scripts/ write the same files on a second run."""
import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_scripts(monkeypatch, out: Path) -> dict:
    """Run the three experiment scripts into `out`, and return every path
    under it with its bytes (None for a directory)."""
    for script, out_dir in (("reproduce_bursts.py", out), ("noise_study.py", out),
                            ("export_circuits.py", out / "circuits")):
        monkeypatch.setattr(sys, "argv", [script, str(out_dir)])
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    return {p.relative_to(out): p.read_bytes() if p.is_file() else None for p in out.rglob("*")}


def test_experiment_scripts_write_byte_identical_trees_twice(tmp_path, monkeypatch, capsys):
    first, second = (run_scripts(monkeypatch, tmp_path / run) for run in ("first", "second"))
    # sweep.csv and bursts.json; noise_study.csv and its shot counts; the
    # circuits directory with 20 QASM files and manifest.csv
    assert len(first) == 2 + 2 + 1 + 21
    assert first == second
    assert capsys.readouterr().err == ""
