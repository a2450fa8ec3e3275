"""scripts/compare_base.py's directory comparison, on two trees of files."""
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_base.py"
spec = importlib.util.spec_from_file_location("compare_base", SCRIPT)
compare_base = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_base)


@pytest.fixture
def trees(tmp_path):
    """Two directories holding the same sweep.csv and circuits/manifest.csv."""
    for side in ("base", "head"):
        (tmp_path / side / "circuits").mkdir(parents=True)
        (tmp_path / side / "sweep.csv").write_text("t,E\n0.0,0.0\n1.0,0.1\n")
        (tmp_path / side / "circuits" / "manifest.csv").write_text("index,t,file\n0,0.0,a.qasm\n")
    return tmp_path / "base", tmp_path / "head"


def test_identical_trees_pass(trees):
    assert compare_base.compare_dirs(*trees) is None


def test_one_ulp_in_one_cell_names_the_file_and_the_line(trees):
    base, head = trees
    (head / "sweep.csv").write_text("t,E\n0.0,0.0\n1.0,0.10000000000000002\n")
    assert compare_base.compare_dirs(base, head) == (
        "sweep.csv:3: the base wrote b'1.0,0.1', this tree b'1.0,0.10000000000000002'")


@pytest.mark.parametrize("side, name", [(0, "the base"), (1, "this tree")])
def test_a_file_on_one_side_only_is_named(trees, side, name):
    (trees[side] / "circuits" / "ico_n2_t0.qasm").write_text("OPENQASM 3.0;\n")
    assert compare_base.compare_dirs(*trees) == f"circuits/ico_n2_t0.qasm: written under {name} only"
