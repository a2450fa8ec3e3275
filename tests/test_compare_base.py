"""scripts/compare_base.py: its directory comparison on two trees of files, and its
benchmark verdict on synthetic series."""
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


BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]    # median 1.0, IQR 0.025


@pytest.mark.parametrize("head, better, want", [
    # 10 of 10 pairs won and a median gap of 0.1 over an IQR of 0.025
    ([v - 0.1 for v in BASE], "lower", ("gain", 10)),
    # the same gap, but 8 of 10 pairs won
    ([v - 0.1 for v in BASE[:8]] + [1.5, 1.5], "lower", ("unchanged", 8)),
    # 10 of 10 pairs won by 0.01, inside the base's IQR
    ([v - 0.01 for v in BASE], "lower", ("unchanged", 10)),
    # ties count for neither side
    (BASE, "lower", ("unchanged", 0)),
    # the change's median 30% worse against a 25% bound
    ([v * 1.3 for v in BASE], "lower", ("regression", 0)),
    # 20% worse: within the bound
    ([v * 1.2 for v in BASE], "lower", ("unchanged", 0)),
    # the same series where higher is better: a regression and a gain
    ([v - 0.3 for v in BASE], "higher", ("regression", 0)),
    ([v + 0.1 for v in BASE], "higher", ("gain", 10)),
])
def test_verdict_on_synthetic_series(head, better, want):
    assert compare_base.verdict(BASE, head, better, 0.25) == want


def test_fewer_than_ten_pairs_are_never_a_gain():
    assert compare_base.verdict([1.0, 1.1], [0.5, 0.6], "lower", 0.25) == ("unchanged", 2)


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    base = [1.0] * 5 + [3.0] * 5         # median 2.0, IQR 2.0 against an allowed 0.5
    assert compare_base.verdict(base, [0.99] * 10, "lower", 0.25) == ("unchanged", 10)
    assert compare_base.verdict(base, [0.99] * 9 + [3.5], "lower", 0.25) == ("unresolved", 9)
    # a narrow base series and a wide one for the change
    assert compare_base.verdict(BASE, [0.5, 1.5] * 5, "lower", 0.25) == ("unresolved", 5)
