"""`skewrec solve`, `eval FILE K` and `oracle FILE K` output on every demo
spec, byte for byte, for K = 500 and K = 1025.

The files under tests/golden/ hold the exact stdout of those commands on
demos/specs/<name>.rec: <name>.txt for `solve`, and <name>.kK.txt for both
`eval` and `oracle`, which must print the same value a_K.  K = 1025 =
2**10 + 1 sets the first and the last bit of the closed-form evaluator's
doubling loop.  A change of value representation, a deletion or a refactor
must leave them unchanged.
"""

import glob
import os

import pytest

from skewrec.cli import main

HERE = os.path.dirname(__file__)
SPECS = sorted(glob.glob(os.path.join(HERE, "..", "demos", "specs", "*.rec")))
SUFFIXES = ("", ".k500", ".k1025")


def _golden_path(spec, suffix=""):
    name = os.path.splitext(os.path.basename(spec))[0]
    return os.path.join(HERE, "golden", name + suffix + ".txt")


def test_every_demo_spec_has_a_golden_file():
    assert SPECS
    names = {os.path.basename(_golden_path(s, x)) for s in SPECS for x in SUFFIXES}
    assert names == set(os.listdir(os.path.join(HERE, "golden")))


def _assert_matches_golden(spec, command, k, capsys):
    assert main([command, spec] + ([str(k)] if k else [])) == 0
    with open(_golden_path(spec, f".k{k}" if k else ""), encoding="utf-8") as fh:
        expected = fh.read()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("spec", SPECS, ids=lambda p: os.path.basename(p))
def test_solve_output_matches_golden(spec, capsys):
    _assert_matches_golden(spec, "solve", None, capsys)


@pytest.mark.parametrize("spec", SPECS, ids=lambda p: os.path.basename(p))
def test_eval_output_matches_golden(spec, capsys):
    _assert_matches_golden(spec, "eval", 500, capsys)


@pytest.mark.parametrize("spec", SPECS, ids=lambda p: os.path.basename(p))
def test_oracle_output_matches_golden(spec, capsys):
    _assert_matches_golden(spec, "oracle", 500, capsys)


@pytest.mark.parametrize("spec", SPECS, ids=lambda p: os.path.basename(p))
def test_eval1025_output_matches_golden(spec, capsys):
    _assert_matches_golden(spec, "eval", 1025, capsys)


@pytest.mark.parametrize("spec", SPECS, ids=lambda p: os.path.basename(p))
def test_oracle1025_output_matches_golden(spec, capsys):
    _assert_matches_golden(spec, "oracle", 1025, capsys)
