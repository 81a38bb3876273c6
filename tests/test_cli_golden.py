"""`skewrec solve` output on every demo spec, byte for byte.

The files under tests/golden/ hold the exact stdout of `skewrec solve` on
demos/specs/<name>.rec.  A change of value representation, a deletion or a
refactor must leave them unchanged.
"""

import glob
import os

import pytest

from skewrec.cli import main

HERE = os.path.dirname(__file__)
SPECS = sorted(glob.glob(os.path.join(HERE, "..", "demos", "specs", "*.rec")))


def _golden_path(spec):
    name = os.path.splitext(os.path.basename(spec))[0]
    return os.path.join(HERE, "golden", name + ".txt")


def test_every_demo_spec_has_a_golden_file():
    assert SPECS
    names = {os.path.basename(_golden_path(s)) for s in SPECS}
    assert names == set(os.listdir(os.path.join(HERE, "golden")))


@pytest.mark.parametrize("spec", SPECS, ids=lambda p: os.path.basename(p))
def test_solve_output_matches_golden(spec, capsys):
    assert main(["solve", spec]) == 0
    with open(_golden_path(spec), encoding="utf-8") as fh:
        expected = fh.read()
    assert capsys.readouterr().out == expected
