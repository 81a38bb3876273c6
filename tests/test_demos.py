import glob
import os
import subprocess
import sys

import pytest

DEMO_DIR = os.path.join(os.path.dirname(__file__), "..", "demos")
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")
# the demos' stdout, byte for byte: carrier reprs, conjugacy classes and
# DMatrix values that tests/golden does not cover
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden_demos")


@pytest.mark.parametrize("script", sorted(glob.glob(os.path.join(DEMO_DIR, "*.py"))))
def test_demo_runs_clean(script):
    # the demos import the package from src/, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, script], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stdout
    name = os.path.splitext(os.path.basename(script))[0]
    with open(os.path.join(GOLDEN_DIR, name + ".txt"), encoding="utf-8") as fh:
        assert proc.stdout == fh.read()
