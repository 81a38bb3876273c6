"""Tests of the benchmark itself: seeded inputs and repeatable op counts.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_skewrec()


def digest(workload, seed):
    cases, _cfs, ks = run.generate(workload, seed, 1)
    return run.input_digest(cases, ks)


def bench(*args, cwd=BENCH.parent, bench_dir=BENCH):
    return subprocess.run([sys.executable, str(bench_dir / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert digest(workload, 7) == digest(workload, 7)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_other_seed_other_inputs(workload):
    assert digest(workload, 7) != digest(workload, 8)


def test_every_boundary_resolves(monkeypatch):
    keys = run.boundary_keys()
    assert [len(v) for v in keys.values()] == [len(n) for _m, n in run.BOUNDARIES.values()]
    monkeypatch.setitem(run.BOUNDARIES, "solver.gone", ("skewrec.solver", ("no_such_function",)))
    with pytest.raises(run.SetupError):
        run.boundary_keys()


def test_clock_scales_by_the_calibrations_around_an_interval():
    clock = run.Clock()
    before = clock.cal
    clock.pending.append(0.5)
    (scaled,) = clock.settle()
    assert scaled == 0.5 * 2 * run.CAL_REF_S / (before + clock.cal)
    assert clock.pending == [] and clock.cals == [before, clock.cal]


def test_traced_call_counts_repeat():
    args = ("--workload", "quat-solve", "--seed", "3", "--seconds", "1", "--trace", "1")
    counts = []
    for _ in range(2):
        proc = bench(*args)
        assert proc.returncode == 0, proc.stderr
        final = json.loads(proc.stdout.splitlines()[-1])
        assert final["correct"] and final["failed"] == 0
        counts.append({k: v["value"] for k, v in final["metrics"].items()
                       if k.endswith(".calls")})
    assert counts[0]["solver.solve.calls"] == 1.0
    assert counts[0] == counts[1]


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "quat-solve", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path, bench_dir=tmp_path / "bench")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
