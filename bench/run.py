"""skewrec benchmark: one seeded workload in a closed loop with one caller.

    python3 bench/run.py --workload quat-solve --seed 1 --seconds 15 --trace 0

The workloads, metrics and the per-layer table are described in
bench/README.md; names, units and directions of the metrics come from
BENCHMARK.json at the repository root.  Everything runs in this process on
one thread: each op starts only when the previous one has returned, and its
output is checked exactly before the next op starts, outside the timed
interval.  Times are given in reference seconds: wall time scaled by a
calibration run between timed intervals (see Clock).  `--trace 1` runs one
pass of the same loop under cProfile and reports the per-layer metrics
instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the full record of the run
(seed, nproc, input digest, sample counts, rejection breakdown, caller map)
goes to bench/results/.  The exit status is 0 only if every output checked.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import importlib
import json
import os
import platform
import pstats
import re
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

WORKLOADS = ("quat-solve", "oct-solve", "long-horizon")
# An untraced run makes PASSES[workload] whole passes over its pool, so
# every input runs that many times, a fixed count.  It sets up SETUPS times,
# spread evenly over the passes, and setup_s is the median.  The pool is
# whole blocks of the workload's segment pattern (workloads.QUAT_BLOCK,
# OCT_BLOCK, LONG_SPECS): as many as fill --seconds of timed ops at BLOCK_S
# reference seconds per block per pass, and at least MIN_BLOCKS, so that a
# run times at least 100 ops and p90 has ten beyond it.  The pool and the work of a run thus depend on
# --seconds and the seed only, never on the machine's speed.
PASSES = {"quat-solve": 4, "oct-solve": 2, "long-horizon": 4}
SETUPS = 3
BLOCK_S = {"quat-solve": 0.65, "oct-solve": 3.0, "long-horizon": 0.16}
MIN_BLOCKS = {"quat-solve": 5, "oct-solve": 5, "long-horizon": 10}

# The speed of one core of a shared host changes from second to second: on
# the reference machine by up to 1.7x, in states that last from a second to
# many minutes, and every timing moves with it.  So a fixed computation, calibration_work(), is
# timed between timed intervals, at least every CAL_EVERY_S of wall, and an
# interval's wall time w is reported in reference seconds,
# w * CAL_REF_S / (mean of the calibrations just before and just after it).
# CAL_REF_S is the median time of calibration_work() on the reference
# machine of bench/README.md.
CAL_REF_S = 0.0022
CAL_EVERY_S = 0.02

# Layers are the package's modules; `fraction` is the stdlib kernel under
# `scalar`.  Self time of a layer is the tottime of the functions in its file.
LAYERS = {
    "fraction": "fractions",
    "scalar": "skewrec.scalar",
    "algebra": "skewrec.algebra",
    "poly": "skewrec.poly",
    "matlin": "skewrec.matlin",
    "solver": "skewrec.solver",
    "cli": "skewrec.cli",
}
# Boundary functions: metric prefix -> (module, qualified names).  Each gives
# `<prefix>.ms` (cumtime per op) and `<prefix>.calls` (ncalls per op).
BOUNDARIES = {
    "fraction.new": ("fractions", ("Fraction.__new__",)),
    "scalar.mul": ("skewrec.scalar", ("ScalarValue.__mul__",)),
    "algebra.quat_mul": ("skewrec.algebra", ("QuatValue.__mul__",)),
    "algebra.oct_mul": ("skewrec.algebra", ("OctValue.__mul__",)),
    "algebra.inverse": ("skewrec.algebra", ("QuatValue.inverse", "OctValue.inverse")),
    "algebra.pow": ("skewrec.algebra", ("QuatValue.__pow__", "OctValue.__pow__")),
    "algebra.build_frame": ("skewrec.algebra", ("build_frame",)),
    "algebra.spherical_representative": ("skewrec.algebra", ("spherical_representative",)),
    "poly.quadratic_roots": ("skewrec.poly", ("quadratic_roots",)),
    "poly.factor_central_quartic": ("skewrec.poly", ("factor_central_quartic",)),
    "matlin.mat_inverse": ("skewrec.matlin", ("mat_inverse",)),
    "matlin.vandermonde": ("skewrec.matlin", ("vandermonde",)),
    "matlin.jordan_from_roots": ("skewrec.matlin", ("jordan_from_roots",)),
    "solver.solve": ("skewrec.solver", ("solve",)),
    "solver.verify_closed_form": ("skewrec.solver", ("verify_closed_form",)),
    "solver.eval_closed_form": ("skewrec.solver", ("eval_closed_form",)),
    "cli.parse_spec_file": ("skewrec.cli", ("parse_spec_file",)),
    "cli.render_closed_form": ("skewrec.cli", ("render_closed_form",)),
}
REJECTION_CLASSES = ("NoRootsFound", "NoRepresentative")

_INT = re.compile(r"\d+")


class SetupError(Exception):
    """Generated inputs broke a promise the benchmark relies on."""


def import_skewrec():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "skewrec" / "__init__.py").is_file():
        raise SetupError(f"no skewrec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import skewrec

    if Path(skewrec.__file__).resolve().parent != SRC / "skewrec":
        raise SetupError(f"skewrec imported from {skewrec.__file__}, not {SRC}")
    sys.path.insert(0, str(BENCH))
    return skewrec


def bits(value) -> int:
    """Largest numerator or denominator among the value's coordinates, in bits."""
    return max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for c in value.coords())


def text_bits(lines) -> int:
    """Largest integer in rendered output, in bits."""
    return max((int(m).bit_length() for line in lines for m in _INT.findall(line)),
               default=0)


def calibration_work():
    """The fixed computation: stdlib Fraction arithmetic, with a gcd per
    operation on integers of up to 200 bits, the kind of work skewrec does."""
    x = Fraction(1, 3)
    for i in range(150):
        x = (x * Fraction(7, 5) + Fraction(1, i + 2)) / Fraction(3, 2)
        if x.denominator.bit_length() > 200:
            x = Fraction(1, 3)
    return x


class Clock:
    """Wall time converted to reference seconds, see CAL_REF_S.

    `elapsed` sums all time since `reset()`, the calibrations left out;
    `pending` holds the wall latencies of ops that `settle()` has not yet
    converted.  `tick()` settles once CAL_EVERY_S of wall has passed since
    the last calibration, so that no interval is much longer than that
    unless a single op is."""

    def __init__(self):
        calibration_work()
        self.cal = self._calibrate()
        self.cals = [self.cal]
        self.pending = []
        self.elapsed = 0.0
        self.mark = time.perf_counter()

    @staticmethod
    def _calibrate():
        t0 = time.perf_counter()
        calibration_work()
        return time.perf_counter() - t0

    def settle(self):
        """Calibrate; add the time since the last calibration to `elapsed`
        and return the pending latencies in reference seconds."""
        wall = time.perf_counter() - self.mark
        cal = self._calibrate()
        factor = 2 * CAL_REF_S / (self.cal + cal)
        self.cal = cal
        self.cals.append(cal)
        self.elapsed += wall * factor
        scaled = [dt * factor for dt in self.pending]
        self.pending.clear()
        self.mark = time.perf_counter()
        return scaled

    def tick(self):
        if time.perf_counter() - self.mark >= CAL_EVERY_S:
            return self.settle()
        return []

    def reset(self):
        self.settle()
        self.elapsed = 0.0


class SolveOp:
    """`skewrec solve` without file I/O: spec text -> closed form and its
    rendered lines.  The check compares eval_closed_form with iterate_oracle
    at k = 0..n+1 and at k_far beyond the solver's own k <= 16 self-check;
    the oracle values are computed at the first check and kept."""

    def __init__(self, sk, case):
        from skewrec import cli

        self.sk, self.cli, self.case = sk, cli, case
        self.expected = {}

    def __call__(self):
        cf = self.sk.solve(self.cli.parse_spec_file(self.case.text))
        return cf, self.cli.render_closed_form(cf)

    @staticmethod
    def rendered(output):
        return output[1]

    def check(self, output):
        spec = self.case.spec
        if not self.expected:
            for k in list(range(spec.order + 2)) + [self.case.k_far]:
                self.expected[k] = self.sk.iterate_oracle(spec, k)
        cf, _lines = output
        return all(self.sk.eval_closed_form(cf, k) == v for k, v in self.expected.items())


class EvalOp:
    """eval_closed_form(cf, k), checked against a value from set-up."""

    def __init__(self, sk, cf, lines, k, value):
        self.sk, self.cf, self.lines, self.k = sk, cf, lines, k
        self.expected = {k: value}

    def __call__(self):
        return self.sk.eval_closed_form(self.cf, self.k)

    def rendered(self, _output):
        return self.lines

    def check(self, output):
        return output == self.expected[self.k]


@dataclass
class Pool:
    """The inputs of one run, ops[i] being input i.  The pool is whole
    blocks, and each block holds the workload's mix exactly."""

    ops: list
    digest: str
    warmup: list


def input_digest(cases, ks) -> str:
    """sha256 over the generated spec texts and evaluation points."""
    h = hashlib.sha256()
    for part in [c.text for c in cases] + [c.k_far for c in cases] + list(ks):
        h.update(str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def generate(workload, seed, blocks, tick=lambda: None):
    """The workload's inputs: (cases, closed forms, evaluation points); the
    last two only for long-horizon, whose set-up pre-solves its specs."""
    import workloads

    if workload == "long-horizon":
        return workloads.horizon_cases(seed, blocks, tick)
    return workloads.solve_cases(workload, seed, blocks, tick), None, []


def pool_blocks(workload, seconds):
    return max(MIN_BLOCKS[workload], round(seconds / (PASSES[workload] * BLOCK_S[workload])))


def build_pool(workload, seed, blocks, sk, tick):
    """Generate the inputs from the seed and check that each spec text
    parses back to its spec; long-horizon also gets its oracle values, one
    forward pass per spec.  tick is called between steps of the work."""
    from skewrec import cli

    cases, cfs, ks = generate(workload, seed, blocks, tick)
    for case in cases:
        if cli.parse_spec_file(case.text) != case.spec:
            raise SetupError(f"render_spec does not round-trip:\n{case.text}")
        tick()
    digest = input_digest(cases, ks)
    if workload == "long-horizon":
        oracle = [_forward_values(case.spec, set(kk), tick) for case, kk in zip(cases, ks)]
        lines = [cli.render_closed_form(cf) for cf in cfs]
        ops = [EvalOp(sk, cfs[i], lines[i], ks[i][b], oracle[i][ks[i][b]])
               for b in range(blocks) for i in range(len(cases))]
        return Pool(ops, digest, ops[:len(cases)])
    ops = [SolveOp(sk, case) for case in cases]
    firsts = {}
    for op in ops:
        firsts.setdefault(op.case.segment, op)
    return Pool(ops, digest, list(firsts.values()))


def _forward_values(spec, wanted, tick):
    """a_k for k in wanted, by one forward pass of the recurrence itself."""
    window = list(spec.init)
    out = {}
    for k in range(max(wanted) + 1):
        if k >= spec.order:
            nxt = spec.algebra.zero()
            for r, a in zip(spec.rhs, window):
                nxt = nxt + r * a
            window = window[1:] + [nxt]
        if k in wanted:
            out[k] = window[-1] if k >= spec.order else spec.init[k]
        tick()
    return out


@dataclass
class LoopStats:
    latencies: list = field(default_factory=list)  # reference seconds
    wall: list = field(default_factory=list)  # the same ops in wall seconds
    solved: int = 0
    failed: int = 0
    rejected: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    cf_bits: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_pass(ops, skewrec_error, firsts, stats, clock, prof=None):
    """One closed-loop pass over ops, input i being ops[i].  firsts maps
    each input to its first outcome; a different later one fails."""
    cf_bits = {}
    clock.settle()
    for key, op in enumerate(ops):
        err = None
        if prof is not None:
            prof.enable()
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception as exc:  # classified below, outside the timed interval
            err = exc
        dt = time.perf_counter() - t0
        if prof is not None:
            prof.disable()
        stats.wall.append(dt)
        clock.pending.append(dt)
        stats.latencies += clock.tick()

        if err is None:
            lines = op.rendered(out)
            outcome = ("solved", lines)
            try:
                ok = op.check(out)
            except Exception:  # a crash while checking is a wrong answer too
                ok = False
                stats.failures.append(traceback.format_exc())
            if ok:
                stats.solved += 1
                if key not in cf_bits:
                    cf_bits[key] = text_bits(lines)
                stats.cf_bits.append(cf_bits[key])
            else:
                outcome = ("wrong", None)
                stats.failures.append(f"input {key}: output differs from the oracle")
        elif isinstance(err, skewrec_error):
            name = type(err).__name__
            stats.rejected[name] = stats.rejected.get(name, 0) + 1
            outcome = ("rejected", name)
        else:
            outcome = ("crashed", None)
            stats.failures.append("".join(traceback.format_exception(err)))

        first = firsts.setdefault(key, outcome)
        if outcome[0] in ("wrong", "crashed") or first != outcome:
            stats.failed += 1
            if outcome[0] not in ("wrong", "crashed"):
                stats.failures.append(f"input {key}: {outcome[0]} now, {first[0]} before")
    stats.latencies += clock.settle()
    return stats


def p90(xs):
    return statistics.quantiles(xs, n=10)[8]


def end_to_end(stats, setup_s):
    """Percentiles over every op of the run, all in reference seconds."""
    return {
        "ops_per_s": stats.attempted / sum(stats.latencies),
        "latency_p50_ms": statistics.median(stats.latencies) * 1e3,
        "latency_p90_ms": p90(stats.latencies) * 1e3,
        "solved_ratio": stats.solved / stats.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def boundary_keys():
    """prefix -> the pstats keys of its functions.  A boundary that no
    longer resolves to a function is an error, never a count of 0."""
    keys = {}
    for prefix, (module, names) in BOUNDARIES.items():
        keys[prefix] = []
        for qualname in names:
            obj = importlib.import_module(module)
            for part in qualname.split("."):
                obj = getattr(obj, part, None)
            code = getattr(obj, "__code__", None)
            if code is None:
                raise SetupError(f"boundary {prefix}: {module}.{qualname} is not a function")
            keys[prefix].append((code.co_filename, code.co_firstlineno, code.co_name))
    return keys


def _label(key) -> str:
    filename, line, name = key
    return f"{Path(filename).name}:{line}({name})"


def per_layer(prof, stats, untraced_per_op, traced_ops):
    """Per-op layer numbers from the profile of the traced loop, and the
    caller map of each boundary function."""
    table = pstats.Stats(prof).stats  # (file, line, name) -> (cc, nc, tt, ct, callers)
    ops = stats.attempted
    out, callers = {}, {}
    for layer, module in LAYERS.items():
        path = importlib.import_module(module).__file__
        tt = sum(v[2] for k, v in table.items() if k[0] == path)
        out[f"{layer}.self_ms"] = tt / ops * 1e3
    for prefix, all_keys in boundary_keys().items():
        keys = [k for k in all_keys if k in table]  # a boundary not called reads 0
        out[f"{prefix}.ms"] = sum(table[k][3] for k in keys) / ops * 1e3
        out[f"{prefix}.calls"] = sum(table[k][1] for k in keys) / ops
        callers[prefix] = sorted({_label(c) for k in keys for c in table[k][4]})
    out["solver.cf_bits_mean"] = statistics.mean(stats.cf_bits) if stats.cf_bits else 0.0
    out["value_bits_max"] = max((bits(v) for op in traced_ops for v in op.expected.values()),
                                default=0)
    for cls in REJECTION_CLASSES:
        out[f"rejected.{cls}"] = stats.rejected.get(cls, 0)
    out["rejected.other"] = sum(n for c, n in stats.rejected.items()
                                if c not in REJECTION_CLASSES)
    out["trace_overhead_ratio"] = (sum(stats.latencies) / ops) / untraced_per_op
    return out, callers


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (full record, final result line)."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    clock = Clock()
    clock.reset()
    t_start = time.perf_counter()
    sk = import_skewrec()
    import_wall_s = time.perf_counter() - t_start
    clock.settle()
    import_s = clock.elapsed

    err = sk.SkewrecError
    blocks = pool_blocks(workload, seconds)
    setups, warm = [], LoopStats()

    def set_up():
        clock.reset()
        new = build_pool(workload, seed, blocks, sk, clock.tick)
        run_pass(new.warmup, err, {}, warm, clock)
        setups.append(clock.elapsed)
        return new

    pool = set_up()
    ops, firsts, stats = pool.ops, {}, LoopStats()
    if trace:
        ref = run_pass(ops, err, firsts, LoopStats(), clock)
        prof = cProfile.Profile()
        run_pass(ops, err, firsts, stats, clock, prof)
        metrics, callers = per_layer(prof, stats, sum(ref.latencies) / ref.attempted, ops)
        RESULTS.mkdir(exist_ok=True)
        prof.dump_stats(RESULTS / f"{workload}-seed{seed}.prof")
        names = spec["per_layer"]
    else:
        # A later set-up only times the set-up again; the loop keeps the
        # first pool.
        passes = PASSES[workload]
        setup_before = {passes * r // SETUPS for r in range(1, SETUPS)}
        for p in range(passes):
            if p in setup_before:
                set_up()
            run_pass(ops, err, firsts, stats, clock)
        metrics = end_to_end(stats, import_s + statistics.median(setups))
        callers = None
        names = spec["end_to_end"]

    failed = stats.failed + warm.failed
    lat, wall = stats.latencies, stats.wall
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "platform": platform.platform(), "digest": pool.digest,
        "import_s": import_s, "setup_runs_s": setups,
        "inputs": len(ops),
        "attempted": stats.attempted, "solved": stats.solved, "failed": failed,
        "failed_ratio": failed / stats.attempted,
        "rejected": dict(sorted(stats.rejected.items())),
        "samples": len(lat), "samples_beyond_p90": sum(x > p90(lat) for x in lat),
        "repeats_per_input": stats.attempted // len(ops),
        "timed_s": sum(lat),
        "calibration": {"ref_s": CAL_REF_S, "runs": len(clock.cals),
                        "median_s": statistics.median(clock.cals),
                        "min_s": min(clock.cals), "max_s": max(clock.cals)},
        "wall": {"import_s": import_wall_s, "timed_s": sum(wall),
                 "ops_per_s": len(wall) / sum(wall),
                 "latency_p50_ms": statistics.median(wall) * 1e3,
                 "latency_p90_ms": p90(wall) * 1e3},
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"],
                                "better": m["better"]} for m in names},
        "callers": callers,
        "failures": (warm.failures + stats.failures)[:5],
    }
    final = {
        "correct": failed == 0,
        "attempted": stats.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names},
    }
    return record, final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record, final = run(args.workload, args.seed, args.seconds, args.trace)
    except (SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(RESULTS / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"workload {args.workload}  seed {args.seed}  nproc {record['nproc']}  "
          f"python {record['python']}  ops {record['attempted']} over "
          f"{record['inputs']} inputs ({record['samples_beyond_p90']} beyond p90)  "
          f"digest {record['digest'][:16]}")
    cal = record["calibration"]
    print(f"  calibration {cal['median_s'] * 1e3:.3f} ms median over {cal['runs']} runs, "
          f"reference {CAL_REF_S * 1e3:.3f} ms; wall {record['wall']['timed_s']:.2f} s "
          f"timed, {record['timed_s']:.2f} reference s")
    for metric, m in record["metrics"].items():
        print(f"  {metric:36s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_ratio':36s} {record['failed_ratio']:14.6g} ratio")
    for text in record["failures"]:
        print(text, file=sys.stderr)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
