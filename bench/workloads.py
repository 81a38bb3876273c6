"""Seeded input generators for the three benchmark workloads.

Every generator draws from the `random.Random` it is given and from nothing
else, so one seed always yields the same specs, spec texts and evaluation
points.  Specs are planted: roots are chosen first and the recurrence is
built from them, which is what steers each spec onto a given solver path.
The unplanted segments are kept on purpose, because the share of specs the
solver declines is itself a measured quantity.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from skewrec import (
    FieldContext,
    LeftPoly,
    OctonionAlgebra,
    QuaternionAlgebra,
    RecurrenceSpec,
    SkewrecError,
    conj_class,
    solve,
)
from skewrec.cli import render_spec

QUAT_ALGEBRAS = (QuaternionAlgebra(-1, -1), QuaternionAlgebra(-1, -3))
OCT_ALGEBRAS = (OctonionAlgebra(-1, -1, -1), OctonionAlgebra(-1, -1, -2))
Q = FieldContext.rational()

# Segment patterns, one block each.  A pool is whole blocks in this order,
# so every prefix of a pass over the pool holds the mix to within one block.
QUAT_BLOCK = (
    "distinct", "jordan", "distinct", "spherical", "distinct", "field",
    "distinct", "jordan", "distinct", "spherical", "distinct", "order3",
    "distinct", "jordan", "distinct", "spherical", "distinct", "field",
    "distinct", "random",
)
OCT_BLOCK = (
    "split", "split", "central", "split", "split", "conjprod",
    "split", "split", "central", "split",
)
FIELD_KINDS = ("rational", "repeated", "promoted")

# Evaluation horizon of the long-horizon workload, k log-uniform in
# [K_MIN, K_MAX]; cf. the self-check horizon k = 16 inside `solve`.
K_MIN, K_MAX = 64, 1024
# Many quaternion specs, so that no single spec's growth rate sets a
# percentile, and one octonion spec of each kind: every octonion-split
# evaluation costs more than any other, so with a share of 10% of the ops
# they would put p90 right at the gap between the two groups.
LONG_SPECS = ("field", "distinct", "jordan", "spherical") * 6 + ("oct-split", "oct-central")


@dataclass(frozen=True)
class Case:
    """One generated spec: its segment name, the spec, its canonical text,
    and the extra evaluation point beyond the self-check horizon."""

    segment: str
    spec: RecurrenceSpec
    text: str
    k_far: int


def rand_frac(rng, num, den):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_quat(rng, alg, num=6, den=2):
    return alg.element([rand_frac(rng, num, den) for _ in range(4)])


def rand_quat_common_den(rng, alg, num=6, maxden=2):
    den = rng.randint(1, maxden)
    return alg.element([Fraction(rng.randint(-num, num), den) for _ in range(4)])


def rand_oct(rng, alg, num=4, den=2):
    return alg.element([rand_frac(rng, num, den) for _ in range(8)])


def _nonzero(draw):
    while True:
        x = draw()
        if not x.is_zero():
            return x


def _spec_from_poly(alg, p, init, **kw):
    """x^n + c_{n-1} x^{n-1} + ... + c_0 becomes rhs_j = -c_j."""
    n = p.degree
    return RecurrenceSpec(alg, n, tuple(-c for c in p.coeffs[:n]), tuple(init), **kw)


def _adjoin_root(p, lam):
    """(x - mu) * p with mu chosen so that lam is a root and every root of
    p stays one: f(lam) = p(lam)*lam - mu*p(lam)."""
    v = p.eval(lam)
    if v.is_zero():
        return LeftPoly.x_minus(lam) * p
    mu = (v * lam) * v.inverse()
    return LeftPoly.x_minus(mu) * p


def distinct_pair(rng, alg):
    """Roots lam, mu in different conjugacy classes: the Vandermonde path."""
    while True:
        lam, mu = rand_quat(rng, alg), rand_quat(rng, alg)
        if lam.is_zero() or mu.is_zero() or conj_class(lam) == conj_class(mu):
            continue
        p = LeftPoly.x_minus(mu) * LeftPoly.x_minus(lam)
        if not p.coeffs[0].is_zero():
            return p


def conjugate_pair(rng, alg):
    """mu = g lam g^-1: one class holding both roots, the Jordan path."""
    while True:
        lam = rand_quat(rng, alg)
        if lam.is_central() or lam.norm().is_zero():
            continue
        g = _nonzero(lambda: rand_quat(rng, alg, 4, 2))
        mu = (g * lam) * g.inverse()
        if mu != lam and mu != lam.conj():
            return LeftPoly.x_minus(mu) * LeftPoly.x_minus(lam)


def conj_product(rng, alg):
    """(x - conj(lam))(x - lam) is central: the spherical path."""
    while True:
        lam = rand_quat_common_den(rng, alg)
        if not lam.is_central() and not lam.norm().is_zero():
            return LeftPoly.x_minus(lam.conj()) * LeftPoly.x_minus(lam)


def field_poly(rng, kind):
    """Monic quadratic over Q with rational, repeated or irrational real roots."""
    if kind == "rational":
        while True:
            r1, r2 = rand_frac(rng, 6, 3), rand_frac(rng, 6, 3)
            if r1 != r2 and r1 * r2 != 0:
                return [r1 * r2, -(r1 + r2)]
    if kind == "repeated":
        r = Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 3))
        return [r * r, -2 * r]
    while True:
        c1, c0 = Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-6, 6))
        disc = c1 * c1 - 4 * c0
        if c0 != 0 and disc > 0 and math.isqrt(int(disc)) ** 2 != disc:
            return [c0, c1]


def _field_spec(rng, kind):
    c0, c1 = field_poly(rng, kind)
    init = (rand_frac(rng, 9, 3), rand_frac(rng, 9, 3))
    return RecurrenceSpec(Q, 2, (-c0, -c1), init)


def _quat_init(rng, alg, n=2):
    return [rand_quat(rng, alg) for _ in range(n)]


def quat_spec(rng, segment, nth=0):
    """One spec of the quat-solve mix; nth counts earlier specs of the
    same segment and cycles the field segment through FIELD_KINDS."""
    if segment == "field":
        return _field_spec(rng, FIELD_KINDS[nth % len(FIELD_KINDS)])
    alg = rng.choice(QUAT_ALGEBRAS)
    if segment == "distinct":
        return _spec_from_poly(alg, distinct_pair(rng, alg), _quat_init(rng, alg))
    if segment == "jordan":
        return _spec_from_poly(alg, conjugate_pair(rng, alg), _quat_init(rng, alg))
    if segment == "spherical":
        return _spec_from_poly(alg, conj_product(rng, alg), _quat_init(rng, alg))
    if segment == "order3":
        while True:
            roots = [_nonzero(lambda: rand_quat(rng, alg, 4, 2)) for _ in range(3)]
            if len({conj_class(r) for r in roots}) == 3:
                break
        p = LeftPoly.x_minus(roots[0])
        for r in roots[1:]:
            p = _adjoin_root(p, r)
        return _spec_from_poly(alg, p, _quat_init(rng, alg, 3),
                               roots=tuple((r, 1) for r in roots))
    if segment == "random":
        rhs = (_nonzero(lambda: rand_quat(rng, alg, 4, 2)), rand_quat(rng, alg, 4, 2))
        return RecurrenceSpec(alg, 2, rhs, tuple(_quat_init(rng, alg)))
    raise ValueError(f"unknown quat-solve segment {segment!r}")


def oct_spec(rng, segment, nth=0):
    """One spec of the oct-solve mix; nth counts earlier specs of the same
    segment and cycles central coefficients through FIELD_KINDS."""
    alg = rng.choice(OCT_ALGEBRAS)
    init = (rand_oct(rng, alg), rand_oct(rng, alg))
    if segment == "split":
        p = distinct_pair(rng, alg.base)
    elif segment == "conjprod":
        p = conj_product(rng, alg.base)
    elif segment == "central":
        c0, c1 = field_poly(rng, FIELD_KINDS[nth % len(FIELD_KINDS)])
        p = LeftPoly(alg.base, [alg.base.scalar(c0), alg.base.scalar(c1), alg.base.one()])
    else:
        raise ValueError(f"unknown oct-solve segment {segment!r}")
    rhs = tuple(alg.embed(-c) for c in p.coeffs[:2])
    return RecurrenceSpec(alg, 2, rhs, init)


def long_spec(rng, segment):
    """One spec per solver path for the long-horizon workload."""
    if segment == "field":
        return _field_spec(rng, "promoted")
    if segment in ("distinct", "jordan", "spherical"):
        return quat_spec(rng, segment)
    alg = rng.choice(OCT_ALGEBRAS)
    init = (rand_oct(rng, alg), rand_oct(rng, alg))
    if segment == "oct-split":
        rhs = tuple(alg.embed(-c) for c in distinct_pair(rng, alg.base).coeffs[:2])
    elif segment == "oct-central":
        # rational roots, so the sub-solve inside the frame needs no search
        c0, c1 = field_poly(rng, "rational")
        rhs = (alg.scalar(-c0), alg.scalar(-c1))
    else:
        raise ValueError(f"unknown long-horizon segment {segment!r}")
    return RecurrenceSpec(alg, 2, rhs, init)


def log_uniform_ks(rng, count):
    """count evaluation points, one per stratum of log k over [K_MIN, K_MAX],
    in random order."""
    lo, hi = math.log(K_MIN), math.log(K_MAX)
    ks = [round(math.exp(lo + (hi - lo) * (i + rng.random()) / count))
          for i in range(count)]
    rng.shuffle(ks)
    return ks


def solve_cases(workload, seed, blocks, tick=lambda: None):
    """blocks repetitions of the workload's segment block, as Cases; tick
    is called after each case, so that a caller can time the work in steps."""
    rng = random.Random(f"{workload}:{seed}")
    block, make = {"quat-solve": (QUAT_BLOCK, quat_spec),
                   "oct-solve": (OCT_BLOCK, oct_spec)}[workload]
    seen = Counter()
    cases = []
    for _ in range(blocks):
        for segment in block:
            spec = make(rng, segment, seen[segment])
            seen[segment] += 1
            cases.append(Case(segment, spec, render_spec(spec), rng.randint(17, 32)))
            tick()
    return cases


def horizon_cases(seed, blocks, tick=lambda: None):
    """One solved Case per entry of LONG_SPECS, each with `blocks` evaluation
    points.  A spec the solver declines is drawn again, so every path stays
    covered; returns (cases, closed forms, evaluation points).  tick is
    called after each attempt to solve."""
    rng = random.Random(f"long-horizon:{seed}")
    cases, cfs, ks = [], [], []
    for segment in LONG_SPECS:
        for _attempt in range(20):
            spec = long_spec(rng, segment)
            try:
                cf = solve(spec)
            except SkewrecError:
                continue
            finally:
                tick()
            break
        else:
            raise RuntimeError(f"no solvable {segment} spec in 20 draws")
        cases.append(Case(segment, spec, render_spec(spec), 0))
        cfs.append(cf)
        ks.append(log_uniform_ks(rng, blocks))
    return cases, cfs, ks
