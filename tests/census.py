"""Coverage census: what `solve` does on every spec of small grids.

    python3 tests/census.py                      # print the table
    python3 tests/census.py | diff - tests/census.txt

For each carrier and grid it counts the outcome of `solve` on every spec
of the grid: the kind of the closed form it returns, or the class of the
`SkewrecError` it raises.  Any other exception escapes.  The grids are
order 2 over Q, three quaternion algebras and three octonion algebras,
order 3 over Q and (-1,-1 | Q), and one seeded draw of 1000 specs per
octonion algebra, with all eight coordinates of each r_j in {-1,0,1}.
Specs with r_0 = 0 are rejected by `RecurrenceSpec` and not counted.
Every solved form of order n is checked against `iterate_oracle` at
k = 0..2n+2 and at k = 40, and a mismatch stops the census with an
AssertionError.

The grids, their init values, the draw's seed and generator, and the table
`tests/census.txt` are fixed: a change that moves an outcome updates the
table and states the diff.  Never re-draw or shrink a grid to hide an
outcome.
"""

from __future__ import annotations

import os
import random
import sys
from collections import Counter
from itertools import product

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from skewrec import (  # noqa: E402
    FieldContext,
    OctonionAlgebra,
    QuaternionAlgebra,
    RecurrenceSpec,
    SkewrecError,
    iterate_oracle,
    solve,
)

QUATERNION_INIT = ([1, 2, 0, 1], [0, 1, -1, 2])
OCTONION_INIT = ([1, 2, 0, 1, 0, 0, 0, 0], [0, 1, -1, 2, 1, 0, 0, 0])
OCTONIONS = ((-1, -1, -1), (1, 1, 1), (2, 3, -1))
DRAW_SEED, DRAW_SPECS = 51, 1000


def drawn_rhs(carrier) -> list:
    """The seeded draw: DRAW_SPECS order-2 rhs tuples, each coordinate of
    r_0, then r_1, from rng.choice((-1, 0, 1)), rng = random.Random(DRAW_SEED)."""
    rng = random.Random(DRAW_SEED)
    return [tuple(carrier.element([rng.choice((-1, 0, 1)) for _ in range(carrier.dim)])
                  for _ in range(2))
            for _ in range(DRAW_SPECS)]


def grids():
    """(title, carrier, rhs tuples, init) for each grid: each rhs tuple is
    one spec of order len(init), unless its r_0 is 0."""
    yield "Q, each r_j in -3..3, init (1, 2)", FieldContext(), product(range(-3, 4), repeat=2), (1, 2)
    for a, b in ((-1, -1), (-1, -3), (1, 1)):
        alg = QuaternionAlgebra(a, b)
        values = [alg.element(c) for c in product((-1, 0, 1), repeat=4)]
        init = tuple(alg.element(c) for c in QUATERNION_INIT)
        title = (f"({a},{b} | Q), each coordinate of each r_j in {{-1,0,1}}, "
                 "init ([1,2,0,1], [0,1,-1,2])")
        yield title, alg, product(values, repeat=2), init
    octonions = [OctonionAlgebra(*abg) for abg in OCTONIONS]
    for alg in octonions:  # l, the doubling unit, is coordinate 4
        values = [alg.element([w, x, y, 0, z, 0, 0, 0]) for w, x, y, z in product((-1, 0, 1), repeat=4)]
        init = tuple(alg.element(c) for c in OCTONION_INIT)
        title = (f"{alg}, each coordinate of each r_j on (1, e1, e2, l) in {{-1,0,1}}, "
                 "init ([1,2,0,1,0,0,0,0], [0,1,-1,2,1,0,0,0])")
        yield title, alg, product(values, repeat=2), init
    for alg in octonions:
        init = tuple(alg.element(c) for c in OCTONION_INIT)
        title = (f"{alg}, {DRAW_SPECS} drawn with random.Random({DRAW_SEED}), each of the eight "
                 "coordinates of each r_j in {-1,0,1}, init ([1,2,0,1,0,0,0,0], [0,1,-1,2,1,0,0,0])")
        yield title, alg, drawn_rhs(alg), init
    yield ("Q, order 3, each r_j in -2..2, init (1, 2, 0)", FieldContext(),
           product(range(-2, 3), repeat=3), (1, 2, 0))
    alg = QuaternionAlgebra(-1, -1)
    values = [alg.element([w, x, 0, 0]) for w, x in product((-1, 0, 1), repeat=2)]
    init = (alg.element([1, 2, 0, 1]), alg.element([0, 1, -1, 2]), alg.one())
    yield ("(-1,-1 | Q), order 3, each coordinate of each r_j on (1, i) in {-1,0,1}, "
           "init ([1,2,0,1], [0,1,-1,2], [1,0,0,0])", alg, product(values, repeat=3), init)


def census(carrier, rhs_tuples, init) -> Counter:
    """The count of each outcome of solve over the grid."""
    counts = Counter()
    order = len(init)
    checked_k = (*range(2 * order + 3), 40)
    for rhs in rhs_tuples:
        if not carrier.coerce(rhs[0]).is_zero():
            spec = RecurrenceSpec(carrier, order, rhs, init)
            try:
                cf = solve(spec)
            except SkewrecError as exc:
                counts[type(exc).__name__] += 1
                continue
            for k in checked_k:
                assert cf.value(k) == iterate_oracle(spec, k), (spec, k)
            counts[type(cf).__name__] += 1
    return counts


def block(title: str, counts: Counter) -> list[str]:
    """The table's lines for one grid."""
    return [f"{title}: {sum(counts.values())} specs",
            *[f"{n:7} {outcome}" for outcome, n in sorted(counts.items())]]


def main() -> int:
    for title, carrier, rhs_tuples, init in grids():
        print("\n".join(block(title, census(carrier, rhs_tuples, init))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
