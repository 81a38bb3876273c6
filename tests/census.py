"""Coverage census: what `solve` does on every order-2 spec of small grids.

    python3 tests/census.py                      # print the table
    python3 tests/census.py | diff - tests/census.txt

For each carrier and grid it counts the outcome of `solve` on every spec
of the grid: the kind of the closed form it returns, or the class of the
`SkewrecError` it raises.  Any other exception escapes.  Specs with
r_0 = 0 are rejected by `RecurrenceSpec` and not counted.  Every solved
form is checked against `iterate_oracle` at k = 0..6 and at k = 40, and a
mismatch stops the census with an AssertionError.

The grids, their init values and the table `tests/census.txt` are fixed:
a change that moves an outcome updates the table and states the diff.
Never re-draw or shrink a grid to hide an outcome.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from itertools import product

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from skewrec import (  # noqa: E402
    FieldContext,
    QuaternionAlgebra,
    RecurrenceSpec,
    SkewrecError,
    iterate_oracle,
    solve,
)

CHECKED_K = (*range(7), 40)
QUATERNION_INIT = ([1, 2, 0, 1], [0, 1, -1, 2])


def grids():
    """(title, carrier, rhs values, init) for each grid: every r_0, r_1 of
    the values is one spec."""
    yield "Q, each r_j in -3..3, init (1, 2)", FieldContext(), range(-3, 4), (1, 2)
    for a, b in ((-1, -1), (-1, -3), (1, 1)):
        alg = QuaternionAlgebra(a, b)
        values = [alg.element(c) for c in product((-1, 0, 1), repeat=4)]
        init = tuple(alg.element(c) for c in QUATERNION_INIT)
        title = (f"({a},{b} | Q), each coordinate of each r_j in {{-1,0,1}}, "
                 "init ([1,2,0,1], [0,1,-1,2])")
        yield title, alg, values, init


def census(carrier, values, init) -> Counter:
    """The count of each outcome of solve over the grid."""
    counts = Counter()
    for r0, r1 in product(values, repeat=2):
        if not carrier.coerce(r0).is_zero():
            spec = RecurrenceSpec(carrier, 2, (r0, r1), init)
            try:
                cf = solve(spec)
            except SkewrecError as exc:
                counts[type(exc).__name__] += 1
                continue
            for k in CHECKED_K:
                assert cf.value(k) == iterate_oracle(spec, k), (spec, k)
            counts[type(cf).__name__] += 1
    return counts


def block(title: str, counts: Counter) -> list[str]:
    """The table's lines for one grid."""
    return [f"{title}: {sum(counts.values())} specs",
            *[f"{n:7} {outcome}" for outcome, n in sorted(counts.items())]]


def main() -> int:
    for title, carrier, values, init in grids():
        print("\n".join(block(title, census(carrier, values, init))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
