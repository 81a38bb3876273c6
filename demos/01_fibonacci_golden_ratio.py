"""Fibonacci and the golden ratio, computed exactly.

The recurrence a_{k+2} = a_k + a_{k+1} has rational data, but its closed
form lives in Q(sqrt(5)).  The solver notices this, extends the field, and
hands back the two geometric terms with bases (1 +- sqrt5)/2 and right
coefficients +-1/sqrt5.  Everything below is exact rational arithmetic;
no floats appear at any point.

Run:  python demos/01_fibonacci_golden_ratio.py
"""

from skewrec import (
    FieldContext,
    RecurrenceSpec,
    iterate_oracle,
    solve,
    verify_closed_form,
)
from skewrec.cli import render_closed_form

spec = RecurrenceSpec(FieldContext(), 2, (1, 1), (0, 1))

print("recurrence: a_{k+2} = a_k + a_{k+1},  a_0 = 0, a_1 = 1")
cf = solve(spec)
print("solved over:", cf.carrier)
for line in render_closed_form(cf):
    print(line)

print("\nfirst terms from the closed form:",
      [str(cf.value(n)) for n in range(12)])
print("a_30 =", cf.value(30), " (iteration agrees:",
      str(iterate_oracle(spec, 30)) + ")")

report = verify_closed_form(spec, cf, 64)
print("\nexact check against iteration for k = 0..64:",
      "PASS" if report.ok else f"FAIL at k={report.first_failure}")

# the two bases multiply to -1 and sum to 1, as they must
phi, psi = (t.base for t in cf.terms)
print("base sum:", phi + psi, "  base product:", phi * psi)
