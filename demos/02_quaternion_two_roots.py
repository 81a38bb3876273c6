"""An order-2 recurrence over Hamilton-style quaternions with two roots.

Over a noncommutative algebra the characteristic polynomial
x^2 - e1 x + (1 + e1e2) keeps its coefficients on the left and x central.
Root finding goes through the central companion quartic
C_p = p * conj(p) = (x^2+1)(x^2+2): each irreducible factor names a
conjugacy class (trace, norm), and the class pins down at most one root.
Here both classes deliver, the Vandermonde matrix of the two roots is
invertible, and superposition works with the constants on the RIGHT:

    a_k = lambda^k b_1 + mu^k b_2.

Run:  python demos/02_quaternion_two_roots.py
"""

from skewrec import (
    QuaternionAlgebra,
    RecurrenceSpec,
    companion_poly,
    conj_class,
    factor_central_quartic,
    mat_inverse,
    primitive_char_poly,
    quadratic_roots,
    solve,
    vandermonde,
    verify_closed_form,
)
from skewrec.cli import render_closed_form

H = QuaternionAlgebra(-1, -1)
i, j, k = H.e1, H.e2, H.e3

spec = RecurrenceSpec(H, 2, (-1 - k, i), (1, 1))
p = primitive_char_poly(spec)
print("characteristic polynomial:", p)
print("companion quartic:", companion_poly(p))
print("its factors:", [(str(f), m) for f, m in
                        factor_central_quartic(companion_poly(p))])

roots = [lam for lam, _ in quadratic_roots(p)]
print("\nroots with their classes:")
for root in roots:
    print("  ", root, " in ", conj_class(root))

v = vandermonde(roots)
print("\nVandermonde of the roots:", v)
print("its exact inverse:       ", mat_inverse(v))

cf = solve(spec)
for line in render_closed_form(cf):
    print("\n" + line)

rep = verify_closed_form(spec, cf, 64)
print("\nexact check against iteration for k = 0..64:",
      "PASS" if rep.ok else f"FAIL at k={rep.first_failure}")
