"""A quaternion recurrence whose characteristic polynomial has one root.

x^2 - (e1+e2)x - e1e2 factors as (x - e2)(x - e1), yet e2 is NOT a root:
left polynomials only guarantee the rightmost factor's root.  The lone
root e1 forces a Jordan treatment.  An exact generalized eigenvector w
solving A w - w e1 = v extends the eigenvector chain, the companion matrix
becomes U J U^-1 with J = [[e1, 1], [0, e1]], and the closed form picks up
a degree-one polynomial in k:

    a_k = e1^k b_1 + (p_0 + p_1 k) e1^k b_2.

Run:  python demos/03_quaternion_repeated_root.py
"""

from skewrec import (
    QuaternionAlgebra,
    RecurrenceSpec,
    companion_matrix,
    divide_by_linear,
    jordan_from_roots,
    jordan_matrix,
    primitive_char_poly,
    quadratic_roots,
    solve,
    verify_closed_form,
)
from skewrec.cli import render_closed_form

H = QuaternionAlgebra(-1, -1)
i, j, k = H.e1, H.e2, H.e3

spec = RecurrenceSpec(H, 2, (k, i + j), (1, 0))
p = primitive_char_poly(spec)
print("characteristic polynomial:", p)
g, r = divide_by_linear(p, i)
print("dividing by (x - e1):  quotient", g, " remainder", r)
print("evaluating at e2 instead:", p.eval(j), " (so e2 is not a root)")

roots, jordan, _ = quadratic_roots(p)
print("root report: isolated =", [str(x) for x in roots], " jordan =", jordan)

a = companion_matrix(p)
jd = jordan_from_roots(a, [jordan])
print("\nJordan matrix:", jordan_matrix(jd.blocks))
print("transition U:  ", jd.U)
print("U J U^-1 == A: ", (jd.U * jordan_matrix(jd.blocks)) * jd.Uinv == a)

for inits in ((1, 0), (0, 1)):
    s = RecurrenceSpec(H, 2, (k, i + j), inits)
    cf = solve(s)
    print(f"\ninitial values {inits}:")
    for line in render_closed_form(cf):
        print(line)
    rep = verify_closed_form(s, cf, 64)
    print("exact check k = 0..64:",
          "PASS" if rep.ok else f"FAIL at k={rep.first_failure}")
