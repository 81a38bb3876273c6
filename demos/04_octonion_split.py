"""Order-2 recurrences over an octonion algebra.

Octonions are not associative, so companion-matrix machinery cannot be
applied directly.  But any two octonions generate an associative
quaternion subalgebra Q', and the whole algebra splits as Q' + Q'l for a
trace-zero unit l orthogonal to Q'.  Writing the initial values as
q + s*l, the state recursion splits into a Q'-recurrence for the main
part and a second one, with conjugated coefficients, for the tail:

    a_k = main(k) + conj(tail(k)) * l.

Both demos below check the emitted form against plain iteration; the
second one needs the repeated-root treatment on both halves, so every
coefficient polynomial in k stays of degree <= 1.

Run:  python demos/04_octonion_split.py
"""

from skewrec import (
    OctonionAlgebra,
    RecurrenceSpec,
    build_frame,
    eval_closed_form,
    solve,
    verify_closed_form,
)
from skewrec.cli import render_closed_form

O = OctonionAlgebra(-1, -1, -1)
i = O.element([0, 1, 0, 0, 0, 0, 0, 0])
j = O.element([0, 0, 1, 0, 0, 0, 0, 0])
k = O.element([0, 0, 0, 1, 0, 0, 0, 0])
l = O.ell0

print("l^2 =", l * l, "   l*e1 =", l * i, "   e1*l =", i * l)
assoc = (i * j) * l - i * (j * l)
print("associator ((e1e2)l) - (e1(e2l)) =", assoc, " (nonzero!)")

frame = build_frame(O, -1 - k, i)
print("\nframe for coefficients (-1-e1e2, e1):")
print("  u =", frame.u, " w =", frame.w, " l' =", frame.ell)
print("  u^2 =", frame.quat.a, " w^2 =", frame.quat.b,
      " l'^2 =", -frame.ell.norm())

spec = RecurrenceSpec(O, 2, (-1 - k, i), (1, l))
cf = solve(spec)
print("\na_{k+2} = (-1 - e1e2) a_k + e1 a_{k+1},  a_0 = 1, a_1 = l:")
for line in render_closed_form(cf):
    print(line)
print("a_0..a_4:", [str(eval_closed_form(cf, n)) for n in range(5)])
rep = verify_closed_form(spec, cf, 32)
print("exact check k = 0..32:",
      "PASS" if rep.ok else f"FAIL at k={rep.first_failure}")

spec2 = RecurrenceSpec(O, 2, (k, i + j), (1, l))
cf2 = solve(spec2)
print("\na_{k+2} = e1e2 a_k + (e1+e2) a_{k+1},  a_0 = 1, a_1 = l:")
for line in render_closed_form(cf2):
    print(line)
degrees = [t.degree for t in cf2.main.terms + cf2.tail.terms]
print("coefficient-polynomial degrees:", degrees, " (all <= 1)")
rep = verify_closed_form(spec2, cf2, 32)
print("exact check k = 0..32:",
      "PASS" if rep.ok else f"FAIL at k={rep.first_failure}")
