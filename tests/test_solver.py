import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewrec import (
    NoRepresentative,
    AssocForm,
    FieldContext,
    InternalError,
    LeftPoly,
    LamViolation,
    NoRootsFound,
    OctSplitForm,
    OctonionAlgebra,
    QuaternionAlgebra,
    RecurrenceSpec,
    ScalarValue,
    SkewrecError,
    Term,
    UnsupportedOrder,
    ValidationError,
    eval_closed_form,
    iterate_oracle,
    primitive_char_poly,
    promote_field_quadratic,
    solve,
    solve_diagonalizable,
    solve_jordan,
    build_frame,
    verify_closed_form,
)
from skewrec.solver import _certify
from conftest import adjoin_root, rand_oct, rand_quat, rand_quat_common_den

Q = FieldContext.rational()
H = QuaternionAlgebra(-1, -1)
I, J, K = H.e1, H.e2, H.e3
O = OctonionAlgebra(-1, -1, -1)
OI = O.element([0, 1, 0, 0, 0, 0, 0, 0])
OJ = O.element([0, 0, 1, 0, 0, 0, 0, 0])
OK = O.element([0, 0, 0, 1, 0, 0, 0, 0])
L = O.ell0

DIAG = RecurrenceSpec(H, 2, (-1 - K, I), (1, 1))
JORDAN = RecurrenceSpec(H, 2, (K, I + J), (1, 0))
FIB = RecurrenceSpec(Q, 2, (1, 1), (0, 1))


def test_primitive_char_poly():
    assert primitive_char_poly(DIAG) == LeftPoly(H, [1 + K, -I, 1])
    assert primitive_char_poly(FIB) == LeftPoly(Q, [-1, -1, 1])
    spec = RecurrenceSpec(H, 1, (J,), (1,))
    assert primitive_char_poly(spec) == LeftPoly(H, [-J, 1])


def test_spec_validation():
    with pytest.raises(ValidationError):
        RecurrenceSpec(H, 2, (H.zero(), I), (1, 1))  # rhs[0] = 0
    with pytest.raises(ValidationError):
        RecurrenceSpec(H, 2, (I,), (1, 1))  # arity
    with pytest.raises(UnsupportedOrder):
        RecurrenceSpec(O, 3, (L, L, L), (1, 1, 1))
    with pytest.raises(ValidationError):
        RecurrenceSpec(O, 2, (L, L), (1, 1), roots=((L, 1), (L, 1)))
    with pytest.raises(ValidationError):
        RecurrenceSpec(H, 2, (I, J), (1, 1), height=0)


def test_iterate_oracle():
    assert iterate_oracle(FIB, 10) == 55
    assert iterate_oracle(FIB, 0) == 0 and iterate_oracle(FIB, 1) == 1
    assert iterate_oracle(DIAG, 2) == -1 + I - K
    assert iterate_oracle(DIAG, 0) == 1


def test_promote_golden_ratio():
    promoted = promote_field_quadratic(FIB)
    ctx = promoted.algebra
    assert ctx.kind == "quadratic" and ctx.d == 5
    (r1, m1), (r2, m2) = promoted.roots
    assert (m1, m2) == (1, 1)
    assert r1 == ScalarValue(ctx, Fraction(1, 2), Fraction(1, 2))
    assert r2 == ScalarValue(ctx, Fraction(1, 2), Fraction(-1, 2))


def test_promote_rational_and_repeated():
    spec = RecurrenceSpec(Q, 2, (-2, 3), (0, 1))  # x^2 - 3x + 2
    promoted = promote_field_quadratic(spec)
    assert promoted.algebra == Q
    assert [r for r, _ in promoted.roots] == [Q.scalar(2), Q.scalar(1)]
    spec = RecurrenceSpec(Q, 2, (-1, 2), (1, 5))  # x^2 - 2x + 1
    promoted = promote_field_quadratic(spec)
    assert promoted.roots == ((Q.scalar(1), 2),)


def test_promote_negative_discriminant():
    spec = RecurrenceSpec(Q, 2, (-1, 0), (0, 1))  # x^2 + 1
    with pytest.raises(NoRootsFound):
        promote_field_quadratic(spec)


def test_promote_inside_quadratic_context():
    ctx = FieldContext.quadratic(5)
    # x^2 - x - 1 splits over Q(rt5) without further promotion
    spec = RecurrenceSpec(ctx, 2, (1, 1), (0, 1))
    promoted = promote_field_quadratic(spec)
    assert promoted.algebra == ctx
    assert promoted.roots[0][0] == ScalarValue(ctx, Fraction(1, 2), Fraction(1, 2))
    # x^2 - 3x + 1 has discriminant 5, a square in Q(rt5)
    spec = RecurrenceSpec(ctx, 2, (-1, 3), (0, 1))
    assert verify_closed_form(spec, solve(spec), 20).ok
    # x^2 - x - 7 has discriminant 29; no further extension is attempted
    with pytest.raises(NoRootsFound):
        promote_field_quadratic(RecurrenceSpec(ctx, 2, (7, 1), (0, 1)))


def test_solve_two_distinct_roots():
    cf = solve(DIAG)
    assert isinstance(cf, AssocForm)
    assert [t.base for t in cf.terms] == [J, I + J]
    assert [t.right for t in cf.terms] == [1 + I - K, K - I]
    assert verify_closed_form(DIAG, cf, 64).ok


def test_solve_repeated_root():
    cf = solve(JORDAN)
    degrees = sorted(t.degree for t in cf.terms)
    assert degrees == [0, 1]
    assert all(t.base == I for t in cf.terms)
    assert verify_closed_form(JORDAN, cf, 64).ok
    other = RecurrenceSpec(H, 2, (K, I + J), (0, 1))
    assert verify_closed_form(other, solve(other), 64).ok


def test_jordan_path_with_simple_roots_matches_diagonalizable():
    roots = [J, I + J]
    via_jordan = solve_jordan(DIAG, [(r, 1) for r in roots])
    via_diag = solve_diagonalizable(DIAG, roots)
    for k in range(17):
        assert eval_closed_form(via_jordan, k) == eval_closed_form(via_diag, k)


def test_solve_spherical():
    spec = RecurrenceSpec(H, 2, (-1, 0), (H.one(), K))
    cf = solve(spec)
    assert [t.base for t in cf.terms] == [I, -I]
    assert verify_closed_form(spec, cf, 32).ok
    # spherical class with fractional representatives: x^2 - x + 1
    spec = RecurrenceSpec(H, 2, (-1, 1), (I, J))
    cf = solve(spec)
    assert verify_closed_form(spec, cf, 32).ok
    for t in cf.terms:
        assert t.base.trace() == 1 and t.base.norm() == 1


def test_solve_field_paths():
    cf = solve(FIB)
    assert eval_closed_form(cf, 30) == 832040
    spec = RecurrenceSpec(Q, 2, (-1, 2), (1, 5))
    cf = solve(spec)
    assert verify_closed_form(spec, cf, 32).ok
    assert sorted(t.degree for t in cf.terms) == [0, 1]


def test_solve_order_one():
    spec = RecurrenceSpec(H, 1, (I,), (1 + J,))
    cf = solve(spec)
    assert len(cf.terms) == 1 and cf.terms[0].base == I
    assert verify_closed_form(spec, cf, 20).ok


def test_solve_order_three_with_user_roots():
    lams = [I, 1 + J, H.scalar(2)]
    p = LeftPoly.x_minus(lams[0])
    p = adjoin_root(p, lams[1])
    p = adjoin_root(p, lams[2])
    spec = RecurrenceSpec(H, 3, tuple(-c for c in p.coeffs[:3]), (1, I, J),
                          roots=tuple((lam, 1) for lam in lams))
    cf = solve(spec)
    assert verify_closed_form(spec, cf, 24).ok


def test_solve_field_jordan_order_three_with_user_roots():
    p = LeftPoly(Q, [-2, 5, -4, 1])  # (x-1)^2 (x-2)
    spec = RecurrenceSpec(Q, 3, tuple(-c for c in p.coeffs[:3]), (3, 1, 4),
                          roots=((1, 2), (2, 1)))
    cf = solve(spec)
    assert verify_closed_form(spec, cf, 24).ok


def test_solve_requires_roots_for_high_order():
    with pytest.raises(UnsupportedOrder):
        solve(RecurrenceSpec(Q, 3, (1, 1, 1), (0, 0, 1)))
    with pytest.raises(UnsupportedOrder):
        solve(RecurrenceSpec(H, 3, (I, J, K), (1, 0, 0)))


def test_solve_rejects_wrong_user_roots():
    with pytest.raises(ValidationError):
        solve(RecurrenceSpec(H, 2, (-1 - K, I), (1, 1), roots=((I, 1), (J, 1))))


def test_lam_violation():
    y = H.element([0, Fraction(3, 5), Fraction(4, 5), 0])
    spec = RecurrenceSpec(H, 3, (I, -1, I), (1, 0, 0),
                          roots=((I, 1), (J, 1), (y, 1)))
    with pytest.raises(LamViolation):
        solve(spec)


def test_no_roots_found():
    with pytest.raises(NoRootsFound):
        solve(RecurrenceSpec(H, 2, (I, 0), (1, 1)))


def test_octonion_two_distinct_roots():
    spec = RecurrenceSpec(O, 2, (-1 - OK, OI), (1, L))
    cf = solve(spec)
    assert isinstance(cf, OctSplitForm)
    assert len(cf.main.terms) == 2 and len(cf.tail.terms) == 2
    assert all(t.degree == 0 for t in cf.main.terms + cf.tail.terms)
    assert verify_closed_form(spec, cf, 32).ok
    for n in range(33):
        known = ((OJ ** n) * (1 - OK) + ((OI + OJ) ** n) * OK
                 + (OI * ((-OJ) ** n) - OI * ((OI - OJ) ** n)) * L)
        assert eval_closed_form(cf, n) == known


def test_octonion_repeated_root():
    spec = RecurrenceSpec(O, 2, (OK, OI + OJ), (1, L))
    cf = solve(spec)
    assert verify_closed_form(spec, cf, 32).ok
    degrees = [t.degree for t in cf.main.terms + cf.tail.terms]
    assert max(degrees) == 1 and all(d <= 1 for d in degrees)


def test_octonion_central_coefficients():
    spec = RecurrenceSpec(O, 2, (-1, 0), (1, L))
    cf = solve(spec)
    assert not cf.tail.terms
    assert verify_closed_form(spec, cf, 32).ok
    spec = RecurrenceSpec(O, 2, (-5, 2), (OI, L))  # x^2 - 2x + 5, class (2, 5)
    cf = solve(spec)
    assert verify_closed_form(spec, cf, 32).ok
    # x^2 + 3x - 2 would need trace -3 and norm -2, impossible in a definite
    # algebra, and its discriminant 17 is not a rational square either
    with pytest.raises(NoRepresentative):
        solve(RecurrenceSpec(O, 2, (2, -3), (OI, L)))


def test_closed_form_reproduces_initials():
    rng = random.Random(3)
    for _ in range(20):
        lam, mu = rand_quat(rng, H), rand_quat(rng, H)
        if lam.is_zero() or mu.is_zero():
            continue
        p = LeftPoly.x_minus(mu) * LeftPoly.x_minus(lam)
        inits = (rand_quat(rng, H), rand_quat(rng, H))
        spec = RecurrenceSpec(H, 2, (-p.coeffs[0], -p.coeffs[1]), inits)
        cf = solve(spec)
        assert eval_closed_form(cf, 0) == inits[0]
        assert eval_closed_form(cf, 1) == inits[1]


def test_verify_detects_perturbation():
    cf = solve(DIAG)
    bad_terms = (Term(cf.terms[0].poly, cf.terms[0].base, cf.terms[0].right + 1),
                 cf.terms[1])
    bad = AssocForm(cf.carrier, bad_terms)
    report = verify_closed_form(DIAG, bad, 16)
    assert not report.ok and report.first_failure is not None
    assert report.first_failure < DIAG.order
    assert verify_closed_form(DIAG, cf, 0).ok  # kmax=0 checks only a_0


def test_shift_property():
    rng = random.Random(5)
    for _ in range(15):
        lam, mu = rand_quat(rng, H), rand_quat(rng, H)
        if lam.is_zero() or mu.is_zero():
            continue
        p = LeftPoly.x_minus(mu) * LeftPoly.x_minus(lam)
        rhs = (-p.coeffs[0], -p.coeffs[1])
        inits = (rand_quat(rng, H), rand_quat(rng, H))
        spec = RecurrenceSpec(H, 2, rhs, inits)
        shifted = RecurrenceSpec(H, 2, rhs,
                                 (iterate_oracle(spec, 1), iterate_oracle(spec, 2)))
        cf, cf_shift = solve(spec), solve(shifted)
        for k in range(17):
            assert eval_closed_form(cf_shift, k) == eval_closed_form(cf, k + 1)


def test_right_superposition():
    rng = random.Random(7)
    for _ in range(15):
        lam, mu = rand_quat(rng, H), rand_quat(rng, H)
        if lam.is_zero() or mu.is_zero():
            continue
        p = LeftPoly.x_minus(mu) * LeftPoly.x_minus(lam)
        rhs = (-p.coeffs[0], -p.coeffs[1])
        a = (rand_quat(rng, H), rand_quat(rng, H))
        b = (rand_quat(rng, H), rand_quat(rng, H))
        cf_a = solve(RecurrenceSpec(H, 2, rhs, a))
        cf_b = solve(RecurrenceSpec(H, 2, rhs, b))
        spec_sum = RecurrenceSpec(H, 2, rhs, (a[0] + b[0], a[1] + b[1]))
        assert [t.base for t in cf_a.terms] == [t.base for t in cf_b.terms]
        summed = AssocForm(H, tuple(
            Term(ta.poly, ta.base, ta.right + tb.right)
            for ta, tb in zip(cf_a.terms, cf_b.terms)))
        assert verify_closed_form(spec_sum, summed, 16).ok


def test_solver_verifies_against_oracle_randomized():
    rng = random.Random(11)
    done = 0
    while done < 40:
        lam, mu = rand_quat(rng, H), rand_quat(rng, H)
        if lam.is_zero() or mu.is_zero():
            continue
        p = LeftPoly.x_minus(mu) * LeftPoly.x_minus(lam)
        if p.coeffs[0].is_zero():
            continue
        spec = RecurrenceSpec(H, 2, (-p.coeffs[0], -p.coeffs[1]),
                              (rand_quat(rng, H), rand_quat(rng, H)))
        assert verify_closed_form(spec, solve(spec), 32).ok
        done += 1


# ---------------------------------------------------------------------------
# the all-k certificate that solve runs instead of iterating


def _certifies(spec, cf):
    try:
        _certify(spec, cf)
    except InternalError:
        return False
    return True


def _corrupted(cf):
    """Every form that differs from cf in one term: right + 1, base + 1, or
    an extra power of k in the coefficient polynomial."""
    def variants(form, rebuild):
        for i, t in enumerate(form.terms):
            one = form.carrier.one()
            for bad in (Term(t.poly, t.base, t.right + 1),
                        Term(t.poly, t.base + 1, t.right),
                        Term(t.poly + (one,), t.base, t.right)):
                yield rebuild(AssocForm(form.carrier, form.terms[:i] + (bad,) + form.terms[i + 1:]))

    if isinstance(cf, AssocForm):
        yield from variants(cf, lambda f: f)
    else:
        yield from variants(cf.main, lambda f: OctSplitForm(cf.frame, f, cf.tail))
        yield from variants(cf.tail, lambda f: OctSplitForm(cf.frame, cf.main, f))


def _planted_rhs(lams):
    """rhs of a recurrence whose characteristic polynomial has every lam as
    a root."""
    p = LeftPoly.x_minus(lams[0])
    for lam in lams[1:]:
        p = adjoin_root(p, lam)
    return tuple(-c for c in p.coeffs[:len(lams)])


def _certificate_specs():
    rng = random.Random(17)
    H3 = QuaternionAlgebra(-1, -3)
    specs = []
    for alg in (H, H3):
        for i in range(12):  # distinct roots and, via conjugate roots, Jordan
            while True:
                lam, g = rand_quat(rng, alg, 4, 2), rand_quat(rng, alg, 4, 2)
                if g.is_zero():
                    continue
                mu = rand_quat(rng, alg, 4, 2) if i % 2 else (g * lam) * g.inverse()
                if not (lam.is_central() or mu.is_zero() or mu in (lam, lam.conj())):
                    break
            p = LeftPoly.x_minus(mu) * LeftPoly.x_minus(lam)
            specs.append(RecurrenceSpec(alg, 2, (-p.coeffs[0], -p.coeffs[1]),
                                        (rand_quat(rng, alg), rand_quat(rng, alg))))
        x = rand_quat_common_den(rng, alg)
        if not x.is_central():  # spherical: central coefficients
            specs.append(RecurrenceSpec(alg, 2, (-x.norm(), x.trace()),
                                        (rand_quat(rng, alg), rand_quat(rng, alg))))
        roots = [rand_quat(rng, alg, 4, 2) for _ in range(3)]
        specs.append(RecurrenceSpec(alg, 3, _planted_rhs(roots),
                                    tuple(rand_quat(rng, alg) for _ in range(3)),
                                    roots=tuple((r, 1) for r in roots)))
    for c0, c1 in ((2, -3), (1, -2), (-1, -1), (-3, 1), (Fraction(1, 4), -1)):
        specs.append(RecurrenceSpec(Q, 2, (-c0, -c1), (rng.randint(-5, 5), rng.randint(1, 5))))
    specs.append(RecurrenceSpec(Q, 3, (2, -5, 4), (3, 1, 4), roots=((1, 2), (2, 1))))
    specs.append(RecurrenceSpec(FieldContext.quadratic(5), 2, (1, 1), (0, 1)))
    specs += [DIAG, JORDAN, RecurrenceSpec(O, 2, (-1 - OK, OI), (1, L)),
              RecurrenceSpec(O, 2, (OK, OI + OJ), (1, L)),
              RecurrenceSpec(O, 2, (-5, 2), (OI, L))]
    O2 = OctonionAlgebra(-1, -1, -2)
    fr = build_frame(O2, rand_oct(rng, O2), rand_oct(rng, O2))
    lam, mu = rand_quat(rng, fr.quat, 3, 1), rand_quat(rng, fr.quat, 3, 1)
    p = LeftPoly.x_minus(mu) * LeftPoly.x_minus(lam)
    specs.append(RecurrenceSpec(O2, 2, tuple(fr.embed(-c) for c in p.coeffs[:2]),
                                (rand_oct(rng, O2), rand_oct(rng, O2))))
    return specs


def test_certificate_rejects_what_iteration_rejects():
    mutants = 0
    for spec in _certificate_specs():
        cf = solve(spec)
        assert _certifies(spec, cf) and verify_closed_form(spec, cf, 16).ok
        for bad in _corrupted(cf):
            assert _certifies(spec, bad) == verify_closed_form(spec, bad, 16).ok
            mutants += 1
    assert mutants >= 250


def test_certificate_names_what_fails():
    cf = solve(JORDAN)
    t = cf.terms[1]
    bad = AssocForm(H, (cf.terms[0], Term(t.poly + (H.one(),), t.base, t.right)))
    with pytest.raises(InternalError, match="term 1 leaves the residual"):
        _certify(JORDAN, bad)
    # each term still solves the recurrence, but their sum misses a_0
    shifted = RecurrenceSpec(H, 2, DIAG.rhs, (2, 1))
    with pytest.raises(InternalError, match="a_0"):
        _certify(shifted, solve(DIAG))


def test_certificate_checks_every_point_up_to_the_degree():
    # a_{k+1} = 2 a_k; the term (1 - k + k^2) * 2^k has a_0 right and the
    # residual Q(k) = -4k, which vanishes at k = 0 but not at k = 1
    spec = RecurrenceSpec(Q, 1, (2,), (1,))
    one = Q.one()
    bad = AssocForm(Q, (Term((one, -one, one), Q.scalar(2), one),))
    assert not verify_closed_form(spec, bad, 16).ok
    with pytest.raises(InternalError, match="term 0 leaves the residual -4 at k=1"):
        _certify(spec, bad)


def test_certificate_checks_the_frame():
    spec = RecurrenceSpec(O, 2, (-1 - OK, OI), (1, L))
    cf = solve(spec)
    other = build_frame(O, L, OJ)  # span(1, j, l, j*l) holds neither OI nor OK
    with pytest.raises(InternalError, match="not in the frame"):
        _certify(spec, OctSplitForm(other, cf.main, cf.tail))
    # a frame whose ell lies inside its own quaternion part splits nothing
    broken = build_frame(O, -1 - OK, OI)
    object.__setattr__(broken, "ell", broken.w)
    with pytest.raises(InternalError, match="does not split the algebra"):
        _certify(spec, OctSplitForm(broken, cf.main, cf.tail))


SOLVE_ALGEBRAS = [Q, FieldContext.quadratic(2), H,
                  QuaternionAlgebra(Fraction(-1, 2), Fraction(3, 5)), O]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_solve_raises_only_skewrec_errors_and_returns_checked_forms(data):
    fracs = st.fractions(min_value=-4, max_value=4, max_denominator=2)

    def element(carrier):
        if isinstance(carrier, FieldContext):
            return ScalarValue(carrier, *data.draw(
                st.lists(fracs, min_size=carrier.dim, max_size=carrier.dim)))
        n = 8 if isinstance(carrier, OctonionAlgebra) else 4
        return carrier.element(data.draw(st.lists(fracs, min_size=n, max_size=n)))

    alg = data.draw(st.sampled_from(SOLVE_ALGEBRAS))
    octonion = isinstance(alg, OctonionAlgebra)
    how = data.draw(st.sampled_from(["random", "planted", "roots given"]))
    order = 2 if octonion else data.draw(st.integers(1, 3 if how == "roots given" else 2))
    init = tuple(element(alg) for _ in range(order))
    roots = None
    try:
        if how == "random":
            rhs = tuple(element(alg) for _ in range(order))
        else:  # roots first; octonion roots come from the standard quaternion part
            lams = [element(alg.base if octonion else alg) for _ in range(order)]
            rhs = _planted_rhs(lams)
            if how == "roots given" and not octonion:
                roots = tuple((lam, 1) for lam in lams)
        spec = RecurrenceSpec(alg, order, rhs, init, roots=roots, height=6)
        cf = solve(spec)
    except SkewrecError:
        return
    assert verify_closed_form(spec, cf, 64).ok
