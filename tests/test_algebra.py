import random
import re
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from skewrec import (
    ConjClass,
    ContextMismatch,
    DegenerateFrame,
    DivisionByZero,
    NoRepresentative,
    OctonionAlgebra,
    QuaternionAlgebra,
    ZeroDivisor,
    build_frame,
    conj_class,
    polar_form,
    same_class,
    spherical_representative,
)
from conftest import rand_frac, rand_invertible_quat, rand_oct, rand_quat

H = QuaternionAlgebra(-1, -1)
I, J, K = H.e1, H.e2, H.e3
O = OctonionAlgebra(-1, -1, -1)
L = O.ell0


def test_multiplication_table():
    assert I * J == K
    assert J * I == -K
    assert I * I == -1 and J * J == -1 and K * K == -1
    assert (I + J) * (I + J) == -2


def test_general_structure_constants():
    A = QuaternionAlgebra(2, 3)
    assert A.e1 * A.e1 == 2
    assert A.e2 * A.e2 == 3
    assert A.e3 * A.e3 == -6
    assert A.e1 * A.e3 == 2 * A.e2
    assert A.e3 * A.e1 == -2 * A.e2
    assert A.e2 * A.e3 == -3 * A.e1
    assert A.e3 * A.e2 == 3 * A.e1


def test_quaternion_associativity():
    rng = random.Random(3)
    for alg in (H, QuaternionAlgebra(2, 3), QuaternionAlgebra(-1, -7)):
        for _ in range(60):
            x, y, z = (rand_quat(rng, alg) for _ in range(3))
            assert (x * y) * z == x * (y * z)


def test_unary_operations():
    assert I.conj() == -I
    assert (1 + I + J).norm() == 3
    assert H.e2.inverse() == -J
    assert (1 + I).trace() == 2
    q = H.element([1, 2, Fraction(-1, 2), 3])
    assert q + q.conj() == H.scalar(q.trace())
    assert q * q.conj() == H.scalar(q.norm())
    assert q * q.inverse() == 1


def test_unary_identities_random():
    rng = random.Random(17)
    for alg in (H, QuaternionAlgebra(2, 3)):
        for _ in range(60):
            q = rand_quat(rng, alg)
            assert q + q.conj() == alg.scalar(q.trace())
            assert q * q.conj() == alg.scalar(q.norm())
            if not q.norm().is_zero() and not q.is_zero():
                assert q * q.inverse() == 1
                assert q.inverse() * q == 1


def test_inverse_errors():
    with pytest.raises(DivisionByZero):
        H.zero().inverse()
    split = QuaternionAlgebra(1, 1)
    bad = 1 + split.e1
    assert bad.norm().is_zero() and not bad.is_zero()
    with pytest.raises(ZeroDivisor):
        bad.inverse()


def test_context_mismatch():
    other = QuaternionAlgebra(2, 3)
    with pytest.raises(ContextMismatch):
        I * other.e1


def test_conj_class_examples():
    assert conj_class(I) == ConjClass(t=H.ctx.zero(), n=H.ctx.one())
    assert same_class(I, J)
    assert not same_class(I, 1 + I)
    assert same_class(H.scalar(2), H.scalar(2))
    assert not same_class(H.scalar(2), H.scalar(3))


def test_conj_class_invariance_under_conjugation():
    rng = random.Random(29)
    for _ in range(100):
        x = rand_quat(rng, H)
        g = rand_invertible_quat(rng, H)
        assert conj_class(x) == conj_class((g * x) * g.inverse())


def test_conj_class_min_poly_irreducible_in_division_algebra():
    rng = random.Random(31)
    for _ in range(100):
        x = rand_quat(rng, H)
        if x.is_central():
            continue
        assert conj_class(x).min_poly_is_irreducible()


# ---------------------------------------------------------------------------
# octonions


def test_doubling_unit():
    assert L * L == O.scalar(-1)
    assert L * I == -(O.embed(I) * L)
    assert L.norm() == 1
    gamma7 = OctonionAlgebra(-1, -1, -7)
    assert gamma7.ell0 * gamma7.ell0 == gamma7.scalar(-7)
    assert gamma7.ell0.norm() == 7


def test_octonion_conjugation():
    rng = random.Random(41)
    for _ in range(50):
        q, r = rand_quat(rng, O.base), rand_quat(rng, O.base)
        x = O.pair(q, r)
        assert x.conj() == O.pair(q.conj(), -r)
        assert x + x.conj() == O.scalar(x.trace())
        assert x * x.conj() == O.scalar(x.norm())


def test_nonzero_associator():
    assoc = (O.embed(I) * O.embed(J)) * L - O.embed(I) * (O.embed(J) * L)
    assert assoc == 2 * (O.embed(K) * L)
    assert not assoc.is_zero()


def test_norm_multiplicative_and_alternative_laws():
    rng = random.Random(43)
    for alg in (O, OctonionAlgebra(-1, -1, -2), OctonionAlgebra(2, 3, -1)):
        for _ in range(80):
            x, y = rand_oct(rng, alg), rand_oct(rng, alg)
            assert (x * y).norm() == x.norm() * y.norm()
            assert (x * x) * y == x * (x * y)
            assert (y * x) * x == y * (x * x)


def test_octonion_inverse():
    rng = random.Random(47)
    for _ in range(40):
        x = rand_oct(rng, O)
        if x.is_zero():
            continue
        assert x * x.inverse() == 1
        assert x.inverse() * x == 1


# ---------------------------------------------------------------------------
# frames


def test_frame_from_standard_coefficients():
    # generators sitting inside the standard quaternion part
    alpha = -1 - O.embed(K)
    beta = O.embed(I)
    fr = build_frame(O, alpha, beta)
    assert fr.u == O.embed(I)
    assert fr.w == -O.embed(K)  # pure(alpha) already orthogonal to u
    assert fr.ell == L
    assert fr.a_prime == -1 and fr.b_prime == -1 and fr.gamma_prime == -1
    assert fr.contains(alpha) and fr.contains(beta)


def test_frame_central_fallback():
    fr = build_frame(O, O.scalar(2), O.scalar(3))
    assert fr.u == O.embed(I) and fr.w == O.embed(J) and fr.ell == L


def test_frame_with_doubling_generator():
    big = OctonionAlgebra(-1, -1, -2)
    fr = build_frame(big, big.ell0, big.zero())
    assert fr.u == big.ell0
    assert fr.w == big.embed(big.base.e1)
    assert fr.a_prime == -2  # u^2 = gamma


def test_frame_orthogonality_invariants():
    rng = random.Random(53)
    for _ in range(10):
        fr = build_frame(O, rand_oct(rng, O), rand_oct(rng, O))
        assert fr.u.trace() == 0 and fr.w.trace() == 0 and fr.ell.trace() == 0
        assert fr.u * fr.w == -(fr.w * fr.u)
        for v in (O.one(), fr.u, fr.w, fr.uw):
            assert polar_form(fr.ell, v).is_zero()


def test_frame_decompose_examples():
    fr = build_frame(O, -1 - O.embed(K), O.embed(I))
    q, s = fr.decompose(O.one())
    assert q == 1 and s.is_zero()
    q, s = fr.decompose(L)
    assert q.is_zero() and s == 1


def test_frame_embed_decompose_roundtrip():
    rng = random.Random(59)
    fr = build_frame(O, rand_oct(rng, O), rand_oct(rng, O))
    for _ in range(40):
        x = rand_oct(rng, O)
        q, s = fr.decompose(x)
        assert fr.embed(q) + fr.embed(s) * fr.ell == x


def test_frame_cayley_dickson_rule():
    rng = random.Random(61)
    for _ in range(3):
        fr = build_frame(O, rand_oct(rng, O), rand_oct(rng, O))
        g = fr.gamma_prime
        for _ in range(25):
            q, r, s, t = (rand_quat(rng, fr.quat, 4, 2) for _ in range(4))
            lhs = (fr.embed(q) + fr.embed(r) * fr.ell) * (fr.embed(s) + fr.embed(t) * fr.ell)
            rhs = fr.embed(q * s + (t.conj() * r) * g) + fr.embed(t * q + r * s.conj()) * fr.ell
            assert lhs == rhs


def test_frame_matrix_conjugation_lemma():
    # B(v*l) = conj(conj(B)*conj(v))*l for 2x2 B and 2-vectors v over the frame
    rng = random.Random(67)
    for _ in range(3):
        fr = build_frame(O, rand_oct(rng, O), rand_oct(rng, O))
        for _ in range(25):
            b = [[fr.embed(rand_quat(rng, fr.quat, 4, 2)) for _ in range(2)]
                 for _ in range(2)]
            v = [fr.embed(rand_quat(rng, fr.quat, 4, 2)) for _ in range(2)]
            lhs = [b[i][0] * (v[0] * fr.ell) + b[i][1] * (v[1] * fr.ell)
                   for i in range(2)]
            rhs = [(b[i][0].conj() * v[0].conj()
                    + b[i][1].conj() * v[1].conj()).conj() * fr.ell
                   for i in range(2)]
            assert lhs == rhs


def test_degenerate_frame():
    split = OctonionAlgebra(1, 1, 1)
    bad = split.element([0, 1, 0, 0, 0, 1, 0, 0])
    assert bad.norm().is_zero()
    with pytest.raises(DegenerateFrame):
        build_frame(split, split.one(), bad)


# ---------------------------------------------------------------------------
# spherical representatives


def test_spherical_representative_examples():
    assert spherical_representative(H, 0, 1) == (I, -I)
    assert spherical_representative(H, 2, 2) == (1 + I, 1 - I)
    with pytest.raises(NoRepresentative):
        spherical_representative(H, 0, -1)


def test_spherical_representative_fractional():
    lam, mu = spherical_representative(H, 1, 1)
    assert lam != mu
    for v in (lam, mu):
        assert v.trace() == 1 and v.norm() == 1


def test_spherical_representative_random_classes():
    rng = random.Random(71)
    found = 0
    for _ in range(40):
        den = rng.randint(1, 2)
        x = H.element([Fraction(rng.randint(-6, 6), den) for _ in range(4)])
        if x.is_central():
            continue
        lam, mu = spherical_representative(H, x.trace(), x.norm())
        assert lam != mu
        assert lam.trace() == x.trace() and lam.norm() == x.norm()
        assert mu.trace() == x.trace() and mu.norm() == x.norm()
        found += 1
    assert found > 20


def fraction_spherical(alg, t, n, height):
    """(p1, p2, p3, q) of the first hit of the search on plain Fractions, in
    the same order as spherical_representative, or None."""
    a, b = alg.a.u, alg.b.u
    m = n - t * t / 4
    for q in range(1, height + 1):
        for p2 in range(height + 1):
            for p3 in range(height + 1):
                val = (m * q * q + b * p2 * p2 - a * b * p3 * p3) / (-a)
                if val < 0 or val.denominator != 1:
                    continue
                p1 = isqrt(val.numerator)
                if p1 * p1 == val.numerator and p1 <= height and (p1, p2, p3) != (0, 0, 0):
                    return p1, p2, p3, q
    return None


def test_spherical_representative_matches_the_fraction_search():
    rng = random.Random(73)
    algebras = [H, QuaternionAlgebra(-1, -3), QuaternionAlgebra(2, 3),
                QuaternionAlgebra(Fraction(-1, 2), Fraction(3, 5)),
                QuaternionAlgebra(Fraction(7, 3), Fraction(-2, 9))]
    found = exhausted = 0
    for _ in range(300):
        alg = rng.choice(algebras)
        height = rng.randint(1, 7)
        if rng.random() < 0.6:  # a class that has elements of small height
            den = rng.randint(1, 3)
            x = alg.element([Fraction(rng.randint(-4, 4), den) for _ in range(4)])
            t, n = x.trace().u, x.norm().u
        else:
            t, n = rand_frac(rng, 6, 4), rand_frac(rng, 9, 4)
        hit = fraction_spherical(alg, t, n, height)
        if hit is None:
            message = f"up to height {height}: no element of trace {t} and norm {n} in {alg}"
            with pytest.raises(NoRepresentative, match=re.escape(message)):
                spherical_representative(alg, t, n, height)
            exhausted += 1
            continue
        p1, p2, p3, q = hit
        lam, mu = spherical_representative(alg, t, n, height)
        assert lam == alg.scalar(t / 2) + alg.element([0, p1, p2, p3]) / q
        assert mu == alg.scalar(t) - lam
        found += 1
    assert found > 60 and exhausted > 60


# ---------------------------------------------------------------------------
# the integer-over-one-denominator value layer, against independent oracles

RATIONAL_ALGEBRAS = [
    QuaternionAlgebra(-1, -3),
    QuaternionAlgebra(Fraction(-1, 2), Fraction(3, 5)),
    QuaternionAlgebra(Fraction(7, 3), Fraction(-2, 9)),
]
props = settings(max_examples=100, deadline=None, derandomize=True, database=None)
fracs = st.fractions(min_value=-12, max_value=12, max_denominator=8)
quad = st.lists(fracs, min_size=4, max_size=4)
octad = st.lists(fracs, min_size=8, max_size=8)
algebras = st.sampled_from(RATIONAL_ALGEBRAS)


def assert_canonical(q):
    assert q.den > 0
    assert all(isinstance(n, int) for n in q.num)
    assert gcd(q.den, *q.num) == 1
    assert all(isinstance(c, Fraction) for c in q.coords())


@props
@given(quad, quad)
def test_hamilton_products_agree_with_sympy(cx, cy):
    from sympy import Rational
    from sympy.algebras import Quaternion

    def sym(cs):
        return Quaternion(*(Rational(c.numerator, c.denominator) for c in cs))

    prod = sym(cx) * sym(cy)
    expected = [Fraction(int(c.p), int(c.q))
                for c in (prod.a, prod.b, prod.c, prod.d)]
    assert (H.element(cx) * H.element(cy)).coords() == expected


def fraction_product(alg, p, q):
    """The product formula on plain Fractions, independent of the scaling."""
    a, b = alg.a.u, alg.b.u
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return [w1 * w2 + a * x1 * x2 + b * y1 * y2 - a * b * z1 * z2,
            w1 * x2 + x1 * w2 - b * y1 * z2 + b * z1 * y2,
            w1 * y2 + y1 * w2 + a * x1 * z2 - a * z1 * x2,
            w1 * z2 + z1 * w2 + x1 * y2 - y1 * x2]


@props
@given(algebras, quad, quad)
def test_rational_structure_constants_products(alg, cx, cy):
    x, y = alg.element(cx), alg.element(cy)
    assert (x * y).coords() == fraction_product(alg, cx, cy)
    assert alg.e1 * alg.e1 == alg.a and alg.e2 * alg.e2 == alg.b
    assert alg.e3 * alg.e3 == -(alg.a * alg.b)
    assert x.norm() == fraction_product(alg, cx, x.conj().coords())[0]


@props
@given(algebras, quad, quad, quad)
def test_rational_structure_constants_laws(alg, cx, cy, cz):
    x, y, z = alg.element(cx), alg.element(cy), alg.element(cz)
    assert (x * y) * z == x * (y * z)
    assert (x * y).norm() == x.norm() * y.norm()
    assert x * (y + z) == x * y + x * z
    if not x.norm().is_zero():
        assert x * x.inverse() == 1 and x.inverse() * x == 1
        assert_canonical(x.inverse())


@props
@given(algebras, quad, quad, fracs)
def test_results_are_canonical_and_hash_by_value(alg, cx, cy, c):
    x, y = alg.element(cx), alg.element(cy)
    for v in (x, x * y, x + y, x - y, x * c, x / (c or 1), -x, x.conj(), x.pure(),
              x ** 3):
        assert_canonical(v)
        again = alg.element(v.coords())
        assert again == v and hash(again) == hash(v)
    assert (x + y) - y == x and hash((x + y) - y) == hash(x)
    assert x.coords() == cx


@props
@given(octad, octad)
def test_octonions_with_rational_constants_are_alternative(cx, cy):
    O2 = OctonionAlgebra(Fraction(-1, 2), Fraction(3, 5), -2)
    x, y = O2.element(cx), O2.element(cy)
    assert (x * x) * y == x * (x * y)
    assert (y * x) * x == y * (x * x)
    assert (x * y) * x == x * (y * x)
    assert (x * y).norm() == x.norm() * y.norm()
