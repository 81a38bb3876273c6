import random
import re
from fractions import Fraction
from math import gcd, isqrt
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from skewrec import (
    ConjClass,
    ContextMismatch,
    DegenerateFrame,
    DivisionByZero,
    FieldContext,
    OctonionAlgebra,
    QuaternionAlgebra,
    ZeroDivisor,
    build_frame,
    conj_class,
)
from skewrec.algebra import SubalgebraFrame, _orthogonalize, spherical_representative
from skewrec.errors import NoRepresentative
from skewrec.scalar import _reduced
from conftest import fraction_mul, rand_frac, rand_invertible_quat, rand_oct, rand_quat

H = QuaternionAlgebra(-1, -1)
I, J, K = H.e1, H.e2, H.e3
O = OctonionAlgebra(-1, -1, -1)
L = O.ell0


def polar(x, y):
    """B(x, y) = N(x+y) - N(x) - N(y), read off `_scaled_polar`."""
    m, D = x._scaled_polar(y)
    return x.carrier.ctx.ratio(2 * m, D * x.den * y.den)


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


def test_a_value_divided_by_the_scalar_0_raises():
    for x in (H.element([1, 2, 0, 0]), O.element([0, 1, 0, 0, 3, 0, 0, 0])):
        for zero in (0, Fraction(0)):
            with pytest.raises(DivisionByZero, match="^division by zero scalar$"):
                x / zero


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


CARRIERS = {
    "Q": FieldContext.rational,
    "Q(rt5)": lambda: FieldContext(5),
    "(-1,-3 | Q)": lambda: QuaternionAlgebra(-1, -3),
    "(-1,-1,-2 | Q)": lambda: OctonionAlgebra(-1, -1, -2),
}


@pytest.mark.parametrize("make", CARRIERS.values(), ids=CARRIERS.keys())
def test_carrier_protocol(make):
    alg = make()
    for n in (alg.dim - 1, alg.dim + 1):
        with pytest.raises(ValueError):
            alg.element([1] * n)
    basis = alg.basis()
    assert len(basis) == alg.dim
    x = sum((Fraction(i + 1, 3) * b for i, b in enumerate(basis)), alg.zero())
    for v in basis + [x]:
        assert alg.element(v.coords()) == v
    twin = make()
    assert twin is not alg and twin == alg and hash(twin) == hash(alg)
    q2 = FieldContext(2)
    assert alg.coerce(q2.scalar(Fraction(3, 4))) == Fraction(3, 4)
    with pytest.raises(ContextMismatch):
        alg.coerce(q2.element((0, 1)))


def test_conj_class_examples():
    assert conj_class(I) == ConjClass(t=H.ctx.zero(), n=H.ctx.one())
    assert conj_class(I) == conj_class(J)
    assert conj_class(I) != conj_class(1 + I)
    assert conj_class(H.scalar(2)) == conj_class(H.scalar(2))
    assert conj_class(H.scalar(2)) != conj_class(H.scalar(3))


def test_conj_class_invariance_under_conjugation():
    rng = random.Random(29)
    for _ in range(100):
        x = rand_quat(rng, H)
        g = rand_invertible_quat(rng, H)
        assert conj_class(x) == conj_class((g * x) * g.inverse())


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
        x = O.element(q.coords() + r.coords())  # q + r*l0
        assert x.conj() == O.element(q.conj().coords() + (-r).coords())
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
    assert fr.quat.a == -1 and fr.quat.b == -1 and -fr.ell.norm() == -1
    assert fr.decompose(alpha)[1].is_zero() and fr.decompose(beta)[1].is_zero()


def test_frame_central_fallback():
    fr = build_frame(O, O.scalar(2), O.scalar(3))
    assert fr.u == O.embed(I) and fr.w == O.embed(J) and fr.ell == L


def test_frame_with_doubling_generator():
    big = OctonionAlgebra(-1, -1, -2)
    fr = build_frame(big, big.ell0, big.zero())
    assert fr.u == big.ell0
    assert fr.w == big.embed(big.base.e1)
    assert fr.quat.a == -2  # u^2 = gamma


def test_frame_orthogonality_invariants():
    rng = random.Random(53)
    for _ in range(10):
        fr = build_frame(O, rand_oct(rng, O), rand_oct(rng, O))
        assert fr.u.trace() == 0 and fr.w.trace() == 0 and fr.ell.trace() == 0
        assert fr.u * fr.w == -(fr.w * fr.u)
        for v in (O.one(), fr.u, fr.w, fr.uw):
            assert polar(fr.ell, v).is_zero()


def test_frame_decompose_examples():
    fr = build_frame(O, -1 - O.embed(K), O.embed(I))
    q, s = fr.decompose(O.one())
    assert q == 1 and s.is_zero()
    q, s = fr.decompose(L)
    assert q.is_zero() and s == 1


def test_frame_embed_decompose_roundtrip():
    # decompose and join are inverse changes of basis, and join(q, s) is
    # q + s*ell with a real octonion product, in division and split algebras
    rng = random.Random(59)
    for alg in (O, OctonionAlgebra(Fraction(-1, 2), Fraction(3, 5), Fraction(-7, 3)),
                OctonionAlgebra(2, 3, -1)):
        frames = 0
        while frames < 3:
            try:
                fr = build_frame(alg, rand_oct(rng, alg), rand_oct(rng, alg))
            except DegenerateFrame:
                continue
            frames += 1
            for _ in range(15):
                x = rand_oct(rng, alg)
                assert fr.join(*fr.decompose(x)) == x
                q, s = rand_quat(rng, fr.quat, 4, 2), rand_quat(rng, fr.quat, 4, 2)
                assert fr.decompose(fr.join(q, s)) == (q, s)
                assert fr.join(q, s) == fr.join(q, 0) + fr.join(s, 0) * fr.ell


def test_frame_constructor_rejects_degenerate_bases():
    # build_frame orthogonalizes first, so only a frame given by hand reaches
    # the constructor's own check: an ell that is not orthogonal to u, an ell
    # inside the quaternion part, which splits nothing, and an isotropic ell
    # (gamma' = 0)
    with pytest.raises(DegenerateFrame):
        SubalgebraFrame(O, O.embed(I), O.embed(J), L + O.embed(I))
    with pytest.raises(DegenerateFrame):
        SubalgebraFrame(O, O.embed(I), -O.embed(K), -O.embed(K))
    split = OctonionAlgebra(1, 1, 1)
    e1, e2 = split.basis()[1:3]
    with pytest.raises(DegenerateFrame):
        SubalgebraFrame(split, e1, e2, split.element([0, 0, 0, 0, 1, 1, 0, 0]))
    # a vector with a scalar part is not orthogonal to 1, so not pure, and
    # its square is not the central -N(x) that a' reads
    for u, w, ell in ((1 + O.embed(I), O.embed(J), L), (O.embed(I), O.embed(J) - 2, L),
                      (O.embed(I), O.embed(J), L + 1)):
        with pytest.raises(DegenerateFrame, match="not pairwise orthogonal"):
            SubalgebraFrame(O, u, w, ell)


# the doubling lemma's seven orthogonalities, as index pairs (i, j) of the
# frame f = (1, u, w, u*w, ell, u*ell, w*ell, (u*w)*ell)
LEMMA_PAIRS = ((1, 0), (2, 0), (2, 1), (4, 0), (4, 1), (4, 2), (4, 3))
FRAME_ALGEBRAS = {"O": O, "(1,1,1)": OctonionAlgebra(1, 1, 1),
                  "(2,3,-1)": OctonionAlgebra(2, 3, -1)}


def frame_gram(u, w, ell):
    """The 8x8 Gram matrix B(f_i, f_j) of the frame, with true products and
    B(x, y) = N(x + y) - N(x) - N(y)."""
    uw = u * w
    f = (u.carrier.one(), u, w, uw, ell, u * ell, w * ell, uw * ell)
    return [[(x + y).norm() - x.norm() - y.norm() for y in f] for x in f]


def full_gram_test(u, w, ell):
    """The 28-entry oracle: the Gram matrix is diagonal with no zero on its
    diagonal."""
    gram = frame_gram(u, w, ell)
    return (all(not gram[i][i].is_zero() for i in range(8))
            and all(gram[i][j].is_zero() for i in range(8) for j in range(i)))


@pytest.mark.parametrize("alg", FRAME_ALGEBRAS.values(), ids=FRAME_ALGEBRAS.keys())
@pytest.mark.parametrize("pair", LEMMA_PAIRS)
def test_a_frame_breaking_one_lemma_hypothesis_alone_is_degenerate(alg, pair):
    # u = e1, w = e2, ell = e4 with 2*f_j added to generator f_i: only
    # B(f_i, f_j) of the seven is nonzero, and no norm is zero
    e = alg.basis()
    gens = {1: e[1], 2: e[2], 4: e[4]}
    i, j = pair
    gens[i] = gens[i] + 2 * e[j]
    u, w, ell = gens[1], gens[2], gens[4]
    gram = frame_gram(u, w, ell)
    assert all(not gram[k][k].is_zero() for k in range(8))
    assert [p for p in LEMMA_PAIRS if not gram[p[0]][p[1]].is_zero()] == [pair]
    with pytest.raises(DegenerateFrame, match="not pairwise orthogonal"):
        SubalgebraFrame(alg, u, w, ell)


COEF = st.sampled_from([1, -1, 2, Fraction(1, 2)])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(list(FRAME_ALGEBRAS.values())
                       + [OctonionAlgebra(-1, -2, Fraction(-3, 2))]),
       st.permutations(range(1, 8)), st.lists(COEF, min_size=5, max_size=5),
       st.lists(st.booleans(), min_size=2, max_size=2), st.integers(0, 3),
       st.integers(0, 7), st.sampled_from([1, -2, Fraction(1, 3)]))
def test_seven_orthogonalities_decide_as_the_full_gram_test(alg, perm, c, wide, which, at, shift):
    # u, w and ell on disjoint basis vectors (about a quarter of these frames
    # split the algebra), one of them then shifted by a multiple of a basis
    # vector: the frame's check accepts exactly the (u, w, ell) whose whole
    # Gram matrix is diagonal with no zero on its diagonal
    e = alg.basis()
    gens = [c[0] * e[perm[0]] + (c[1] * e[perm[1]] if wide[0] else 0), c[2] * e[perm[2]],
            c[3] * e[perm[3]] + (c[4] * e[perm[4]] if wide[1] else 0)]
    if which < 3:
        gens[which] = gens[which] + shift * e[at]
    try:
        SubalgebraFrame(alg, *gens)
        accepted = True
    except DegenerateFrame:
        accepted = False
    assert accepted == full_gram_test(*gens)


def test_frame_cayley_dickson_rule():
    rng = random.Random(61)
    for _ in range(3):
        fr = build_frame(O, rand_oct(rng, O), rand_oct(rng, O))
        g = -fr.ell.norm()
        for _ in range(25):
            q, r, s, t = (rand_quat(rng, fr.quat, 4, 2) for _ in range(4))
            lhs = ((fr.join(q, 0) + fr.join(r, 0) * fr.ell)
                   * (fr.join(s, 0) + fr.join(t, 0) * fr.ell))
            rhs = fr.join(q * s + (t.conj() * r) * g, 0) + fr.join(t * q + r * s.conj(), 0) * fr.ell
            assert lhs == rhs


def test_frame_matrix_conjugation_lemma():
    # B(v*l) = conj(conj(B)*conj(v))*l for 2x2 B and 2-vectors v over the frame
    rng = random.Random(67)
    for _ in range(3):
        fr = build_frame(O, rand_oct(rng, O), rand_oct(rng, O))
        for _ in range(25):
            b = [[fr.join(rand_quat(rng, fr.quat, 4, 2), 0) for _ in range(2)]
                 for _ in range(2)]
            v = [fr.join(rand_quat(rng, fr.quat, 4, 2), 0) for _ in range(2)]
            lhs = [b[i][0] * (v[0] * fr.ell) + b[i][1] * (v[1] * fr.ell)
                   for i in range(2)]
            rhs = [(b[i][0].conj() * v[0].conj()
                    + b[i][1].conj() * v[1].conj()).conj() * fr.ell
                   for i in range(2)]
            assert lhs == rhs


SPLIT_111 = OctonionAlgebra(1, 1, 1)  # weights (1, -1, -1, 1, -1, 1, 1, -1)


def test_degenerate_frame():
    # the two isotropic generators that build_frame rejects: u, the pure part
    # of beta, and w, the pure part of alpha orthogonalized against u
    e = SPLIT_111.basis()
    bad = e[1] + e[5]
    assert bad.norm().is_zero()
    with pytest.raises(DegenerateFrame, match=r"generator \[0,1,0,0,0,1,0,0\] is isotropic"):
        build_frame(SPLIT_111, SPLIT_111.one(), bad)
    assert polar(e[2] + e[3], e[1]).is_zero() and (e[2] + e[3]).norm().is_zero()
    with pytest.raises(DegenerateFrame, match=r"orthogonalization produced isotropic \[0,0,1,1"):
        build_frame(SPLIT_111, e[2] + e[3], e[1])


def test_frame_candidates_fall_back_in_a_split_algebra():
    # w: alpha's pure part and e1 are multiples of u = e1, so w is e2
    e = SPLIT_111.basis()
    fr = build_frame(SPLIT_111, 2 * e[1], e[1])
    assert fr.u == e[1] and fr.w == e[2]
    # ell: with u = -e1 - e5 - e6 and w = e2 the projections of e4, ..., e7 on
    # the complement of span(1, u, w, u*w) are all isotropic, so ell is e1's
    u = -e[1] - e[5] - e[6]
    fr = build_frame(SPLIT_111, e[2], u)
    assert fr.u == u and fr.w == e[2]
    span = [SPLIT_111.one(), u, e[2], u * e[2]]
    assert all(_orthogonalize(s, span).norm().is_zero() for s in e[4:])
    assert fr.ell == _orthogonalize(e[1], span) and not fr.ell.norm().is_zero()
    x = SPLIT_111.element([1, 2, -1, 0, 3, Fraction(1, 2), 0, 1])
    assert fr.join(*fr.decompose(x)) == x


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
    a, b = alg.a.coords()[0], alg.b.coords()[0]
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
            t, n = x.trace().coords()[0], x.norm().coords()[0]
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


@props
@given(algebras, quad, quad)
def test_rational_structure_constants_products(alg, cx, cy):
    x, y = alg.element(cx), alg.element(cy)
    assert (x * y).coords() == fraction_mul(alg, cx, cy)
    assert alg.e1 * alg.e1 == alg.a and alg.e2 * alg.e2 == alg.b
    assert alg.e3 * alg.e3 == -(alg.a * alg.b)
    assert x.norm() == fraction_mul(alg, cx, x.conj().coords())[0]


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


SCALAR_FIELDS = [FieldContext.rational(), FieldContext(2), FieldContext(5)]


@props
@given(st.sampled_from(RATIONAL_ALGEBRAS + SCALAR_FIELDS), quad, quad, fracs)
def test_results_are_canonical_and_hash_by_value(alg, cx, cy, c):
    # a field of dimension n over Q takes the first n coordinates
    n = len(alg.basis())
    cx, cy = cx[:n], cy[:n]
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


@props
@given(octad, st.sampled_from([Fraction(-1, 2), Fraction(3, 5), -2]))
def test_octonion_scaling_is_coordinatewise(cx, c):
    O2 = OctonionAlgebra(Fraction(-1, 2), Fraction(3, 5), -2)
    x = O2.element(cx)
    scaled = O2.element([c * v for v in cx])
    assert c * x == x * c == scaled
    assert O2.scalar(c) * x == x * O2.scalar(c) == scaled  # the full product agrees


# ---------------------------------------------------------------------------
# the polar form on integer coordinates, and hashing across types

POLAR_OCTONIONS = [OctonionAlgebra(-1, -1, -1),
                   OctonionAlgebra(Fraction(-1, 2), Fraction(3, 5), -2),
                   OctonionAlgebra(Fraction(7, 3), Fraction(-2, 9), Fraction(-3, 4))]


@props
@given(st.sampled_from(POLAR_OCTONIONS), octad, octad)
def test_polar_form_matches_product_and_norm(alg, cx, cy):
    x, y = alg.element(cx), alg.element(cy)
    halves = ((alg.base.element(cx[:4]), alg.base.element(cy[:4])),
              (alg.base.element(cx[4:]), alg.base.element(cy[4:])))
    for p, q in ((x, y), *halves):
        b = polar(p, q)
        assert b == (p * q.conj()).trace()
        assert b == (p + q).norm() - p.norm() - q.norm()
        assert b == polar(q, p)
    assert polar(x, x) == 2 * x.norm()


# ---------------------------------------------------------------------------
# the eight-numerator octonion layout against the pairwise Cayley-Dickson
# rule on quaternion halves

SPLIT_OCT = OctonionAlgebra(2, 3, -1)
ISOTROPIC = SPLIT_OCT.element([1, 0, 0, 0, 1, 1, 0, 0])  # N = 1 + gamma*(1 - 2) = 0
nonzero_fracs = fracs.filter(bool)


def ref_halves(x):
    c = x.coords()
    return x.carrier.base.element(c[:4]), x.carrier.base.element(c[4:])


def ref_coords(q, r):
    return q.coords() + r.coords()


def ref_mul(x, y):
    """(q + r*l0)(s + t*l0) = q*s + gamma*conj(t)*r + (t*q + r*conj(s))*l0."""
    (q, r), (s, t) = ref_halves(x), ref_halves(y)
    return q * s + (t.conj() * r) * x.carrier.gamma, t * q + r * s.conj()


def ref_norm(x):
    q, r = ref_halves(x)
    return q.norm() - x.carrier.gamma * r.norm()


def ref_inverse(x):
    n = ref_norm(x)
    if n.is_zero():
        raise ZeroDivisor(f"{x} has norm 0")
    q, r = ref_halves(x)
    return q.conj() / n, -r / n


@props
@given(st.sampled_from(POLAR_OCTONIONS + [SPLIT_OCT]), octad, octad, nonzero_fracs)
def test_octonion_layout_matches_the_pairwise_reference(alg, cx, cy, c):
    x, y = alg.element(cx), alg.element(cy)
    assert_canonical(x * y)
    assert (x * y).coords() == ref_coords(*ref_mul(x, y))
    q, r = ref_halves(x)
    assert x.conj().coords() == ref_coords(q.conj(), -r)
    assert x.norm() == ref_norm(x)
    for scaled, by in ((x * c, c), (c * x, c), (x / c, 1 / c)):
        assert_canonical(scaled)
        assert scaled.coords() == ref_coords(q * by, r * by)
    if ref_norm(x).is_zero():
        with pytest.raises(ZeroDivisor):
            x.inverse()
        with pytest.raises(ZeroDivisor):
            ref_inverse(x)
    elif not x.is_zero():
        assert x.inverse().coords() == ref_coords(*ref_inverse(x))


@props
@given(octad)
def test_split_octonion_zero_norm_inverse_raises_on_both_sides(cx):
    # N(x * z) = N(x) * N(z) = 0 for the isotropic z
    x = SPLIT_OCT.element(cx)
    y = SPLIT_OCT.element(ref_coords(*ref_mul(x, ISOTROPIC)))
    if y.is_zero():
        return
    assert y.norm() == ref_norm(y) == 0
    with pytest.raises(ZeroDivisor):
        y.inverse()
    with pytest.raises(ZeroDivisor):
        ref_inverse(y)


Q2 = FieldContext(2)
HASH_QUAT = QuaternionAlgebra(Fraction(-1, 2), Fraction(3, 5))
HASH_OCT = OctonionAlgebra(Fraction(-1, 2), Fraction(3, 5), -2)


def rational_forms(c):
    """c as every type that compares equal to it."""
    forms = [c, FieldContext.rational().scalar(c), Q2.scalar(c),
             HASH_QUAT.scalar(c), HASH_OCT.scalar(c)]
    if c.denominator == 1:
        forms.append(int(c))
    return forms


@props
@given(fracs, quad, st.lists(st.integers(0, 3), min_size=4, max_size=4))
def test_equal_values_hash_equal(c, cq, mask):
    # a rational in every form, and a quaternion with some coordinates zeroed
    # (central ones included) beside its octonion embedding
    q = HASH_QUAT.element([x if m else 0 for x, m in zip(cq, mask)])
    groups = [rational_forms(c), [q, HASH_OCT.embed(q)]]
    if q.is_central():
        groups[1] += rational_forms(q.coords()[0])
    for group in groups:
        for x in group:
            assert all(x == y and hash(x) == hash(y) for y in group)
    values = groups[0] + groups[1]
    for x in values:
        assert all(hash(x) == hash(y) for y in values if x == y)
    assert len(set(values)) == (1 if groups[0][0] == groups[1][0] else 2)
    assert len({HASH_QUAT.one(), 1, HASH_OCT.one(), Q2.scalar(1)}) == 1
    # an irrational scalar equals no value of another carrier, in either
    # order, while arithmetic with one still raises
    irr = Q2.element((c, 1))
    assert all(x != irr and irr != x for x in values)
    assert len(set(values + [irr])) == len(set(values)) + 1
    for x in (q, HASH_OCT.embed(q)):
        with pytest.raises(ContextMismatch):
            x + irr
        with pytest.raises(ContextMismatch):
            x * irr


# Left operand by row, right operand by column, in the order of MIXED: the
# carrier of x + y, x - y and x * y, or "CM" where they raise ContextMismatch.
# Past the rational 3, every value is irrational or non-central, so it enters
# only a carrier that holds it: a quaternion enters the octonions over its
# own algebra.  Q + Q(sqrt 2) is refused because both are ScalarValues, and
# Python never asks the right operand of the same type.
MIXED = (
    FieldContext.rational().scalar(3),
    FieldContext(2).element((1, 1)),
    H.element([1, 2, 0, 1]),
    QuaternionAlgebra(-1, -3).element([0, 1, Fraction(1, 2), 0]),
    O.element([1, 0, 0, 0, 0, 1, 0, 0]),
)
MIXED_OUTCOMES = """
     Q   CM  H   H3  O
     Q2  Q2  CM  CM  CM
     H   CM  H   CM  O
     H3  CM  CM  H3  CM
     O   CM  O   CM  O
"""


def test_mixed_carrier_operands_coerce_by_one_rule():
    names = dict(zip([x.carrier for x in MIXED], ["Q", "Q2", "H", "H3", "O"]))
    table = [row.split() for row in MIXED_OUTCOMES.strip().splitlines()]
    for x, row in zip(MIXED, table):
        for y, expected in zip(MIXED, row):
            messages = set()
            for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
                try:
                    got = names[op(x, y).carrier]
                except ContextMismatch as exc:
                    got = "CM"  # a bare TypeError is not caught, and fails
                    messages.add(str(exc))
                assert got == expected, (x, y)
            # one rule, so one text: x * y fails as x + y and x - y do
            assert len(messages) == (expected == "CM"), (x, y, messages)
            assert (x == y) == (x is y) and (y == x) == (x is y)
    # the quaternion embeds, in either order
    q, o = MIXED[2], MIXED[4]
    assert q + o == o + q == O.embed(q) + o
    assert q - o == -(o - q) and q * o == O.embed(q) * o
    assert O.embed(q) == q and q == O.embed(q)
    # rationals of every carrier are one value, in both orders
    threes = [x.carrier.scalar(3) for x in MIXED]
    assert all(a == b and b == a for a in threes for b in threes)


POWER_BASES = (
    FieldContext(5).element((Fraction(1, 2), Fraction(-3, 2))),
    QuaternionAlgebra(Fraction(-1, 2), Fraction(3, 5)).element([1, Fraction(-1, 3), 2, 1]),
    O.element([Fraction(1, 2), 1, 0, -1, 2, 0, Fraction(1, 3), 1]),
)


@pytest.mark.parametrize("x", POWER_BASES, ids=["Q(rt5)", "(-1/2,3/5)", "(-1,-1,-1)"])
def test_powers_and_pow_are_repeated_products(x):
    one = x.carrier.one()
    up, down = [one], [one]
    x_inv = x.inverse()
    for _ in range(40):
        up.append(up[-1] * x)
        down.append(down[-1] * x_inv)
    assert x.powers(40) == up
    assert [x.powers(n) for n in range(4)] == [up[:n + 1] for n in range(4)]
    for k in range(-5, 41):
        assert x ** k == (up[k] if k >= 0 else down[-k])


def test_first_power_makes_no_product(monkeypatch):
    from skewrec import algebra

    calls = []
    quat_mul = algebra._quat_mul
    monkeypatch.setattr(algebra, "_quat_mul", lambda *a: calls.append(1) or quat_mul(*a))
    for x in POWER_BASES[1:]:
        calls.clear()
        assert x ** 1 == x and x.powers(1) == [x.carrier.one(), x]
        assert calls == []
        assert x ** 2 == x * x and x.powers(3)[3] == x * x * x
    h = POWER_BASES[1]
    calls.clear()
    h ** 5, h.powers(5)
    assert len(calls) == 3 + 4  # 5 = 0b101: square, square, times x; 4 steps up


def test_times_returns_the_other_factor_of_a_product_by_one(monkeypatch):
    from skewrec import algebra
    from skewrec.scalar import _times

    calls = []
    quat_mul = algebra._quat_mul
    monkeypatch.setattr(algebra, "_quat_mul", lambda *a: calls.append(1) or quat_mul(*a))
    for x in POWER_BASES:
        one = x.carrier.one()
        assert _times(one, x) is x and _times(x, one) is x
        assert _times(one, one) is one
    assert calls == []
    x = POWER_BASES[1]
    y = x.carrier.element([0, 2, Fraction(1, 2), -1])
    assert _times(x, y) == x * y and _times(y, x) == y * x
    assert len(calls) == 4


# ---------------------------------------------------------------------------
# sums, products and scalings reduce only by the factor that can cancel, and
# so give the value that one full gcd of the raw result gives

REDUCTION_CARRIERS = [
    FieldContext.rational(), FieldContext(2),
    QuaternionAlgebra(-1, -1), QuaternionAlgebra(Fraction(-1, 2), Fraction(3, 5)),
    QuaternionAlgebra(1, 1), QuaternionAlgebra(2, 3),
    OctonionAlgebra(-1, -1, -1), OctonionAlgebra(1, 1, 1),
    OctonionAlgebra(-1, -2, Fraction(-3, 2)), OctonionAlgebra(2, 3, -1),
]
reduction_props = settings(max_examples=250, deadline=None, derandomize=True, database=None)
# products of powers of 2, 3 and 5, small or wider than 64 bits, so that
# numerators and denominators share primes
smooth = st.builds(lambda i, j, k: 2 ** i * 3 ** j * 5 ** k,
                   st.integers(0, 90), st.integers(0, 40), st.integers(0, 20))
small_smooth = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 25])
# a power of 2 times the prime 2^61 - 1 times a power of 3: a wide
# denominator whose odd part is wide too, so that a reduction which shifts
# out the 2s still has a gcd against more than 1 to take
wide_odd = st.builds(lambda i, j: 2 ** i * (2 ** 61 - 1) * 3 ** j,
                     st.integers(0, 90), st.integers(0, 40))
# a power of 2 wider than 64 bits: a product by a narrow factor takes no
# bound from its norm over it, as the shifts take every 2
wide_pow2 = st.builds(lambda i: 2 ** i, st.integers(65, 200))


@st.composite
def reduction_values(draw, carrier, like=None):
    """A value of carrier, zero one time in ten and central (rational) one
    time in ten, over a small or a wide denominator.  An octonion has a
    zero second half (a quaternion of its base algebra) two times in ten
    and a zero first half one time in ten.  Given the denominator `like`
    of another value, the denominator is, four times in five, like itself,
    a multiple of it, a divisor of it or a power of 2 wider than 64 bits,
    and a numerator of 1 or -1 keeps it through the reduction."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return carrier.zero()
    den = draw(st.one_of(small_smooth, smooth, wide_odd, wide_pow2))
    nums = draw(st.lists(st.builds(mul, st.integers(-7, 7), small_smooth),
                         min_size=carrier.dim, max_size=carrier.dim))
    low_half_zero = carrier.dim == 8 and kind == 4
    rel = 0 if like is None else draw(st.integers(0, 4))
    if rel:
        den = [like, like * den, like // gcd(like, den), draw(wide_pow2)][rel - 1]
        nums[4 if low_half_zero else 0] = draw(st.sampled_from([1, -1]))
    if kind == 1:
        nums[1:] = [0] * (carrier.dim - 1)
    elif carrier.dim == 8 and kind in (2, 3):
        nums[4:] = [0] * 4
    elif low_half_zero:
        nums[:4] = [0] * 4
    return carrier.element([Fraction(n, den) for n in nums])


def assert_same(got, want):
    assert type(got) is type(want) and got.carrier == want.carrier
    assert (got.num, got.den) == (want.num, want.den)


@settings(reduction_props, max_examples=150)
@given(st.data())
def test_sums_and_products_reduce_as_one_full_gcd_does(data):
    # every carrier in every example, so that each meets every branch of
    # `_sum`, `_product` and the octonion product's zero halves
    for alg in REDUCTION_CARRIERS:
        x = data.draw(reduction_values(alg))
        y = data.draw(reduction_values(alg, x.den))
        cx, cy = x.coords(), y.coords()
        # `element` reduces by one gcd against the whole denominator
        assert_same(x * y, alg.element(fraction_mul(alg, cx, cy)))
        assert_same(y * x, alg.element(fraction_mul(alg, cy, cx)))
        assert_same(x + y, alg.element([a + b for a, b in zip(cx, cy)]))
        assert_same(x - y, alg.element([a - b for a, b in zip(cx, cy)]))
        assert_same(y - x, alg.element([b - a for a, b in zip(cx, cy)]))


@reduction_props
@given(st.data(), st.sampled_from([-1, 1]), st.one_of(st.just(0), smooth, small_smooth),
       st.one_of(smooth, small_smooth))
def test_scaling_reduces_as_one_full_gcd_does(data, sign, p, q):
    alg = data.draw(st.sampled_from(REDUCTION_CARRIERS))
    x = data.draw(reduction_values(alg))
    for pp, qq in ((p, sign * q), (sign * q, p or 1), (6 * p, 4 * sign * q)):
        assert_same(x._scaled(pp, qq),
                    _reduced(type(x), alg, tuple([n * pp for n in x.num]), x.den * qq))


def test_planted_products_reduce_by_the_norm_of_the_narrow_factor():
    # (1 + e1)/2^80 * (1 - e1) = 2/2^80 in (-1,-1): the factor 2 comes from
    # N(1 - e1) = 2, and the narrow factor may stand on either side
    wide, narrow = H.element([Fraction(1, 2 ** 80), Fraction(1, 2 ** 80), 0, 0]), 1 - I
    for z in (wide * narrow, narrow.conj() * wide.conj()):
        assert (z.num, z.den) == ((1, 0, 0, 0), 2 ** 79)
    # z = 1 + 2e1 of norm 5 times conj(z) Y / 5^80, N(Y) = 39 prime to 5,
    # on either side: the wide factor's numerators (5, 0, 13, -1) and
    # (5, 0, -7, 11) show no 5, and only the norm of the narrow factor
    # shows the 5 that cancels
    narrow, w = H.element([1, 2, 0, 0]), H.element([1, 2, 3, 5])
    wide, wide_right = narrow.conj() * w / 5 ** 80, w * narrow.conj() / 5 ** 80
    assert wide.num == (5, 0, 13, -1) and wide_right.num == (5, 0, -7, 11)
    for z in (narrow * wide, wide_right * narrow):
        assert (z.num, z.den) == ((1, 2, 3, 5), 5 ** 79)
    # 1 + e1 is a zero divisor of (1,1 | Q), so the full gcd is taken:
    # (1 + e1)^2 / 2^80 = (2 + 2e1) / 2^80
    split = QuaternionAlgebra(1, 1)
    zd = split.element([1, 1, 0, 0])
    assert zd.norm() == 0
    for z in (zd * (zd / 2 ** 80), (zd / 2 ** 80) * zd):
        assert (z.num, z.den) == ((1, 1, 0, 0), 2 ** 79)
    # an octonion product by a narrow factor of norm 2, on both sides
    wide = O.element([Fraction(1, 2 ** 70)] + [0] * 4 + [Fraction(1, 2 ** 70), 0, 0])
    narrow = O.element([1, 0, 0, 0, 0, -1, 0, 0])
    for z in (wide * narrow, narrow.conj() * wide.conj()):
        assert (z.num, z.den) == ((1, 0, 0, 0, 0, 0, 0, 0), 2 ** 69)


def test_planted_wide_reductions_shift_out_only_the_2s_their_bound_has():
    # each raw result has numerators divisible by 8 over a wide denominator
    # 2 * 3^k, the gcd bound: one 2 cancels, and the odd part 3^k shares
    # nothing with the numerators left
    w = 3 ** 50
    Q = FieldContext.rational()
    assert_same(Q.ratio(1, 2 * w) * Q.ratio(8, w), Q.ratio(4, w * w))
    assert_same(Q.ratio(3, 2 * w) + Q.ratio(5, 2 * w), Q.ratio(4, w))
    x, y = H.element([Fraction(1, 2 * w)] * 4), H.element([Fraction(8, w), Fraction(8, w), 0, 0])
    assert_same(x * y, H.element(fraction_mul(H, x.coords(), y.coords())))
    assert (x * y).num == (0, 8, 8, 0) and (x * y).den == w * w


def test_an_octonion_factor_with_a_zero_half_multiplies_as_the_full_product_does():
    # q + 0*l0 as the left factor takes two quaternion products, and as the
    # right one, as 0 + r*l0 and y do, all four beside it; gamma = -3/2 has
    # Gd = 2
    rng = random.Random(11)
    for alg in (O, OctonionAlgebra(1, 1, 1), OctonionAlgebra(2, 3, -1),
                OctonionAlgebra(-1, -2, Fraction(-3, 2))):
        for _ in range(12):
            x, y = rand_oct(rng, alg, 9, 6), rand_oct(rng, alg, 9, 6)
            c = x.coords()
            for z in (alg.element(c[:4] + [0] * 4), alg.element([0] * 4 + c[4:]), y):
                for u, v in ((z, y), (y, z), (z, x)):
                    assert_same(u * v, alg.element(fraction_mul(alg, u.coords(), v.coords())))


def test_a_sum_scales_only_the_operand_whose_denominator_is_not_the_lcm():
    # equal denominators, each dividing the other, and neither, narrow and
    # wide; coordinate 0 is +-1/d, so that d is the value's denominator
    rng = random.Random(12)
    dens = [(6, 6), (6, 12), (12, 6), (10, 15), (2 ** 80, 2 ** 80), (2 ** 70, 3 * 2 ** 80),
            (5 * 3 ** 50, 3 ** 50), (7 * 2 ** 66, 11 * 2 ** 66)]
    for alg in (FieldContext.rational(), FieldContext(2), H, O):
        for d1, d2 in dens:
            for _ in range(4):
                cx, cy = ([Fraction(rng.choice([1, -1]), d)]
                          + [Fraction(rng.randint(-9, 9), d) for _ in range(alg.dim - 1)]
                          for d in (d1, d2))
                x, y = alg.element(cx), alg.element(cy)
                assert (x.den, y.den) == (d1, d2)
                assert_same(x + y, alg.element([a + b for a, b in zip(cx, cy)]))
                assert_same(x - y, alg.element([a - b for a, b in zip(cx, cy)]))
                assert_same(y - x, alg.element([b - a for a, b in zip(cx, cy)]))


def test_a_rational_factor_multiplies_as_the_full_product_does():
    # [3/2,0,0,0] is central, so its product with y on either side is y
    # scaled by 3/2, (6, 3, 12, 18) / 2^81, whose odd numerator 3 leaves
    # nothing to cancel
    y = H.element([Fraction(c, 2 ** 80) for c in (2, 1, 4, 6)])
    r = H.scalar(Fraction(3, 2))
    assert r.num == (3, 0, 0, 0)
    for got in (r * y, y * r):
        assert_same(got, H.element(fraction_mul(H, r.coords(), y.coords())))
        assert (got.num, got.den) == ((6, 3, 12, 18), 2 ** 81)
        assert_same(got, y._scaled(3, 2))
    oy = O.element([Fraction(c, 2 ** 80) for c in (2, 1, 4, 6, 0, 3, 8, 1)])
    for got in (O.scalar(Fraction(3, 2)) * oy, oy * O.scalar(Fraction(3, 2))):
        assert (got.num, got.den) == ((6, 3, 12, 18, 0, 9, 24, 3), 2 ** 81)


def test_sums_with_zero_return_the_other_operand():
    x = H.element([Fraction(1, 4), 2, Fraction(-3, 4), 0])
    zero = H.zero()
    assert (x + zero) is x and (zero + x) is x and (x - zero) is x
    assert (x + 0) is x and (0 + x) is x and (x - 0) is x
    assert_same(zero - x, -x)
    assert_same(0 - x, -x)
    # 1/4 + 1/4: the shared denominator 4 cancels to 2
    assert_same(H.scalar(Fraction(1, 4)) + H.scalar(Fraction(1, 4)), H.scalar(Fraction(1, 2)))
