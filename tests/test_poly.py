import random
import re
import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from skewrec import (
    ConjClass,
    FieldContext,
    InternalError,
    LeftPoly,
    NoRootsFound,
    OctonionAlgebra,
    QuaternionAlgebra,
    SkewrecError,
    UnsupportedDegree,
    companion_poly,
    conj_class,
    divide_by_linear,
    factor_central_quartic,
    quadratic_roots,
)
from skewrec.forms import _residual
from skewrec.poly import _is_root
from skewrec.scalar import _reduced
from conftest import rand_frac, rand_quat, rand_invertible_quat, rand_scalar

Q = FieldContext.rational()
H = QuaternionAlgebra(-1, -1)
I, J, K = H.e1, H.e2, H.e3


def x_minus(lam):
    return LeftPoly.x_minus(lam)


def test_product_order_matters():
    assert x_minus(J) * x_minus(I) == LeftPoly(H, [-K, -(I + J), 1])
    assert x_minus(I) * x_minus(J) == LeftPoly(H, [K, -(I + J), 1])
    p = LeftPoly(H, [1 + K, -I, 1])
    one = LeftPoly(H, [1])
    assert p * one == p and one * p == p


def test_left_evaluation():
    p = LeftPoly(H, [1 + K, -I, 1])  # x^2 - i x + (1 + ij)
    assert p.eval(J).is_zero()
    assert p.eval(I + J).is_zero()
    assert p.eval(I) == 1 + K  # nonzero: e1 is not a root


def test_conjugate_polynomial():
    p = LeftPoly(H, [1 + K, -I, 1])
    assert p.conj() == LeftPoly(H, [1 - K, I, 1])
    assert p.conj().conj() == p
    central = LeftPoly(H, [2, -3, 1])
    assert central.conj() == central


def test_companion_polynomial():
    p = LeftPoly(H, [-K, -(I + J), 1])  # x^2 - (i+j)x - ij
    assert companion_poly(p) == LeftPoly(Q, [1, 0, 2, 0, 1])  # (x^2+1)^2
    assert companion_poly(x_minus(I)) == LeftPoly(Q, [1, 0, 1])


def test_companion_polynomial_central_random():
    rng = random.Random(13)
    for _ in range(50):
        p = x_minus(rand_quat(rng, H)) * x_minus(rand_quat(rng, H))
        c = companion_poly(p)
        assert isinstance(c.carrier, FieldContext)
        assert c == companion_poly(p.conj())


@pytest.mark.parametrize("alg", [
    H, QuaternionAlgebra(Fraction(-1, 2), Fraction(3, 5)),
    OctonionAlgebra(-1, -1, -1), OctonionAlgebra(2, 3, -1)])
def test_companion_polynomial_is_the_product_with_the_conjugate(alg):
    # C_p from polar forms against the scalar parts of p * conj(p), whose
    # coefficients must all be central; (2,3,-1) is a split octonion algebra
    rng = random.Random(59)
    dim = len(alg.basis())
    for _ in range(25):
        n = rng.randint(1, 3)
        p = LeftPoly(alg, [alg.element([rand_frac(rng) for _ in range(dim)])
                           for _ in range(n)] + [1])
        prod = p * p.conj()
        assert all(c.is_central() for c in prod.coeffs)
        assert companion_poly(p) == LeftPoly(Q, [c.scalar_part() for c in prod.coeffs])


def test_companion_polynomial_octonion():
    O = OctonionAlgebra(-1, -1, -1)
    alpha = -1 - O.element([0, 0, 0, 1, 0, 0, 0, 0])
    beta = O.element([0, 1, 0, 0, 0, 0, 0, 0])
    p = LeftPoly(O, [-alpha, -beta, 1])
    c = companion_poly(p)
    assert c == LeftPoly(Q, [2, 0, 3, 0, 1])  # (x^2+1)(x^2+2)


def test_divide_by_linear():
    p = LeftPoly(H, [-K, -(I + J), 1])
    g, r = divide_by_linear(p, I)
    assert g == x_minus(J) and r.is_zero()
    g, r = divide_by_linear(LeftPoly(H, [1, 0, 1]), H.one())
    assert r == 2
    const = LeftPoly(H, [J])
    g, r = divide_by_linear(const, I)
    assert g.is_zero() and r == J


def test_divide_by_linear_roundtrip():
    rng = random.Random(37)
    for _ in range(60):
        p = LeftPoly(H, [rand_quat(rng, H) for _ in range(4)])
        lam = rand_quat(rng, H)
        g, r = divide_by_linear(p, lam)
        coeffs = list((g * x_minus(lam)).coeffs) or [H.zero()]
        coeffs[0] = coeffs[0] + r
        assert LeftPoly(H, coeffs) == p
        assert r == p.eval(lam)


def test_factor_central_quartic_examples():
    assert factor_central_quartic(LeftPoly(Q, [1, 0, 2, 0, 1])) == [
        (LeftPoly(Q, [1, 0, 1]), 2)
    ]
    assert factor_central_quartic(LeftPoly(Q, [-1, 0, 0, 0, 1])) == [
        (LeftPoly(Q, [-1, 1]), 1),
        (LeftPoly(Q, [1, 1]), 1),
        (LeftPoly(Q, [1, 0, 1]), 1),
    ]
    assert factor_central_quartic(LeftPoly(Q, [1, 0, 0, 0, 1])) == [
        (LeftPoly(Q, [1, 0, 0, 0, 1]), 1)
    ]
    # biquadratic with a nontrivial cross split
    assert factor_central_quartic(LeftPoly(Q, [4, 0, 0, 0, 1])) == [
        (LeftPoly(Q, [2, -2, 1]), 1),
        (LeftPoly(Q, [2, 2, 1]), 1),
    ]


def test_factor_central_quartic_random_roundtrip():
    rng = random.Random(41)
    pool = [
        LeftPoly(Q, [Fraction(rng.randint(-4, 4)), 1]),
        LeftPoly(Q, [1, 0, 1]),
        LeftPoly(Q, [1, 1, 1]),
        LeftPoly(Q, [2, -2, 1]),
        LeftPoly(Q, [Fraction(1, 2), 1]),
    ]
    for _ in range(120):
        nfac = rng.randint(1, 4)
        chosen = []
        prod = LeftPoly(Q, [1])
        for _ in range(nfac):
            f = rng.choice(pool)
            if prod.degree + f.degree > 4:
                continue
            chosen.append(f)
            prod = prod * f
        if prod.degree < 1:
            continue
        factors = factor_central_quartic(prod)
        rebuilt = LeftPoly(Q, [1])
        for f, mult in factors:
            for _ in range(mult):
                rebuilt = rebuilt * f
        assert rebuilt == prod
        for f, _ in factors:
            assert f.is_monic()


def test_factor_degree_guard():
    with pytest.raises(UnsupportedDegree):
        factor_central_quartic(LeftPoly(Q, [1, 0, 0, 0, 0, 1]))
    with pytest.raises(ValueError):
        factor_central_quartic(LeftPoly(Q, [1, 2]) * LeftPoly(Q, [1, 2]))  # not monic


def test_quadratic_roots_two_distinct_classes():
    p = LeftPoly(H, [1 + K, -I, 1])
    roots, jordan, spherical = quadratic_roots(p)
    assert roots == [J, I + J]
    assert conj_class(roots[0]) == ConjClass(t=Q.zero(), n=Q.one())
    assert conj_class(roots[1]) == ConjClass(t=Q.zero(), n=Q.scalar(2))
    assert jordan is None and spherical is None


def test_quadratic_roots_jordan():
    p = LeftPoly(H, [-K, -(I + J), 1])
    roots, jordan, _ = quadratic_roots(p)
    assert roots == [I]
    assert jordan == (I, 2)
    g, r = divide_by_linear(p, I)
    assert r.is_zero() and g == x_minus(J)  # forced split (x - j)(x - i)


def test_quadratic_roots_spherical():
    p = LeftPoly(H, [1, 0, 1])  # x^2 + 1
    roots, jordan, spherical = quadratic_roots(p)
    assert spherical == ConjClass(t=Q.zero(), n=Q.one())
    assert roots == [] and jordan is None  # no root data for the solver


def test_quadratic_roots_central_rational():
    p = x_minus(H.scalar(1)) * x_minus(H.scalar(2))
    roots, _, _ = quadratic_roots(p)
    assert sorted(lam.scalar_part().coords()[0] for lam in roots) == [1, 2]


def test_quadratic_roots_needs_a_quaternion_algebra():
    for carrier in (Q, OctonionAlgebra(-1, -1, -1)):
        with pytest.raises(ValueError, match="needs a quaternion algebra"):
            quadratic_roots(LeftPoly(carrier, [1, 0, 1]))


def test_quadratic_roots_none():
    p = LeftPoly(H, [-I, 0, 1])  # x^2 - i, companion quartic x^4 + 1
    with pytest.raises(NoRootsFound, match=re.escape(
            "C_p = (1)*x^4 + (1) is irreducible over Q: the roots need a "
            "degree-4 scalar extension")):
        quadratic_roots(p)
    # in the split algebra (1,1), x^2 + e1*x - 2 has no root although its
    # companion quartic splits into linear factors
    split = QuaternionAlgebra(1, 1)
    p = LeftPoly(split, [-2, split.e1, 1])
    with pytest.raises(NoRootsFound, match=re.escape(
            "C_p = (1)*x^4 + (-5)*x^2 + (4) factors over Q as [(1)*x + (-2)] * "
            "[(1)*x + (-1)] * [(1)*x + (1)] * [(1)*x + (2)], and no factor yields "
            "a root")):
        quadratic_roots(p)


def test_quadratic_roots_planted_root_recovered():
    # one factor root is always recovered, whatever the second factor does
    rng = random.Random(43)
    for _ in range(60):
        lam = rand_quat(rng, H)
        mu = rand_quat(rng, H)
        if lam.is_zero() or mu.is_zero():
            continue
        p = x_minus(mu) * x_minus(lam)
        roots, jordan, spherical = quadratic_roots(p)
        if jordan:
            roots.append(jordan[0])
        assert any(r == lam for r in roots) or conj_class(lam) == spherical


def test_quadratic_roots_report_invariants():
    rng = random.Random(47)
    checked = 0
    for _ in range(40):
        lam, mu = rand_quat(rng, H), rand_quat(rng, H)
        if lam.is_zero() or mu.is_zero():
            continue
        p = x_minus(mu) * x_minus(lam)
        roots, _, _ = quadratic_roots(p)
        comp = companion_poly(p)
        for root, cls in [(r, conj_class(r)) for r in roots]:
            assert p.eval(root).is_zero()
            # the root's class shows up among the central factors
            match = False
            for f, _ in factor_central_quartic(comp):
                if f.degree == 2 and cls == ConjClass(t=-f.coeffs[1], n=f.coeffs[0]):
                    match = True
                if f.degree == 1 and cls == ConjClass(central=-f.coeffs[0]):
                    match = True
            assert match
            assert LeftPoly(H, list(comp.coeffs)).eval(root).is_zero()
        checked += 1
    assert checked > 30


def test_quadratic_roots_at_most_two_per_class():
    rng = random.Random(53)
    for _ in range(40):
        lam, mu = rand_quat(rng, H), rand_quat(rng, H)
        if lam.is_zero() or mu.is_zero():
            continue
        roots, _, _ = quadratic_roots(x_minus(mu) * x_minus(lam))
        seen = {}
        for cls in map(conj_class, roots):
            seen[cls] = seen.get(cls, 0) + 1
        assert all(v <= 2 for v in seen.values())


# ---------------------------------------------------------------------------
# factor_central_quartic against sympy's factor_list over QQ

QUARTIC_POOL = st.lists(
    st.tuples(st.fractions(min_value=-6, max_value=6, max_denominator=4),
              st.fractions(min_value=-6, max_value=6, max_denominator=4),
              st.integers(1, 2)),
    min_size=1, max_size=4)


def sympy_monic_factors(coeffs):
    """(monic factor coefficients low-first, multiplicity) from sympy."""
    from sympy import Poly, QQ, Rational, symbols

    x = symbols("x")
    poly = Poly([Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
                x, domain=QQ)
    out = []
    for f, mult in poly.factor_list()[1]:
        f = f.monic()
        out.append(([Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())],
                    mult))
    return sorted(out, key=lambda fm: (len(fm[0]), fm[0]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(QUARTIC_POOL, st.booleans())
def test_factor_central_quartic_agrees_with_sympy(parts, dense):
    # products of linear (x + c0) and quadratic (x^2 + c1 x + c0) factors up
    # to degree 4, or, with dense, a monic quartic with those coefficients
    if dense:
        flat = [c for c0, c1, _ in parts for c in (c0, c1)][:4]
        p = LeftPoly(Q, flat + [0] * (4 - len(flat)) + [1])
    else:
        p = LeftPoly(Q, [1])
        for c0, c1, deg in parts:
            f = LeftPoly(Q, [c0, 1] if deg == 1 else [c0, c1, 1])
            if p.degree + f.degree <= 4:
                p = p * f
        if p.degree < 1:
            return
    got = [([c.coords()[0] for c in f.coeffs], mult) for f, mult in factor_central_quartic(p)]
    assert got == sympy_monic_factors([c.coords()[0] for c in p.coeffs])


def int_product(*factors):
    """The product of integer polynomials given low degree first."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def factor_shapes(rng):
    """(name, monic integer polynomial) for each shape whose factors
    `_factor_monic` finds by a different step: a quartic is split first, a
    quadratic is finished by its discriminant, and integer roots are sought
    only in a cubic, in closed form when its discriminant is 0, or in a
    quartic with no quadratic factor."""
    def lin():
        return [rng.randint(-12, 12), 1]

    def quad():
        return [rng.randint(-40, 40), rng.randint(-12, 12), 1]

    def irreducible_cubic():
        while True:
            c = [rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-20, 20), 1]
            if len(sympy_monic_factors(c)) == 1:
                return c

    # (y^2 + 2ky + 2k^2)(y^2 - 2ky + 2k^2), y^4 - 3y^2 + 1 and y^4 + y^2 + 1
    # split only with A != 0, though Q = 0 makes y = 0 a resolvent root
    yield "biquadratic", [4, 0, 0, 0, 1]
    yield "biquadratic", [1, 0, -3, 0, 1]
    yield "biquadratic", [1, 0, 1, 0, 1]
    yield "square", [4, 0, 4, 0, 1]  # (y^2 + 2)^2
    yield "irreducible", [2, 0, 0, 0, 1]
    for _ in range(30):
        k = rng.randint(1, 9)
        yield "biquadratic", [4 * k ** 4, 0, 0, 0, 1]
        yield "biquadratic", [rng.randint(-30, 30), 0, rng.randint(-20, 20), 0, 1]
        q, a = quad(), lin()
        yield "square", int_product(q, q)
        yield "linear * cubic", int_product(lin(), irreducible_cubic())
        yield "linear^2 * quadratic", int_product(a, a, quad())
        yield "linear * linear * quadratic", int_product(lin(), lin(), quad())
        r, t = rng.randint(-30, 30), rng.randint(-30, 30)
        yield "quadratic, square discriminant", int_product([-r, 1], [-t, 1])
        yield "quadratic", quad()
        yield "quartic", [rng.randint(-40, 40) for _ in range(4)] + [1]
        b = lin()
        while b == a:
            b = lin()
        yield "cubic, double root", int_product(a, a, b)
        yield "cubic, triple root", int_product(a, a, a)
        # Y^2 (Y + 2P): the resolvent cubic of a depressed quartic with
        # Q = 0 and P^2 = 4R
        yield "cubic Y^2 (Y + 2P)", [0, 0, 2 * rng.choice([-1, 1]) * rng.randint(1, 40), 1]
        yield "cubic", [rng.randint(-40, 40) for _ in range(3)] + [1]


def test_factor_monic_agrees_with_sympy_on_every_shape():
    # the factor list, in its order, is sympy's factor_list over QQ
    from skewrec.poly import _factor_monic

    seen = set()
    for name, g in factor_shapes(random.Random(16)):
        got = [(list(u), m) for u, m in _factor_monic(g)]
        assert got == sympy_monic_factors(g), (name, g)
        seen.add((name, tuple(len(u) - 1 for u, m in got for _ in range(m))))
    # each named shape occurs with the factor degrees it is named for
    for name, degrees in [("biquadratic", (2, 2)), ("square", (2, 2)),
                          ("linear * cubic", (1, 3)), ("linear^2 * quadratic", (1, 1, 2)),
                          ("linear * linear * quadratic", (1, 1, 2)),
                          ("quadratic, square discriminant", (1, 1)),
                          ("quadratic", (2,)), ("irreducible", (4,)), ("quartic", (4,)),
                          ("cubic, double root", (1, 1, 1)), ("cubic, triple root", (1, 1, 1)),
                          ("cubic Y^2 (Y + 2P)", (1, 1, 1)), ("cubic", (3,))]:
        assert (name, degrees) in seen, name


def test_factor_central_quartic_on_zero_discriminant_cubics_and_unsplit_quartics():
    # the same shapes as rational polynomials f(x) = g(L*x) / L^deg, against
    # sympy's factor_list
    shapes = {"cubic, double root", "cubic, triple root", "cubic Y^2 (Y + 2P)",
              "irreducible", "quartic", "linear * cubic"}
    for name, g in factor_shapes(random.Random(17)):
        if name not in shapes:
            continue
        for L in (1, 6):
            p = LeftPoly(Q, [Fraction(c, L ** (len(g) - 1 - i)) for i, c in enumerate(g)])
            got = [([c.coords()[0] for c in f.coeffs], m) for f, m in factor_central_quartic(p)]
            assert got == sympy_monic_factors([c.coords()[0] for c in p.coeffs]), (name, g, L)


def test_no_quartic_with_a_repeated_factor_reaches_the_root_search(monkeypatch):
    # the root search takes a squarefree polynomial or a cubic: a quartic
    # with a repeated factor must be split before it (squares q^2 are
    # covered by test_squares_split_with_no_root_search)
    from skewrec import poly

    integer_roots = poly._integer_roots

    def spy(g):
        assert len(g) != 5, g
        return integer_roots(g)

    monkeypatch.setattr(poly, "_integer_roots", spy)
    rng = random.Random(9)
    for _ in range(40):
        a, b = [rng.randint(-12, 12), 1], [rng.randint(-12, 12), 1]
        q = [rng.randint(-40, 40), rng.randint(-12, 12), 1]
        for g in (int_product(a, a, q), int_product(a, a, a, b),
                  int_product(a, a, a, a), int_product(a, a, b, b)):
            got = [(list(u), m) for u, m in poly._factor_monic(g)]
            assert got == sympy_monic_factors(g), g
    # one that got there anyway is refused, not searched for ever
    with pytest.raises(InternalError):
        integer_roots(int_product([-1, 1], [-1, 1], [1, 0, 1]))


def test_squares_split_with_no_root_search(monkeypatch):
    # C_p of a Jordan or spherical spec is a square q^2: its depressed form
    # has Q = 0, and A = 0 splits it before any resolvent root is sought
    from skewrec import poly

    calls = []
    integer_roots = poly._integer_roots
    monkeypatch.setattr(poly, "_integer_roots", lambda g: calls.append(g) or integer_roots(g))
    rng = random.Random(5)
    for _ in range(50):
        q = [rng.randint(-40, 40), rng.randint(-12, 12), 1]
        factors = poly._factor_monic(int_product(q, q))
        assert sum(m * (len(u) - 1) for u, m in factors) == 4
    assert calls == []
    assert poly._factor_monic([4, 0, 0, 0, 1]) == [((2, -2, 1), 1), ((2, 2, 1), 1)]
    assert calls  # y^4 + 4 needs the resolvent's root 64


# Per-call budget for the differential test below, in seconds.  The integer
# kernel takes under 5 ms per call; a search over the divisors of the
# coefficients, exponential in their bit length, did not return from the
# first of these inputs within 300 s.
FACTOR_BUDGET_S = 0.25


def sympy_integer_roots(g):
    """The distinct integer roots of the monic integer g, ascending, by sympy."""
    from sympy import Poly, symbols

    roots = Poly(list(reversed(g)), symbols("y")).ground_roots()
    return sorted(int(r) for r in roots if r.is_integer)


def irreducible_int(rng, degree, size):
    """A monic integer polynomial of the given degree, 2 or 3, irreducible
    over Q, with coefficients up to size."""
    while True:
        f = [rng.randint(-size, size) for _ in range(degree)] + [1]
        if sympy_monic_factors(f) == [(f, 1)]:
            return f


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["three roots", "root * quadratic", "irreducible cubic", "four roots",
                        "two roots * quadratic", "root * cubic"]),
       st.integers(0, 2 ** 32))
def test_integer_roots_agree_with_sympy_up_to_a_trillion(shape, seed):
    # cubics of every shape and squarefree quartics (the root search's
    # precondition) with integer roots of up to 10**12 in size
    from skewrec.poly import _integer_roots

    rng = random.Random(seed)
    size = 10 ** rng.randint(1, 12)
    roots = rng.sample(range(-size, size + 1), 4)
    lin = [[-r, 1] for r in roots]
    if shape == "three roots":  # repeated roots too: any cubic qualifies
        g = int_product(*rng.choice([lin[:3], [lin[0], lin[0], lin[1]], [lin[0]] * 3]))
    elif shape == "root * quadratic":
        g = int_product(lin[0], irreducible_int(rng, 2, size))
    elif shape == "irreducible cubic":
        g = irreducible_int(rng, 3, size)
    elif shape == "four roots":
        g = int_product(*lin)
    elif shape == "two roots * quadratic":
        g = int_product(lin[0], lin[1], irreducible_int(rng, 2, size))
    else:
        g = int_product(lin[0], irreducible_int(rng, 3, size))
    assert _integer_roots(g) == sympy_integer_roots(g), g


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-50, 50), min_size=3, max_size=4))
def test_root_search_discriminant_agrees_with_sympy(coeffs):
    # the discriminant that names the root search's prime: disc(g) of a
    # cubic, and 2**24 * disc(g) of a quartic, read off its resolvent cubic
    from sympy import Poly, discriminant, symbols
    from skewrec.poly import _discriminant

    g = coeffs + [1]
    expected = discriminant(Poly(list(reversed(g)), symbols("y")))
    assert _discriminant(g) == (2 ** 24 if len(g) == 5 else 1) * expected


def test_integer_roots_skip_every_prime_of_the_discriminant():
    # roots that collide mod 3, 5, 7 and 11 make g mod p non-squarefree for
    # each of those p: the search must take p = 13, where they are simple
    from skewrec.poly import _discriminant, _integer_roots

    rng = random.Random(13)
    for _ in range(200):
        r = rng.randint(-10 ** 6, 10 ** 6)
        roots = [r, r + 1155 * rng.randint(1, 99), r - 1155 * rng.randint(1, 99)]
        cubic = int_product(*[[-x, 1] for x in roots])
        assert _discriminant(cubic) % 1155 == 0
        assert _integer_roots(cubic) == sorted(set(roots))
        quad = irreducible_int(rng, 2, 50)
        quartic = int_product(quad, [-roots[0], 1], [-roots[1], 1])
        assert _integer_roots(quartic) == sorted(set(roots[:2])), quartic


def test_integer_roots_find_roots_near_the_lifting_bound():
    # the cubics (y - r)(y^2 + a*y + b) with r > max_i 2**ceil(bits(g_{3-i}) / i),
    # that is, with a root beyond half the bound rb that stops the lifting,
    # so that a bound half as large misses some of them; their integer
    # roots are r and those of the quadratic, by its discriminant
    from skewrec.poly import _integer_roots

    checked = 0
    for r in range(1, 41):
        for a in range(-24, 25):
            for b in range(-48, 49):
                g = int_product([-r, 1], [b, a, 1])
                if r <= max([1 << -(-abs(g[3 - i]).bit_length() // i) for i in (1, 2, 3)]):
                    continue
                disc = a * a - 4 * b
                s = isqrt(disc) if disc >= 0 else -1
                quad = {(-a + s) // 2, (-a - s) // 2} if s * s == disc else set()
                assert _integer_roots(g) == sorted({r} | quad), g
                checked += 1
    assert checked > 5000


def test_factor_central_quartic_large_coefficients_agree_with_sympy():
    # quartics and cubics whose coefficients have 30 to 120 bits: products
    # of linear and quadratic factors with 8- to 30-bit numerators (so that
    # they do factor), and dense ones with 30- to 120-bit coefficients
    rng = random.Random(61)

    def rat(bits):
        return Fraction(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, 2 ** 8))

    shapes = [[1, 1, 1, 1], [2, 2], [2, 1, 1], [1, 1, 1], [2, 1], [4], [3], [1, 3]]
    for i in range(160):
        degs = shapes[i % len(shapes)]
        bits = rng.randint(8, 30)
        p = LeftPoly(Q, [1])
        for d in degs:
            if d > 2:  # a dense cubic or quartic factor
                bits = rng.randint(30, 120)
            p = p * LeftPoly(Q, [rat(bits) for _ in range(d)] + [1])
        t0 = time.perf_counter()
        factors = factor_central_quartic(p)
        elapsed = time.perf_counter() - t0
        assert elapsed < FACTOR_BUDGET_S, (p, elapsed)
        got = [([c.coords()[0] for c in f.coeffs], mult) for f, mult in factors]
        assert got == sympy_monic_factors([c.coords()[0] for c in p.coeffs]), p


# ---------------------------------------------------------------------------
# C_p on integers and the roots read off its factors, against sympy

ROOT_ALGEBRAS = (
    QuaternionAlgebra(-1, -1),
    QuaternionAlgebra(-1, -3),
    QuaternionAlgebra(Fraction(-1, 2), Fraction(3, 5)),
    QuaternionAlgebra(1, 1),  # split
    QuaternionAlgebra(2, 3),  # split
)


def planted_quadratic(rng, alg, kind):
    """A monic quadratic with two planted roots in distinct or in one
    class, the central product with a conjugate, or random coefficients."""
    lam = rand_quat(rng, alg, 4, 2)
    if kind == "product":
        return x_minus(rand_quat(rng, alg, 4, 2)) * x_minus(lam)
    if kind == "conj":
        return x_minus(lam.conj()) * x_minus(lam)
    if kind == "conjugate":
        g = rand_quat(rng, alg, 3, 2)
        if g.norm().is_zero():
            return x_minus(lam) * x_minus(lam)
        return x_minus((g * lam) * g.inverse()) * x_minus(lam)
    return LeftPoly(alg, [rand_quat(rng, alg, 3, 2), rand_quat(rng, alg, 3, 2), 1])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(ROOT_ALGEBRAS), st.sampled_from(["product", "conj", "conjugate", "random"]),
       st.integers(0, 2 ** 32))
def test_quadratic_roots_central_factors_agree_with_sympy(alg, kind, seed):
    # factor_central_quartic of companion_poly against sympy's factor_list of
    # the LeftPoly product p * conj(p); every root reported satisfies
    # lam^2 + c1*lam + c0 = 0, evaluated without eval
    p = planted_quadratic(random.Random(seed), alg, kind)
    prod = p * p.conj()
    assert all(c.is_central() for c in prod.coeffs)
    expected = sympy_monic_factors([c.coords()[0] for c in prod.coeffs])
    got = [([c.coords()[0] for c in f.coeffs], m)
           for f, m in factor_central_quartic(companion_poly(p))]
    assert got == expected
    try:
        roots, _, spherical = quadratic_roots(p)
    except NoRootsFound as exc:
        if len(expected) == 1 and len(expected[0][0]) == 5:
            assert "is irreducible over Q" in str(exc)
        else:
            listed = [f"[{LeftPoly(Q, c)}]" + (f"^{m}" if m > 1 else "") for c, m in expected]
            assert " * ".join(listed) in str(exc)
        return
    except SkewrecError:  # a zero divisor: no report
        return
    c0, c1 = p.coeffs[0], p.coeffs[1]
    if spherical:  # p = x^2 - t*x + n: every element of the class is a root
        assert (c0, c1) == (spherical.n, -spherical.t) and not roots
    assert roots or spherical
    for lam in roots:
        assert (lam * lam + c1 * lam + c0).is_zero()


def quadratic_roots_by_values(p, tested=None):
    """quadratic_roots as it was before its class steps moved onto integers:
    t, n, the candidate (t - beta)^-1 (n + alpha) and p(lam) = 0 as values,
    and a ConjClass for every quadratic factor.  A class candidate is a root
    of that class by theorem: the reference tests it, asserts so, and
    appends it to tested, if given."""
    from skewrec.algebra import QuatValue
    from skewrec.poly import _companion, _factor_monic, _unscaled, _unscaled_factors
    from skewrec.scalar import _reduced

    alg = p.carrier
    beta = -p.coeffs[1]
    alpha = -p.coeffs[0]
    g, L = _companion(p)
    factors = _factor_monic(g)
    roots = []
    spherical = None
    for u, _mult in factors:
        if len(u) == 2:
            lam = _reduced(QuatValue, alg, (-u[0], 0, 0, 0), L)
            if p.eval(lam).is_zero():
                roots.append(lam)
        elif len(u) == 3:
            t = _reduced(QuatValue, alg, (-u[1], 0, 0, 0), L)
            n = _reduced(QuatValue, alg, (u[0], 0, 0, 0), L * L)
            cls = ConjClass(t=t.scalar_part(), n=n.scalar_part())
            if beta == t:
                if alpha == -n:
                    spherical = cls
            else:
                lam = (t - beta).inverse() * (n + alpha)
                assert p.eval(lam).is_zero() and conj_class(lam) == cls
                roots.append(lam)
                if tested is not None:
                    tested.append(lam)
    jordan = None
    if spherical is None and len(roots) == 1:
        lam = roots[0]
        if conj_class(beta - lam) == conj_class(lam):
            jordan = (lam, 2)
    if not roots and spherical is None:
        comp = _unscaled(alg.ctx, g, L)
        if len(factors) == 1 and len(factors[0][0]) == 5:
            raise NoRootsFound(f"C_p = {comp} is irreducible over Q: the roots "
                               "need a degree-4 scalar extension")
        listed = " * ".join(f"[{f}]^{m}" if m > 1 else f"[{f}]"
                            for f, m in _unscaled_factors(alg.ctx, factors, L))
        raise NoRootsFound(f"C_p = {comp} factors over Q as {listed}, and no "
                           "factor yields a root")
    return roots, jordan, spherical


def _roots_outcome(find, p):
    """The roots with their conj_class labels, jordan and spherical, or the
    error's class and text."""
    try:
        roots, jordan, spherical = find(p)
    except SkewrecError as exc:
        return type(exc).__name__, str(exc)
    return [(lam, conj_class(lam)) for lam in roots], jordan, spherical


DIFFERENTIAL_ALGEBRAS = (
    QuaternionAlgebra(-1, -1),
    QuaternionAlgebra(-1, -3),
    QuaternionAlgebra(1, 1),  # split: zero divisors
    QuaternionAlgebra(2, 3),  # split
    QuaternionAlgebra(Fraction(-1, 2), Fraction(3, 5)),  # products carry D = 10
)
SPLIT_ALGEBRAS = DIFFERENTIAL_ALGEBRAS[2:4]  # the others are division algebras


DIFFERENTIAL_KINDS = ["product", "conj", "conjugate", "random", "central", "scalar root",
                      "zero divisor"]


def differential_quadratic(rng, alg, kind):
    """planted_quadratic's kinds, and x^2 - t*x + n (a spherical class or
    central roots), a central root times another, and a cofactor that in
    (1, 1) is the root's conjugate plus the zero divisor e1 + e3."""
    if kind == "central":
        return LeftPoly(alg, [rand_frac(rng, 6, 2), rand_frac(rng, 6, 2), 1])
    if kind == "scalar root":
        return x_minus(rand_quat(rng, alg, 4, 2)) * x_minus(alg.scalar(rand_frac(rng, 4, 2)))
    if kind == "zero divisor":
        lam = rand_quat(rng, alg, 4, 2)
        return x_minus(lam.conj() + alg.e1 + alg.e3) * x_minus(lam)
    return planted_quadratic(rng, alg, kind)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(DIFFERENTIAL_ALGEBRAS), st.sampled_from(DIFFERENTIAL_KINDS),
       st.integers(0, 2 ** 32))
def test_quadratic_roots_agrees_with_the_value_level_class_loop(alg, kind, seed):
    p = differential_quadratic(random.Random(seed), alg, kind)
    assert _roots_outcome(quadratic_roots, p) == _roots_outcome(quadratic_roots_by_values, p)


def test_quadratic_roots_differential_covers_every_outcome():
    # the drawn quadratics reach isolated, Jordan and spherical roots, both
    # NoRootsFound texts, the split algebras' ZeroDivisor, and class roots,
    # taken with no test, in a division and in a split algebra, each of
    # which the reference finds a root of its class by p(lam) = 0
    seen = set()
    rng = random.Random(19)
    n_alg, n_kind = len(DIFFERENTIAL_ALGEBRAS), len(DIFFERENTIAL_KINDS)
    for i in range(n_alg * n_kind * 20):
        alg = DIFFERENTIAL_ALGEBRAS[i % n_alg]
        p = differential_quadratic(rng, alg, DIFFERENTIAL_KINDS[i // n_alg % n_kind])
        out = _roots_outcome(quadratic_roots, p)
        tested = []
        assert out == _roots_outcome(lambda q: quadratic_roots_by_values(q, tested), p)
        if tested:
            seen.add("class root in a " + ("split" if alg in SPLIT_ALGEBRAS else "division")
                     + " algebra")
        if isinstance(out[0], str):
            seen.add(out[0] + (" irreducible" if "irreducible" in out[1] else ""))
        else:
            roots, jordan, spherical = out
            seen.add("jordan" if jordan else "spherical" if spherical else f"{len(roots)} isolated")
    assert {"1 isolated", "2 isolated", "jordan", "spherical", "NoRootsFound",
            "NoRootsFound irreducible", "ZeroDivisor", "class root in a division algebra",
            "class root in a split algebra"} <= seen, seen


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([H, QuaternionAlgebra(Fraction(-1, 2), Fraction(3, 5)),
                        OctonionAlgebra(-1, -1, -1), OctonionAlgebra(2, 3, -1)]),
       st.integers(0, 4), st.booleans(), st.integers(0, 2 ** 32))
def test_eval_is_the_sum_of_coefficient_times_power(alg, n, monic, seed):
    # Horner's rule from the leading coefficient against sum c_i * t**i,
    # for octonions too (Artin's theorem)
    rng = random.Random(seed)
    dim = len(alg.basis())
    rand = lambda: alg.element([rand_frac(rng, 4, 2) for _ in range(dim)])
    p = LeftPoly(alg, [rand() for _ in range(n)] + [1 if monic else rand()])
    t = rand()
    expected = alg.zero()
    for i, c in enumerate(p.coeffs):
        expected = expected + c * t ** i
    assert p.eval(t) == expected


def test_negation_difference_and_hash():
    p = LeftPoly(H, [1 + K, -I, 1])
    q = LeftPoly(H, [J, 2 * I, 1])
    same = LeftPoly(H, [1 + K, -I, 1])
    assert hash(p) == hash(same) and len({p, same, q}) == 2
    trailing_zero = LeftPoly(H, [1, 0])
    assert trailing_zero == LeftPoly(H, [1]) and hash(trailing_zero) == hash(LeftPoly(H, [1]))


ROOT_TEST_CARRIERS = [Q, FieldContext(2), H,
                      QuaternionAlgebra(Fraction(-1, 2), Fraction(3, 5)),
                      QuaternionAlgebra(1, 1), QuaternionAlgebra(2, 3)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(ROOT_TEST_CARRIERS), st.integers(1, 4), st.booleans(),
       st.sampled_from(["planted", "random"]), st.integers(0, 2 ** 32))
def test_is_root_is_the_zero_test_of_left_evaluation(carrier, n, monic, kind, seed):
    # the residual kernel and its zero test against LeftPoly.eval, over
    # every associative carrier, split algebras included: the reduced
    # residual is the value p(lam); lam is a root of g * (x - lam), so the
    # planted half of the cases are roots
    rng = random.Random(seed)
    if isinstance(carrier, FieldContext):
        rand = lambda: rand_scalar(rng, carrier, 4, 2)
    else:
        rand = lambda: rand_quat(rng, carrier, 4, 2)
    lam = rand()
    top = carrier.one() if monic else rand()
    while top.is_zero():
        top = rand()
    if kind == "planted":
        p = LeftPoly(carrier, [rand() for _ in range(n - 1)] + [top]) * x_minus(lam)
    else:
        p = LeftPoly(carrier, [rand() for _ in range(n)] + [top])
    assert p.degree == n
    num, den = _residual([(c.num, c.den) for c in p.coeffs], lam)
    assert _reduced(carrier.value_type, carrier, tuple(num), den) == p.eval(lam)
    expected = p.eval(lam).is_zero()
    assert _is_root(p.coeffs, lam) == expected
    assert expected or kind == "random"
