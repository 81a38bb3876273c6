import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from skewrec import (
    ContextMismatch,
    DivisionByZero,
    FieldContext,
    OctonionAlgebra,
    ParseError,
    QuaternionAlgebra,
    ScalarValue,
)
from skewrec.scalar import _lucas, rational_str, squarefree_split
from conftest import rand_scalar

Q = FieldContext.rational()
Q5 = FieldContext(5)


def test_context_validation():
    FieldContext(2)
    FieldContext(15)
    with pytest.raises(ValueError):
        FieldContext(1)
    with pytest.raises(ValueError):
        FieldContext(4)
    with pytest.raises(ValueError):
        FieldContext(12)  # 4 | 12


def test_rational_arithmetic():
    half = Q.scalar(Fraction(1, 2))
    third = Q.scalar(Fraction(1, 3))
    assert half + third == Fraction(5, 6)
    assert half - third == Fraction(1, 6)
    assert half * third == Fraction(1, 6)
    assert half / third == Fraction(3, 2)
    assert -half == Fraction(-1, 2)


def test_quadratic_multiplication():
    x = Q5.element((1, 1))
    y = Q5.element((1, -1))
    assert x * y == -4  # (1+rt5)(1-rt5) = 1 - 5
    assert x * x == Q5.element((6, 2))


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Q.scalar(1) / Q.scalar(0)
    with pytest.raises(DivisionByZero):
        Q5.scalar(0).inverse()


def test_parse_examples():
    x = Q.read("5/10")
    assert x == Fraction(1, 2) and str(x) == "1/2"
    assert Q5.read("1/2+1/2*rt").coords() == [Fraction(1, 2), Fraction(1, 2)]
    assert Q5.read("0-1*rt").coords() == [0, -1]
    assert Q5.read("3/4") == Q5.ratio(3, 4)
    assert Q.read("-7") == -7


def test_parse_errors():
    # (text, carrier, reason, col counted from the start of the text)
    for text, ctx, reason, col in (
            ("1/0", Q, "denominator must be a positive integer", 2),
            ("", Q, "empty scalar literal", 0),
            ("1/2+", Q5, "expected an integer", 4),
            ("1//2", Q, "expected an integer", 2),
            ("1+2*rt junk", Q5, "trailing characters after '*rt'", 6),
            ("1+2*rt", Q, "'*rt' literal used in a rational context", 0),
            # only ASCII whitespace is stripped: a no-break space or an em
            # space is an error at its own column
            ("\xa01", Q, "expected an integer", 0),
            (" \xa01/2", Q, "expected an integer", 0),
            ("1/2\u2003", Q, "expected '+', '-' or end of literal", 3)):
        with pytest.raises(ParseError) as exc:
            ctx.read(text)
        assert (exc.value.reason, exc.value.line, exc.value.col) == (reason, None, col)
    assert Q.read(" \t1/2\r\n") == Fraction(1, 2)


READ_CARRIERS = [Q, Q5, QuaternionAlgebra(-1, -1),
                 QuaternionAlgebra(Fraction(1, 2), Fraction(-1, 4)), OctonionAlgebra(-1, -1, -1)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(READ_CARRIERS), st.data())
def test_parse_render_roundtrip(carrier, data):
    # every carrier reads back the text it prints, on coordinates over small
    # denominators and over ones wider than 64 bits
    coord = st.one_of(st.fractions(max_denominator=12),
                      st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 70)))
    x = carrier.element(data.draw(st.lists(coord, min_size=carrier.dim, max_size=carrier.dim)))
    assert carrier.read(str(x)) == x
    assert str(carrier.read(str(x))) == str(x)


def test_field_axioms():
    rng = random.Random(23)
    for ctx in (Q, Q5, FieldContext(2)):
        for _ in range(150):
            x, y, z = (rand_scalar(rng, ctx) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x + y == y + x
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z
            if not x.is_zero():
                assert x * x.inverse() == 1


def test_conjugation_and_norm_multiplicative():
    rng = random.Random(5)
    for _ in range(200):
        x, y = rand_scalar(rng, Q5), rand_scalar(rng, Q5)
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x * y).norm() == x.norm() * y.norm()


def test_sqrt():
    assert Q.scalar(Fraction(9, 4)).sqrt() == Fraction(3, 2)
    assert Q.scalar(2).sqrt() is None
    assert Q.scalar(-1).sqrt() is None
    two = FieldContext(2)
    # 3 + 2*rt2 = (1 + rt2)^2
    r = two.element((3, 2)).sqrt()
    assert r is not None and r * r == two.element((3, 2))
    assert two.element((0, 1)).sqrt() is None  # rt2 has no 4th root in Q(rt2)
    assert two.scalar(2).sqrt() == two.element((0, 1))


@pytest.mark.parametrize("d", [2, 5, 6])
@settings(max_examples=150, deadline=None)
@given(p=st.fractions(-20, 20, max_denominator=12), q=st.fractions(-20, 20, max_denominator=12))
@example(p=Fraction(0), q=Fraction(3, 2))
@example(p=Fraction(-2), q=Fraction(0))
@example(p=Fraction(0), q=Fraction(-1))
@example(p=Fraction(0), q=Fraction(0))
def test_sqrt_of_a_square_is_its_canonical_root(d, p, q):
    # the root p + q*rt with p > 0, or p = 0 and q >= 0; and a square times
    # a g with a negative conjugate (not totally positive) is no square
    ctx = FieldContext(d)
    x = ctx.element((p, q))
    assert (x * x).sqrt() == (x if p > 0 or (p == 0 and q >= 0) else -x)
    if x:
        rt = ctx.element((0, 1))
        for g in (-1, rt, 1 + rt):
            assert (g * x * x).sqrt() is None


def test_semantic_equality_across_contexts():
    assert Q.scalar(3) == Q5.scalar(3)
    assert hash(Q.scalar(3)) == hash(Q5.scalar(3))
    assert Q5.element((0, 1)) != FieldContext(2).element((0, 1))


def test_scalar_divided_by_a_value():
    x = Q5.element((1, 1))  # 1 + sqrt(5), norm -4
    assert x.inverse() * 2 == Q5.element((Fraction(-1, 2), Fraction(1, 2)))
    assert x.inverse() * Fraction(3, 4) == Q5.element((Fraction(-3, 16), Fraction(3, 16)))
    assert (x.inverse() * 2) * x == 2 and Q.scalar(Fraction(-2, 3)).inverse() == Fraction(-3, 2)
    with pytest.raises(DivisionByZero):
        Q5.zero().inverse() * 2


def test_mixed_context_arithmetic_rejected():
    with pytest.raises(ContextMismatch):
        Q5.element((0, 1)) + FieldContext(2).element((0, 1))


def test_squarefree_split_agrees_with_sympy():
    # random 60- to 80-bit inputs against sympy's factorint; then products
    # of two 30- to 35-bit primes, on which trial division up to the square
    # root takes a minute and more, and r**2 * s with r of 20 and s of 30 bits
    from sympy import factorint, nextprime

    rng = random.Random(67)
    cases = []
    for n in (rng.randint(2 ** 60, 2 ** 80) for _ in range(30)):
        e = d = 1
        for p, k in factorint(n).items():
            e *= p ** (k // 2)
            d *= p ** (k % 2)
        cases.append((n, (e, d)))
    for _ in range(4):
        p, q = (nextprime(rng.randint(2 ** 29, 2 ** 34)) for _ in range(2))
        r, s = nextprime(rng.randint(2 ** 19, 2 ** 20)), nextprime(rng.randint(2 ** 29, 2 ** 30))
        cases += [(p * q, (1, p * q) if p != q else (p, 1)), (r * r * s, (r, s))]
    t0 = time.perf_counter()
    got = [squarefree_split(n) for n, _ in cases]
    assert time.perf_counter() - t0 < 5.0
    assert got == [want for _, want in cases]


def test_factor_divides_the_unfactored_part_by_every_prime_found(monkeypatch):
    # rho splits 43 off 43^2 * 47, then gives up on 43 * 47: the second 43
    # is found only by dividing the unfactored part by the primes found
    from skewrec import scalar

    n = 43 ** 2 * 47
    monkeypatch.setattr(scalar, "_rho_factor",
                        lambda m, steps: (43, steps) if m == n else (None, 0))
    assert scalar._factor(n, 100) == ({43: 2}, 47)


@pytest.mark.parametrize("d", [2, 5, 13])
def test_quadratic_arithmetic_agrees_with_sympy(d):
    # the integer layout against sympy's own arithmetic with sqrt(d)
    from sympy import Rational, expand, radsimp, sqrt

    rt = sqrt(d)
    ctx = FieldContext(d)

    def sym(x):
        u, v = x.coords()
        return Rational(u.numerator, u.denominator) + Rational(v.numerator, v.denominator) * rt

    def same(x, expr):
        return expand(sym(x) - radsimp(expr)) == 0

    rng = random.Random(d)
    for _ in range(40):
        x, y = rand_scalar(rng, ctx, num=30, den=12), rand_scalar(rng, ctx, num=30, den=12)
        X, Y = sym(x), sym(y)
        assert same(x + y, X + Y) and same(x - y, X - Y) and same(x * y, X * Y)
        assert same(x.conj(), X.subs(rt, -rt))
        assert same(x.norm(), X * X.subs(rt, -rt))
        k = rng.randint(0, 9)
        assert same(x ** k, X ** k)
        if not x.is_zero():
            assert same(x.inverse(), 1 / X)
            assert same(x ** -k, X ** -k)


def test_lucas_pair_is_fibonacci_at_one_minus_one():
    from sympy import fibonacci

    for k in range(501):
        assert _lucas(1, -1, k) == (fibonacci(k), fibonacci(k + 1))


def test_lucas_pair_follows_its_recurrence():
    # U_0 = 0, U_1 = 1, U_{j+2} = P*U_{j+1} - Q*U_j, including P = 0, Q = 0,
    # negative values and central bases P^2 = 4Q, where U_k = k*(P/2)^(k-1)
    rng = random.Random(9)
    pairs = [(0, 0), (0, 5), (3, 0), (-4, -7), (2, 1), (-6, 9), (10, 25)]
    pairs += [(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)) for _ in range(12)]
    for P, Q in pairs:
        us = [0, 1]
        while len(us) < 302:
            us.append(P * us[-1] - Q * us[-2])
        for k in range(301):
            assert _lucas(P, Q, k) == (us[k], us[k + 1])
        if P * P == 4 * Q:
            assert all(us[k] == k * (P // 2) ** (k - 1) for k in range(1, 301))


BIG = st.integers(-2 ** 200, 2 ** 200)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.integers(-40, 40), BIG), st.one_of(st.integers(-40, 40), BIG))
@example(0, 7)
@example(0, -7)
@example(-6, 4)
@example(6, -4)
@example(5, 1)
def test_rational_str_is_the_fraction_text(n, d):
    if d == 0:
        with pytest.raises(ZeroDivisionError):
            rational_str(n, d)
        return
    assert rational_str(n, d) == str(Fraction(n, d))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([Q, Q5]), st.one_of(st.integers(-40, 40), BIG),
       st.one_of(st.integers(-40, 40), BIG), st.integers(1, 2 ** 70))
def test_values_print_as_their_fraction_coordinates(ctx, u, v, den):
    # str prints from numerators, as the Fraction coordinates used to: u
    # over Q, u+v*rt or u-|v|*rt over Q(rt d)
    x = ctx.element((Fraction(u, den), Fraction(v, den))[:ctx.dim])
    fu, fv = x.coords()[0], (x.coords() + [Fraction(0)])[1]
    text = str(fu) if fv == 0 else f"{fu}{'-' if fv < 0 else '+'}{abs(fv)}*rt"
    assert str(x) == text
    assert super(ScalarValue, x).__str__() == "[" + ",".join(map(str, x.coords())) + "]"


MODULUS = sys.hash_info.modulus
CENTRAL_CARRIERS = (Q, Q5, QuaternionAlgebra(-1, -1), QuaternionAlgebra(Fraction(-1, 2), 3),
                    OctonionAlgebra(-1, -1, -1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.integers(-40, 40), BIG),
       st.one_of(st.integers(1, 40), st.integers(1, 2 ** 200),
                 st.integers(1, 2 ** 70).map(lambda k: k * MODULUS)))
@example(-1, 1)  # a hash of -1 is -2
@example(3, MODULUS)  # no inverse of the denominator: infinity
@example(-3, 2 * MODULUS)
@example(0, MODULUS)
def test_central_values_hash_like_their_fractions(n, d):
    # IntValue.__hash__ computes hash(Fraction(n, d)) from the integer pair
    f = Fraction(n, d)
    assert hash(Q.ratio(n, d)) == hash(f)
    for carrier in CENTRAL_CARRIERS:
        x = carrier.scalar(f)
        assert x == f and hash(x) == hash(f)
