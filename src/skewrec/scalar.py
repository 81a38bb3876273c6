"""Exact scalars: the rationals and real quadratic extensions Q(sqrt(d)),
and the integer value layout and carrier base they share with quaternions
and octonions.

A value of an algebra of dimension m over Q is a tuple of m integer
numerators over one positive denominator, reduced so that the gcd of all
of them is 1; `IntValue` holds everything that layout does the same way in
every algebra, its powers and its one polar form included, and each value
class adds only its product, which `_product` reduces.  A result is reduced
by the only common factor it can have, not by a gcd against its whole
denominator: a sum over lcm(d1, d2) by a divisor of g = gcd(d1, d2), as a
prime with a higher power in one operand's denominator leaves some
numerator of the sum prime to it, and only an operand whose denominator
is not the lcm is scaled; a product of a narrow factor z with N(z) != 0
and a wide one, whose denominator d_o is not a power of 2, by a divisor
of W_0 * d_z * gcd(d_o, m_z), as conj(x)(xy) = N(x) y and (xy) conj(y) =
N(y) x.  A scalar of Q is (u,) over den and one of Q(sqrt(d)) is (u, v)
over den, meaning (u + v*sqrt(d)) / den.  In the same way `Carrier` holds
what every carrier (`FieldContext` here, the quaternion and octonion
algebras) does alike: zero, one, scalar, element, basis, coerce, equality
and hashing; each adds only its own parameters (`FieldContext` only d,
None for Q) and `weights`, the diagonal of its norm form on the integer
layout: W_0 * den^2 * N(x) = sum_j W_j * num_j^2, (1,) over Q and (1, -d)
over Q(sqrt(d)).  Every carrier also gives `_num_mul`, the integer product
of two numerator tuples, over W_0 times the two denominators: the formula
its value class multiplies by, which the solver's integer root tests,
chain systems and term values run on.
Values print from their numerators by `rational_str`, which gives the
text of `str(Fraction(n, d))`, and each carrier's `read` reads that text
back, so that carrier.read(str(x)) == x: a scalar literal of the field,
or [c0,...] over the base field for an algebra.  `_lucas` gives the
integer Lucas pairs from which `forms` evaluates closed forms.  This module
is trusted, and holds what the checker and that reader run: the square
root of a discriminant is the search's (`solver._sqrt`).  Numerators and
denominators are arbitrary-precision, so closed forms evaluated at large
k never overflow.  There is no floating point anywhere in this package.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import count
from math import gcd, lcm
from operator import add, mul, neg, or_, sub

from .errors import ContextMismatch, DivisionByZero, ParseError, ValidationError, ZeroDivisor


def rational_str(n: int, d: int) -> str:
    """str(Fraction(n, d)) for integers n and d != 0, with no Fraction
    built: "n" over 1 and "n/d" otherwise, in lowest terms, the sign on n."""
    if d == 1:  # every integer value, with no gcd
        return str(n)
    if not d:
        raise ZeroDivisionError(f"rational_str({n}, 0)")
    g = gcd(n, d)
    if d < 0:
        g = -g
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


# an optionally signed integer of ASCII digits: the scanner of literals and
# of the cli's integer fields; a root's multiplicity is read by
# str.isdigit, so that "+2" after a root stays an element
INT_LITERAL = re.compile(r"[+-]?[0-9]+")


def _read_int(s: str, p: int) -> tuple[int, int]:
    """The optionally signed integer of ASCII digits [0-9] that starts at
    s[p], and the index just past it; ParseError at col p if there is none."""
    m = INT_LITERAL.match(s, p)
    if m is None:
        raise ParseError("expected an integer", col=p)
    return int(m[0]), m.end()


def _read_rat(s: str, p: int) -> tuple[int, int, int]:
    """(numerator, denominator, end) of the rational literal at s[p]."""
    num, q = _read_int(s, p)
    if q < len(s) and s[q] == "/":
        den, end = _read_int(s, q + 1)
        if den <= 0:
            raise ParseError("denominator must be a positive integer", col=q + 1)
        return num, den, end
    return num, 1, q


# an algebra's [c0,...] literal of `dim` coordinates INT or INT/POSINT, for
# the quaternion and octonion algebras, read by one match into (numerator,
# denominator) groups; `Carrier.read` gives any other text, a '+' on a
# denominator among them, to its positioned reader
_RAT = r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?"
_ELEMENT = {dim: re.compile(r"\[" + ",".join([_RAT] * dim) + r"\]") for dim in (4, 8)}


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the bases _MR_BASES: exact below 3.3 * 10**24
    (Sorenson and Webster, 2015); above that a composite that is a strong
    pseudoprime to all 13 bases passes."""
    if n < 2 or any(n % p == 0 for p in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    for a in _MR_BASES:  # a proves n composite unless a**d = 1 or some a**(d*2**i) = -1
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and x != n - 1 and all((x := x * x % n) != n - 1 for _ in range(s - 1)):
            return False
    return True


# Steps of x -> x^2 + c that `squarefree_split` spends in Pollard rho on one
# input, over all its factors: about 2 s at 2 us a step.  Rho finds a prime
# factor p in about sqrt(p) steps, so this covers p up to about 2**36, while
# two 60-bit prime factors would need some 2**30 steps.
RHO_BUDGET = 1 << 20


def _rho_factor(n: int, steps: int) -> tuple[int | None, int]:
    """(a proper factor of n, steps left), for a composite n with no prime
    factor in _MR_BASES: Pollard rho on x -> x^2 + c from x = 2, with
    Brent's cycle detection (Cohen, GTM 138, 8.5), for c = 1, 2, ... until
    a run stops short of n.  (None, 0) once `steps` steps find no factor."""
    for c in count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            if steps <= 0:
                return None, 0
            x = y
            for _ in range(min(r, steps)):
                y = (y * y + c) % n
                if (g := gcd(x - y, n)) != 1:
                    break
            steps -= r
            r *= 2
        if g != n:
            return g, steps


def _factor(n: int, steps: int) -> tuple[Counter, int]:
    """(the exponents of n's prime factors, the part of n left unfactored)
    for n > 0.  n is factored with no trial division up to sqrt(n): a
    factor is kept when `_is_prime` accepts it, else split by a prime of
    _MR_BASES or by `_rho_factor`; a composite that Pollard rho does not
    split within the `steps` steps left goes to the unfactored part, which
    is then divided by every prime found, so that it is prime to them all,
    and is 1 when n is fully factored."""
    exponents, todo, rest = Counter(), [n], 1
    while todo:
        m = todo.pop()
        if _is_prime(m):
            exponents[m] += 1
        elif m > 1:
            f = next((p for p in _MR_BASES if m % p == 0), None)
            if f is None:
                f, steps = _rho_factor(m, steps)
                if f is None:
                    rest *= m
                    continue
            todo += [f, m // f]
    for p in exponents:
        while rest % p == 0:
            rest //= p
            exponents[p] += 1
    return exponents, rest


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n > 0 as e**2 * d with d squarefree; returns (e, d), from the
    prime factors of n (`_factor`).  Raises ValidationError when Pollard
    rho spends RHO_BUDGET steps on n without finishing."""
    if n <= 0:
        raise ValueError("squarefree_split needs a positive integer")
    exponents, rest = _factor(n, RHO_BUDGET)
    if rest != 1:
        raise ValidationError(f"cannot factor {n}: Pollard rho found no factor of {rest} "
                              f"in {RHO_BUDGET} steps")
    e = d = 1
    for p, k in exponents.items():
        e *= p ** (k // 2)
        d *= p ** (k % 2)
    return e, d


def _lucas(P: int, Q: int, k: int) -> tuple[int, int]:
    """(U_k, U_{k+1}), for k >= 0, of the Lucas sequence U_0 = 0, U_1 = 1,
    U_{j+2} = P*U_{j+1} - Q*U_j, by fast doubling from (U_1, U_2) = (1, P)
    at the top bit of k (Joye and Quisquater, Electronics Letters 1996):
    U_{2j} = U_j*(2*U_{j+1} - P*U_j), U_{2j+1} = U_{j+1}^2 - Q*U_j^2 and
    U_{2j+2} = U_{j+1}*(P*U_{j+1} - 2*Q*U_j), so each further bit of k
    takes three products of sequence terms, one step."""
    if not k:
        return 0, 1
    u0, u1, q2 = 1, P, 2 * Q
    for bit in bin(k)[3:]:
        if bit == "1":
            u0, u1 = u1 * u1 - Q * (u0 * u0), u1 * (P * u1 - q2 * u0)
        else:
            u0, u1 = u0 * (2 * u1 - P * u0), u1 * u1 - Q * (u0 * u0)
    return u0, u1


_new = object.__new__


def _ratio(x) -> tuple[int, int]:
    """An int, a Fraction or a rational-valued ScalarValue as its reduced
    (numerator, denominator); anything else is a ValidationError."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, ScalarValue):
        if any(x.num[1:]):
            raise ContextMismatch(f"{x} is not rational")
        return x.num[0], x.den
    raise ValidationError(f"cannot interpret {x!r} as a scalar")


def _make(cls, carrier, num: tuple, den: int):
    """The value of class cls with canonical num and den, taken as given."""
    x = _new(cls)
    x.carrier = carrier
    x.num = num
    x.den = den
    return x


def _reduced(cls, carrier, num: tuple, den: int, bound: int = 0):
    """The canonical value num / den of class cls, for den != 0.  A nonzero
    `bound` is a divisor of den that gcd(den, *num) divides, and the gcd is
    taken against it instead of den.  When the result's den is wider than
    64 bits, that number b = 2^e * o (o odd) sheds its 2s by shifts:
    gcd(b, *num) = gcd(2^e, *num) * gcd(o, *num) as o is odd, and
    gcd(2^e, *num) = 2^v for v = min(e, v_2(n_0 | n_1 | ...)), as an OR's
    lowest set bit is the lowest of its operands'.  So num and den shift
    right by v and the gcd is taken against o alone; all-zero numerators
    reduce against b, as over a narrow den.  A narrow den keeps the one
    gcd against b: the split costs more than it saves there, and taking it
    on every den slowed quat-solve's ops_per_s by 3-4% and long-horizon's
    setup_s by 3-8% (BENCH_39.json, "unguarded_runs")."""
    if den != 1:  # over 1 every num is canonical
        b = bound or den
        if den.bit_length() > 64 and (e := (b & -b).bit_length() - 1) and (low := reduce(or_, num)):
            if v := min(e, (low & -low).bit_length() - 1):
                num, den = tuple([n >> v for n in num]), den >> v
            b >>= e
        g = gcd(b, *num)
        if den < 0:
            g = -g
        if g != 1:
            num, den = tuple([n // g for n in num]), den // g
    x = _new(cls)
    x.carrier = carrier
    x.num = num
    x.den = den
    return x


def _from_ratios(carrier, ratios):
    """The value of carrier with coordinates p/q, for its `dim` integer
    pairs (p, q) with q != 0 of either sign, over the lcm of the q."""
    den = lcm(*[q for _p, q in ratios])  # positive; den // q carries q's sign
    return _reduced(carrier.value_type, carrier, tuple([p * (den // q) for p, q in ratios]), den)


class IntValue:
    """(num[0] + num[1]*e1 + ...) / den in an algebra with basis 1, e1, ...

    `num` holds integers and `den` their shared positive denominator, with
    gcd(*num, den) == 1, so equal values of a carrier have equal
    (num, den).  `_make` builds a value from that canonical pair as given;
    a result that may need reducing is built by `_reduced`, with its gcd
    against the factor that can cancel where one is known: gcd(d1, d2) for
    a sum (`_sum`) and W_0 * d_z * gcd(d_o, m_z) for a product with a
    narrow factor z and a d_o that is not a power of 2 (`_product`); a
    scaling by p/q divides out gcd(p, den) and gcd(q, *num), as a Fraction
    product does (`_scaled`); over a den wider than 64 bits the 2s go by
    shifts first (`_reduced`).  Values are never mutated.  A subclass
    supplies `__mul__`, through `_product`; the norm, the inverse and the
    polar form read the carrier's `weights` through `_scaled_polar`.
    """

    __slots__ = ("carrier", "num", "den")

    ASSOCIATIVE = True

    def _coerce(self, other):
        """other as a value of this carrier by `carrier.coerce`, or None
        for a non-number and for a value of a wider carrier of another
        type, whose reflected method then decides.  Python never calls the
        reflected method of an operand of the same type."""
        if isinstance(other, IntValue):
            if other.carrier is self.carrier or other.carrier == self.carrier:
                return other
            if type(other) is not type(self) and len(other.num) > len(self.num):
                return None
        elif not isinstance(other, _SCALARS):
            return None
        return self.carrier.coerce(other)

    def _sum(self, other, sign: int):
        """self + sign * other, over L = lcm(d1, d2) for the denominators d1
        and d2.  Only g = gcd(d1, d2) can cancel: a prime with a higher power
        in d1 than in d2 divides every numerator's other-term but not some
        self-term, as self is reduced (and the other way round), and a prime
        with equal powers has the same power in L as in g.  So the sum is
        reduced by gcd(g, *num), and is canonical as it is when g = 1.
        Only an operand whose denominator is not L is scaled, by L over it:
        with equal denominators none is and no gcd is taken, and when one
        denominator divides the other, g is that one and only its operand
        is scaled, with no division of the other denominator by g."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not any(o.num):
            return self
        if not any(self.num):
            return o if sign > 0 else -o
        d1, d2 = self.den, o.den
        a, b = self.num, o.num
        if d1 == d2:
            g = den = d1
            num = tuple(map(add if sign > 0 else sub, a, b))
        else:
            g = gcd(d1, d2)
            if g == d2:  # only o is scaled
                s, den = sign * (d1 // g), d1
                num = tuple([x + y * s for x, y in zip(a, b)])
            elif g == d1:  # only self is scaled
                s, den = d2 // g, d2
                num = tuple([x * s + y for x, y in zip(a, b)] if sign > 0
                            else [x * s - y for x, y in zip(a, b)])
            else:
                s, t = d2 // g, sign * (d1 // g)
                den = d1 * s
                num = tuple([x * s + y * t for x, y in zip(a, b)])
        if g == 1:
            return _make(self.__class__, self.carrier, num, den)
        return _reduced(self.__class__, self.carrier, num, den, g)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return _make(self.__class__, self.carrier, tuple(map(neg, self.num)), self.den)

    def _scaled(self, p: int, q: int):
        """self * (p/q) for integers p and q != 0, reduced as a Fraction
        product is: with p/q in lowest terms, a prime that divides the
        result's denominator and every numerator divides gcd(p, den) or
        gcd(q, *num), so dividing those out leaves it canonical."""
        g = gcd(p, q)
        if q < 0:
            g = -g
        p, q = p // g, q // g
        num, den = self.num, self.den
        g1, g2 = gcd(p, den), gcd(q, *num)
        if g1 != 1:
            p, den = p // g1, den // g1
        if g2 != 1:
            q, num = q // g2, [n // g2 for n in num]
        return _make(self.__class__, self.carrier, tuple([n * p for n in num]), den * q)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):  # a scalar is central
            return self._scaled(*_ratio(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def powers(self, n: int) -> list:
        """[1, x, x**2, ..., x**n] for n >= 0, one product per power past x."""
        out = [self.carrier.one(), self][:n + 1]
        for _ in range(n - 1):
            out.append(out[-1] * self)
        return out

    def __pow__(self, k):
        # powers of a single element live in an associative subalgebra, so
        # square-and-multiply is unambiguous even in an octonion algebra
        if not isinstance(k, int):
            return NotImplemented
        if k <= 0:
            return self.inverse() ** -k if k else self.carrier.one()
        result = self  # from the top bit of k down
        for bit in bin(k)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __truediv__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        p, q = _ratio(other)
        if p == 0:
            raise DivisionByZero("division by zero scalar")
        return self._scaled(q, p)

    def conj(self):
        """Negate every coordinate but the first (the identity over Q)."""
        num = self.num
        return _make(self.__class__, self.carrier, (num[0], *map(neg, num[1:])), self.den)

    def trace(self) -> ScalarValue:
        """T(x) = x + conj(x), in the carrier's base field."""
        return self.carrier.ctx.ratio(2 * self.num[0], self.den)

    def _scaled_polar(self, other) -> tuple[int, int]:
        """(m, W_0) with B(self, other) / 2 = m / (W_0 * self.den * other.den),
        B the polar form of the norm and W the carrier's `weights`:
        m = sum_j W_j * self.num[j] * other.num[j], so m = W_0 * den^2 * N
        when other is self."""
        w = self.carrier.weights
        return sum(map(mul, w, map(mul, self.num, other.num))), w[0]

    def _norm_parts(self) -> tuple[int, int]:
        """(m, D) with N = m / (D * den^2)."""
        return self._scaled_polar(self)

    def norm(self) -> ScalarValue:
        """N(x) = x * conj(x), in the carrier's base field."""
        m, D = self._norm_parts()
        return self.carrier.ctx.ratio(m, D * self.den * self.den)

    def inverse(self):
        """conj(x) / N(x)."""
        if self.is_zero():
            raise DivisionByZero(f"division by zero in {self.carrier}")
        m, D = self._norm_parts()
        if m == 0:
            raise ZeroDivisor(f"{self} has norm 0, so {self.carrier} is not a division algebra")
        s = D * self.den
        num = self.num
        return _reduced(self.__class__, self.carrier, (num[0] * s, *[-n * s for n in num[1:]]), m)

    def scalar_part(self) -> ScalarValue:
        return self.carrier.ctx.ratio(self.num[0], self.den)

    def pure(self):
        return _reduced(self.__class__, self.carrier, (0, *self.num[1:]), self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def is_central(self) -> bool:
        """Whether the value is rational: num[1:] is all zero."""
        return not any(self.num[1:])

    def coords(self) -> list[Fraction]:
        return [Fraction(n, self.den) for n in self.num]

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        """[c0,...]: the text that `carrier.read` reads back."""
        den = self.den
        return "[" + ",".join([rational_str(n, den) for n in self.num]) + "]"

    __repr__ = __str__

    def __eq__(self, other):
        if isinstance(other, IntValue):
            if other.carrier is self.carrier or other.carrier == self.carrier:
                return self.num == other.num and self.den == other.den
            if len(other.num) > len(self.num):
                # the wider carrier decides: an octonion equals a quaternion
                # of its base algebra whenever its second half is zero
                return NotImplemented
            # values of two carriers are equal only as the same rational
            return (self.is_central() and other.is_central()
                    and self.num[0] == other.num[0] and self.den == other.den)
        if isinstance(other, (int, Fraction)):
            return (self.is_central() and self.num[0] == other.numerator
                    and self.den == other.denominator)
        return NotImplemented

    def __hash__(self):
        # a central value equals its rational, so it hashes like one:
        # hash(Fraction(n, d)) for n/d in lowest terms, from the pair, as
        # Fraction.__hash__ computes it (modulus P, infinity for P | d); a
        # hash of -1 becomes -2 as for every __hash__
        if any(self.num[1:]):
            return hash((self.num, self.den))
        n = self.num[0]
        P = sys.hash_info.modulus
        try:
            h = hash(abs(n)) * pow(self.den, -1, P) % P
        except ValueError:  # P divides den
            h = sys.hash_info.inf
        return h if n >= 0 else -h


def _times(x, y):
    """x * y for values x and y, with no product when either is 1 (by
    `IntValue.is_one`): the other factor is returned as it is."""
    if x.is_one():
        return y
    return x if y.is_one() else x * y


def _product(x, y, num: tuple):
    """The value x * y, of x's class and carrier, from num: its integer
    numerators over W_0 * x.den * y.den, W the carrier's `weights`.

    When one denominator is wider than 64 bits and the other, d_z of the
    factor z, is not, the gcd is taken against B = W_0 * d_z * gcd(d_o,
    m_z), a divisor of the denominator, instead, o the other factor and
    m_z = W_0 * d_z^2 * N(z) (`_norm_parts`): two gcds against small
    numbers.  The gcd g of num and the denominator divides B: in every
    composition algebra conj(z)(zo) = N(z) o = (oz) conj(z) (from the
    alternative laws, so octonions and split algebras too), and over
    W_0^2 * d_z^2 * d_o these have integer combinations of num as
    numerators, and also W_0 * m_z * num(o)_i, which g thus divides.  A
    prime p of d_o leaves some num(o)_i prime to p, as o is reduced, so
    v_p(g) <= min(v_p(W_0 d_z d_o), v_p(W_0 m_z)) <= v_p(W_0 d_z) +
    min(v_p(d_o), v_p(m_z)) = v_p(B); any other prime divides g at most as
    often as it divides W_0 * d_z.  A zero divisor z (m_z = 0) gets
    gcd(d_o, 0) = d_o, the whole denominator again, and every other
    product takes the gcd against the whole denominator.  The bound is
    taken only when d_o is not a power of 2: then gcd(d_o, m_z) is one too,
    so the bound's odd part is that of W_0 * d_z, the odd part that
    `_reduced` takes its gcd against once the shifts have taken every 2,
    and the norm would cost 11-19% of `iterate_oracle` for nothing
    (BENCH_40.json).  Where d_o has an odd prime, the bound halves it."""
    carrier = x.carrier
    w0 = carrier.weights[0]
    dz, do = x.den, y.den
    den = w0 * dz * do
    if (dz | do) >> 64:
        if dz > do:
            x, dz, do = y, do, dz
        if not dz >> 64 and do & (do - 1):
            m, _ = x._norm_parts()
            return _reduced(x.__class__, carrier, num, den, w0 * dz * gcd(do, m))
    return _reduced(x.__class__, carrier, num, den)


class ScalarValue(IntValue):
    """An element (u + v*sqrt(d)) / den of the context's field: num is
    (u,) over Q and (u, v) over Q(sqrt(d)).  Built, as every carrier's
    values are, by `ctx.element`, `ctx.scalar` or `ctx.ratio`."""

    __slots__ = ()

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _product(self, o, self.carrier._num_mul(self.num, o.num))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __str__(self):
        """Canonical text: x.carrier.read(str(x)) == x."""
        num, den = self.num, self.den
        if self.is_central():
            return rational_str(num[0], den)
        u, v = num
        return f"{rational_str(u, den)}{'-' if v < 0 else '+'}{rational_str(abs(v), den)}*rt"

    __repr__ = __str__


_SCALARS = (int, Fraction, ScalarValue)


class Carrier:
    """What every carrier of values does the same way: Q, Q(sqrt(d)), a
    quaternion algebra and an octonion algebra.  A subclass sets
    `value_type`, the class of its values, and `dim`, the number of their
    coordinates, and `weights`, the diagonal of its norm form, and gives
    `key()`, the parameters that fix it, which equality and hashing read."""

    __slots__ = ()

    def scalar(self, x):
        """The rational x (an int, a Fraction or a rational ScalarValue) as
        a value of this carrier: x in coordinate 0, the rest 0."""
        p, q = _ratio(x)
        return _make(self.value_type, self, (p,) + (0,) * (self.dim - 1), q)

    def zero(self):
        return _make(self.value_type, self, (0,) * self.dim, 1)

    def one(self):
        return _make(self.value_type, self, (1,) + (0,) * (self.dim - 1), 1)

    def element(self, coords):
        """The value with the given rational coordinates, `dim` of them."""
        ratios = list(map(_ratio, coords))
        if len(ratios) != self.dim:
            raise ValueError(f"{self} needs {self.dim} coordinates, got {len(ratios)}")
        return _from_ratios(self, ratios)

    def read(self, text: str):
        """The value whose `str` is text, so that read(str(x)) == x: [c0,...]
        with no spaces, `dim` literals of the base field (`ctx.read`), read by
        one match of `_ELEMENT` when all are INT or INT/POSINT, else by the
        positioned reader, whose ParseError col counts from text's start.
        All-INT coordinates are canonical over den 1 as read: no lcm, no gcd."""
        m = _ELEMENT[self.dim].fullmatch(text)
        if m:
            g = m.groups()
            if "/" not in text:
                return _make(self.value_type, self, tuple(map(int, g[::2])), 1)
            qs = [int(q) if q else 1 for q in g[1::2]]
            den = lcm(*qs)
            num = tuple([int(p) * (den // q) for p, q in zip(g[::2], qs)])
            return _reduced(self.value_type, self, num, den)
        if not (text.startswith("[") and text.endswith("]")):
            raise ParseError(f"expected a {self.dim}-component [..] literal", col=0)
        parts = text[1:-1].split(",")
        if len(parts) != self.dim:
            raise ParseError(f"expected {self.dim} components, got {len(parts)}", col=0)
        coords, col = [], 1
        for part in parts:
            try:
                coords.append(self.ctx.read(part))
            except ParseError as exc:  # exc.col counts from the part's start
                raise ParseError(exc.reason, col=col + exc.col) from exc
            col += len(part) + 1
        return self.element(coords)

    def basis(self) -> list:
        """1, e1, ...: the values with one coordinate 1 and the others 0."""
        return [_make(self.value_type, self, tuple([int(i == j) for j in range(self.dim)]), 1)
                for i in range(self.dim)]

    def coerce(self, x):
        """x as a value of this carrier: a value of it passes through, an
        int, a Fraction or a rational ScalarValue enters by `scalar`, and a
        value of any other carrier raises ContextMismatch."""
        if isinstance(x, IntValue):
            if x.carrier is self or x.carrier == self:
                return x
            if not isinstance(x, ScalarValue):
                raise ContextMismatch(f"value from {x.carrier} used in {self}")
        return self.scalar(x)

    def __eq__(self, other):
        if not isinstance(other, Carrier):
            return NotImplemented
        return other is self or (other.__class__ is self.__class__ and other.key() == self.key())

    def __hash__(self):
        return hash((self.__class__, self.key()))


class FieldContext(Carrier):
    """Base field descriptor: Q for d = None, or Q(sqrt(d)) for a squarefree
    integer d > 1; `dim` (1 over Q, 2 over Q(sqrt(d))) and `weights`, (1,)
    and (1, -d) for the norm u^2 - d*v^2, follow from d.  The norm of a
    nonzero value is nonzero because d is not a rational square."""

    __slots__ = ("d", "dim", "weights")

    value_type = ScalarValue

    def __init__(self, d: int | None = None):
        if d is not None:
            if not isinstance(d, int) or d <= 1:
                raise ValueError("quadratic context needs an integer d > 1")
            if squarefree_split(d)[0] != 1:
                raise ValueError(f"d = {d} is not squarefree")
        self.d = d
        self.dim = 1 if d is None else 2
        self.weights = (1,) if d is None else (1, -d)

    @classmethod
    def rational(cls) -> FieldContext:
        return cls()

    @property
    def ctx(self) -> FieldContext:
        """The base field of the carrier, as for the algebras: itself."""
        return self

    def _num_mul(self, p, q) -> tuple:
        """The numerators of x * y for values x, y with numerators p, q, over
        den(x) * den(y) * weights[0] (which is 1 here)."""
        d = self.d
        if d is None:
            return (p[0] * q[0],)
        (u1, v1), (u2, v2) = p, q
        return (u1 * u2 + d * (v1 * v2), u1 * v2 + v1 * u2)

    def ratio(self, p: int, q: int) -> ScalarValue:
        """The scalar p/q, for integers p and q != 0."""
        return _reduced(ScalarValue, self, (p, 0)[:self.dim], q)

    def read(self, text: str) -> ScalarValue:
        """The scalar whose `str` is text, so that read(str(x)) == x: INT,
        INT/POSINT or RAT(+|-)RAT*rt, rt meaning sqrt(d), in ASCII digits.
        Only ASCII whitespace is stripped (not a no-break space, say), and a
        ParseError's col counts from the start of the stripped text; a
        '*rt' literal of Q is one at col 0."""
        s = text.strip(" \t\n\r\x0b\x0c")
        if not s:
            raise ParseError("empty scalar literal", col=0)
        a, b, pos = _read_rat(s, 0)
        if pos == len(s):
            return self.ratio(a, b)
        if s[pos] not in "+-":
            raise ParseError("expected '+', '-' or end of literal", col=pos)
        sign = -1 if s[pos] == "-" else 1
        c, e, pos = _read_rat(s, pos + 1)
        if not s.startswith("*rt", pos):
            raise ParseError("expected '*rt'", col=pos)
        pos += 3
        if pos != len(s):
            raise ParseError("trailing characters after '*rt'", col=pos)
        if self.d is None:
            raise ParseError("'*rt' literal used in a rational context", col=0)
        return _reduced(ScalarValue, self, (a * e, sign * c * b), b * e)

    def key(self) -> tuple:
        return (self.d,)

    def __repr__(self):
        if self.d is None:
            return "Q"
        return f"Q(rt{self.d})"
