"""Left polynomials: central indeterminate, coefficients kept on the left.

Evaluation substitutes the point to the right of every coefficient,
p(t) = sum c_i * t**i, so products convolve coefficients in order:
(p*q)_m = sum over i+j=m of p_i * q_j, never reassociated.  The point and
the coefficients may be noncommuting, which is why (x-a)(x-b) and
(x-b)(x-a) generally differ.

The companion polynomial C_p = p*conj(p) is read off polar forms of the
coefficients, and factored over Q on integers: scaled to a monic integer
polynomial, its integer roots found by Hensel lifting and its quadratic
splits by the integer resolvent cubic.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm

from .algebra import (
    ConjClass,
    OctonionAlgebra,
    QuaternionAlgebra,
    conj_class,
    polar_form,
    spherical_representative,
)
from .errors import NoRootsFound, UnsupportedDegree
from .scalar import FieldContext


class LeftPoly:
    """Polynomial with left coefficients, stored low degree first."""

    __slots__ = ("carrier", "coeffs")

    def __init__(self, carrier, coeffs):
        coeffs = [carrier.coerce(c) for c in coeffs]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.carrier = carrier
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, carrier) -> LeftPoly:
        return cls(carrier, [])

    @classmethod
    def x_minus(cls, lam) -> LeftPoly:
        carrier = lam.carrier
        return cls(carrier, [-lam, carrier.one()])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.carrier.one()

    def __add__(self, other):
        if not isinstance(other, LeftPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return LeftPoly(self.carrier, out)

    def __neg__(self):
        return LeftPoly(self.carrier, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, LeftPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LeftPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return LeftPoly.zero(self.carrier)
        zero = self.carrier.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci.is_zero():
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return LeftPoly(self.carrier, out)

    def eval(self, t):
        """Left evaluation: sum of c_i * t**i with powers built by repeated
        multiplication (safe for octonions by power-associativity)."""
        t = self.carrier.coerce(t)
        total = self.carrier.zero()
        power = self.carrier.one()
        for i, c in enumerate(self.coeffs):
            if i:
                power = power * t
            total = total + c * power
        return total

    def conj(self) -> LeftPoly:
        """Coefficientwise involution; the identity on field coefficients."""
        if isinstance(self.carrier, FieldContext):
            return self
        return LeftPoly(self.carrier, [c.conj() for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, LeftPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("leftpoly", self.coeffs))

    def __repr__(self):
        powers = ["", "*x"] + [f"*x^{i}" for i in range(2, len(self.coeffs))]
        terms = [f"({c}){powers[i]}" for i, c in enumerate(self.coeffs) if not c.is_zero()]
        return " + ".join(reversed(terms)) or "0"


def companion_poly(p: LeftPoly) -> LeftPoly:
    """C_p = p * conj(p) for a monic p, over the base field: coefficient m
    sums B(c_i, c_j) = c_i*conj(c_j) + c_j*conj(c_i) over i < j, i + j = m,
    and N(c_{m/2}) for even m.  That holds for quaternion and octonion
    coefficients alike (conj(xy) = conj(y)*conj(x)), so `polar_form` and
    `norm` read C_p off the integer coordinates with no product."""
    carrier = p.carrier
    if not isinstance(carrier, (QuaternionAlgebra, OctonionAlgebra)):
        raise ValueError("companion polynomial needs quaternion or octonion coefficients")
    if not p.is_monic():
        raise ValueError("companion polynomial needs a monic input")
    c, n = p.coeffs, p.degree
    out = []
    for m in range(2 * n + 1):
        s = c[m // 2].norm().u if m % 2 == 0 else Fraction(0)
        for i in range(max(0, m - n), (m + 1) // 2):
            s += polar_form(c[i], c[m - i]).u
        out.append(s)
    return LeftPoly(carrier.ctx, out)


def divide_by_linear(p: LeftPoly, lam) -> tuple[LeftPoly, object]:
    """Right-divide by (x - lam): p = g*(x - lam) + r with r constant.

    The remainder always equals p.eval(lam), so lam is a root exactly when
    r vanishes.
    """
    carrier = p.carrier
    lam = carrier.coerce(lam)
    if p.is_zero():
        return LeftPoly.zero(carrier), carrier.zero()
    n = p.degree
    if n == 0:
        return LeftPoly.zero(carrier), p.coeffs[0]
    g = [None] * n
    g[n - 1] = p.coeffs[n]
    for i in range(n - 1, 0, -1):
        g[i - 1] = p.coeffs[i] + g[i] * lam
    r = p.coeffs[0] + g[0] * lam
    return LeftPoly(carrier, g), r


# ---------------------------------------------------------------------------
# exact factorization of rational polynomials of degree <= 4, on integers
#
# Polynomials here are lists of ints, low degree first.  A monic rational f
# of degree n is scaled to the monic integer g(y) = L**n * f(y/L), L the lcm
# of f's denominators.  By Gauss's lemma every monic factor of g over Q has
# integer coefficients, so the rational roots of g are integers and its
# quadratic factors are integer quadratics; y = L*x maps them back to f.


def _horner(g, y):
    acc = 0
    for c in reversed(g):
        acc = acc * y + c
    return acc


def _derivative(g):
    return [i * c for i, c in enumerate(g)][1:]


def _divide(g, a):
    """(quotient, remainder) of g divided by a monic a."""
    g, n = list(g), len(a) - 1
    q = [0] * (len(g) - n)
    for s in range(len(q) - 1, -1, -1):
        q[s] = c = g[s + n]
        for i, x in enumerate(a):
            g[s + i] -= c * x
    return q, g[:n]


def _squarefree_part(g):
    """g / gcd(g, g') for a monic g: the monic polynomial with the roots of
    g, each once.  The gcd is the last nonzero remainder of the primitive
    pseudo-remainder sequence of g and g'."""
    a, b = g, _derivative(g)
    while len(b) > 1:
        r = list(a)  # the primitive part of lc(b)**k * a mod b
        while len(r) >= len(b):
            c, s = r[-1], len(r) - len(b)
            r = [x * b[-1] for x in r]
            for i, x in enumerate(b):
                r[s + i] -= c * x
            while r and r[-1] == 0:
                r.pop()
        c = gcd(*r)
        a, b = b, [x // c for x in r]
    if b:
        return g
    # the primitive part of a divides monic g, so it is monic up to sign
    c = gcd(*a) if a[-1] > 0 else -gcd(*a)
    return _divide(g, [x // c for x in a])[0]


def _integer_roots(g):
    """The distinct integer roots of a monic integer g, ascending, with no
    integer factored (von zur Gathen and Gerhard, Modern Computer Algebra,
    ch. 15; Cohen, GTM 138, 3.5).  The roots of h mod p, h = g and p = 3
    at first, come from trying 0..p-1; while one is a multiple root, h
    becomes the squarefree part of g and p the next odd prime (2 divides
    the discriminant of every resolvent cubic).  Each simple root mod p
    lifts to one root mod p**(2**i) by Newton steps (Hensel lifting) until
    the modulus exceeds twice the Cauchy bound 1 + max|h_i|; a symmetric
    residue is kept only if h vanishes there exactly."""
    h, dh, squarefree = g, _derivative(g), False
    for p in count(3, 2):
        if any(p % d == 0 for d in range(3, isqrt(p) + 1, 2)):
            continue
        found = [a for a in range(p) if _horner(h, a) % p == 0]
        if all(_horner(dh, a) % p for a in found):
            break
        if not squarefree:
            h, squarefree = _squarefree_part(g), True
            dh = _derivative(h)
    bound = 2 * (1 + max(map(abs, h[:-1])))
    roots = []
    for a in found:
        m = p
        while True:
            r = a - m if 2 * a > m else a
            hr = _horner(h, r)
            if hr == 0 or m > bound:
                break
            m *= m
            a = (r - hr * pow(_horner(dh, r), -1, m)) % m
        if hr == 0:
            roots.append(r)
    return sorted(roots)


def _split_quartic(g):
    """Monic integer quadratics [u, v] with u*v == g, for a monic integer
    quartic g with no integer root; None when g is irreducible over Q.

    z = 4y + c3 depresses g to 256*g((z - c3)/4) = z^4 + P z^2 + Q z + R,
    still on integers.  A split (z^2 + A z + B)(z^2 - A z + D) has
    B + D = P + A^2, A(D - B) = Q and BD = R, so A^2 is an integer root of
    the resolvent cubic Y^3 + 2P Y^2 + (P^2 - 4R) Y - Q^2.  The candidate
    u for z^2 + A z + B is kept only if it divides g exactly.
    """
    c0, c1, c2, c3, _ = g
    P = 16 * c2 - 6 * c3 * c3
    Q = 64 * c1 - 32 * c2 * c3 + 8 * c3 ** 3
    R = 256 * c0 - 64 * c1 * c3 + 16 * c2 * c3 * c3 - 3 * c3 ** 4
    for y in _integer_roots([-Q * Q, P * P - 4 * R, 2 * P, 1]):
        A = isqrt(max(y, 0))
        if A * A != y or (A and Q % A):
            continue
        # 2B; for A = 0, B is a root of t^2 - P t + R, and if the square
        # root below is inexact the exact division rejects the candidate
        b2 = P + y - Q // A if A else P + isqrt(max(P * P - 4 * R, 0))
        # u = (z^2 + A z + B at z = 4y + c3) / 16
        u1, r1 = divmod(8 * c3 + 4 * A, 16)
        u0, r0 = divmod(2 * c3 * (c3 + A) + b2, 32)
        v, rem = _divide(g, [u0, u1, 1])
        if not (r1 or r0 or any(rem)):
            return [[u0, u1, 1], v]
    return None


def factor_central_quartic(p: LeftPoly):
    """Exact factorization over Q of a monic rational polynomial of degree
    up to 4, as a list of (monic irreducible factor, multiplicity) sorted by
    degree and then by coefficients.

    Works on the monic integer g(y) = L**n * p(y/L), L the lcm of the
    denominators: the integer roots of `_integer_roots` are divided out on
    ints, a quartic left without roots is split by the integer resolvent of
    `_split_quartic`, and a quadratic or cubic left is irreducible.
    """
    if not isinstance(p.carrier, FieldContext) or p.carrier.d is not None:
        raise ValueError("factorization works over rational coefficients only")
    if p.degree > 4:
        raise UnsupportedDegree(f"degree {p.degree} > 4")
    if not p.is_monic():
        raise ValueError("factorization needs a monic polynomial")
    f = [c.u for c in p.coeffs]
    n = len(f) - 1
    L = lcm(*(c.denominator for c in f))
    g = [c.numerator * (L ** (n - i) // c.denominator) for i, c in enumerate(f)]
    counted = Counter()
    for r in _integer_roots(g) if n else ():
        q, rem = _divide(g, [-r, 1])
        while rem == [0]:
            g = q
            counted[(-r, 1)] += 1
            q, rem = _divide(g, [-r, 1])
    if len(g) > 2:
        for u in (_split_quartic(g) if len(g) == 5 else None) or [g]:
            counted[tuple(u)] += 1
    # coefficient i of a degree-d factor is divided by the same L**(d - i)
    # for every factor, so the integer order is the order of the results
    return [(LeftPoly(p.carrier, [Fraction(c, L ** (len(u) - 1 - i))
                                  for i, c in enumerate(u)]), mult)
            for u, mult in sorted(counted.items(), key=lambda kv: (len(kv[0]), kv[0]))]


# ---------------------------------------------------------------------------
# roots of monic quadratics over a quaternion algebra


class RootReport:
    """Everything found about the roots of a monic quaternion quadratic."""

    __slots__ = ("isolated", "jordan", "spherical", "central_factors")

    def __init__(self, isolated, jordan, spherical, central_factors):
        self.isolated = list(isolated)
        self.jordan = jordan
        self.spherical = spherical
        self.central_factors = list(central_factors)

    def root_multiplicities(self):
        """Root data in the shape the solver consumes."""
        if self.spherical is not None:
            lam, mu = self.spherical[1]
            return [(lam, 1), (mu, 1)]
        if self.jordan is not None:
            return [self.jordan]
        return [(lam, 1) for lam, _ in self.isolated]

    def __repr__(self):
        return (f"RootReport(isolated={self.isolated}, jordan={self.jordan}, "
                f"spherical={self.spherical})")


def quadratic_roots(alg: QuaternionAlgebra, p: LeftPoly, height: int = 20) -> RootReport:
    """Roots of a monic quadratic x^2 - beta*x - alpha over a quaternion
    algebra, located class by class through the central companion quartic.

    For a class (t, n) with beta != t, the only possible root in the class
    is (t - beta)^-1 (n + alpha), kept if it actually evaluates to zero.
    When beta = t and alpha = -n the whole class consists of roots and a
    representative pair is searched for.  A single isolated root lam whose
    cofactor beta - lam stays in the same class is reported with
    multiplicity two, matching the forced factorization
    p = (x - (beta - lam)) (x - lam).
    """
    if p.carrier != alg:
        raise ValueError("polynomial and algebra disagree")
    if p.degree != 2 or not p.is_monic():
        raise ValueError("quadratic_roots needs a monic quadratic")
    beta = -p.coeffs[1]
    alpha = -p.coeffs[0]
    comp = companion_poly(p)
    factors = factor_central_quartic(comp)
    isolated = []
    spherical = None
    for f, _mult in factors:
        if f.degree == 1:
            lam = alg.scalar(-f.coeffs[0])
            if p.eval(lam).is_zero():
                isolated.append((lam, conj_class(lam)))
        elif f.degree == 2:
            t = -f.coeffs[1]
            n = f.coeffs[0]
            if beta == alg.scalar(t):
                if alpha == alg.scalar(-n):
                    reps = spherical_representative(alg, t, n, height)
                    spherical = (ConjClass(t=t, n=n), reps)
            else:
                lam = (alg.scalar(t) - beta).inverse() * (alg.scalar(n) + alpha)
                if p.eval(lam).is_zero():
                    isolated.append((lam, ConjClass(t=t, n=n)))
    jordan = None
    if spherical is None and len(isolated) == 1:
        lam = isolated[0][0]
        if conj_class(beta - lam) == conj_class(lam):
            jordan = (lam, 2)
    if not isolated and spherical is None:
        if len(factors) == 1 and factors[0][0].degree == 4:
            raise NoRootsFound(f"C_p = {comp} is irreducible over Q: the roots "
                               "need a degree-4 scalar extension")
        listed = " * ".join(f"[{f}]^{m}" if m > 1 else f"[{f}]" for f, m in factors)
        raise NoRootsFound(f"C_p = {comp} factors over Q as {listed}, and no "
                           "factor yields a root")
    return RootReport(isolated, jordan, spherical, factors)
