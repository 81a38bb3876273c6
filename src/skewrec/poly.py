"""Left polynomials: central indeterminate, coefficients kept on the left.

Evaluation substitutes the point to the right of every coefficient,
p(t) = sum c_i * t**i, so products convolve coefficients in order:
(p*q)_m = sum over i+j=m of p_i * q_j, never reassociated.  The point and
the coefficients may be noncommuting, which is why (x-a)(x-b) and
(x-b)(x-a) generally differ.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .algebra import (
    ConjClass,
    OctonionAlgebra,
    QuaternionAlgebra,
    conj_class,
    same_class,
    spherical_representative,
)
from .errors import InternalError, NoRootsFound, UnsupportedDegree
from .scalar import FieldContext, frac_sqrt


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
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            if i == 0:
                parts.append(f"({c})")
            elif i == 1:
                parts.append(f"({c})*x")
            else:
                parts.append(f"({c})*x^{i}")
        return " + ".join(parts)


def companion_poly(p: LeftPoly) -> LeftPoly:
    """p times its coefficient-conjugate; the result has central coefficients
    and is returned over the base field."""
    carrier = p.carrier
    if isinstance(carrier, QuaternionAlgebra):
        ctx = carrier.ctx
    elif isinstance(carrier, OctonionAlgebra):
        ctx = carrier.ctx
    else:
        raise ValueError("companion polynomial needs quaternion or octonion coefficients")
    if not p.is_monic():
        raise ValueError("companion polynomial needs a monic input")
    prod = p * p.conj()
    out = []
    for c in prod.coeffs:
        if not c.is_central():
            raise InternalError(f"companion coefficient {c} is not central")
        out.append(c.scalar_part())
    return LeftPoly(ctx, out)


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
# exact factorization of rational polynomials of degree <= 4


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _deflate(coeffs, r: Fraction):
    """Divide a monic polynomial (low-first coefficients) by (x - r)."""
    n = len(coeffs) - 1
    out = [Fraction(0)] * n
    out[n - 1] = coeffs[n]
    for i in range(n - 1, 0, -1):
        out[i - 1] = coeffs[i] + out[i] * r
    return out


def _find_rational_root(coeffs) -> Fraction | None:
    """Some rational root of a monic rational polynomial, or None.

    Candidates p/q with p | a_0 and q | a_n are prefiltered by the classical
    congruences (p - q) | f(1) and (p + q) | f(-1), then confirmed with an
    all-integer evaluation of sum a_i p^i q^(n-i).
    """
    if coeffs[0] == 0:
        return Fraction(0)
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    n = len(ints) - 1
    a0 = abs(ints[0])
    f1 = sum(ints)
    fm1 = sum(c if i % 2 == 0 else -c for i, c in enumerate(ints))
    qdens = _divisors(den)
    for pnum in _divisors(a0):
        for qden in qdens:
            if gcd(pnum, qden) != 1:
                continue
            for sign in (1, -1):
                pn = sign * pnum
                d = pn - qden
                if d == 0:
                    if f1 != 0:
                        continue
                elif f1 % d != 0:
                    continue
                d = pn + qden
                if d == 0:
                    if fm1 != 0:
                        continue
                elif fm1 % d != 0:
                    continue
                acc = 0
                qpow = 1
                for i in range(n, -1, -1):
                    acc = acc * pn + ints[i] * qpow
                    qpow *= qden
                if acc == 0:
                    return Fraction(pn, qden)
    return None


def _mul_frac_polys(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _split_quartic(coeffs):
    """Try to write a monic rational quartic with no rational roots as a
    product of two monic rational quadratics; None if impossible.

    Shift to kill the cubic term, then look for factor pairs
    (y^2 + A y + B)(y^2 - A y + D); A^2 must be a rational root of the
    resolvent cubic Y^3 + 2pY^2 + (p^2-4r)Y - q^2 that is also a rational
    square.
    """
    c0, c1, c2, c3 = coeffs[0], coeffs[1], coeffs[2], coeffs[3]
    s = c3 / 4
    p = c2 - 6 * s * s
    q = c1 - 2 * c2 * s + 8 * s ** 3
    r = c0 - c1 * s + c2 * s * s - 3 * s ** 4

    resolvent = [-q * q, p * p - 4 * r, 2 * p, Fraction(1)]
    roots = []
    work = resolvent
    while len(work) > 1:
        y = _find_rational_root(work)
        if y is None:
            break
        roots.append(y)
        work = _deflate(work, y)
    for y in sorted(set(roots)):
        if y < 0:
            continue
        alpha = frac_sqrt(y)
        if alpha is None:
            continue
        if y == 0:
            disc = p * p - 4 * r
            sd = frac_sqrt(disc)
            if sd is None:
                continue
            beta, delta = (p + sd) / 2, (p - sd) / 2
            quads = ([beta, Fraction(0), Fraction(1)],
                     [delta, Fraction(0), Fraction(1)])
        else:
            beta = (p + y - q / alpha) / 2
            delta = (p + y + q / alpha) / 2
            quads = ([beta, alpha, Fraction(1)],
                     [delta, -alpha, Fraction(1)])
        shifted = []
        for b0, b1, _ in quads:
            # substitute y = x + s to undo the shift
            shifted.append([s * s + b1 * s + b0, b1 + 2 * s, Fraction(1)])
        if _mul_frac_polys(shifted[0], shifted[1]) == list(coeffs):
            return shifted[0], shifted[1]
    return None


def factor_central_quartic(p: LeftPoly):
    """Exact factorization over Q of a monic rational polynomial of degree
    up to 4, as a list of (monic irreducible factor, multiplicity) sorted by
    degree and then by coefficients."""
    if not isinstance(p.carrier, FieldContext) or p.carrier.kind != "rational":
        raise ValueError("factorization works over rational coefficients only")
    if p.degree > 4:
        raise UnsupportedDegree(f"degree {p.degree} > 4")
    if not p.is_monic():
        raise ValueError("factorization needs a monic polynomial")
    work = [c.u for c in p.coeffs]
    raw = []
    while len(work) > 1:
        root = _find_rational_root(work)
        if root is None:
            break
        raw.append((-root, Fraction(1)))
        work = _deflate(work, root)
    d = len(work) - 1
    if d >= 2:
        if d == 4:
            sp = _split_quartic(work)
            if sp:
                raw.append(tuple(sp[0]))
                raw.append(tuple(sp[1]))
            else:
                raw.append(tuple(work))
        else:
            # quadratic or cubic with no rational roots is irreducible
            raw.append(tuple(work))
    counted: dict[tuple, int] = {}
    for f in raw:
        key = tuple(f)
        counted[key] = counted.get(key, 0) + 1
    ordered = sorted(counted.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ctx = p.carrier
    return [(LeftPoly(ctx, list(f)), mult) for f, mult in ordered]


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
    factors = factor_central_quartic(companion_poly(p))
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
        if same_class(beta - lam, lam):
            jordan = (lam, 2)
    if not isolated and spherical is None:
        raise NoRootsFound(
            "no conjugacy class of the companion quartic yields a root"
        )
    return RootReport(isolated, jordan, spherical, factors)
