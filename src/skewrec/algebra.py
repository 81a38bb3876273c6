"""Quaternion algebras (a,b | Q) and their Cayley-Dickson octonion doubles.

Conventions.  A quaternion algebra has basis 1, e1, e2, e3 with

    e1*e1 = a,   e2*e2 = b,   e3 = e1*e2 = -e2*e1,

so e3*e3 = -a*b.  Doubling with a parameter g adjoins a unit l0 with
l0*l0 = g and multiplication

    (q + r*l0)(s + t*l0) = q*s + g*conj(t)*r + (t*q + r*conj(s))*l0.

Conjugation negates everything except the scalar coordinate; the trace
T(x) = x + conj(x) and norm N(x) = x*conj(x) are always central scalars.
Octonions are not associative, only alternative, so octonion products are
written strictly as binary operations throughout.

Representation.  A quaternion is four integer numerators over one positive
denominator, kept reduced (gcd of all five is 1).  Each sum, product,
scaling or inverse is computed on plain ints and reduced by one
multi-argument gcd;
rational a, b enter as integers over D = den(a)*den(b), so a product is
D*w1*w2 + A*x1*x2 + B*y1*y2 - AB*z1*z2 (and so on) over d1*d2*D.  An
octonion is a pair of quaternions.  `coords()` returns exact Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import (
    ContextMismatch,
    DegenerateFrame,
    DivisionByZero,
    InternalError,
    NoRepresentative,
    ValidationError,
    ZeroDivisor,
)
from .scalar import FieldContext, ScalarValue


class QuaternionAlgebra:
    """The four-dimensional algebra (a,b | Q) with a, b nonzero rationals.

    Products work on integers: with D = den(a)*den(b) the algebra keeps
    D, A = a*D, B = b*D and AB = a*b*D, all integers.
    """

    __slots__ = ("ctx", "a", "b", "consts")

    def __init__(self, a, b, ctx: FieldContext | None = None):
        ctx = ctx if ctx is not None else FieldContext.rational()
        if ctx.kind != "rational":
            raise ValidationError("quaternion algebras are only instantiated over Q")
        a = ctx.scalar(a)
        b = ctx.scalar(b)
        if a.is_zero() or b.is_zero():
            raise ValidationError("structure constants a, b must be nonzero")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        an, ad = a.u.numerator, a.u.denominator
        bn, bd = b.u.numerator, b.u.denominator
        object.__setattr__(self, "consts", (ad * bd, an * bd, bn * ad, an * bn))

    def __setattr__(self, name, value):
        raise AttributeError("QuaternionAlgebra is immutable")

    def element(self, coords) -> QuatValue:
        w, x, y, z = (self.ctx.scalar(c).u for c in coords)
        den = lcm(w.denominator, x.denominator, y.denominator, z.denominator)
        # each coordinate is reduced, so the gcd with the lcm is already 1
        return QuatValue(self, tuple(c.numerator * (den // c.denominator)
                                     for c in (w, x, y, z)), den)

    def scalar(self, c) -> QuatValue:
        c = self.ctx.scalar(c).u
        return QuatValue(self, (c.numerator, 0, 0, 0), c.denominator)

    def zero(self) -> QuatValue:
        return QuatValue(self, (0, 0, 0, 0), 1)

    def one(self) -> QuatValue:
        return QuatValue(self, (1, 0, 0, 0), 1)

    @property
    def e1(self) -> QuatValue:
        return QuatValue(self, (0, 1, 0, 0), 1)

    @property
    def e2(self) -> QuatValue:
        return QuatValue(self, (0, 0, 1, 0), 1)

    @property
    def e3(self) -> QuatValue:
        return QuatValue(self, (0, 0, 0, 1), 1)

    def basis(self) -> list[QuatValue]:
        return [self.one(), self.e1, self.e2, self.e3]

    def coerce(self, v) -> QuatValue:
        if isinstance(v, QuatValue):
            if v.alg == self:
                return v
            raise ContextMismatch(f"value from {v.alg} used in {self}")
        return self.scalar(v)

    def from_coords(self, coords) -> QuatValue:
        coords = list(coords)
        if len(coords) != 4:
            raise ValueError("quaternion needs 4 coordinates")
        return self.element(coords)

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, QuaternionAlgebra):
            return NotImplemented
        return self.ctx == other.ctx and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash(("quat", self.a, self.b))

    def __repr__(self):
        return f"({self.a},{self.b} | {self.ctx})"


def _rational(c):
    """c as an int or Fraction, or None if it is not a scalar at all."""
    if isinstance(c, (int, Fraction)):
        return c
    if isinstance(c, ScalarValue):
        if c.v:
            raise ContextMismatch(f"cannot move {c} into Q")
        return c.u
    return None


def _reduced(alg, w, x, y, z, d) -> QuatValue:
    """The canonical QuatValue (w + x*e1 + y*e2 + z*e3) / d, for d != 0."""
    g = gcd(d, w, x, y, z)
    if d < 0:
        g = -g
    if g == 1:
        return QuatValue(alg, (w, x, y, z), d)
    return QuatValue(alg, (w // g, x // g, y // g, z // g), d // g)


class QuatValue:
    """Element (w + x*e1 + y*e2 + z*e3) / den of a quaternion algebra.

    `num` holds the integers (w, x, y, z) and `den` their shared positive
    denominator, with gcd(w, x, y, z, den) == 1, so equal values have equal
    (num, den).  The constructor takes that canonical pair as given; an
    operation whose result may need reducing builds it through `_reduced`,
    one gcd per result.  Values are never mutated.
    """

    __slots__ = ("alg", "num", "den")

    ASSOCIATIVE = True

    def __init__(self, alg, num, den):
        self.alg = alg
        self.num = num
        self.den = den

    def _coerce(self, other):
        if isinstance(other, QuatValue):
            if other.alg == self.alg:
                return other
            raise ContextMismatch(f"{self.alg} vs {other.alg}")
        if isinstance(other, (int, Fraction, ScalarValue)):
            return self.alg.scalar(other)
        return None

    def _scaled(self, p, q) -> QuatValue:
        """self * (p/q) for integers p and q != 0."""
        w, x, y, z = self.num
        return _reduced(self.alg, w * p, x * p, y * p, z * p, self.den * q)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        (w1, x1, y1, z1), d1 = self.num, self.den
        (w2, x2, y2, z2), d2 = o.num, o.den
        g = gcd(d1, d2)
        s1, s2 = d2 // g, d1 // g
        return _reduced(self.alg, w1 * s1 + w2 * s2, x1 * s1 + x2 * s2,
                        y1 * s1 + y2 * s2, z1 * s1 + z2 * s2, d1 * s1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, QuatValue):
            alg = self.alg
            if other.alg != alg:
                raise ContextMismatch(f"{alg} vs {other.alg}")
            D, A, B, AB = alg.consts
            w1, x1, y1, z1 = self.num
            w2, x2, y2, z2 = other.num
            return _reduced(
                alg,
                D * (w1 * w2) + A * (x1 * x2) + B * (y1 * y2) - AB * (z1 * z2),
                D * (w1 * x2 + x1 * w2) + B * (z1 * y2 - y1 * z2),
                D * (w1 * y2 + y1 * w2) + A * (x1 * z2 - z1 * x2),
                D * (w1 * z2 + z1 * w2 + x1 * y2 - y1 * x2),
                D * self.den * other.den,
            )
        c = _rational(other)
        if c is None:
            return NotImplemented
        return self._scaled(c.numerator, c.denominator)

    def __rmul__(self, other):
        # only scalars land here, and those are central
        c = _rational(other)
        if c is None:
            return NotImplemented
        return self._scaled(c.numerator, c.denominator)

    def __truediv__(self, other):
        c = _rational(other)
        if c is None:
            return NotImplemented
        if c == 0:
            raise DivisionByZero("division by zero scalar")
        return self._scaled(c.denominator, c.numerator)

    def __neg__(self):
        w, x, y, z = self.num
        return QuatValue(self.alg, (-w, -x, -y, -z), self.den)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = self.alg.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conj(self) -> QuatValue:
        w, x, y, z = self.num
        return QuatValue(self.alg, (w, -x, -y, -z), self.den)

    def trace(self) -> ScalarValue:
        return ScalarValue(self.alg.ctx, Fraction(2 * self.num[0], self.den))

    def _scaled_norm(self) -> int:
        """N(self) * D * den**2, an integer (D from the algebra's consts)."""
        D, A, B, AB = self.alg.consts
        w, x, y, z = self.num
        return D * (w * w) - A * (x * x) - B * (y * y) + AB * (z * z)

    def norm(self) -> ScalarValue:
        return ScalarValue(self.alg.ctx, Fraction(
            self._scaled_norm(), self.alg.consts[0] * self.den * self.den))

    def inverse(self) -> QuatValue:
        if self.is_zero():
            raise DivisionByZero("division by the zero quaternion")
        m = self._scaled_norm()
        if m == 0:
            raise ZeroDivisor(f"{self} has norm 0, so (a,b) is not a division algebra")
        # conj(q) / N(q) = conj(num) * D * den / m
        s = self.alg.consts[0] * self.den
        w, x, y, z = self.num
        return _reduced(self.alg, w * s, -x * s, -y * s, -z * s, m)

    def scalar_part(self) -> ScalarValue:
        return ScalarValue(self.alg.ctx, Fraction(self.num[0], self.den))

    def pure(self) -> QuatValue:
        _, x, y, z = self.num
        return _reduced(self.alg, 0, x, y, z, self.den)

    def is_zero(self) -> bool:
        return self.num == (0, 0, 0, 0)

    def is_central(self) -> bool:
        _, x, y, z = self.num
        return x == 0 and y == 0 and z == 0

    def coords(self) -> list[Fraction]:
        return [Fraction(n, self.den) for n in self.num]

    @property
    def carrier(self) -> QuaternionAlgebra:
        return self.alg

    def __eq__(self, other):
        if isinstance(other, QuatValue):
            return (other.alg == self.alg
                    and self.num == other.num and self.den == other.den)
        c = _rational(other)
        if c is None:
            return NotImplemented
        return self.num == (c.numerator, 0, 0, 0) and self.den == c.denominator

    def __bool__(self):
        return not self.is_zero()

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        return "[" + ",".join(str(c) for c in self.coords()) + "]"

    __repr__ = __str__


class OctonionAlgebra:
    """Cayley-Dickson double of a quaternion algebra with parameter gamma."""

    __slots__ = ("base", "gamma")

    def __init__(self, a, b, gamma, ctx: FieldContext | None = None):
        base = QuaternionAlgebra(a, b, ctx)
        gamma = base.ctx.scalar(gamma)
        if gamma.is_zero():
            raise ValidationError("doubling parameter gamma must be nonzero")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "gamma", gamma)

    def __setattr__(self, name, value):
        raise AttributeError("OctonionAlgebra is immutable")

    @property
    def ctx(self) -> FieldContext:
        return self.base.ctx

    def pair(self, first, second) -> OctValue:
        return OctValue(self, self.base.coerce(first), self.base.coerce(second))

    def element(self, coords) -> OctValue:
        coords = list(coords)
        if len(coords) != 8:
            raise ValueError("octonion needs 8 coordinates")
        return self.pair(self.base.element(coords[:4]), self.base.element(coords[4:]))

    def scalar(self, c) -> OctValue:
        return self.pair(self.base.scalar(c), self.base.zero())

    def embed(self, q: QuatValue) -> OctValue:
        return self.pair(q, self.base.zero())

    def zero(self) -> OctValue:
        return self.scalar(0)

    def one(self) -> OctValue:
        return self.scalar(1)

    @property
    def ell0(self) -> OctValue:
        return self.pair(self.base.zero(), self.base.one())

    def basis(self) -> list[OctValue]:
        qb = self.base.basis()
        zero = self.base.zero()
        return [self.pair(q, zero) for q in qb] + [self.pair(zero, q) for q in qb]

    def coerce(self, v) -> OctValue:
        if isinstance(v, OctValue):
            if v.alg == self:
                return v
            raise ContextMismatch(f"value from {v.alg} used in {self}")
        if isinstance(v, QuatValue):
            if v.alg == self.base:
                return self.embed(v)
            raise ContextMismatch(f"quaternion from {v.alg} used in {self}")
        return self.scalar(self.ctx.scalar(v))

    def from_coords(self, coords) -> OctValue:
        return self.element(coords)

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, OctonionAlgebra):
            return NotImplemented
        return self.base == other.base and self.gamma == other.gamma

    def __hash__(self):
        return hash(("oct", self.base, self.gamma))

    def __repr__(self):
        return f"({self.base.a},{self.base.b},{self.gamma} | {self.ctx})"


class OctValue:
    """Element q + r*l0 of an octonion algebra, stored as the pair (q, r)."""

    __slots__ = ("alg", "first", "second")

    ASSOCIATIVE = False

    def __init__(self, alg, first: QuatValue, second: QuatValue):
        self.alg = alg
        self.first = first
        self.second = second

    def _coerce(self, other):
        if isinstance(other, OctValue):
            if other.alg == self.alg:
                return other
            raise ContextMismatch(f"{self.alg} vs {other.alg}")
        if isinstance(other, QuatValue):
            if other.alg == self.alg.base:
                return self.alg.embed(other)
            raise ContextMismatch(f"{self.alg} vs {other.alg}")
        if isinstance(other, (int, Fraction, ScalarValue)):
            return self.alg.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return OctValue(self.alg, self.first + o.first, self.second + o.second)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return OctValue(self.alg, self.first - o.first, self.second - o.second)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        g = self.alg.gamma
        q, r = self.first, self.second
        s, t = o.first, o.second
        return OctValue(self.alg,
                        q * s + (t.conj() * r) * g,
                        t * q + r * s.conj())

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, ScalarValue)):
            return OctValue(self.alg, self.first / other, self.second / other)
        return NotImplemented

    def __neg__(self):
        return OctValue(self.alg, -self.first, -self.second)

    def __pow__(self, k):
        # powers of a single element live in an associative subalgebra, so
        # square-and-multiply is unambiguous even though the algebra is not
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = self.alg.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conj(self) -> OctValue:
        return OctValue(self.alg, self.first.conj(), -self.second)

    def trace(self) -> ScalarValue:
        return self.first.trace()

    def norm(self) -> ScalarValue:
        return self.first.norm() - self.alg.gamma * self.second.norm()

    def inverse(self) -> OctValue:
        if self.is_zero():
            raise DivisionByZero("division by the zero octonion")
        n = self.norm()
        if n.is_zero():
            raise ZeroDivisor(f"{self} has norm 0, so the algebra is not division")
        return self.conj() / n

    def scalar_part(self) -> ScalarValue:
        return self.first.scalar_part()

    def pure(self) -> OctValue:
        return OctValue(self.alg, self.first.pure(), self.second)

    def is_zero(self) -> bool:
        return self.first.is_zero() and self.second.is_zero()

    def is_central(self) -> bool:
        return self.first.is_central() and self.second.is_zero()

    def coords(self) -> list[Fraction]:
        return self.first.coords() + self.second.coords()

    @property
    def carrier(self) -> OctonionAlgebra:
        return self.alg

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, ScalarValue, QuatValue)):
            try:
                other = self._coerce(other)
            except ContextMismatch:
                return False
        if isinstance(other, OctValue):
            if other.alg != self.alg:
                return False
            return self.first == other.first and self.second == other.second
        return NotImplemented

    def __bool__(self):
        return not self.is_zero()

    def __hash__(self):
        return hash(("octval", self.first, self.second))

    def __str__(self):
        return "[" + ",".join(str(c) for c in self.coords()) + "]"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# conjugacy classes


class ConjClass:
    """Conjugacy-class label: a central scalar, or a (trace, norm) pair.

    Two non-central quaternions are conjugate exactly when they share reduced
    trace and norm, provided the algebra is division; in a split algebra the
    label can lump together genuinely non-conjugate elements, which is the
    same caveat attached to ZeroDivisor.
    """

    __slots__ = ("central", "t", "n")

    def __init__(self, central=None, t=None, n=None):
        if (central is None) == (t is None):
            raise ValueError("give either a central scalar or a (t, n) pair")
        object.__setattr__(self, "central", central)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("ConjClass is immutable")

    @property
    def is_central(self) -> bool:
        return self.central is not None

    def min_poly_is_irreducible(self) -> bool:
        """Whether x^2 - t x + n has no roots in the base field."""
        if self.is_central:
            return False
        disc = self.t * self.t - 4 * self.n
        return not disc.is_square()

    def __eq__(self, other):
        if not isinstance(other, ConjClass):
            return NotImplemented
        if self.is_central != other.is_central:
            return False
        if self.is_central:
            return self.central == other.central
        return self.t == other.t and self.n == other.n

    def __hash__(self):
        if self.is_central:
            return hash(("class", self.central))
        return hash(("class", self.t, self.n))

    def __repr__(self):
        if self.is_central:
            return f"ConjClass(central={self.central})"
        return f"ConjClass(t={self.t}, n={self.n})"


def conj_class(x: QuatValue) -> ConjClass:
    """Class label of a quaternion: itself if central, else (trace, norm)."""
    if x.is_central():
        return ConjClass(central=x.scalar_part())
    return ConjClass(t=x.trace(), n=x.norm())


def same_class(x: QuatValue, y: QuatValue) -> bool:
    return conj_class(x) == conj_class(y)


def spherical_representative(alg: QuaternionAlgebra, t, n, height: int = 20):
    """Two distinct elements with trace t and norm n, via bounded search.

    Looks for lam = t/2 + (p1*e1 + p2*e2 + p3*e3)/q with integer numerators
    and denominator bounded by `height`; the partner is t - lam.  Raises
    NoRepresentative when the search space is exhausted.
    """
    t = alg.ctx.scalar(t)
    n = alg.ctx.scalar(n)
    a = alg.a.u
    b = alg.b.u
    m = (n - t * t / 4).u
    # p1^2 = (m*q^2 + b*p2^2 - a*b*p3^2) / (-a), scaled by L to plain ints
    L = lcm(m.denominator, a.denominator, b.denominator, (a * b).denominator)
    M, B, AB, div = int(m * L), int(b * L), int(a * b * L), int(-a * L)
    for q in range(1, height + 1):
        mq = M * q * q
        for p2 in range(0, height + 1):
            for p3 in range(0, height + 1):
                val, rem = divmod(mq + B * p2 * p2 - AB * p3 * p3, div)
                if val < 0 or rem:
                    continue
                p1 = isqrt(val)
                if p1 * p1 != val or p1 > height:
                    continue
                if p1 == 0 and p2 == 0 and p3 == 0:
                    continue  # pure part must be nonzero to keep the pair distinct
                y = alg.element([0, Fraction(p1, q), Fraction(p2, q), Fraction(p3, q)])
                lam = alg.scalar(t / 2) + y
                return lam, alg.scalar(t) - lam
    raise NoRepresentative(
        f"search exhausted up to height {height}: no element of trace {t} "
        f"and norm {n} in {alg}"
    )


# ---------------------------------------------------------------------------
# quaternion frames inside an octonion algebra


def polar_form(x, y) -> ScalarValue:
    """Bilinear form attached to the norm: B(x, y) = N(x+y) - N(x) - N(y)."""
    return (x * y.conj()).trace()


def _orthogonalize(x: OctValue, against) -> OctValue:
    out = x
    for v in against:
        bv = polar_form(v, v)
        if bv.is_zero():
            raise DegenerateFrame(f"cannot orthogonalize against isotropic {v}")
        out = out - v * (polar_form(out, v) / bv)
    return out


def _central_square(x: OctValue, what: str) -> ScalarValue:
    sq = x * x
    if not sq.is_central():
        raise InternalError(f"{what} squared is not central")
    return sq.scalar_part()


class SubalgebraFrame:
    """A quaternion subalgebra Q' = span(1, u, w, u*w) of an octonion algebra,
    together with a trace-zero unit ell orthogonal to it, so that the whole
    algebra splits as Q' + Q'*ell.

    The basis {1, u, w, u*w, ell, u*ell, w*ell, (u*w)*ell} is pairwise
    orthogonal under `polar_form` B, with B(v, v) = 2*N(v) != 0, so
    `decompose` reads coordinate i off as B(x, v_i) / B(v_i, v_i); `embed`
    maps frame coordinates back through the first four vectors.  A basis
    that is not of that kind raises DegenerateFrame.
    """

    __slots__ = ("oct", "u", "w", "uw", "ell", "a_prime", "b_prime",
                 "gamma_prime", "quat", "vecs", "gram")

    def __init__(self, oct_alg: OctonionAlgebra, u: OctValue, w: OctValue,
                 ell: OctValue):
        object.__setattr__(self, "oct", oct_alg)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "ell", ell)
        uw = u * w
        object.__setattr__(self, "uw", uw)
        a_p = _central_square(u, "frame generator u")
        b_p = _central_square(w, "frame generator w")
        g_p = _central_square(ell, "frame unit ell")
        object.__setattr__(self, "a_prime", a_p)
        object.__setattr__(self, "b_prime", b_p)
        object.__setattr__(self, "gamma_prime", g_p)
        object.__setattr__(self, "quat", QuaternionAlgebra(a_p, b_p, oct_alg.ctx))
        vecs = (oct_alg.one(), u, w, uw, ell, u * ell, w * ell, uw * ell)
        gram = tuple(polar_form(v, v) for v in vecs)
        if any(g.is_zero() for g in gram) or any(
                not polar_form(vecs[i], vecs[j]).is_zero() for i in range(8) for j in range(i)):
            raise DegenerateFrame("frame vectors are isotropic or not pairwise orthogonal")
        object.__setattr__(self, "vecs", vecs)
        object.__setattr__(self, "gram", gram)

    def __setattr__(self, name, value):
        raise AttributeError("SubalgebraFrame is immutable")

    def decompose(self, x: OctValue) -> tuple[QuatValue, QuatValue]:
        """Write x = embed(q) + embed(s)*ell and return (q, s)."""
        x = self.oct.coerce(x)
        c = [polar_form(x, v) / g for v, g in zip(self.vecs, self.gram)]
        return self.quat.element(c[:4]), self.quat.element(c[4:])

    def embed(self, q: QuatValue) -> OctValue:
        """Map frame-quaternion coordinates back into the octonion algebra."""
        w, x, y, z = self.quat.coerce(q).coords()
        return self.oct.one() * w + self.u * x + self.w * y + self.uw * z

    def contains(self, x: OctValue) -> bool:
        return self.decompose(x)[1].is_zero()

    def __repr__(self):
        return f"SubalgebraFrame(u={self.u}, w={self.w}, ell={self.ell})"


def build_frame(alg: OctonionAlgebra, alpha, beta) -> SubalgebraFrame:
    """A frame whose quaternion part contains both alpha and beta.

    Deterministic construction: u is the pure part of beta (falling back to
    the pure part of alpha, then to e1); w is the pure part of alpha
    orthogonalized against u (falling back to the first standard pure basis
    vector that survives orthogonalization); ell is the first standard basis
    vector that is independent of span(1, u, w, u*w) and keeps nonzero norm
    after orthogonalization.
    """
    alpha = alg.coerce(alpha)
    beta = alg.coerce(beta)

    u = beta.pure()
    if u.is_zero():
        u = alpha.pure()
    if u.is_zero():
        u = alg.embed(alg.base.e1)
    if u.norm().is_zero():
        raise DegenerateFrame(f"generator {u} is isotropic")

    w0 = alpha.pure()
    w = None
    if not w0.is_zero():
        cand = _orthogonalize(w0, [u])
        if not cand.is_zero():
            w = cand
    if w is None:
        for s in alg.basis()[1:]:
            cand = _orthogonalize(s, [u])
            if not cand.is_zero():
                w = cand
                break
    if w is None:
        raise DegenerateFrame("no vector independent of u survived orthogonalization")
    if w.norm().is_zero():
        raise DegenerateFrame(f"orthogonalization produced isotropic {w}")

    span = [alg.one(), u, w, u * w]
    ell = None
    qb = alg.basis()
    for s in [qb[4], qb[5], qb[6], qb[7], qb[1], qb[2], qb[3]]:
        cand = _orthogonalize(s, span)
        if not cand.is_zero() and not cand.norm().is_zero():
            ell = cand
            break
    if ell is None:
        raise DegenerateFrame("no usable doubling unit orthogonal to the frame")

    return SubalgebraFrame(alg, u, w, ell)
