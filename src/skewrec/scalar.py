"""Exact scalars: the rationals and real quadratic extensions Q(sqrt(d)).

A value is an immutable pair (u, v) of fractions meaning u + v*sqrt(d),
with v pinned to 0 in rational contexts.  Numerators and denominators are
arbitrary-precision, so closed forms evaluated at large k never overflow.
There is no floating point anywhere in this package.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import count
from math import gcd, isqrt

from .errors import ContextMismatch, DivisionByZero, ParseError


def frac_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None if it is not a square."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


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


def _rho_factor(n: int) -> int:
    """A proper factor of a composite n with no prime factor in _MR_BASES:
    Pollard rho on x -> x^2 + c from x = 2, with Brent's cycle detection
    (Cohen, GTM 138, 8.5), for c = 1, 2, ... until a run stops short of n."""
    for c in count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                if (g := gcd(x - y, n)) != 1:
                    break
            r *= 2
        if g != n:
            return g


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n > 0 as e**2 * d with d squarefree; returns (e, d).  n is
    factored with no trial division up to sqrt(n): a factor is kept when
    `_is_prime` accepts it, else split by a prime of _MR_BASES or by
    `_rho_factor`."""
    if n <= 0:
        raise ValueError("squarefree_split needs a positive integer")
    exponents, todo = Counter(), [n]
    while todo:
        m = todo.pop()
        if _is_prime(m):
            exponents[m] += 1
        elif m > 1:
            f = next((p for p in _MR_BASES if m % p == 0), None) or _rho_factor(m)
            todo += [f, m // f]
    e = d = 1
    for p, k in exponents.items():
        e *= p ** (k // 2)
        d *= p ** (k % 2)
    return e, d


class FieldContext:
    """Base field descriptor: Q, or Q(sqrt(d)) for a squarefree d > 1."""

    __slots__ = ("kind", "d")

    def __init__(self, kind: str = "rational", d: int | None = None):
        if kind not in ("rational", "quadratic"):
            raise ValueError(f"unknown field kind {kind!r}")
        if kind == "quadratic":
            if not isinstance(d, int) or d <= 1:
                raise ValueError("quadratic context needs an integer d > 1")
            if squarefree_split(d)[0] != 1:
                raise ValueError(f"d = {d} is not squarefree")
        elif d is not None:
            raise ValueError("rational context takes no d")
        self.kind = kind
        self.d = d

    @classmethod
    def rational(cls) -> FieldContext:
        return cls()

    @classmethod
    def quadratic(cls, d: int) -> FieldContext:
        return cls("quadratic", d)

    # ---- carrier protocol shared with the algebra classes ----------------

    @property
    def dim(self) -> int:
        return 1 if self.kind == "rational" else 2

    def zero(self) -> ScalarValue:
        return ScalarValue(self, Fraction(0))

    def one(self) -> ScalarValue:
        return ScalarValue(self, Fraction(1))

    def scalar(self, x) -> ScalarValue:
        """Coerce an int, Fraction or compatible ScalarValue into this field."""
        if isinstance(x, ScalarValue):
            if x.ctx == self:
                return x
            if x.v == 0:
                return ScalarValue(self, x.u)
            raise ContextMismatch(f"cannot move {x} into {self}")
        if isinstance(x, (int, Fraction)):
            return ScalarValue(self, x)
        raise TypeError(f"cannot interpret {x!r} as a scalar")

    coerce = scalar

    def basis(self) -> list[ScalarValue]:
        if self.kind == "rational":
            return [self.one()]
        return [self.one(), ScalarValue(self, Fraction(0), Fraction(1))]

    def element(self, coords) -> ScalarValue:
        coords = list(coords)
        if len(coords) != self.dim:
            raise ValueError("coordinate length mismatch")
        if self.kind == "rational":
            return ScalarValue(self, Fraction(coords[0]))
        return ScalarValue(self, Fraction(coords[0]), Fraction(coords[1]))

    def __eq__(self, other):
        if not isinstance(other, FieldContext):
            return NotImplemented
        return self.kind == other.kind and self.d == other.d

    def __hash__(self):
        return hash(("FieldContext", self.kind, self.d))

    def __repr__(self):
        if self.kind == "rational":
            return "Q"
        return f"Q(rt{self.d})"


class ScalarValue:
    """An element u + v*sqrt(d) of the context's field, fully reduced."""

    __slots__ = ("ctx", "u", "v")

    ASSOCIATIVE = True

    def __init__(self, ctx: FieldContext, u, v=Fraction(0)):
        if not isinstance(u, Fraction):
            u = Fraction(u)
        if not isinstance(v, Fraction):
            v = Fraction(v)
        if ctx.kind == "rational" and v != 0:
            raise ContextMismatch("sqrt coordinate in a rational context")
        self.ctx = ctx
        self.u = u
        self.v = v

    # ---- coercion ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ScalarValue):
            if other.ctx == self.ctx:
                return other
            if other.v == 0:
                return ScalarValue(self.ctx, other.u)
            raise ContextMismatch(f"{self.ctx} vs {other.ctx}")
        if isinstance(other, (int, Fraction)):
            return ScalarValue(self.ctx, Fraction(other))
        return None

    # ---- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ScalarValue(self.ctx, self.u + o.u, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ScalarValue(self.ctx, self.u - o.u, self.v - o.v)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.ctx.kind == "rational":
            return ScalarValue(self.ctx, self.u * o.u)
        d = self.ctx.d
        return ScalarValue(
            self.ctx,
            self.u * o.u + d * self.v * o.v,
            self.u * o.v + self.v * o.u,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return ScalarValue(self.ctx, -self.u, -self.v)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = self.ctx.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> ScalarValue:
        if self.is_zero():
            raise DivisionByZero("division by zero scalar")
        if self.v == 0:
            return ScalarValue(self.ctx, 1 / self.u)
        # 1/(u + v rt) = (u - v rt) / (u^2 - d v^2); the denominator cannot
        # vanish because d is not a rational square
        n = self.u * self.u - self.ctx.d * self.v * self.v
        return ScalarValue(self.ctx, self.u / n, -self.v / n)

    # ---- structure --------------------------------------------------------

    def conj(self) -> ScalarValue:
        """Field conjugation u + v*rt -> u - v*rt (identity over Q)."""
        return ScalarValue(self.ctx, self.u, -self.v)

    def norm(self) -> ScalarValue:
        """Field norm u^2 - d v^2, as a rational-valued scalar."""
        if self.ctx.kind == "rational":
            return ScalarValue(self.ctx, self.u * self.u)
        return ScalarValue(self.ctx, self.u * self.u - self.ctx.d * self.v * self.v)

    def trace(self) -> ScalarValue:
        return ScalarValue(self.ctx, 2 * self.u)

    def sqrt(self) -> ScalarValue | None:
        """An exact square root inside the same field, or None."""
        if self.ctx.kind == "rational":
            r = frac_sqrt(self.u)
            return None if r is None else ScalarValue(self.ctx, r)
        d = self.ctx.d
        if self.v == 0:
            r = frac_sqrt(self.u)
            if r is not None:
                return ScalarValue(self.ctx, r)
            r = frac_sqrt(self.u / d)
            if r is not None:
                return ScalarValue(self.ctx, 0, r)
            return None
        s = frac_sqrt(self.u * self.u - d * self.v * self.v)
        if s is None:
            return None
        for psq in ((self.u + s) / 2, (self.u - s) / 2):
            p = frac_sqrt(psq)
            if p is not None and p != 0:
                cand = ScalarValue(self.ctx, p, self.v / (2 * p))
                if cand * cand == self:
                    return cand
        return None

    def is_square(self) -> bool:
        return self.sqrt() is not None

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def is_central(self) -> bool:
        return True

    def scalar_part(self) -> ScalarValue:
        return self

    def pure(self) -> ScalarValue:
        return ScalarValue(self.ctx, 0, self.v)

    def coords(self) -> list[Fraction]:
        if self.ctx.kind == "rational":
            return [self.u]
        return [self.u, self.v]

    @property
    def carrier(self) -> FieldContext:
        return self.ctx

    # ---- comparison and rendering ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.v == 0 and self.u == other
        if isinstance(other, ScalarValue):
            # rational-valued scalars are equal across contexts
            if self.v == 0 and other.v == 0:
                return self.u == other.u
            return self.ctx == other.ctx and self.u == other.u and self.v == other.v
        return NotImplemented

    def __bool__(self):
        return not self.is_zero()

    def __hash__(self):
        # a rational-valued scalar equals its Fraction, so it hashes like one
        if self.v == 0:
            return hash(self.u)
        return hash((self.u, self.v, self.ctx.d))

    def __str__(self):
        return scalar_render(self)

    __repr__ = __str__


def scalar_parse(text: str, ctx: FieldContext) -> ScalarValue:
    """Parse INT, INT/POSINT, or RAT(+|-)RAT*rt, where rt is sqrt(d)."""
    s = text.strip()
    if not s:
        raise ParseError("empty scalar literal", col=0)

    def read_int(p):
        q = p
        if q < len(s) and s[q] in "+-":
            q += 1
        digits_from = q
        while q < len(s) and s[q].isdigit():
            q += 1
        if q == digits_from:
            raise ParseError("expected an integer", col=p)
        return int(s[p:q]), q

    def read_rat(p):
        num, q = read_int(p)
        if q < len(s) and s[q] == "/":
            den, q2 = read_int(q + 1)
            if den <= 0:
                raise ParseError("denominator must be a positive integer", col=q + 1)
            return Fraction(num, den), q2
        return Fraction(num), q

    u, pos = read_rat(0)
    if pos == len(s):
        return ScalarValue(ctx, u)
    if s[pos] not in "+-":
        raise ParseError("expected '+', '-' or end of literal", col=pos)
    sign = -1 if s[pos] == "-" else 1
    v, pos = read_rat(pos + 1)
    if not s.startswith("*rt", pos):
        raise ParseError("expected '*rt'", col=pos)
    pos += 3
    if pos != len(s):
        raise ParseError("trailing characters after '*rt'", col=pos)
    if ctx.kind != "quadratic":
        raise ContextMismatch("'*rt' literal used in a rational context")
    return ScalarValue(ctx, u, sign * v)


def scalar_render(x: ScalarValue) -> str:
    """Canonical form; scalar_parse(scalar_render(x), x.ctx) == x."""
    if x.v == 0:
        return str(x.u)
    sign = "-" if x.v < 0 else "+"
    return f"{x.u}{sign}{abs(x.v)}*rt"
