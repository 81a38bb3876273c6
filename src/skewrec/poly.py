"""Left polynomials: central indeterminate, coefficients kept on the left.

Evaluation substitutes the point to the right of every coefficient,
p(t) = sum c_i * t**i, so products convolve coefficients in order:
(p*q)_m = sum over i+j=m of p_i * q_j, never reassociated.  The point and
the coefficients may be noncommuting, which is why (x-a)(x-b) and
(x-b)(x-a) generally differ.

The companion polynomial C_p = p*conj(p) stays on integers from the polar
forms of the coefficients to its factors: `_companion` reads it off the
`_scaled_polar` numerators straight into a scaled monic integer polynomial,
and `_factor_monic` factors that over Q in the order its shape suggests.
A quartic is first split into two quadratics by the integer resolvent
cubic (by A = 0 before any search when its depressed form has no linear
term, as every square's has), and each quadratic is finished by its
discriminant; integer roots are sought only in a cubic and in a quartic
that does not split, which is then squarefree: in closed form in a cubic
of discriminant 0, otherwise mod the first odd prime that does not divide
the discriminant, Hensel-lifted up to a Fujiwara root bound.
`quadratic_roots` reads a non-central p's roots off the integer factors on
integer numerators, as (root, multiplicity) pairs: a class holds at most
one root, found with no test, and only a central candidate is tested, by
the residual kernel `forms._residual` that also proves closed forms;
rational `LeftPoly`s of C_p and its factors are built only for a caller
that asks (`companion_poly`, `factor_central_quartic`, the `NoRootsFound`
text), and their coefficients print from numerators.  `conj_class` labels
a quaternion's class by its (trace, norm), a `ConjClass`, which
`solver._check_lam` counts; the certificate reads no label.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import count
from math import gcd, isqrt, lcm
from operator import mul

from .algebra import OctonionAlgebra, QuaternionAlgebra, QuatValue, _conj4, _quat_mul
from .errors import InternalError, NoRootsFound, UnsupportedDegree
from .forms import _residual
from .scalar import FieldContext, _reduced, _times


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
    def x_minus(cls, lam) -> LeftPoly:
        carrier = lam.carrier
        return cls(carrier, [-lam, carrier.one()])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1].is_one()

    def __mul__(self, other):
        if not isinstance(other, LeftPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return LeftPoly(self.carrier, [])
        zero = self.carrier.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci.is_zero():
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return LeftPoly(self.carrier, out)

    def eval(self, t):
        """Left evaluation sum c_i * t**i, by Horner's rule from the leading
        coefficient: acc -> acc*t + c_i.  Expanded, that is the sum of
        (...((c_i*t)*t)...)*t, which is c_i * t**i for octonions too: c_i
        and t generate an associative subalgebra (Artin's theorem).  A monic
        p of degree n >= 1 costs n - 1 products."""
        carrier = self.carrier
        t = carrier.coerce(t)
        c = self.coeffs
        if len(c) < 2:
            return c[0] if c else carrier.zero()
        acc = _times(c[-1], t) + c[-2]
        for ci in reversed(c[:-2]):
            acc = acc * t + ci
        return acc

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
    """C_p = p * conj(p) for a monic p over a quaternion or octonion
    algebra, as a polynomial over the base field (see `_companion`)."""
    return _unscaled(p.carrier.ctx, *_companion(p))


def divide_by_linear(p: LeftPoly, lam) -> tuple[LeftPoly, object]:
    """Right-divide by (x - lam): p = g*(x - lam) + r with r constant.

    The remainder always equals p.eval(lam), so lam is a root exactly when
    r vanishes.
    """
    carrier = p.carrier
    lam = carrier.coerce(lam)
    if p.is_zero():
        return LeftPoly(carrier, []), carrier.zero()
    n = p.degree
    if n == 0:
        return LeftPoly(carrier, []), p.coeffs[0]
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


def _horner_dg(g, y):
    """(g(y), g'(y)) by one Horner pass: acc -> acc*y + c and, beside it,
    d -> d*y + acc before acc steps."""
    acc = d = 0
    for c in reversed(g):
        d = d * y + acc
        acc = acc * y + c
    return acc, d


def _divide(g, a):
    """(quotient, remainder) of g divided by a monic a."""
    g, n = list(g), len(a) - 1
    q = [0] * (len(g) - n)
    for s in range(len(q) - 1, -1, -1):
        q[s] = c = g[s + n]
        for i, x in enumerate(a):
            g[s + i] -= c * x
    return q, g[:n]


def _depressed(g):
    """(P, Q, R) with 256 * g((z - c3) / 4) = z^4 + P z^2 + Q z + R, on
    integers, for a monic integer quartic g."""
    c0, c1, c2, c3, _ = g
    return (16 * c2 - 6 * c3 * c3, 64 * c1 - 32 * c2 * c3 + 8 * c3 ** 3,
            256 * c0 - 64 * c1 * c3 + 16 * c2 * c3 * c3 - 3 * c3 ** 4)


def _discriminant(g) -> int:
    """disc(g) for a monic integer cubic g, 2**24 * disc(g) for a quartic:
    the discriminant of its resolvent cubic Y^3 + 2P Y^2 + (P^2 - 4R) Y - Q^2
    (`_depressed`), whose roots are the (z_i + z_j)^2 over g's z = 4y + c3."""
    if len(g) == 5:
        P, Q, R = _depressed(g)
        g = [-Q * Q, P * P - 4 * R, 2 * P, 1]
    c, b, a, _ = g
    return a * a * b * b - 4 * b ** 3 - 4 * a ** 3 * c - 27 * c * c + 18 * a * b * c


def _integer_roots(g):
    """The distinct integer roots of a monic integer cubic or quartic g,
    ascending, with no integer factored (von zur Gathen and Gerhard, Modern
    Computer Algebra, ch. 15; Cohen, GTM 138, 3.5), for `_factor_monic`'s
    cubics and quartics with no quadratic factor and `_split_quartic`'s
    resolvent cubics.  A quartic with a repeated factor splits, as
    (y - r)^2 * q or as q^2, so one of discriminant 0 raises
    InternalError.  A cubic y^3 + a y^2 + b y + c of discriminant 0 has the
    repeated root r = -a/3 when a^2 = 3b (a triple root) and
    r = (9c - ab) / (2(a^2 - 3b)) otherwise, and the other root -a - 2r;
    both are integers by Gauss's lemma.  Otherwise p is the first odd prime
    that does not divide the discriminant (`_discriminant`), so g mod p is
    squarefree: each root of g mod p, found by trying 0..p-1 on g's
    coefficients mod p, is simple and lifts to one root mod p**(2**i) by
    Newton steps (Hensel lifting) until the modulus exceeds 2 * rb, where
    rb >= 2 * max_i |g_{n-i}|**(1/i) bounds every root (Fujiwara, 1916): a
    root then is its symmetric residue, kept only if g vanishes there
    exactly.  Each residue and Newton step takes g and g' from one Horner
    pass (`_horner_dg`)."""
    disc = _discriminant(g)
    if disc == 0:
        if len(g) == 5:
            raise InternalError(f"{g} reached the integer root search with a repeated factor")
        c, b, a, _ = g
        d = a * a - 3 * b
        r = (9 * c - a * b) // (2 * d) if d else -a // 3
        return sorted({r, -a - 2 * r})
    n = len(g) - 1
    # rb = 2 * max_i 2**ceil(bits(g_{n-i}) / i), Fujiwara's bound on ints
    bound = 4 << max([-(-abs(g[n - i]).bit_length() // i) for i in range(1, n + 1)])
    p = next(p for p in count(3, 2) if disc % p and all(p % q for q in range(3, p, 2)))
    gp, roots = [c % p for c in g], []
    for a in range(p):
        if _horner_dg(gp, a)[0] % p:
            continue
        m = p
        while True:
            r = a - m if 2 * a > m else a
            gr, dgr = _horner_dg(g, r)
            if gr == 0 or m > bound:
                break
            m *= m
            a = (r - gr * pow(dgr, -1, m)) % m
        if gr == 0:
            roots.append(r)
    return sorted(roots)


def _split_quartic(g):
    """Monic integer quadratics [u, v] with u*v == g, for any monic integer
    quartic g; None when g has no quadratic factor over Q, that is, when it
    is irreducible or a linear factor times an irreducible cubic.

    z = 4y + c3 depresses g to 256*g((z - c3)/4) = z^4 + P z^2 + Q z + R,
    still on integers (`_depressed`).  A split (z^2 + A z + B)(z^2 - A z + D)
    has B + D = P + A^2, A(D - B) = Q and BD = R, so A^2 is an integer root
    of the resolvent cubic Y^3 + 2P Y^2 + (P^2 - 4R) Y - Q^2.  When Q = 0,
    Y = 0 is a root and A = 0 is tried before the cubic is searched for
    integer roots; that search runs only if A = 0 gives no exact division,
    as for y^4 + 4 = (y^2 + 2y + 2)(y^2 - 2y + 2), which splits with A = 8.
    """
    P, Q, R = _depressed(g)
    if Q == 0:
        # B is a root of t^2 - P t + R; if the square root below is inexact
        # the exact division rejects the candidate
        split = _quadratic_divisor(g, 0, P + isqrt(max(P * P - 4 * R, 0)))
        if split:
            return split
    for y in _integer_roots([-Q * Q, P * P - 4 * R, 2 * P, 1]):
        A = isqrt(max(y, 0))
        if y > 0 and A * A == y and Q % A == 0:  # y = 0 only if Q = 0: tried above
            split = _quadratic_divisor(g, A, P + y - Q // A)
            if split:
                return split
    return None


def _quadratic_divisor(g, A, b2):
    """[u, g / u] for u = (z^2 + A z + B at z = 4y + c3) / 16, with b2 = 2B,
    when u is an integer quadratic that divides the quartic g exactly;
    None otherwise."""
    c3 = g[3]
    u1, r1 = divmod(8 * c3 + 4 * A, 16)
    u0, r0 = divmod(2 * c3 * (c3 + A) + b2, 32)
    if r1 or r0:
        return None
    v, rem = _divide(g, [u0, u1, 1])
    return None if any(rem) else [[u0, u1, 1], v]


def _split_quadratic(u):
    """The monic integer quadratic u = [u0, u1, 1] as its monic factors over
    Q: the linear factors y - (-u1 -+ s)/2 when the discriminant
    u1^2 - 4*u0 is the square s^2 of an integer (s and u1 have one parity),
    u itself otherwise."""
    u0, u1, _ = u
    disc = u1 * u1 - 4 * u0
    s = isqrt(disc) if disc >= 0 else -1
    if s * s != disc:
        return [u]
    return [[(u1 + s) // 2, 1], [(u1 - s) // 2, 1]]


def _companion(p: LeftPoly) -> tuple[list[int], int]:
    """C_p = p * conj(p) for a monic p over a quaternion or octonion algebra,
    as (g, L): the monic integer g(y) = L**N * C_p(y/L), N = 2 * deg p and
    L the lcm of the denominators of C_p's coefficients.

    Coefficient m of C_p sums B(c_i, c_j) = c_i*conj(c_j) + c_j*conj(c_i)
    over i < j, i + j = m, and N(c_{m/2}) for even m.  That holds for
    quaternion and octonion coefficients alike (conj(xy) = conj(y)*conj(x)),
    and `_scaled_polar` gives B(c_i, c_j) / 2 = m_ij / (D * d_i * d_j) with
    no product; against the leading c_n = 1 it is m_in = D * w_i, w_i the
    first numerator of c_i, read off directly.  Over e = lcm of the d_i,
    coefficient m is then h_m / E with E = D * e**2 and h_m the sum of
    m_ij * (e/d_i) * (e/d_j) over the ordered pairs i + j = m.
    """
    carrier = p.carrier
    if not isinstance(carrier, (QuaternionAlgebra, OctonionAlgebra)):
        raise ValueError("companion polynomial needs quaternion or octonion coefficients")
    if not p.is_monic():
        raise ValueError("companion polynomial needs a monic input")
    c, n = p.coeffs, p.degree
    D = carrier.weights[0]
    e = lcm(*[x.den for x in c])
    s = [e // x.den for x in c]
    h = [0] * (2 * n + 1)
    for i in range(n):
        h[i + n] += 2 * D * c[i].num[0] * s[i] * e  # B(c_i, 1) / 2 = D * w_i / d_i
        for j in range(i, n):
            m, _ = c[i]._scaled_polar(c[j])
            h[i + j] += m * s[i] * s[j] * (1 if i == j else 2)
    E = h[2 * n] = D * e * e  # N(c_n) = 1
    # h_i / E in lowest terms is (h_i / g_i) / q_i with q_i = E / g_i
    gs = [gcd(x, E) for x in h]
    L = lcm(*[E // g for g in gs])
    N = 2 * n
    return [(x // g) * (L ** (N - i) * g // E) for i, (x, g) in enumerate(zip(h, gs))], L


def _factor_monic(g) -> list[tuple[tuple, int]]:
    """The monic irreducible factors over Q of a monic integer g of degree up
    to 4, with multiplicities, as integer coefficient tuples sorted by
    degree and then by coefficients.  By Gauss's lemma every monic factor of
    g over Q has integer coefficients.

    The factors are sought in the order the companion quartics need: a
    quartic goes to `_split_quartic` first, and each quadratic of a split,
    like a quadratic g, is finished by its discriminant (`_split_quadratic`).
    `_integer_roots` runs only on a cubic and on a quartic that does not
    split, which is irreducible or a linear factor times an irreducible
    cubic; the roots are divided out on ints and what is left is
    irreducible.  A linear g is its own factor.  Factorization over Q is
    unique, so the order of the search does not change the result."""
    quads = _split_quartic(g) if len(g) == 5 else [g] if len(g) == 3 else None
    if quads is not None:
        factors = [f for u in quads for f in _split_quadratic(u)]
    else:
        factors = []
        for r in _integer_roots(g) if len(g) > 2 else ():
            q, rem = _divide(g, [-r, 1])
            while rem == [0]:
                g = q
                factors.append([-r, 1])
                q, rem = _divide(g, [-r, 1])
        if len(g) > 1:
            factors.append(g)
    counted = Counter(map(tuple, factors))
    return sorted(counted.items(), key=lambda kv: (len(kv[0]), kv[0]))


def _unscaled(ctx: FieldContext, u, L: int) -> LeftPoly:
    """The monic rational f(x) = L**-deg * u(L*x) of the integer u: its
    coefficient i is u_i / L**(deg - i)."""
    d = len(u) - 1
    return LeftPoly(ctx, [ctx.ratio(c, L ** (d - i)) for i, c in enumerate(u)])


def _unscaled_factors(ctx: FieldContext, factors, L: int) -> list:
    """`_factor_monic`'s factors of L**N * f(y/L) as the factors of f.
    Coefficient i of a degree-d factor is divided by the same L**(d - i)
    for every factor, so the integer order is the order of the results."""
    return [(_unscaled(ctx, u, L), mult) for u, mult in factors]


def factor_central_quartic(p: LeftPoly):
    """Exact factorization over Q of a monic rational polynomial of degree
    up to 4, as a list of (monic irreducible factor, multiplicity) sorted by
    degree and then by coefficients: `_factor_monic` of the monic integer
    g(y) = L**n * p(y/L), L the lcm of the denominators.
    """
    if not isinstance(p.carrier, FieldContext) or p.carrier.d is not None:
        raise ValueError("factorization works over rational coefficients only")
    if p.degree > 4:
        raise UnsupportedDegree(f"degree {p.degree} > 4")
    if not p.is_monic():
        raise ValueError("factorization needs a monic polynomial")
    n = p.degree
    L = lcm(*[c.den for c in p.coeffs])
    g = [c.num[0] * (L ** (n - i) // c.den) for i, c in enumerate(p.coeffs)]
    return _unscaled_factors(p.carrier, _factor_monic(g), L)


# ---------------------------------------------------------------------------
# conjugacy classes, and the roots of monic quadratics over a quaternion algebra


@dataclass(frozen=True, slots=True)
class ConjClass:
    """Conjugacy-class label of a quaternion: its reduced trace t and norm n.
    In a division algebra two quaternions are conjugate exactly when they
    share t and n, and a central c is alone in its label (2c, c^2); in a
    split algebra c and c plus a nilpotent share one, as ZeroDivisor warns."""

    t: object
    n: object


def conj_class(x: QuatValue) -> ConjClass:
    """Class label of a quaternion: its (trace, norm)."""
    return ConjClass(x.trace(), x.norm())


def _is_root(coeffs, lam) -> bool:
    """Whether sum c_i * lam**i vanishes, for coefficient values c_0..c_n:
    the zero test of `forms._residual`."""
    return not any(_residual([(c.num, c.den) for c in coeffs], lam)[0])


def quadratic_roots(p: LeftPoly) -> tuple:
    """Roots of a monic quadratic x^2 - beta*x - alpha over a quaternion
    algebra, p's carrier, with a coefficient that is not central, as the
    (root, multiplicity) pairs of every root path: ((lam, 1), (mu, 1)) or
    ((lam, 2),).  A central p, which `solver._propose` solves by its
    discriminant, or a p over another carrier raises ValueError; one with
    no root, or with one root and no Jordan partner, NoRootsFound.

    C_p = p * conj(p) (Gordon and Motzkin, Trans. AMS 116, 1965) is
    factored as the monic integer g(y) = L**4 * C_p(y/L).  A factor y + u0
    gives the central candidate c = -u0/L, kept if p(c) = 0 (`_is_root`):
    C_p(c) = N(p(c)) = 0 makes p(c) a zero divisor, which in a split
    algebra need not be 0.  A factor y^2 + u1*y + u0 gives the class of
    trace t = -u1/L and norm n = u0/L^2.  Its every theta, in a split
    algebra too, has theta^2 = t*theta - n, so p(theta) = X*theta - Y with
    X = t - beta and Y = n + alpha.  If X = 0, alpha is not central, as p
    is not, and p(theta) = -Y is never 0.  Otherwise the class holds the
    root lam = X^-1 Y, taken with no test: for theta a root of
    y^2 - t*y + n, irrational as the factor is irreducible over Q,
    C_p(theta) = N(X)*theta^2 - B(X, Y)*theta + N(Y) = 0, B the polar form,
    gives B(X, Y) = t*N(X) and N(Y) = n*N(X), so T(lam) = B(X, Y)/N(X) = t,
    N(lam) = n and p(lam) = X*lam - Y = 0.  A single root lam whose
    cofactor beta - lam stays in its class is returned with multiplicity
    two, matching the forced factorization p = (x - (beta - lam)) (x - lam).

    The class steps run on integer numerators: X and Y by cross-multiplying,
    N(X) off the carrier's `weights`, the root from one `_quat_mul` of
    conj(X) and Y, reduced once, and the Jordan test, that beta - lam has
    lam's trace and norm and is central exactly when lam is.  An X of norm
    0 (a split algebra) raises ZeroDivisor, as its inverse does.
    """
    alg = p.carrier
    if not isinstance(alg, QuaternionAlgebra):
        raise ValueError(f"quadratic_roots needs a quaternion algebra, not {alg}")
    if p.degree != 2 or not p.is_monic():
        raise ValueError("quadratic_roots needs a monic quadratic")
    if all(c.is_central() for c in p.coeffs):
        raise ValueError("quadratic_roots needs a non-central coefficient: "
                         "a central quadratic is solved by its discriminant")
    g, L = _companion(p)
    factors = _factor_monic(g)
    c0, c1 = p.coeffs[:2]  # beta = -c1, alpha = -c0
    (c1w, *c1v), d1 = c1.num, c1.den
    (c0w, *c0v), d0 = c0.num, c0.den
    consts, weights, LL = alg.consts, alg.weights, L * L

    roots = []
    for u, _mult in factors:
        if len(u) == 2:
            lam = _reduced(QuatValue, alg, (-u[0], 0, 0, 0), L)
            if _is_root(p.coeffs, lam):
                roots.append(lam)
            continue
        if len(u) != 3:
            continue
        # t - beta = X / (L*d1) and n + alpha = Y / (L^2*d0)
        X = (L * c1w - u[1] * d1, *[L * x for x in c1v])
        if not any(X):  # beta = t: p(theta) = -Y, not 0, on the class
            continue
        Y = (u[0] * d0 - LL * c0w, *[-LL * y for y in c0v])
        nx = sum(map(mul, weights, map(mul, X, X)))  # N(t - beta) * D * (L*d1)^2
        if nx == 0:  # the value t - beta raises ZeroDivisor
            _reduced(QuatValue, alg, X, L * d1).inverse()
        # (t - beta)^-1 (n + alpha) = conj(X) * Y * D*L*d1 / (nx * L^2*d0),
        # and conj(X) * Y is _quat_mul(conj(X), Y) / D
        num = _quat_mul(consts, _conj4(X), Y)
        roots.append(_reduced(QuatValue, alg, tuple([z * d1 for z in num]), nx * L * d0))
    if len(roots) == 2:
        return tuple([(lam, 1) for lam in roots])
    if not roots:
        comp = _unscaled(alg.ctx, g, L)
        if len(factors) == 1 and len(factors[0][0]) == 5:
            raise NoRootsFound(f"C_p = {comp} is irreducible over Q: the roots "
                               "need a degree-4 scalar extension")
        listed = " * ".join(f"[{f}]^{m}" if m > 1 else f"[{f}]"
                            for f, m in _unscaled_factors(alg.ctx, factors, L))
        raise NoRootsFound(f"C_p = {comp} factors over Q as {listed}, and no "
                           "factor yields a root")
    lam = roots[0]
    ln, dl = lam.num, lam.den  # beta - lam = Z / (d1 * dl)
    Z = [-a * dl - b * d1 for a, b in zip(c1.num, ln)]
    if not (any(Z[1:]) == any(ln[1:]) and Z[0] == ln[0] * d1
            and sum(map(mul, weights, map(mul, Z, Z)))
            == sum(map(mul, weights, map(mul, ln, ln))) * d1 * d1):
        raise NoRootsFound("a single isolated root without repeated-root structure "
                           "cannot determine an order-2 closed form")
    return ((lam, 2),)
