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
denominator, and an octonion q + r*l0 eight, q's four then r's, kept
reduced (gcd of all of them and the denominator is 1): the layout of
`scalar.IntValue`, which Q(sqrt(d)) scalars share, and which holds the
sums, scalings, conjugation, inverse, powers, equality and hashing of all
of them, and the one polar form of their norms.  Each value class adds
only its product.  Each result is computed on plain ints and reduced by the
only factor that can cancel (`scalar._sum`, `scalar._product`): gcd(d1,
d2) for a sum, and for a product by a factor z whose denominator is narrow
beside a wide one, a factor of W_0 * N(z) (times its scaling), since
conj(x)(xy) = N(x) y and (xy) conj(y) = N(y) x hold in every composition
algebra, octonions and split algebras included; a rational factor is
central, so its product is a scaling, and an octonion left factor with a
zero second half, a quaternion of the base algebra, takes two quaternion
products, not four (`OctonionAlgebra._num_mul`).  Rational a, b enter as
integers over D = den(a)*den(b), so a quaternion product is (D*w1)*w2 +
(A*x1)*x2 + (B*y1)*y2 - (AB*z1)*z2 (and so on) over d1*d2*D, the constants
applied to the left factor first, and gamma enters over its own
denominator.
`coords()` returns exact Fractions, and `str` prints from the numerators.

Carriers.  `QuaternionAlgebra` and `OctonionAlgebra` derive from
`scalar.Carrier`, as `FieldContext` does, which holds zero, one, scalar,
element, basis, coerce, equality and hashing for all of them.  Each adds
its parameters, their integer constants, the diagonal `weights` of its
norm form, the key that equality and hashing read, and its repr; the
octonion algebra also adds embed, ell0 and a coerce that embeds a
quaternion of its base algebra.  The norm form is diagonal in the basis:
<1, -a, -b, ab> for (a,b | Q), scaled by D to (D, -A, -B, AB), and
N(q + r*l0) = N(q) - gamma*N(r) for the double.  Every norm job (norm,
inverse, polar form, the companion polynomial, the isotropy tests and the
squares of a frame) reads it.

Frames.  `SubalgebraFrame` and `_frame_basis`, the doubling lemma's test
that proves each frame once, when it is built, are trusted.  `build_frame`,
`_orthogonalize` and `spherical_representative` are the search's, kept
here because `bench/run.py` times them under this module's name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt, lcm
from operator import mul

from .errors import DegenerateFrame, NoRepresentative, ValidationError
from .scalar import Carrier, FieldContext, IntValue, _make, _product, _reduced


def _quat_mul(consts, p, q) -> tuple:
    """D * p * q for integer 4-tuples p, q of a quaternion algebra with
    consts (D, A, B, AB), as an integer 4-tuple; the constants go on p
    first, so a narrow p times a wide q takes 28 wide operations, not 37."""
    D, A, B, AB = consts
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    Dw, Dx, Dy, Dz = D * w1, D * x1, D * y1, D * z1
    Ax, Az, By, Bz, ABz = A * x1, A * z1, B * y1, B * z1, AB * z1
    return (Dw * w2 + Ax * x2 + By * y2 - ABz * z2,
            Dw * x2 + Dx * w2 + Bz * y2 - By * z2,
            Dw * y2 + Dy * w2 + Ax * z2 - Az * x2,
            Dw * z2 + Dz * w2 + Dx * y2 - Dy * x2)


def _conj4(p) -> tuple:
    w, x, y, z = p
    return (w, -x, -y, -z)


class QuatValue(IntValue):
    """Element (w + x*e1 + y*e2 + z*e3) / den of a quaternion algebra, with
    num = (w, x, y, z) in the layout of `IntValue`."""

    __slots__ = ()

    def __mul__(self, other):
        alg = self.carrier
        if not (isinstance(other, QuatValue) and (other.carrier is alg or other.carrier == alg)):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        p, q = self.num, other.num
        if not (q[1] or q[2] or q[3]):  # a rational is central: a scaling
            return self._scaled(q[0], other.den)
        if not (p[1] or p[2] or p[3]):
            return other._scaled(p[0], self.den)
        return _product(self, other, _quat_mul(alg.consts, p, q))


class QuaternionAlgebra(Carrier):
    """The four-dimensional algebra (a,b | Q) with a, b nonzero rationals.

    Products work on integers: with D = den(a)*den(b) the algebra keeps
    consts = (D, A, B, AB), A = a*D, B = b*D and AB = a*b*D, all integers,
    and the norm form's diagonal weights (D, -A, -B, AB), with
    D*N(x) = D*w^2 - A*x^2 - B*y^2 + AB*z^2 on the numerators.
    """

    __slots__ = ("ctx", "a", "b", "consts", "weights")

    value_type = QuatValue
    dim = 4

    def __init__(self, a, b):
        self.ctx = FieldContext()
        self.a = self.ctx.scalar(a)
        self.b = self.ctx.scalar(b)
        if self.a.is_zero() or self.b.is_zero():
            raise ValidationError("structure constants a, b must be nonzero")
        (an,), ad = self.a.num, self.a.den
        (bn,), bd = self.b.num, self.b.den
        self.consts = D, A, B, AB = (ad * bd, an * bd, bn * ad, an * bn)
        self.weights = (D, -A, -B, AB)

    def _num_mul(self, p, q) -> tuple:
        """The numerators of x * y for values x, y with numerators p, q, over
        den(x) * den(y) * weights[0], weights[0] = D."""
        return _quat_mul(self.consts, p, q)

    @property
    def e1(self) -> QuatValue:
        return _make(QuatValue, self, (0, 1, 0, 0), 1)

    @property
    def e2(self) -> QuatValue:
        return _make(QuatValue, self, (0, 0, 1, 0), 1)

    @property
    def e3(self) -> QuatValue:
        return _make(QuatValue, self, (0, 0, 0, 1), 1)

    def key(self) -> tuple:
        return self.consts  # (D, A, B, AB) fixes a = A/D and b = B/D

    def __repr__(self):
        return f"({self.a},{self.b} | {self.ctx})"


class OctValue(IntValue):
    """Element (q + r*l0) / den of an octonion algebra, with num the eight
    integers of q then r, in the layout of `IntValue`."""

    __slots__ = ()

    ASSOCIATIVE = False

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_central():  # a rational is central: a scaling
            return self._scaled(o.num[0], o.den)
        if self.is_central():
            return o._scaled(self.num[0], self.den)
        return _product(self, o, self.carrier._num_mul(self.num, o.num))

    def __eq__(self, other):
        # q + 0*l0 equals the quaternion q of the base algebra
        if isinstance(other, QuatValue) and other.carrier == self.carrier.base:
            return not any(self.num[4:]) and self.num[:4] == other.num and self.den == other.den
        return IntValue.__eq__(self, other)

    def __hash__(self):
        # q + 0*l0 equals q, so it hashes like q
        if any(self.num[4:]):
            return hash((self.num, self.den))
        return hash(_make(QuatValue, self.carrier.base, self.num[:4], self.den))


class OctonionAlgebra(Carrier):
    """Cayley-Dickson double of a quaternion algebra with parameter gamma.

    Products work on integers: the algebra keeps consts = (G, Gd) with
    gamma = G / Gd in lowest terms, beside the base algebra's consts, and
    the norm form's diagonal weights: N(q + r*l0) = N(q) - gamma*N(r) makes
    them Gd*W then -G*W for the base algebra's weights W.
    """

    __slots__ = ("base", "gamma", "consts", "weights")

    value_type = OctValue
    dim = 8

    def __init__(self, a, b, gamma):
        self.base = QuaternionAlgebra(a, b)
        self.gamma = self.base.ctx.scalar(gamma)
        if self.gamma.is_zero():
            raise ValidationError("doubling parameter gamma must be nonzero")
        self.consts = G, Gd = self.gamma.num[0], self.gamma.den
        W = self.base.weights
        self.weights = tuple([Gd * w for w in W] + [-G * w for w in W])

    @property
    def ctx(self) -> FieldContext:
        return self.base.ctx

    def _num_mul(self, x, y) -> tuple:
        """x * y on numerators, over den(x) * den(y) * weights[0], weights[0]
        = Gd * D: (q + r*l0)(s + t*l0) = q*s + gamma*conj(t)*r + (t*q +
        r*conj(s))*l0 on the integer halves.  A left factor with a zero
        second half, a quaternion of the base algebra, takes two quaternion
        products, not four: q*s + (t*q)*l0, and Gd = 1 multiplies nothing.
        Every rhs of the demo and bench split specs is one; a split spec
        may also have rhs with an l0 half, which take all four."""
        c, (G, Gd) = self.base.consts, self.consts
        q, r = x[:4], x[4:]
        s, t = y[:4], y[4:]
        if not (r[0] or r[1] or r[2] or r[3]):
            num = _quat_mul(c, q, s) + _quat_mul(c, t, q)
            return num if Gd == 1 else tuple([Gd * a for a in num])
        qs, tr = _quat_mul(c, q, s), _quat_mul(c, _conj4(t), r)
        tq, rs = _quat_mul(c, t, q), _quat_mul(c, r, _conj4(s))
        return tuple([Gd * a + G * b for a, b in zip(qs, tr)]
                     + [Gd * (a + b) for a, b in zip(tq, rs)])

    def embed(self, q: QuatValue) -> OctValue:
        q = self.base.coerce(q)
        return _make(OctValue, self, (*q.num, 0, 0, 0, 0), q.den)

    @property
    def ell0(self) -> OctValue:
        return _make(OctValue, self, (0, 0, 0, 0, 1, 0, 0, 0), 1)

    def coerce(self, x) -> OctValue:
        """As for every carrier, and a quaternion of the base algebra embeds."""
        return self.embed(x) if isinstance(x, QuatValue) else Carrier.coerce(self, x)

    def key(self) -> tuple:
        return self.base.consts, self.consts

    def __repr__(self):
        return f"({self.base.a},{self.base.b},{self.gamma} | {self.ctx})"


def spherical_representative(alg: QuaternionAlgebra, t, n, height: int = 20):
    """Two distinct elements with trace t and norm n, via bounded search.

    Looks for lam = t/2 + (p1*e1 + p2*e2 + p3*e3)/q with integer numerators
    and denominator bounded by `height`; the partner t - lam is conj(lam).
    Raises NoRepresentative when the search space is exhausted.
    """
    t = alg.ctx.scalar(t)
    n = alg.ctx.scalar(n)
    (tn,), td = t.num, t.den
    (nn,), nd = n.num, n.den
    # N(lam) = n means p1^2 = (m*q^2 + b*p2^2 - a*b*p3^2) / (-a) with
    # m = n - t^2/4 = (4*td^2*nn - nd*tn^2) / md, md = 4*td^2*nd; with
    # a = A/D, b = B/D and a*b = AB/D from the algebra's consts, every term
    # is scaled by D*md to plain ints
    D, A, B, AB = alg.consts
    md = 4 * td * td * nd
    M = (4 * td * td * nn - nd * tn * tn) * D
    Bm, ABm, div = B * md, AB * md, -A * md
    for q in range(1, height + 1):
        mq = M * q * q
        for p2 in range(0, height + 1):
            for p3 in range(0, height + 1):
                val, rem = divmod(mq + Bm * p2 * p2 - ABm * p3 * p3, div)
                if val < 0 or rem:
                    continue
                p1 = isqrt(val)
                if p1 * p1 != val or p1 > height:
                    continue
                if p1 == 0 and p2 == 0 and p3 == 0:
                    continue  # pure part must be nonzero to keep the pair distinct
                s = 2 * td
                lam = _reduced(QuatValue, alg, (tn * q, s * p1, s * p2, s * p3), s * q)
                return lam, lam.conj()
    raise NoRepresentative(
        f"search exhausted up to height {height}: no element of trace {t} "
        f"and norm {n} in {alg}"
    )


# ---------------------------------------------------------------------------
# quaternion frames inside an octonion algebra


def _orthogonalize(x: OctValue, against) -> OctValue:
    """x minus its projections B(x, v) / B(v, v) * v, one v after the other,
    for pairwise orthogonal v of nonzero norm: the projection of x on the
    complement of their span.  The ratio is read off the `_scaled_polar`
    numerators (their D cancels)."""
    out = x
    for v in against:
        m_v, _ = v._scaled_polar(v)
        m, _ = out._scaled_polar(v)
        out = out - v._scaled(m * v.den, m_v * out.den)
    return out


def _frame_basis(alg: OctonionAlgebra, u, w, ell) -> tuple:
    """(u*w, mat, den, wcols, gram) for the frame f = (1, u, w, u*w, ell,
    u*ell, w*ell, (u*w)*ell) of values u, w, ell of alg, four products: f as
    the integer columns of `mat` over `den`, each column times the algebra's
    `weights` (wcols), and the diagonal `gram` of the Gram matrix
    wcols[i] . cols[j], which is B(f_i, f_j) up to one positive factor.

    Raises DegenerateFrame unless gram has no zero and the seven hypotheses
    of the Cayley-Dickson doubling lemma hold (Springer and Veldkamp,
    Octonions, Jordan Algebras and Exceptional Groups, 1.5): 1, u, w pairwise
    orthogonal, and ell orthogonal to 1, u, w, u*w.  Then u and w are pure,
    u*u = -N(u), w*w = -N(w), u*w = -w*u, so span(1, u, w, u*w) is the
    quaternion algebra (-N(u), -N(w) | Q), doubled to alg by ell, and the
    other 21 entries off the diagonal vanish, as B(x, y*ell) =
    B(conj(y)*x, ell) and B(x*ell, y*ell) = N(ell)*B(x, y)."""
    uw = u * w
    vecs = (alg.one(), u, w, uw, ell, u * ell, w * ell, uw * ell)
    den = lcm(*[v.den for v in vecs])
    cols = [[n * (den // v.den) for n in v.num] for v in vecs]
    wcols = [[c * wt for c, wt in zip(col, alg.weights)] for col in cols]
    gram = [sum(map(mul, wc, col)) for wc, col in zip(wcols, cols)]
    if 0 in gram or any(sum(map(mul, wcols[i], cols[j]))
                        for i, j in ((1, 0), (2, 0), (2, 1), (4, 0), (4, 1), (4, 2), (4, 3))):
        raise DegenerateFrame("frame vectors are isotropic or not pairwise orthogonal")
    return uw, tuple(zip(*cols)), den, wcols, gram


@dataclass(frozen=True)
class SubalgebraFrame:
    """A quaternion subalgebra Q' = span(1, u, w, u*w) of an octonion algebra,
    together with a trace-zero unit ell orthogonal to it, so that the whole
    algebra splits as Q' + Q'*ell: a frozen value, compared on (oct, u, w,
    ell), whose constructor coerces u, w and ell into `oct`, takes u*w and
    derives the rest, so it is proved once, when it is built.

    The basis f = (1, u, w, u*w, ell, u*ell, w*ell, (u*w)*ell) is the integer
    columns of `mat` over `den`, so `join(q, s)` = q + s*ell for q, s in
    Q' = `quat` is one integer pass.  f is pairwise orthogonal under the
    polar form B of the norm (`IntValue._scaled_polar`) with B(f_i, f_i)
    != 0, by the doubling lemma once `_frame_basis` has tested its seven
    hypotheses and the eight norms (else DegenerateFrame); so the inverse
    rows `inv` of `decompose` are x -> B(x, f_i) / B(f_i, f_i).
    """

    oct: OctonionAlgebra = field(repr=False)
    u: OctValue
    w: OctValue
    ell: OctValue
    uw: OctValue = field(init=False, repr=False, compare=False)
    quat: QuaternionAlgebra = field(init=False, repr=False, compare=False)
    mat: tuple = field(init=False, repr=False, compare=False)
    den: int = field(init=False, repr=False, compare=False)
    inv: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        alg = self.oct
        u, w, ell = alg.coerce(self.u), alg.coerce(self.w), alg.coerce(self.ell)
        uw, mat, den, wcols, gram = _frame_basis(alg, u, w, ell)
        # coordinate i of x = num / d is den * (wcols[i] . num) / (d * gram[i]);
        # each half of the coordinates goes over the lcm L of its four gram[i]
        Ls = [lcm(*gram[:4])] * 4 + [lcm(*gram[4:])] * 4
        rows = [[den * (L // g) * c for c in wc] for wc, g, L in zip(wcols, gram, Ls)]
        # u and w are orthogonal to 1, so pure: x^2 = T(x)*x - N(x) = -N(x)
        self.__dict__.update(u=u, w=w, ell=ell, uw=uw, mat=mat, den=den,
                             quat=QuaternionAlgebra(-u.norm(), -w.norm()),
                             inv=((rows[:4], Ls[0]), (rows[4:], Ls[4])))

    def decompose(self, x: OctValue) -> tuple[QuatValue, QuatValue]:
        """(q, s) with x = join(q, s)."""
        x = self.oct.coerce(x)
        return tuple([_reduced(QuatValue, self.quat, tuple([sum(map(mul, r, x.num)) for r in rows]),
                               L * x.den) for rows, L in self.inv])

    def join(self, q, s) -> OctValue:
        """q + s*ell for q and s in the frame's quaternion algebra."""
        q, s = self.quat.coerce(q), self.quat.coerce(s)
        v = [n * s.den for n in q.num] + [n * q.den for n in s.num]
        return _reduced(OctValue, self.oct, tuple([sum(map(mul, r, v)) for r in self.mat]),
                        self.den * q.den * s.den)


def build_frame(alg: OctonionAlgebra, alpha, beta) -> SubalgebraFrame:
    """A frame whose quaternion part contains both alpha and beta.

    Deterministic construction: u is the pure part of beta (falling back to
    the pure part of alpha, then to e1, which `solve` never reaches, as it
    builds no frame for two central coefficients); w is the pure part of
    alpha orthogonalized against u (falling back to the first standard pure
    basis vector that survives orthogonalization); ell is the first standard
    basis vector that is independent of span(1, u, w, u*w) and keeps nonzero
    norm after orthogonalization.
    """
    alpha = alg.coerce(alpha)
    beta = alg.coerce(beta)

    u = beta.pure()
    if u.is_zero():
        u = alpha.pure()
    if u.is_zero():
        u = alg.embed(alg.base.e1)
    if not u._norm_parts()[0]:
        raise DegenerateFrame(f"generator {u} is isotropic")

    # s - B(s, u) / B(u, u) * u is zero only for s a multiple of u, which
    # at most one of the basis vectors e1, ..., e7 is, so some w is found
    w = next(c for c in (_orthogonalize(s, [u]) for s in [alpha.pure(), *alg.basis()[1:]])
             if not c.is_zero())
    if not w._norm_parts()[0]:
        raise DegenerateFrame(f"orthogonalization produced isotropic {w}")

    # ell is the first projection P(s) on the complement V of span(1, u, w,
    # u*w) that is not isotropic, and one is: P is self-adjoint for B, so
    # sum_i N(P(e_i)) / N(e_i) over the basis is trace(P) = dim V = 4, and
    # P(1) = 0
    span = [alg.one(), u, w, u * w]
    qb = alg.basis()
    ell = next(c for c in (_orthogonalize(s, span) for s in qb[4:] + qb[1:4])
               if c._norm_parts()[0])

    return SubalgebraFrame(alg, u, w, ell)
