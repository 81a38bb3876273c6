"""Recurrence specs, their closed forms, the forms' evaluator and their proof.

This is the trusted checker of the solver, which only proposes: `_certify`
decides whether a closed form gives a recurrence's a_k for every k.  It
imports only `scalar`, `algebra` and `errors`, so a form's correctness
rests on those modules and this one, never on the root search, the Jordan
chains or the frame construction of `solver`, `poly` and `matlin`.

Each kind of closed form is one subclass of ClosedForm (AssocForm,
OctSplitForm, CompanionForm) that carries all of its own behaviour: its
`carrier`, the algebra of its values; `_groups` and `_classes`, what its
evaluator sums and the classes that prove it; `_values`, its first
values; `_certify`, its proof that it solves the recurrence; and `_lines`,
its text, which `cli.render_closed_form` prints.  No code tests its kind.

A root or split form is certified term by term: each term by its residual
polynomial, which vanishes at deg p + 1 points, each point one integer
Horner pass of the residual kernel (`_residual`), whose p = 1 case, every
simple root, is the characteristic polynomial at the root; an octonion
form's frame by the doubling lemma (`_certify_frame`); then its first n
values (`_values`), which also prove the evaluator, by the initial values.
A companion form's whole proof is one annihilator proof on the iterated
recurrence (`_annihilates`), which compares its values with the iterates.

A closed form a_k = sum p(k) * lam**k * b is evaluated without powering
any base (_LucasSum): terms whose bases share central trace T and norm N
share one integer Lucas pair (U_k, U_{k+1}) of s*T and s^2*N
(`scalar._lucas`, fast doubling), and a_k is a few big-by-small scalings
of it over one denominator den * s**k, reduced by one gcd against a
number that k does not change and by the primes of s (`_PowerReducer`),
so no gcd it takes grows with k unless powers of an odd prime of s cancel
at every k.  Each form builds its evaluator on its first `value` and
proves it there against the form's own terms at k < deg C, C the product
of their classes' quadratics, so `solve` itself builds none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from math import gcd, isqrt, lcm

from .algebra import OctonionAlgebra, QuaternionAlgebra, _frame_basis
from .errors import ContextMismatch, DegenerateFrame, InternalError, ValidationError
from .scalar import Carrier, _factor, _lucas, _make, _ratio, _reduced, _times


def _checked_multiplicities(rootdata) -> tuple:
    """rootdata as a tuple of (root, multiplicity) pairs, or ValidationError
    for a multiplicity that is not an int >= 1; a bool is not one here."""
    rootdata = tuple(rootdata)
    if not all(isinstance(m, int) and not isinstance(m, bool) for _, m in rootdata):
        raise ValidationError("root multiplicities must be integers")
    if any(m < 1 for _, m in rootdata):
        raise ValidationError("root multiplicities must be >= 1")
    return rootdata


@dataclass(frozen=True)
class RecurrenceSpec:
    """A left linear recurrence a_{k+n} = sum_j rhs[j] * a_{k+j} with the
    first n values fixed by init, plus optional user-supplied roots, of any
    order over any carrier: which of them `solve` solves is the search's
    decision (`solver._propose`), not the spec's."""

    algebra: object
    order: int
    rhs: tuple
    init: tuple
    roots: tuple | None = None

    def __post_init__(self):
        if not isinstance(self.algebra, Carrier):
            raise TypeError(f"unknown algebra carrier {self.algebra!r}")
        if not isinstance(self.order, int) or isinstance(self.order, bool) or self.order < 1:
            raise ValidationError("order must be a positive integer")
        coerce = self.algebra.coerce
        rhs = tuple([coerce(v) for v in self.rhs])
        init = tuple([coerce(v) for v in self.init])
        if len(rhs) != self.order:
            raise ValidationError(f"rhs needs {self.order} coefficients, got {len(rhs)}")
        if len(init) != self.order:
            raise ValidationError(f"init needs {self.order} values, got {len(init)}")
        if rhs[0].is_zero():
            raise ValidationError("the lowest coefficient rhs[0] must be nonzero")
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "init", init)
        if self.roots is not None:
            # ((root, multiplicity), ...), each multiplicity an int >= 1
            object.__setattr__(self, "roots", _checked_multiplicities(
                [(coerce(r), m) for r, m in self.roots]))


@dataclass(frozen=True)
class Term:
    """One summand p(k) * base**k * right, with p's coefficients on the left
    (poly[s] multiplies k**s), each value or rational, as `AssocForm` coerces
    them; `degree`, deg p or -1 for p = 0, is found once, when the term is
    built, for the certificate and the evaluator."""

    poly: tuple
    base: object
    right: object
    degree: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        deg = -1
        for s, c in enumerate(self.poly):
            if c:
                deg = s
        object.__setattr__(self, "degree", deg)


def _lucas_params(T, N) -> tuple[int, int, int]:
    """(s*T, s^2*N, s) for rationals T and N in lowest terms, with s =
    lcm(den T, r), r = sqrt(den N) if that is an integer and den N if not."""
    (tn, *_), td = T.num, T.den
    (nn, *_), nd = N.num, N.den
    r = isqrt(nd)
    s = lcm(td, r if r * r == nd else nd)
    return tn * (s // td), nn * (s * s // nd), s


def _term_groups(pieces) -> dict:
    """`_LucasSum` groups of the terms p(k) * lam**k * b of pieces' (form,
    Q-linear lift into the output carrier) pairs.  A base of trace T and
    norm N (Galois over Q(sqrt(d))) has lam^2 = T*lam - N, so with (P, Q, s)
    from _lucas_params (s*lam)**k = U_{k+1} - U_k*s*conj(lam), U the Lucas
    sequence of (P, Q): its group adds c_j*b to S_j, c_j*conj(lam)*b to R_j."""
    sums: dict = {}  # (P, Q, s), which fixes (T, N) -> lifted [S_j], [R_j]
    for form, lift in pieces:
        for _, t, d in form._live_terms():
            lam, b, xb = t.base, t.right, t.base.conj() * t.right
            S, R = sums.setdefault(_lucas_params(lam.trace(), lam.norm()), ([], []))
            for j in range(d + 1):
                c = t.poly[j]
                cb, cxb = lift(_times(c, b)), lift(_times(c, xb))
                if j < len(S):
                    S[j], R[j] = S[j] + cb, R[j] + cxb
                else:
                    S.append(cb)
                    R.append(cxb)
    return sums


# Pollard rho steps that one evaluator spends factoring its s, a few ms at
# most; a part of s that they do not split is reduced by one gcd against
# its power.
S_RHO_STEPS = 1 << 12


class _PowerReducer:
    """Lowest terms of integer numerators over den * s**k, for fixed den and
    s and any k >= 0.  For k >= 2 a call takes one gcd against `base`,
    which k does not change: the part of den prime to s times p**2 for each
    prime p of s (`scalar._factor`), and times the power of any part of s
    left unfactored.  Only when p**2 divides every numerator does it look
    for p's higher powers, up to v_p(den) + k*v_p(s) in all: for p = 2 by
    one shift, read from the lowest set bit of the numerators' OR, and for
    an odd p by one `n % p` pass, which settles it unless p**3 divides every
    numerator; then one gcd against p's remaining power takes the rest.
    Beside an unfactored part's power, only that gcd grows with k, and only
    a form whose values gain fewer than v_p(s) powers of p per step takes
    it: s = 3 for a norm N of denominator 3, where about k/2 powers of 3
    cancel at every k.  With s = 1 there are no primes, and every call
    takes one gcd against den and nothing else, at every k: no power of s
    and no test for all-zero numerators, which that gcd reduces to 0/1."""

    __slots__ = ("den", "s", "primes", "base", "rest")

    def __init__(self, den: int, s: int):
        self.den, self.s = den, s
        exponents, self.rest = _factor(s, S_RHO_STEPS)
        self.primes = []  # (p, v_p(s), v_p(den)) for each prime p of s
        base = 1
        for p, e in sorted(exponents.items()):
            d = 0
            while den % p == 0:
                den //= p
                d += 1
            self.primes.append((p, e, d))
            base *= p * p
        self.base = den * base

    def __call__(self, num: list, k: int) -> tuple[tuple, int]:
        """(num', den') in lowest terms with num'[i] / den' = num[i] / (den * s**k)."""
        s = self.s
        if s == 1 or k < 2:  # no primes, or p**2 may not divide den: one gcd
            den = self.den if s == 1 else self.den * s ** k
            q = gcd(den, *num)
            if q == 1:
                return tuple(num), den
            return tuple([n // q for n in num]), den // q
        den = self.den * s ** k
        if not any(num):
            return tuple(num), 1
        q = gcd(self.base if self.rest == 1 else self.base * self.rest ** k, *num)
        if q == 1:
            return tuple(num), den
        num = [n // q for n in num]
        for p, e, d in self.primes:
            if q % (p * p) == 0:
                cap = d + k * e - 2
                if p == 2:
                    x = 0
                    for n in num:
                        x |= n
                    v = min((x & -x).bit_length() - 1, cap)
                    if v:
                        num = [n >> v for n in num]
                        q <<= v
                elif cap and not any([n % p for n in num]):  # one gcd finds the rest
                    f = gcd(p ** cap, *num)
                    num = [n // f for n in num]
                    q *= f
        return tuple(num), den // q


class _LucasSum:
    """a_k = sum over groups (P, Q, s) of s**-k * (U_{k+1}*S(k) -
    U_k*s*R(k)), S(k) = sum k**j * S_j and likewise R(k), U the Lucas
    sequence of (P, Q).  All groups keep integer numerators over one `den`,
    summed over den * s**k, s the lcm of the groups' s, and reduced by the
    primes of den * s (`_PowerReducer`); with s = 1 it has none and takes
    one gcd against den.  A group with constant S and R takes no Horner
    step, and one whose s is the lcm no power of its factor.  Each group
    keeps its own s, its Lucas pair scaled by (lcm/s)**k, because the pair
    of the lcm grows faster: the same values at the same speed for k <=
    1024, but at k = 10**5 and 3*10**5 the lcm's pair took 21.0 -> 23.5 and
    134 -> 145 ms on quat_fractional.rec, 4.7 -> 7.8 and 24 -> 43 ms on
    oct_central_fractional.rec (min of 5, 2 vCPUs, CPython 3.11.7)."""

    __slots__ = ("zero", "groups", "reduce")

    def __init__(self, zero, groups: dict):
        """groups: {(P, Q, s): ([S_j], [R_j])}, R_j without its factor s."""
        self.zero = zero
        den = lcm(*[v.den for S, R in groups.values() for v in S + R])
        lcm_s = lcm(*[s for _P, _Q, s in groups])
        self.groups = [
            (P, Q, lcm_s // s,
             [tuple([n * (den // v.den) for n in v.num]) for v in S],
             [tuple([n * (s * den // v.den) for n in v.num]) for v in R])
            for (P, Q, s), (S, R) in groups.items()]
        self.reduce = _PowerReducer(den, lcm_s)

    def __call__(self, k: int):
        out = None
        for P, Q, f, S, R in self.groups:
            u0, u1 = _lucas(P, Q, k)
            if f != 1:  # over the common s**k
                f = f ** k
                u0, u1 = u0 * f, u1 * f
            sk, rk = S[-1], R[-1]
            if len(S) > 1:
                for sj, rj in zip(S[-2::-1], R[-2::-1]):  # Horner in k
                    sk = [a * k + b for a, b in zip(sk, sj)]
                    rk = [a * k + b for a, b in zip(rk, rj)]
            if out is None:
                out = [u1 * a - u0 * b for a, b in zip(sk, rk)]
            else:
                out = [o + u1 * a - u0 * b for o, a, b in zip(out, sk, rk)]
        zero = self.zero
        if out is None:
            return zero
        return _make(zero.__class__, zero.carrier, *self.reduce(out, k))


def _forward(zero, rhs, init):
    """a_0, a_1, ... of a_{k+n} = sum_j rhs[j] * a_{k+j} from init = a_0..a_{n-1},
    each sum started at zero: the ground truth of `iterate_oracle` and of
    `_annihilates`.  A central rhs[j] steps by one scaling, any other by its product."""
    rats = [(r.num[0], r.den) if r.is_central() else r for r in rhs]
    window = list(init)
    yield from window
    while True:
        window = window[1:] + [sum([a._scaled(*r) if r.__class__ is tuple else r * a
                                    for r, a in zip(rats, window)], zero)]
        yield window[-1]


def _check_values(values, expected, what: str, of: str) -> None:
    """InternalError naming the first a_k of values that is not expected[k]."""
    for k, (got, a) in enumerate(zip(values, expected, strict=True)):
        if got != a:
            raise InternalError(f"{what} gives a_{k} = {got}, not {of} {a}")


class ClosedForm:
    """The base class of every kind of closed form (see the module
    docstring).  value(k) is the _LucasSum of its `_groups()`, built on
    first use and cached on the instance (functools.cached_property would
    take a lock on every access), and first proved against the form's own
    terms (`_values`) at k < deg C: C = prod (x^2 - T*x + N)^m over the
    classes (T, N) of the groups and of the terms' bases (`_classes`), keyed
    by `_lucas_params`, m the larger of the group's coefficient count and
    the class's largest deg p + 1.  A group with m coefficients sums k**j
    times sequences that satisfy x^2 - T*x + N, j < m, and so does a term
    p(k) * lam**k * b, j <= deg p, as lam^2 = T*lam - N; so both satisfy C's
    recurrence and agree at every k.  A hand-built form is proved too, as
    its values are its carrier's, coerced when it is built."""

    def value(self, k: int):
        if k < 0:
            raise ValueError("k must be nonnegative")
        ev = self.__dict__.get("_lucas")
        if ev is None:
            groups = self._groups()
            mult = {key: max(len(S), len(R)) for key, (S, R) in groups.items()}
            for key, m in self._classes():
                mult[key] = max(mult.get(key, 0), m)
            ev, n = _LucasSum(self.carrier.zero(), groups), 2 * sum(mult.values())
            _check_values(map(ev, range(n)), self._values(n),
                          "evaluator check failed: the Lucas sum", "the terms' value")
            self.__dict__["_lucas"] = ev
        return ev(k)


@dataclass(frozen=True)
class AssocForm(ClosedForm):
    """a_k = sum of term values, over an associative carrier or, with every
    rhs, base and poly coefficient central, an octonion one.  Each value of
    a term is the carrier's: one that is not enters by `carrier.coerce`,
    and one of another carrier raises ContextMismatch."""

    carrier: object
    terms: tuple

    def __post_init__(self):
        carrier, cls = self.carrier, self.carrier.value_type
        for t in self.terms:
            for x in (t.base, t.right, *t.poly):
                if x.__class__ is not cls or x.carrier is not carrier:
                    c = carrier.coerce
                    object.__setattr__(self, "terms", tuple([
                        Term(tuple(map(c, u.poly)), c(u.base), c(u.right)) for u in self.terms]))
                    return

    def _groups(self):
        return _term_groups(((self, lambda x: x),))

    def _classes(self) -> list:
        return [(_lucas_params(t.base.trace(), t.base.norm()), t.degree + 1) for t in self.terms]

    def _live_terms(self) -> list:
        """(i, terms[i], deg p) for each term whose p and b are not 0."""
        return [(i, t, d) for i, t in enumerate(self.terms)
                if (d := t.degree) >= 0 and not t.right.is_zero()]

    def _values(self, n: int) -> list:
        """a_0..a_{n-1}, a_j the sum of p(j) * (lam**j * b) over the terms, on
        integer numerators: lam**j * b by one product `_num_mul` by lam per
        j, p(j) by Horner's rule (`_poly_nums`) unless p is 1, and each a_j
        summed over one denominator and reduced once."""
        carrier = self.carrier
        mul, D = carrier._num_mul, carrier.weights[0]
        sums = [((0,) * carrier.dim, 1)] * n  # a_j as (numerators, denominator)
        for _, t, d in self._live_terms():
            one = d == 0 and t.poly[0].is_one()
            if not one:
                e, vals = _poly_nums(t.poly, d, n)
            lam, w, s, sl = t.base, t.right.num, t.right.den, D * t.base.den
            for j in range(n):
                if j:
                    w, s = mul(lam.num, w), sl * s
                x, q = (w, s) if one else (mul(vals[j], w), D * e * s)
                acc, den = sums[j]
                sums[j] = [a * q + y * den for a, y in zip(acc, x)], den * q
        return [_reduced(carrier.value_type, carrier, tuple(acc), den) for acc, den in sums]

    def _certify(self, spec: RecurrenceSpec) -> None:
        """Every term solves the recurrence, so their sum does; n values fix it."""
        _certify_terms(self, [self.carrier.coerce(r) for r in spec.rhs], "")
        _check_values(self._values(spec.order), spec.init,
                      "certificate failed: the closed form", "the initial value")

    def _lines(self) -> list[str]:
        return ["a_k = " + _render_terms(self)]


def _poly_nums(poly, d: int, count: int) -> tuple[int, list]:
    """(e, [e * p(m) for m < count]) on integer numerators by Horner's rule,
    p = sum poly[s] * m**s of degree d >= 0 and e the lcm of its denominators."""
    e = lcm(*[c.den for c in poly[:d + 1]])
    cs = [[x * (e // c.den) for x in c.num] for c in poly[d::-1]]
    vals = []
    for m in range(count):
        v = cs[0]
        for c in cs[1:]:
            v = [x * m + y for x, y in zip(v, c)]
        vals.append(v)
    return e, vals


def _term_order(terms) -> list:
    """The terms sorted by base, then poly length, then the poly's
    coordinates, then right; each value's coordinates are compared as
    integer numerators over one common denominator of all the terms'
    values, which orders them as their rational coordinates would."""
    den = lcm(*[v.den for t in terms for v in (t.base, t.right, *t.poly)])

    def key(t):
        return (tuple([n * (den // t.base.den) for n in t.base.num]),
                len(t.poly),
                tuple([n * (den // c.den) for c in t.poly for n in c.num]),
                tuple([n * (den // t.right.den) for n in t.right.num]))

    return sorted(terms, key=key)


def _render_poly(poly) -> str:
    parts = []
    for s in range(len(poly) - 1, -1, -1):
        c = poly[s]
        if c.is_zero():
            continue
        if s == 0:
            parts.append(str(c))
        elif s == 1:
            parts.append(f"{c}*k")
        else:
            parts.append(f"{c}*k^{s}")
    return " + ".join(parts) if parts else "0"


def _render_terms(form: AssocForm) -> str:
    if not form.terms:
        return "0"
    return " + ".join(f"({_render_poly(t.poly)})*({t.base})^k*({t.right})"
                      for t in _term_order(form.terms))


@dataclass(frozen=True)
class OctSplitForm(ClosedForm):
    """Octonion closed form a_k = frame.join(main(k), conj(tail(k))) =
    main(k) + conj(tail(k)) * ell over a quaternion frame."""

    frame: object
    main: AssocForm
    tail: AssocForm

    @property
    def carrier(self):
        return self.frame.oct

    def _groups(self):
        join = self.frame.join
        return _term_groups(
            ((self.main, lambda x: join(x, 0)), (self.tail, lambda x: join(0, x.conj()))))

    def _classes(self) -> list:
        return self.main._classes() + self.tail._classes()

    def _values(self, n: int) -> list:
        return [self.frame.join(m, t.conj())
                for m, t in zip(self.main._values(n), self.tail._values(n))]

    def _certify(self, spec: RecurrenceSpec) -> None:
        """rhs[j] must be join(r_j, 0) for a frame quaternion r_j, main must
        solve the recurrence with the r_j and tail the one with conj(r_j),
        both over the frame's quaternion algebra; the frame identities,
        proved by the doubling lemma's shape and Gram test (`_certify_frame`),
        carry both to a_k = join(main(k), conj(tail(k))); n values fix it."""
        rhs = [self.frame.decompose(r)[0] for r in spec.rhs]
        for j, (q, r) in enumerate(zip(rhs, spec.rhs)):
            if self.frame.join(q, 0) != r:
                raise InternalError(f"certificate failed: rhs[{j}] = {r} is not in the frame")
        _certify_frame(spec.algebra, self.frame)
        if not self.main.carrier == self.tail.carrier == self.frame.quat:
            raise InternalError("certificate failed: main and tail are not over the frame")
        _certify_terms(self.main, rhs, "main ")
        _certify_terms(self.tail, [r.conj() for r in rhs], "tail ")
        _check_values(self._values(spec.order), spec.init,
                      "certificate failed: the closed form", "the initial value")

    def _lines(self) -> list[str]:
        frame = self.frame
        body = _render_terms(self.main)
        if self.tail.terms:
            tail = f"conj({_render_terms(self.tail)})*l"
            body = f"{body} + {tail}" if self.main.terms else tail
        return [f"frame u = {frame.u}", f"frame w = {frame.w}", f"frame l = {frame.ell}",
                f"frame u^2 = {frame.quat.a} w^2 = {frame.quat.b} l^2 = {-frame.ell.norm()}",
                "a_k = " + body]


@dataclass(frozen=True)
class CompanionForm(ClosedForm):
    """a_{k+N} = -sum_{i<N} C[i]*a_{k+i} from values = (a_0, ..., a_{N-1}),
    in any carrier, for C[i] rational (`carrier.ctx.scalar`, as the
    evaluator's proof needs), low degree first: C = x^N + sum_{i<N} C[i]*x^i
    with its leading 1 left implicit.  The evaluator takes N = 2 only, else
    ValidationError: C = x^2 - t*x + n gives a_k = U_k*a1 - n*U_{k-1}*a0, U
    the Lucas sequence of (t, n), and so a `_LucasSum` of one group S = [a0],
    R = [t*a0 - a1], as U_{k+1} - t*U_k = -n*U_{k-1}."""

    carrier: object
    C: tuple
    values: tuple

    def __post_init__(self):
        if not len(self.C) == len(self.values) == 2:
            raise ValidationError("companion forms are evaluated at degree 2 only")
        object.__setattr__(self, "C", tuple([self.carrier.ctx.scalar(c) for c in self.C]))
        object.__setattr__(self, "values", tuple([self.carrier.coerce(v) for v in self.values]))

    def _groups(self):
        (n, c1), (a0, a1) = self.C, self.values
        return {_lucas_params(-c1, n): ([a0], [a0 * -c1 - a1])}

    def _classes(self) -> list:
        return [(_lucas_params(-self.C[1], self.C[0]), 1)]

    def _values(self, n: int) -> list:
        return list(islice(_forward(self.carrier.zero(), [-c for c in self.C], self.values), n))

    def _certify(self, spec: RecurrenceSpec) -> None:
        _annihilates(spec, self.C, self.values)

    def _lines(self) -> list[str]:
        (n, c1), (a0, a1) = self.C, self.values
        return ["a_k = U_k*a_1 - n*U_(k-1)*a_0 for U_0 = 0, U_1 = 1, U_(k+2) = t*U_(k+1) "
                f"- n*U_k with t = {-c1}, n = {n}, a_0 = {a0}, a_1 = {a1}"]


def _annihilates(spec: RecurrenceSpec, C, values) -> None:
    """Prove that values and C = x^N + sum_{i<N} C[i]*x^i, C[i] rational
    (int, Fraction or ScalarValue), give the recurrence's a_k for every k,
    or raise InternalError: with a_0..a_{N+n-1} iterated (`_forward`),
    values must be a_0..a_{N-1} and e_j = sum_{i<=N} C[i]*a_{j+i}, C[N] = 1,
    0 for j < n.  e satisfies the spec's own recurrence, as a rational C[i]
    passes through every left product rhs[l]*a_{j+i+l}, associative or not;
    so n zeros make e = 0, and a is the sequence of a_{k+N} = -sum_{i<N}
    C[i]*a_{k+i} from values.  When C is the spec's own rational chi (N = n,
    C[i] = -rhs[i]), every e_j is 0 by the recurrence: this proof at N = n."""
    N = len(C)
    a = list(islice(_forward(spec.algebra.zero(), spec.rhs, spec.init), N + spec.order))
    _check_values(values, a[:N], "certificate failed: the companion form", "the recurrence's")
    for j in range(spec.order):
        e = sum([x._scaled(*_ratio(c)) for c, x in zip(C, a[j:])], a[j + N])
        if not e.is_zero():
            raise InternalError(f"certificate failed: C = [{', '.join(map(str, C))}, 1] "
                                f"leaves e_{j} = {e}, not 0")


def _residual(coeffs, lam) -> tuple[list, int]:
    """(numerators, denominator) of sum c_i * lam**i, not reduced, for the
    coefficients c_0..c_n (n >= 1, low degree first) of a polynomial over
    an associative carrier, each given as its (numerators, denominator)
    pair, and lam of the same carrier: the package's one residual kernel,
    which tests roots (`poly._is_root`) and proves closed forms
    (`_certify_terms`).  Horner's rule acc -> acc*lam + c_i keeps
    acc as numerators over one s, each product by lam is the carrier's
    integer product `_num_mul`, which puts weights[0] * s * den(lam) under
    it, and each sum cross-multiplies by den(c_i).  A leading c_n = 1
    costs no product."""
    carrier = lam.carrier
    mul, D, ln, dl = carrier._num_mul, carrier.weights[0], lam.num, lam.den
    (tn, td), (n0, d0) = coeffs[-1], coeffs[0]
    if td == 1 and tn[0] == 1 and not any(tn[1:]):
        acc, s = ln, dl
    else:
        acc, s = mul(tn, ln), D * td * dl
    for cn, cd in coeffs[-2:0:-1]:
        acc, s = mul([a * cd + b * s for a, b in zip(acc, cn)], ln), D * s * cd * dl
    return [a * d0 + b * s for a, b in zip(acc, n0)], s * d0


def _certify_terms(form: AssocForm, rhs, label: str) -> None:
    """Prove that every term p(k) * lam**k * b of form solves
    a_{k+n} = sum_j rhs[j] * a_{k+j} for every k >= 0.

    A term leaves the residual Q(k) * lam**k * b with
    Q(k) = sum_j rhs[j] p(k+j) lam**j - p(k+n) lam**n, a polynomial in the
    central k of degree <= deg p, so Q vanishes identically once it
    vanishes at k = 0..deg p.  -Q(k) is the left polynomial with
    coefficients -rhs[j] * p(k+j) and p(k+n) evaluated at lam, one pass of
    the residual kernel `_residual`; for p = 1 those coefficients are
    chi(x) = x^n - sum_j rhs[j] x^j, built once, so a simple root costs one
    Horner pass.  For a constant p, Q(k) is one value z, and z * lam**k * b
    vanishes for every k once it does at k = 0 and 1, since lam**k * b
    satisfies lam's central quadratic; that passes the terms of a split
    algebra with z * b = 0 and z != 0.  It regroups rhs[j] * (lam**(k+j) *
    b) as (rhs[j] * lam**j) * (lam**k * b), so in a carrier whose values do
    not associate every rhs, base and poly coefficient must be central."""
    n = len(rhs)
    carrier = form.carrier
    if not carrier.value_type.ASSOCIATIVE and not all(
            x.is_central() for x in (*rhs, *[v for t in form.terms for v in (t.base, *t.poly)])):
        raise InternalError(f"certificate failed: {carrier} does not associate, and the {label}"
                            "terms are proved only with central rhs, bases and poly coefficients")
    mul, D = carrier._num_mul, carrier.weights[0]
    chi = [(tuple([-x for x in r.num]), r.den) for r in rhs] + [(carrier.one().num, 1)]
    for i, t, d in form._live_terms():
        lam, b = t.base, t.right
        one = d == 0 and t.poly[0].is_one()
        if not one:  # e * p(m) for m = 0..d+n
            e, vals = _poly_nums(t.poly, d, d + n + 1)
        for k in range(d + 1):
            coeffs = chi if one else [(mul(rn, vals[k + j]), D * rd * e)
                                      for j, (rn, rd) in enumerate(chi[:n])] + [(vals[k + n], e)]
            num, den = _residual(coeffs, lam)  # -Q(k)
            if any(num):
                res = _reduced(carrier.value_type, carrier, tuple([-x for x in num]), den)
                if not (d == 0 and (res * b).is_zero() and (res * (lam * b)).is_zero()):
                    raise InternalError(f"certificate failed: {label}term {i} leaves "
                                        f"the residual {res} at k={k}")


def _certify_frame(alg: OctonionAlgebra, frame) -> None:
    """Prove that frame splits alg as Q' + Q'*ell, Q' = span(1, u, w, u*w)
    = frame.quat, by the Cayley-Dickson doubling lemma: `_frame_basis`, run
    afresh on the frame's own u, w and ell, must find its hypotheses (seven
    orthogonalities, eight nonzero norms) and give back `mat` and `den`, and
    `quat` must be (-N(u), -N(w) | Q).  Then join(x, 0)*join(y, 0) =
    join(x*y, 0) and join(x, 0)*(join(y, 0)*ell) = join(y*x, 0)*ell for all x, y."""
    try:
        _, mat, den, _, _ = _frame_basis(alg, frame.u, frame.w, frame.ell)
        ok = ((mat, den) == (frame.mat, frame.den)
              and frame.quat == QuaternionAlgebra(-frame.u.norm(), -frame.w.norm()))
    except (ContextMismatch, DegenerateFrame):
        ok = False
    if not ok:
        raise InternalError("certificate failed: the frame does not split the algebra")


def _certify(spec: RecurrenceSpec, cf: ClosedForm) -> None:
    """Prove that cf gives the recurrence's a_k for every k, or raise
    InternalError naming what fails: cf's own `_certify` is the whole proof
    of its kind, and builds no evaluator, so nothing is kept on cf."""
    cf._certify(spec)
