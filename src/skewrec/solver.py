"""End-to-end solving of left linear recurrences a_{k+n} = sum r_j a_{k+j}.

The characteristic data is the monic polynomial x^n - r_{n-1} x^{n-1} - ...
- r_0.  Distinct roots diagonalize the companion matrix through the
Vandermonde matrix of the roots, repeated roots go through an exact Jordan
decomposition, and order-2 octonion recurrences split over a quaternion
subalgebra frame into a main part and a conjugated tail.  Every closed form
is certified before it is returned: each term is proved to solve the
recurrence for every k by a residual polynomial that vanishes at deg p + 1
points, and the sum is checked against the initial values (see _certify).
`verify_closed_form` is the independent check against direct iteration.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, islice
from operator import mul

from .algebra import OctonionAlgebra, QuaternionAlgebra, build_frame, conj_class
from .errors import (
    InternalError,
    LamViolation,
    NoRootsFound,
    UnsupportedOrder,
    ValidationError,
)
from .matlin import companion_matrix, jordan_from_roots, vandermonde
from .poly import LeftPoly, quadratic_roots
from .scalar import FieldContext, ScalarValue, squarefree_split


def algebra_kind(carrier) -> str:
    if isinstance(carrier, FieldContext):
        return "field"
    if isinstance(carrier, QuaternionAlgebra):
        return "quaternion"
    if isinstance(carrier, OctonionAlgebra):
        return "octonion"
    raise TypeError(f"unknown algebra carrier {carrier!r}")


@dataclass(frozen=True)
class RecurrenceSpec:
    """A left linear recurrence a_{k+n} = sum_j rhs[j] * a_{k+j} with the
    first n values fixed by init, plus optional user-supplied roots."""

    algebra: object
    order: int
    rhs: tuple
    init: tuple
    roots: tuple | None = None
    height: int = 20

    def __post_init__(self):
        kind = algebra_kind(self.algebra)
        if not isinstance(self.order, int) or self.order < 1:
            raise ValidationError("order must be a positive integer")
        rhs = tuple(self.algebra.coerce(v) for v in self.rhs)
        init = tuple(self.algebra.coerce(v) for v in self.init)
        if len(rhs) != self.order:
            raise ValidationError(f"rhs needs {self.order} coefficients, got {len(rhs)}")
        if len(init) != self.order:
            raise ValidationError(f"init needs {self.order} values, got {len(init)}")
        if rhs[0].is_zero():
            raise ValidationError("the lowest coefficient rhs[0] must be nonzero")
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "init", init)
        if kind == "octonion":
            if self.order != 2:
                raise UnsupportedOrder("octonion recurrences are solved at order 2 only")
            if self.roots is not None:
                raise ValidationError("user roots are not accepted for octonion specs")
        if self.roots is not None:
            roots = tuple((self.algebra.coerce(r), int(m)) for r, m in self.roots)
            if any(m < 1 for _, m in roots):
                raise ValidationError("root multiplicities must be >= 1")
            object.__setattr__(self, "roots", roots)
        if not isinstance(self.height, int) or self.height < 1:
            raise ValidationError("height must be a positive integer")


@dataclass(frozen=True)
class Term:
    """One summand p(k) * base**k * right, with p's coefficients on the left
    (poly[s] multiplies k**s)."""

    poly: tuple
    base: object
    right: object

    @property
    def degree(self) -> int:
        deg = -1
        for s, c in enumerate(self.poly):
            if not c.is_zero():
                deg = s
        return deg

    def value(self, k: int):
        acc = self.poly[0].carrier.zero()
        for s, c in enumerate(self.poly):
            acc = acc + c * (k ** s)
        return (acc * self.base ** k) * self.right


@dataclass(frozen=True)
class AssocForm:
    """Closed form over an associative algebra: a_k = sum of term values."""

    carrier: object
    terms: tuple

    def value(self, k: int):
        acc = self.carrier.zero()
        for t in self.terms:
            acc = acc + t.value(k)
        return acc


@dataclass(frozen=True)
class OctSplitForm:
    """Octonion closed form a_k = embed(main(k)) + embed(conj(tail(k))) * ell
    over a quaternion frame."""

    frame: object
    main: AssocForm
    tail: AssocForm

    def value(self, k: int):
        out = self.frame.embed(self.main.value(k))
        tail = self.tail.value(k)
        if not tail.is_zero():
            out = out + self.frame.embed(tail.conj()) * self.frame.ell
        return out


ClosedForm = AssocForm | OctSplitForm


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    first_failure: int | None
    kmax: int


def primitive_char_poly(spec: RecurrenceSpec) -> LeftPoly:
    """Monic polynomial x^n + c_{n-1}x^{n-1} + ... + c_0 with c_j = -rhs[j]."""
    coeffs = [-r for r in spec.rhs] + [spec.algebra.one()]
    return LeftPoly(spec.algebra, coeffs)


def _forward(spec: RecurrenceSpec):
    """a_0, a_1, ... by direct forward iteration of the recurrence."""
    window = list(spec.init)
    yield from window
    while True:
        nxt = spec.algebra.zero()
        for r, a in zip(spec.rhs, window):
            nxt = nxt + r * a
        window = window[1:] + [nxt]
        yield nxt


def iterate_oracle(spec: RecurrenceSpec, k: int):
    """a_k by direct forward iteration, the ground truth of
    verify_closed_form."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return next(islice(_forward(spec), k, None))


def eval_closed_form(cf: ClosedForm, k: int):
    if k < 0:
        raise ValueError("k must be nonnegative")
    return cf.value(k)


def verify_closed_form(spec: RecurrenceSpec, cf: ClosedForm, kmax: int) -> VerifyReport:
    """Exact comparison of the closed form against iteration for k <= kmax."""
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    for k, actual in zip(range(kmax + 1), _forward(spec)):
        if cf.value(k) != actual:
            return VerifyReport(False, k, kmax)
    return VerifyReport(True, None, kmax)


def _check_lam(roots) -> None:
    """No three roots may share a conjugacy class, or the Vandermonde matrix
    of the roots can go singular."""
    if not roots or isinstance(roots[0].carrier, FieldContext):
        return
    counts: dict = {}
    for r in roots:
        cls = conj_class(r)
        counts[cls] = counts.get(cls, 0) + 1
        if counts[cls] >= 3:
            raise LamViolation(f"three roots lie in conjugacy class {cls}")


def solve_diagonalizable(spec: RecurrenceSpec, roots) -> AssocForm:
    """Distinct-root closed form a_k = sum base**k * b with b = V^-1 * init."""
    alg = spec.algebra
    roots = [alg.coerce(r) for r in roots]
    if len(roots) != spec.order:
        raise ValidationError("need as many roots as the order")
    if len(set(roots)) != len(roots):
        raise ValidationError("roots must be pairwise distinct")
    p = primitive_char_poly(spec)
    for r in roots:
        if not p.eval(r).is_zero():
            raise ValidationError(f"{r} is not a root of the characteristic polynomial")
    _check_lam(roots)
    v = vandermonde(roots)
    b = v.inverse().apply(list(spec.init))
    one = alg.one()
    terms = tuple(Term((one,), lam, bi) for lam, bi in zip(roots, b))
    return AssocForm(alg, terms)


def _binom_coeffs(r: int) -> list[Fraction]:
    """Coefficients of the polynomial C(k, r) in powers of k."""
    out = [Fraction(1)]
    for i in range(r):
        nxt = [Fraction(0)] * (len(out) + 1)
        for s, c in enumerate(out):
            nxt[s + 1] += c
            nxt[s] -= c * i
        out = nxt
    fact = 1
    for i in range(2, r + 1):
        fact *= i
    return [c / fact for c in out]


def solve_jordan(spec: RecurrenceSpec, rootdata) -> AssocForm:
    """Repeated-root closed form via the Jordan decomposition of the
    companion matrix: a_k is the first row of U * J**k * b expanded into
    terms p(k) * base**k * b with deg p below the block size."""
    alg = spec.algebra
    rootdata = [(alg.coerce(lam), int(m)) for lam, m in rootdata]
    p = primitive_char_poly(spec)
    for lam, _m in rootdata:
        if not p.eval(lam).is_zero():
            raise ValidationError(f"{lam} is not a root of the characteristic polynomial")
    a = companion_matrix(p)
    jd = jordan_from_roots(a, rootdata)
    b = jd.Uinv.apply(list(spec.init))
    terms = []
    col = 0
    for lam, m in jd.blocks:
        lam_inv = lam.inverse()
        for sp in range(m):
            coeffs = [alg.zero() for _ in range(sp + 1)]
            for r in range(sp + 1):
                u = jd.U.entry(0, col + sp - r)
                base_e = u * (lam_inv ** r)
                for s, frac in enumerate(_binom_coeffs(r)):
                    if frac:
                        coeffs[s] = coeffs[s] + base_e * frac
            terms.append(Term(tuple(coeffs), lam, b[col + sp]))
        col += m
    return AssocForm(alg, tuple(terms))


def promote_field_quadratic(spec: RecurrenceSpec) -> RecurrenceSpec:
    """Attach exact roots to an order-2 field spec, extending Q to Q(sqrt(d))
    when the discriminant demands it.

    A zero discriminant yields one root of multiplicity two; a square
    discriminant keeps the field; anything else moves to the real quadratic
    extension by the squarefree part d.  Negative discriminants would need a
    complex extension and are reported as unsolvable here.
    """
    if algebra_kind(spec.algebra) != "field" or spec.order != 2:
        raise ValueError("promotion applies to order-2 field specs")
    ctx = spec.algebra
    c1 = -spec.rhs[1]
    c0 = -spec.rhs[0]
    disc = c1 * c1 - 4 * c0
    if disc.is_zero():
        root = -c1 / 2
        return dataclasses.replace(spec, roots=((root, 2),))
    if ctx.kind == "rational":
        d_frac = disc.u
        if d_frac < 0:
            raise NoRootsFound(
                "negative discriminant: the roots are complex, and only real "
                "quadratic extensions are supported"
            )
        num, den = d_frac.numerator, d_frac.denominator
        e, d = squarefree_split(num * den)
        if d == 1:
            s = ctx.scalar(Fraction(e, den))
            return dataclasses.replace(
                spec, roots=(((-c1 + s) / 2, 1), ((-c1 - s) / 2, 1))
            )
        ctx2 = FieldContext.quadratic(d)
        s = ScalarValue(ctx2, 0, Fraction(e, den))
        c1l = ScalarValue(ctx2, c1.u)
        lift = lambda xs: tuple(ScalarValue(ctx2, x.u) for x in xs)
        return RecurrenceSpec(
            ctx2, 2, lift(spec.rhs), lift(spec.init),
            roots=(((-c1l + s) / 2, 1), ((-c1l - s) / 2, 1)),
            height=spec.height,
        )
    s = disc.sqrt()
    if s is None:
        raise NoRootsFound(
            "the discriminant has no square root in the configured quadratic "
            "field, and no further extension is attempted"
        )
    return dataclasses.replace(spec, roots=(((-c1 + s) / 2, 1), ((-c1 - s) / 2, 1)))


def _solve_with_rootdata(spec: RecurrenceSpec, rootdata) -> AssocForm:
    if all(m == 1 for _, m in rootdata):
        return solve_diagonalizable(spec, [lam for lam, _ in rootdata])
    return solve_jordan(spec, rootdata)


def _solve_assoc(spec: RecurrenceSpec) -> AssocForm:
    kind = algebra_kind(spec.algebra)
    if spec.roots is not None:
        return _solve_with_rootdata(spec, list(spec.roots))
    if spec.order == 1:
        return solve_diagonalizable(spec, [spec.rhs[0]])
    if kind == "field":
        if spec.order == 2:
            promoted = promote_field_quadratic(spec)
            return _solve_with_rootdata(promoted, list(promoted.roots))
        raise UnsupportedOrder(
            "field recurrences of order > 2 need user-supplied roots"
        )
    if spec.order == 2:
        report = quadratic_roots(spec.algebra, primitive_char_poly(spec), spec.height)
        rootdata = report.root_multiplicities()
        if sum(m for _, m in rootdata) != 2:
            raise NoRootsFound(
                "a single isolated root without repeated-root structure "
                "cannot determine an order-2 closed form"
            )
        return _solve_with_rootdata(spec, rootdata)
    raise UnsupportedOrder(
        "quaternion recurrences of order > 2 need user-supplied roots"
    )


def solve_octonion2(spec: RecurrenceSpec) -> OctSplitForm:
    """Order-2 octonion recurrences, split over a quaternion frame.

    The coefficients generate an associative subalgebra sitting inside the
    frame's quaternion part, so the state recursion decomposes into one
    quaternion recurrence for the frame component and one, with conjugated
    coefficients, for the ell component.  Central coefficients instead take
    the frame from the initial values and need no tail.
    """
    alg = spec.algebra
    alpha, beta = spec.rhs
    if alpha.is_central() and beta.is_central():
        frame = build_frame(alg, spec.init[0], spec.init[1])
        sub = RecurrenceSpec(
            frame.quat, 2,
            (frame.quat.scalar(alpha.scalar_part()),
             frame.quat.scalar(beta.scalar_part())),
            (frame.decompose(spec.init[0])[0], frame.decompose(spec.init[1])[0]),
            height=spec.height,
        )
        main = _solve_assoc(sub)
        tail = AssocForm(frame.quat, ())
        return OctSplitForm(frame, main, tail)
    frame = build_frame(alg, alpha, beta)
    alpha_q = frame.decompose(alpha)[0]
    beta_q = frame.decompose(beta)[0]
    q, s = frame.decompose(spec.init[0])
    r, t = frame.decompose(spec.init[1])
    main = _solve_assoc(RecurrenceSpec(
        frame.quat, 2, (alpha_q, beta_q), (q, r), height=spec.height))
    tail = _solve_assoc(RecurrenceSpec(
        frame.quat, 2, (alpha_q.conj(), beta_q.conj()),
        (s.conj(), t.conj()), height=spec.height))
    return OctSplitForm(frame, main, tail)


def _certify_terms(form: AssocForm, rhs, label: str) -> None:
    """Prove that every term p(k) * lam**k * b of form solves
    a_{k+n} = sum_j rhs[j] * a_{k+j} for every k >= 0: its residual is
    Q(k) * lam**k * b with Q(k) = sum_j rhs[j] p(k+j) lam**j - p(k+n) lam**n,
    a polynomial in the central k of degree <= deg p, so Q vanishes
    identically once it vanishes at k = 0..deg p."""
    n = len(rhs)
    for i, t in enumerate(form.terms):
        d = t.degree
        if d < 0 or t.right.is_zero():
            continue
        pows = list(accumulate([t.base] * n, mul, initial=form.carrier.one()))
        vals = [reduce(lambda acc, c: acc * m + c, reversed(t.poly[:d]), t.poly[d])
                for m in range(d + n + 1)]  # p(m) by Horner's rule
        for k in range(d + 1):
            res = -(vals[k + n] * pows[n])
            for j, r in enumerate(rhs):
                res = res + r * (vals[k + j] * pows[j])
            if not res.is_zero():
                raise InternalError(f"certificate failed: {label}term {i} leaves "
                                    f"the residual {res} at k={k}")


def _certify_frame(frame) -> None:
    """embed(x)*embed(y) = embed(x*y) and embed(x)*(embed(y)*ell) =
    embed(y*x)*ell on the frame's quaternion basis; both sides of each are
    bilinear, so the identities then hold for all x, y."""
    basis = frame.quat.basis()
    emb = [frame.embed(e) for e in basis]
    prods = [[frame.embed(x * y) for y in basis] for x in basis]
    for i, ex in enumerate(emb):
        for j, ey in enumerate(emb):
            if ex * ey != prods[i][j] or ex * (ey * frame.ell) != prods[j][i] * frame.ell:
                raise InternalError(f"certificate failed: the frame does not split "
                                    f"the algebra at ({basis[i]}, {basis[j]})")


def _certify(spec: RecurrenceSpec, cf: ClosedForm) -> None:
    """Prove that cf gives the recurrence's a_k for every k, or raise
    InternalError naming the failing term or initial value.

    Every term solves the recurrence, so by left linearity their sum does,
    and a solution is fixed by its first n values.  For an OctSplitForm,
    rhs[j] must embed a frame quaternion r_j, main must solve the recurrence
    with the r_j and tail the one with conj(r_j); the frame identities then
    carry both to a_k = embed(main(k)) + embed(conj(tail(k)))*ell, and with
    central r_j linearity alone does.
    """
    if isinstance(cf, OctSplitForm):
        rhs = [cf.frame.decompose(r)[0] for r in spec.rhs]
        for j, (q, r) in enumerate(zip(rhs, spec.rhs)):
            if cf.frame.embed(q) != r:
                raise InternalError(f"certificate failed: rhs[{j}] = {r} is not in the frame")
        if not all(r.is_central() for r in spec.rhs):
            _certify_frame(cf.frame)
        _certify_terms(cf.main, rhs, "main ")
        _certify_terms(cf.tail, [r.conj() for r in rhs], "tail ")
    else:
        _certify_terms(cf, [cf.carrier.coerce(r) for r in spec.rhs], "")
    for k, a in enumerate(spec.init):
        if cf.value(k) != a:
            raise InternalError(f"certificate failed: the closed form gives "
                                f"a_{k} = {cf.value(k)}, not the initial value {a}")


def solve(spec: RecurrenceSpec) -> ClosedForm:
    """Solve the recurrence and certify the result for every k (_certify)."""
    if algebra_kind(spec.algebra) == "octonion":
        cf = solve_octonion2(spec)
    else:
        cf = _solve_assoc(spec)
    _certify(spec, cf)
    return cf
