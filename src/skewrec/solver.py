"""End-to-end solving of left linear recurrences a_{k+n} = sum r_j a_{k+j}.

The characteristic data is the monic polynomial x^n - r_{n-1} x^{n-1} - ...
- r_0.  Over a field or a quaternion algebra one path solves every spec:
the exact Jordan decomposition U * J * U^-1 of the companion matrix, built
from eigenvector chains of the roots (_jordan_form).  Simple roots are the
case of 1x1 blocks, where U is the Vandermonde matrix of the roots; a
chain step reads only the companion's last row, rhs, and solves an m x m
system (`matlin._companion_step`), so no companion matrix is ever built.
Every root is tested on integers, a user root by the search
(`poly._is_root`) and a derived one by the certificate.
Rational order-2 coefficients take one root branch in every carrier: their
rational roots, from the discriminant's square root (`_sqrt`), are coerced
into it, irrational ones give an algebra a CompanionForm.  Other octonion
recurrences split over a quaternion frame of their coefficients into a
main part and a conjugated tail, each solved on that same path, by the
frame's integer change of basis (`decompose`, `join`).
The Jordan chains take their few small powers from `powers`, one product
each.

The search is one step, `_propose`, which declines every spec it cannot
solve, checks user roots, finds or promotes the others, splits an
octonion spec, and returns a finished closed form on every path.  This
module only proposes: `solve` certifies that form by its own `_certify`,
in `forms`, which imports none of the search, before it returns it.
`verify_closed_form` is the independent check against direct iteration.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import islice
from math import factorial, gcd, isqrt

from .algebra import OctonionAlgebra, build_frame
from .errors import (
    LamViolation,
    NoRootsFound,
    Singular,
    SingularU,
    UnsupportedOrder,
    ValidationError,
)
from .forms import (AssocForm, ClosedForm, CompanionForm, OctSplitForm, RecurrenceSpec, Term,
                    _forward)
from .matlin import _chain_matrix, mat_solve
from .poly import LeftPoly, _is_root, conj_class, quadratic_roots
from .scalar import FieldContext, ScalarValue, _reduced, _times, squarefree_split


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    first_failure: int | None
    kmax: int


def primitive_char_poly(spec: RecurrenceSpec) -> LeftPoly:
    """Monic polynomial x^n + c_{n-1}x^{n-1} + ... + c_0 with c_j = -rhs[j]."""
    coeffs = [-r for r in spec.rhs] + [spec.algebra.one()]
    return LeftPoly(spec.algebra, coeffs)


def iterate_oracle(spec: RecurrenceSpec, k: int):
    """a_k by direct forward iteration (`forms._forward`), the ground truth of
    verify_closed_form."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return next(islice(_forward(spec.algebra.zero(), spec.rhs, spec.init), k, None))


def eval_closed_form(cf: ClosedForm, k: int):
    return cf.value(k)


def verify_closed_form(spec: RecurrenceSpec, cf: ClosedForm, kmax: int) -> VerifyReport:
    """Exact comparison of the closed form against iteration for k <= kmax."""
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    for k, actual in zip(range(kmax + 1), _forward(spec.algebra.zero(), spec.rhs, spec.init)):
        if cf.value(k) != actual:
            return VerifyReport(False, k, kmax)
    return VerifyReport(True, None, kmax)


def _check_lam(roots) -> None:
    """No three roots may share a conjugacy class, its (T, N) label
    (`poly.conj_class`), as three that do make U singular: every lam has
    lam^2 = T*lam - N, so a chain's first column (1, lam, ..., lam**(n-1))
    is A + B*lam for rational vectors A and B fixed by (T, N), and three
    such columns times b_1, b_2, b_3, not all 0, with sum b_i = 0 and
    sum lam_i*b_i = 0 (8 rational equations in 12 unknowns) sum to 0."""
    if len(roots) < 3 or isinstance(roots[0].carrier, FieldContext):
        return
    counts: dict = {}
    for r in roots:
        cls = conj_class(r)
        counts[cls] = counts.get(cls, 0) + 1
        if counts[cls] >= 3:
            raise LamViolation(f"three roots lie in conjugacy class {cls}")


def _binom_coeffs(r: int) -> tuple[list[int], int]:
    """The polynomial C(k, r) in powers of k, as integer coefficients over
    r!: k*(k-1)*...*(k-r+1) expanded, and r!."""
    out = [1]
    for i in range(r):
        nxt = [0] * (len(out) + 1)
        for s, c in enumerate(out):
            nxt[s + 1] += c
            nxt[s] -= c * i
        out = nxt
    return out, factorial(r)


def _jordan_form(spec: RecurrenceSpec, rootdata) -> AssocForm:
    """a_k as the first row of U * J**k * b, U the eigenvector chains of the
    roots and b = U^-1 * init from one elimination on [U | init], expanded
    into terms p(k) * base**k * b_i with deg p below the block size.  Simple
    roots give 1x1 blocks, U is then the Vandermonde matrix of the roots
    and each term is base**k * b_i.  The powers lam^-r, r < m, that the
    terms need are taken for every chain root (m > 1) before any chain is
    built, so a chain root of norm 0 raises ZeroDivisor up front.  A chain
    step reads only rhs, the companion matrix's last row, and lam^-1
    (`matlin._companion_step`).  The root data is taken as established:
    its _certify proves the result."""
    alg = spec.algebra
    inv_pows = [lam.inverse().powers(m - 1) if m > 1 else None for lam, m in rootdata]
    u = _chain_matrix(rootdata, spec.rhs, [p[1] if p else None for p in inv_pows])
    try:
        b = mat_solve(u, spec.init)
    except Singular as exc:
        raise SingularU("eigenvector chains are linearly dependent") from exc
    terms = []
    col = 0
    first, zero = u.row(0), alg.zero()
    for (lam, m), pows in zip(rootdata, inv_pows):
        for sp in range(m):
            # the r = 0 summand of column sp is U's first-row entry itself
            coeffs = [first[col + sp]] + [zero] * sp
            for r in range(1, sp + 1):
                base_e = _times(first[col + sp - r], pows[r])
                binom, fact = _binom_coeffs(r)
                for s, c in enumerate(binom):
                    if c:
                        coeffs[s] = coeffs[s] + base_e._scaled(c, fact)
            terms.append(Term(coeffs, lam, b[col + sp]))
        col += m
    return AssocForm(alg, tuple(terms))


def _ratio_sqrt(n: int, d: int) -> tuple[int, int] | None:
    """(r, s) with r/s the exact square root of n/d, for d > 0, or None if
    n/d is not the square of a rational."""
    if n < 0:
        return None
    g = gcd(n, d)
    n, d = n // g, d // g
    r, s = isqrt(n), isqrt(d)
    if r * r == n and s * s == d:
        return r, s
    return None


def _sqrt(x: ScalarValue) -> ScalarValue | None:
    """The exact square root inside the same field, or None.  Over
    Q(sqrt(d)) it is p + q*sqrt(d) with p > 0, or p = 0 and q >= 0."""
    ctx, num, den = x.carrier, x.num, x.den
    if ctx.d is None:
        r = _ratio_sqrt(num[0], den)
        return None if r is None else ctx.ratio(*r)
    # x = (u + v*rt)/den.  (p + q*rt)^2 = x means p^2 + d*q^2 =
    # u/den and 2*p*q = v/den, so p^2 and d*q^2 are the roots
    # (u + s)/(2*den) and (u - s)/(2*den) of z^2 - (u/den)*z +
    # d*v^2/(4*den^2), s^2 = u^2 - d*v^2 (an integer square for a
    # rational root, since den^2 is a square)
    u, v = num
    n, _ = x._norm_parts()
    s = isqrt(n) if n >= 0 else -1
    if s * s != n:
        return None
    for p_sq, dq_sq in ((u + s, u - s), (u - s, u + s)):
        p, q = _ratio_sqrt(p_sq, 2 * den), _ratio_sqrt(dq_sq, 2 * den * ctx.d)
        if p is not None and q is not None:
            (pn, pd), (qn, qd) = p, q
            cand = _reduced(ScalarValue, ctx, (pn * qd, -qn * pd if v < 0 else qn * pd), pd * qd)
            if cand * cand == x:
                return cand
    return None


def _propose(spec: RecurrenceSpec) -> ClosedForm:
    """The closed form of spec that the search finds, for its _certify to prove.

    An octonion spec with a non-central coefficient splits over a
    quaternion frame built from its coefficients, so the frame's
    quaternion part holds them: the state recursion decomposes into one
    quaternion recurrence for the frame component and one, with conjugated
    coefficients, for the ell component, each proposed here.  Any other
    spec takes the Jordan form of its roots (_jordan_form).

    User roots must have multiplicities summing to the order, be pairwise
    distinct roots of the characteristic polynomial, each tested on
    integers (`poly._is_root`), and no three may share a conjugacy class.
    The roots derived here are roots by construction and skip those
    checks; its _certify proves the form built from them.  An order-2 spec
    over a field, or with every rhs central in any carrier, has chi over
    its field or Q: a zero discriminant gives a double root and a square
    one two roots, coerced into the spec's carrier.  Any other gives an
    algebra spec the Lucas form (CompanionForm of chi), moves a field spec over Q,
    if positive, to Q(sqrt(d)), d its squarefree part, and is otherwise
    unsolvable here.  Any other order-2 quaternion spec takes the (root,
    multiplicity) pairs that `quadratic_roots` finds, or its NoRootsFound.

    Every limit of the search is declined before any path runs: an
    octonion spec of order other than 2 or with user roots, and a field or
    quaternion spec of order > 2 without them.
    """
    alg = spec.algebra
    field, octonion = isinstance(alg, FieldContext), isinstance(alg, OctonionAlgebra)
    if octonion and spec.order != 2:
        raise UnsupportedOrder("octonion recurrences are solved at order 2 only")
    if octonion and spec.roots is not None:
        raise ValidationError("user roots are not accepted for octonion specs")
    if spec.order > 2 and spec.roots is None:
        kind = "field" if field else "quaternion"
        raise UnsupportedOrder(f"{kind} recurrences of order > 2 need user-supplied roots")
    if octonion and not all(r.is_central() for r in spec.rhs):
        frame = build_frame(alg, *spec.rhs)
        rhs = tuple(frame.decompose(r)[0] for r in spec.rhs)
        (q, s), (r, t) = map(frame.decompose, spec.init)
        main = _propose(RecurrenceSpec(frame.quat, 2, rhs, (q, r)))
        tail = _propose(RecurrenceSpec(
            frame.quat, 2, tuple(c.conj() for c in rhs), (s.conj(), t.conj())))
        return OctSplitForm(frame, main, tail)
    if spec.roots is not None:
        roots = [lam for lam, _ in spec.roots]
        if sum(m for _, m in spec.roots) != spec.order:
            raise ValidationError(f"root multiplicities must sum to the order {spec.order}")
        if len(set(roots)) != len(roots):
            raise ValidationError("roots must be pairwise distinct")
        chi = primitive_char_poly(spec).coeffs
        for lam in roots:
            if not _is_root(chi, lam):
                raise ValidationError(f"{lam} is not a root of the characteristic polynomial")
        _check_lam(roots)
        return _jordan_form(spec, spec.roots)
    if spec.order == 1:
        return _jordan_form(spec, ((spec.rhs[0], 1),))
    if not (field or all(r.is_central() for r in spec.rhs)):
        return _jordan_form(spec, quadratic_roots(primitive_char_poly(spec)))
    c0, c1 = [-r if field else -r.scalar_part() for r in spec.rhs]
    disc = c1 * c1 - 4 * c0
    if disc.is_zero():
        return _jordan_form(spec, ((alg.coerce(c1._scaled(-1, 2)), 2),))
    s = _sqrt(disc)
    if s is None:
        if not field:
            return CompanionForm(alg, (c0, c1), spec.init)
        if alg.d is not None:
            raise NoRootsFound("the discriminant has no square root in the configured "
                               "quadratic field, and no further extension is attempted")
        num, den = disc.num[0], disc.den
        if num < 0:
            raise NoRootsFound("negative discriminant: the roots are complex, and only "
                               "real quadratic extensions are supported")
        e, d = squarefree_split(num * den)
        alg = FieldContext(d)
        s, c1 = _reduced(ScalarValue, alg, (0, e), den), alg.scalar(c1)
        spec = dataclasses.replace(spec, algebra=alg)
    return _jordan_form(spec, tuple([(alg.coerce((c1 + x)._scaled(-1, 2)), 1) for x in (-s, s)]))


def solve(spec: RecurrenceSpec) -> ClosedForm:
    """Solve the recurrence: the search proposes one closed form
    (_propose), and cf._certify proves it for every k before it is returned."""
    cf = _propose(spec)
    cf._certify(spec)
    return cf
