"""Matrices over an exact algebra, acting on column vectors.

Entries always combine left to right: (M*N)[i,k] = sum_j M[i,j]*N[j,k] and
(M*v)[i] = sum_j M[i,j]*v[j].  That matches the left-coefficient convention
used by the recurrences, where the matrix sits to the left of the state
vector.  There are no determinants here; pivots are inverted in the algebra
itself, which is what makes elimination work over noncommutative entries.

The one commutative system, the base-field coordinates of a Jordan chain
step A*w - w*lam = v for a companion matrix A and an invertible lam, is
read off the values' integer numerators and eliminated on integers by
`_reduce_rows`.  The shift rows give w_i in terms of w_{n-1}, so only the
m x m system of w_{n-1} is built, m the carrier's dimension
(`_companion_step`).  It is the one chain step: `solve` and
`jordan_from_roots` both take their chains from `_chain_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import (
    DimensionMismatch,
    NoSolution,
    Singular,
    SingularU,
    ValidationError,
)
from .forms import _checked_multiplicities
from .scalar import IntValue, _from_ratios, _times


def _dot(row, col):
    """sum_j row[j] * col[j], left to right, each row entry on the left."""
    acc = row[0] * col[0]
    for a, b in zip(row[1:], col[1:]):
        acc = acc + a * b
    return acc


class DMatrix:
    """Rectangular matrix with homogeneous algebra entries, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = list(entries)
        if rows < 1 or cols < 1 or len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows) -> DMatrix:
        rows = [list(r) for r in rows]
        flat = [e for r in rows for e in r]
        return cls(len(rows), len(rows[0]), flat)

    @classmethod
    def identity(cls, n: int, carrier) -> DMatrix:
        one, zero = carrier.one(), carrier.zero()
        return cls(n, n, [one if i == j else zero for i in range(n) for j in range(n)])

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __mul__(self, other):
        if not isinstance(other, DMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        cols = [other.entries[k::other.cols] for k in range(other.cols)]
        return DMatrix(self.rows, other.cols,
                       [_dot(self.row(i), col) for i in range(self.rows) for col in cols])

    def apply(self, vec) -> list:
        """Matrix times column vector, entries kept left of the components."""
        vec = list(vec)
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length does not match matrix columns")
        return [_dot(self.row(i), vec) for i in range(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, DMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and all(
            a == b for a, b in zip(self.entries, other.entries)
        )

    def __repr__(self):
        rows = ["[" + ", ".join(str(e) for e in self.row(i)) + "]"
                for i in range(self.rows)]
        return "DMatrix[" + "; ".join(rows) + "]"


def _eliminate(m: DMatrix, right: list) -> list:
    """Gauss-Jordan elimination with left row operations on [M | R], for a
    square M and the n rows of R; returns the rows of M^-1 * R.

    Pivoting takes the first row whose pivot has nonzero norm (read off the
    integer numerator of `_norm_parts`); a column with no such row is either
    all zero (Singular) or contains a nonzero zero-norm entry, in which case
    inverting it raises ZeroDivisor.  Once column c is cleared it is never
    read again, and row c is zero left of c, so the step on column c touches
    only the entries right of it.  No product by 1 is taken: a pivot or a
    row factor is tested for 1 once per row, and an entry right of the
    pivot once per product.  Entries that do not associate must all be
    central: every pivot and row factor is then rational.
    """
    if m.rows != m.cols:
        raise DimensionMismatch("only square matrices can be inverted")
    if not all(x.ASSOCIATIVE or x.is_central() for x in m.entries):
        raise ValueError("octonion matrices with a non-central entry are not invertible "
                         "here; work inside an associative subalgebra")
    n = m.rows
    aug = [m.row(i) + list(right[i]) for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if aug[r][col]._norm_parts()[0]:
                piv = r
                break
        if piv is None:
            nonzero = [aug[r][col] for r in range(col, n) if not aug[r][col].is_zero()]
            if not nonzero:
                raise Singular(f"zero pivot column {col}")
            nonzero[0].inverse()  # raises ZeroDivisor
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        prow = aug[col]
        tail = prow[col + 1:]
        if not prow[col].is_one():
            inv = prow[col].inverse()
            tail = prow[col + 1:] = [inv if x.is_one() else inv * x for x in tail]
        for r in range(n):
            row = aug[r]
            f = row[col]
            if r == col or f.is_zero():
                continue
            if f.is_one():
                row[col + 1:] = [x - y for x, y in zip(row[col + 1:], tail)]
            else:
                row[col + 1:] = [x - (f if y.is_one() else f * y)
                                 for x, y in zip(row[col + 1:], tail)]
    return [row[n:] for row in aug]


def mat_inverse(m: DMatrix) -> DMatrix:
    """Two-sided inverse: `_eliminate` with the identity on the right."""
    ident = DMatrix.identity(m.rows, m.entries[0].carrier)
    rows = _eliminate(m, [ident.row(i) for i in range(m.rows)])
    return DMatrix(m.rows, m.rows, [x for row in rows for x in row])


def mat_solve(m: DMatrix, vec) -> list:
    """M^-1 * vec, by one `_eliminate` on [M | vec], with the errors of
    mat_inverse(m)."""
    vec = list(vec)
    if len(vec) != m.rows:
        raise DimensionMismatch("vector length does not match matrix rows")
    return [row[0] for row in _eliminate(m, [[x] for x in vec])]


def companion_matrix(p) -> DMatrix:
    """Shift-register matrix of a monic polynomial: superdiagonal ones, last
    row (-c_0, ..., -c_{n-1})."""
    if not p.is_monic():
        raise ValueError("companion matrix needs a monic polynomial")
    n = p.degree
    if n < 1:
        raise ValueError("companion matrix needs degree >= 1")
    carrier = p.carrier
    zero, one = carrier.zero(), carrier.one()
    entries = []
    for i in range(n - 1):
        entries.extend(one if j == i + 1 else zero for j in range(n))
    entries.extend(-c for c in p.coeffs[:-1])
    return DMatrix(n, n, entries)


def vandermonde(nodes) -> DMatrix:
    """Rows of increasing powers: row i holds node_j ** i, the U of
    `_chain_matrix` for simple roots, which take no chain step.  A node
    that is not a value of an algebra (a plain number, say) is a
    ValidationError: with no matrix, there is no carrier to coerce it into.
    Each node is coerced into the first node's carrier, as
    jordan_from_roots coerces its roots, so a node of another algebra is a
    ContextMismatch here and not at a later product."""
    nodes = list(nodes)
    if not nodes:
        raise ValueError("vandermonde needs at least one node")
    if not all(isinstance(node, IntValue) for node in nodes):
        raise ValidationError("vandermonde nodes must be values of an algebra")
    coerce = nodes[0].carrier.coerce
    return _chain_matrix([(coerce(node), 1) for node in nodes])


def eig_check(a: DMatrix, lam, v) -> bool:
    """Does A*v equal lam*v exactly, lam on the left?"""
    if a.rows != a.cols:
        raise DimensionMismatch("eig_check needs a square matrix")
    v = list(v)
    if all(x.is_zero() for x in v):
        raise ValueError("eigenvector must be nonzero")
    return all(p == lam * x for p, x in zip(a.apply(v), v))


def _primitive(row: list) -> list:
    """An integer row divided by the gcd of its entries (a zero row as is)."""
    g = gcd(*row)
    if g > 1:
        return [x // g for x in row]
    return row


def _reduce_rows(aug: list, cols: int) -> list | None:
    """Gauss-Jordan elimination, fraction-free (after Bareiss), on primitive
    integer rows [A | b] with `cols` columns in A, in place: row i is
    eliminated against pivot row r as pv*row_i - f*row_r, and each new row
    is divided by the gcd of its entries.  Every integer row stays a
    positive multiple of the row Gauss-Jordan on rationals holds, so the
    zero pattern, the pivots, the consistency test and the reduced echelon
    form are the same.  Returns the solution with free variables at 0 as
    one (numerator, denominator) pair per column, b_r / pv_r in each pivot
    column and (0, 1) elsewhere, or None when the system is inconsistent."""
    rows = len(aug)
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if aug[i][c]:
                pr = i
                break
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        prow = aug[r]
        pv = prow[c]
        for i in range(rows):
            f = aug[i][c]
            if i != r and f:
                g = gcd(pv, f)
                p, f = pv // g, f // g
                aug[i] = _primitive([p * x - f * y for x, y in zip(aug[i], prow)])
        pivots.append((r, c))
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][cols]:
            return None
    sol = [(0, 1)] * cols
    for pr, pc in pivots:
        sol[pc] = (aug[pr][cols], aug[pr][pc])
    return sol


@dataclass(slots=True, eq=False)
class JordanData:
    """Jordan decomposition A = U * J * Uinv with exact block data."""

    blocks: tuple
    U: DMatrix
    Uinv: DMatrix

    def __repr__(self):
        shape = ", ".join(f"({lam}, {m})" for lam, m in self.blocks)
        return f"JordanData[{shape}]"


def jordan_matrix(blocks) -> DMatrix:
    """Block-diagonal matrix with superdiagonal ones inside each block."""
    carrier = blocks[0][0].carrier
    n = sum(m for _, m in blocks)
    zero, one = carrier.zero(), carrier.one()
    entries = [zero] * (n * n)
    off = 0
    for lam, m in blocks:
        for s in range(m):
            entries[(off + s) * n + off + s] = lam
            if s + 1 < m:
                entries[(off + s) * n + off + s + 1] = one
        off += m
    return DMatrix(n, n, entries)


def _companion_step(row, lam, inv, v) -> list:
    """The w of A*w - w*lam = v for the companion matrix A with last row
    `row`, given inv = lam^-1, or NoSolution.

    Rows i < n-1 read w_{i+1} - w_i*lam = v_i, so w_i = (w_{i+1} - v_i)*inv,
    which is x*inv^(n-1-i) - K_i in x = w_{n-1}, with K_{n-1} = 0 and
    K_i = (K_{i+1} + v_i)*inv.  The last row then leaves the m x m system
    S(x) = sum_j row_j*x*inv^(n-1-j) - x*lam = v_{n-1} + sum_j row_j*K_j,
    m the carrier's dimension.  Its columns S(e_c) are built on integer
    numerators by the carrier's product `_num_mul` over one denominator and
    eliminated by `_reduce_rows`, free variables at 0.  With lam invertible
    the first (n-1)*m columns of the flattened (n*m) x (n*m) system on the
    coordinates of w are all pivots, so its free columns are those of S and,
    the reduced echelon form being unique, w is its solution with free
    variables at 0."""
    carrier = lam.carrier
    n, m = len(row), carrier.dim
    mul, D = carrier._num_mul, carrier.weights[0]
    rhs, k = v[n - 1], None
    for i in range(n - 2, -1, -1):
        k = _times(v[i] if k is None else k + v[i], inv)  # K_i
        if not row[i].is_zero():
            rhs = rhs + _times(row[i], k)
    # S(e_c) = sum_j row_j*z_{e-j} - e_c*lam with z_t = e_c*inv^t, e = n-1,
    # over den = D * rho * s**e * den(lam), rho = lcm(den row_j) and
    # s = D * den(inv), the denominator that each product by inv adds
    rho, s, e = lcm(*[r.den for r in row]), D * inv.den, n - 1
    terms = [(e - j, [x * (rho // r.den) for x in r.num], s ** j * lam.den)
             for j, r in enumerate(row) if not r.is_zero()]
    lam_f = rho * s ** e
    cols = []
    for c in range(m):
        z = [tuple([int(i == c) for i in range(m)])]
        for _ in range(e):
            z.append(mul(z[-1], inv.num))
        col = [-x * lam_f for x in mul(z[0], lam.num)]
        for t, rn, f in terms:
            col = [a + x * f for a, x in zip(col, mul(rn, z[t]))]
        cols.append(col)
    den = D * lam_f * lam.den
    aug = [_primitive([col[rr] * rhs.den for col in cols] + [rhs.num[rr] * den])
           for rr in range(m)]
    sol = _reduce_rows(aug, m)
    if sol is None:
        raise NoSolution("generalized eigenvector system is inconsistent")
    w = [_from_ratios(carrier, sol)] * n
    for i in range(n - 2, -1, -1):
        w[i] = _times(w[i + 1] - v[i], inv)
    return w


def _chain_matrix(rootdata, row=None, invs=None) -> DMatrix:
    """U from the eigenvector chains of the companion matrix with last row
    `row`: each root lam starts a chain at (1, lam, ..., lam^(n-1)), n the
    sum of the multiplicities, and each further column is the w of
    A*w - w*lam = previous (`_companion_step`), given invs[i] = lam^-1 for
    a chain root lam = rootdata[i][0]."""
    n = sum([m for _, m in rootdata])
    columns = []
    for i, (lam, m) in enumerate(rootdata):
        v = lam.powers(n - 1)
        columns.append(v)
        for _ in range(m - 1):
            v = _companion_step(row, lam, invs[i], v)
            columns.append(v)
    return DMatrix(n, n, [columns[j][i] for i in range(n) for j in range(n)])


def jordan_from_roots(a: DMatrix, rootdata) -> JordanData:
    """U from the eigenvector chains of A (`_chain_matrix`) and its inverse
    in the algebra, for an n x n companion matrix A and multiplicities that
    are ints >= 1 summing to n.  Each root is coerced into A's carrier, as
    RecurrenceSpec coerces its roots: that of A's first entry that is a
    value (a hand-built A may hold plain ints), else of the first root that
    is one.  A chain root is inverted up front, as in solve.  Each chain
    starts at (1, lam, ..., lam^(n-1)), an eigenvector only under the shift
    rows, so any other square A is a ValueError.  The result is not checked
    here; solve builds its closed forms from the same chains and certifies
    them (forms._certify)."""
    if a.rows != a.cols:
        raise DimensionMismatch("jordan_from_roots needs a square matrix")
    n = a.rows
    if any(a.entry(i, j) != int(j == i + 1) for i in range(n - 1) for j in range(n)):
        raise ValueError("jordan_from_roots needs a companion matrix, rows 0..n-2 the shift rows")
    rootdata = _checked_multiplicities(rootdata)
    values = [v for v in (*a.entries, *(lam for lam, _ in rootdata)) if isinstance(v, IntValue)]
    if not values:
        raise ValidationError("jordan_from_roots needs a value of an algebra in A or its roots")
    coerce = values[0].carrier.coerce
    rootdata = tuple([(coerce(lam), m) for lam, m in rootdata])
    if sum(m for _, m in rootdata) != n:
        raise ValueError("block sizes must sum to the matrix size")
    invs = [lam.inverse() if m > 1 else None for lam, m in rootdata]
    u = _chain_matrix(rootdata, a.row(n - 1), invs)
    try:
        uinv = mat_inverse(u)
    except Singular as exc:
        raise SingularU("eigenvector chains are linearly dependent") from exc
    return JordanData(rootdata, u, uinv)
