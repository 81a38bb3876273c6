"""Matrices over an exact algebra, acting on column vectors.

Entries always combine left to right: (M*N)[i,k] = sum_j M[i,j]*N[j,k] and
(M*v)[i] = sum_j M[i,j]*v[j].  That matches the left-coefficient convention
used by the recurrences, where the matrix sits to the left of the state
vector.  There are no determinants here; pivots are inverted in the algebra
itself, which is what makes elimination work over noncommutative entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import (
    DimensionMismatch,
    NoSolution,
    Singular,
    SingularU,
)


def _is_associative(x) -> bool:
    return getattr(type(x), "ASSOCIATIVE", True)


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

    @classmethod
    def scalar_matrix(cls, n: int, c) -> DMatrix:
        zero = c.carrier.zero()
        return cls(n, n, [c if i == j else zero for i in range(n) for j in range(n)])

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> list:
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def __add__(self, other):
        if not isinstance(other, DMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix sum shape mismatch")
        return DMatrix(self.rows, self.cols,
                       [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if not isinstance(other, DMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix difference shape mismatch")
        return DMatrix(self.rows, self.cols,
                       [a - b for a, b in zip(self.entries, other.entries)])

    def __mul__(self, other):
        if not isinstance(other, DMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = []
        for i in range(self.rows):
            for k in range(other.cols):
                acc = self.entry(i, 0) * other.entry(0, k)
                for j in range(1, self.cols):
                    acc = acc + self.entry(i, j) * other.entry(j, k)
                out.append(acc)
        return DMatrix(self.rows, other.cols, out)

    def apply(self, vec) -> list:
        """Matrix times column vector, entries kept left of the components."""
        vec = list(vec)
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length does not match matrix columns")
        out = []
        for i in range(self.rows):
            acc = self.entry(i, 0) * vec[0]
            for j in range(1, self.cols):
                acc = acc + self.entry(i, j) * vec[j]
            out.append(acc)
        return out

    def inverse(self) -> DMatrix:
        return mat_inverse(self)

    def __eq__(self, other):
        if not isinstance(other, DMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and all(
            a == b for a, b in zip(self.entries, other.entries)
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.entries)))

    def __repr__(self):
        rows = ["[" + ", ".join(str(e) for e in self.row(i)) + "]"
                for i in range(self.rows)]
        return "DMatrix[" + "; ".join(rows) + "]"


def mat_inverse(m: DMatrix) -> DMatrix:
    """Two-sided inverse by Gauss-Jordan elimination with left row operations.

    Pivoting takes the first row whose pivot has nonzero norm; a column with
    no such row is either all zero (Singular) or contains a nonzero zero-norm
    entry, in which case inverting it raises ZeroDivisor.
    """
    if m.rows != m.cols:
        raise DimensionMismatch("only square matrices can be inverted")
    if not _is_associative(m.entries[0]):
        raise ValueError("octonion matrices are not invertible here; "
                         "work inside an associative subalgebra")
    n = m.rows
    carrier = m.entries[0].carrier
    ident = DMatrix.identity(n, carrier)
    aug = [m.row(i) + ident.row(i) for i in range(n)]

    for col in range(n):
        piv = None
        for r in range(col, n):
            if not aug[r][col].norm().is_zero():
                piv = r
                break
        if piv is None:
            nonzero = [aug[r][col] for r in range(col, n) if not aug[r][col].is_zero()]
            if not nonzero:
                raise Singular(f"zero pivot column {col}")
            nonzero[0].inverse()  # raises ZeroDivisor
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [inv * x for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return DMatrix(n, n, [x for row in aug for x in row[n:]])


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
    """Rows of increasing powers: row i holds node_j ** i."""
    nodes = list(nodes)
    if not nodes:
        raise ValueError("vandermonde needs at least one node")
    n = len(nodes)
    entries = []
    for i in range(n):
        entries.extend(node ** i for node in nodes)
    return DMatrix(n, n, entries)


def eig_check(a: DMatrix, lam, v, side: str = "left") -> bool:
    """Does A*v equal lam*v (left) or v*lam (right), exactly?"""
    if a.rows != a.cols:
        raise DimensionMismatch("eig_check needs a square matrix")
    v = list(v)
    if all(x.is_zero() for x in v):
        raise ValueError("eigenvector must be nonzero")
    av = a.apply(v)
    if side == "left":
        target = [lam * x for x in v]
    elif side == "right":
        target = [x * lam for x in v]
    else:
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    return all(p == q for p, q in zip(av, target))


def jordan_block_power(lam, m: int, k: int) -> DMatrix:
    """k-th power of the m x m Jordan block for lam.

    Entry (i, j) is C(k, j-i) * lam**(k-(j-i)); entries whose exponent would
    go negative are zero, consistently with C(k, s) = 0 for s > k.
    """
    if m < 1 or k < 0:
        raise ValueError("need m >= 1 and k >= 0")
    carrier = lam.carrier
    zero = carrier.zero()
    entries = []
    for i in range(m):
        for j in range(m):
            s = j - i
            if s < 0 or s > k:
                entries.append(zero)
            else:
                entries.append(comb(k, s) * lam ** (k - s))
    return DMatrix(m, m, entries)


def solve_rational(mat, rhs):
    """Solve an exact rational linear system; free variables are set to 0.

    Returns the solution vector, or None when the system is inconsistent.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    aug = [list(mat[r]) + [rhs[r]] for r in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if aug[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][cols] != 0:
            return None
    sol = [Fraction(0)] * cols
    for pr, pc in pivots:
        sol[pc] = aug[pr][cols]
    return sol


def sylvester_chain_solve(a: DMatrix, lam, v) -> list:
    """Solve A*w - w*lam = v for a vector w over an associative algebra.

    The unknown is flattened to rational coordinates (the map is linear over
    the base field), eliminated exactly, and free variables are pinned to 0,
    so the returned representative of the solution coset is deterministic.
    """
    if a.rows != a.cols:
        raise DimensionMismatch("chain solve needs a square matrix")
    if not _is_associative(lam):
        raise ValueError("chain solve requires associative entries")
    carrier = lam.carrier
    basis = carrier.basis()
    m = len(basis)
    n = a.rows
    big = n * m
    mat = [[Fraction(0)] * big for _ in range(big)]
    for i in range(n):
        for j in range(n):
            aij = a.entry(i, j)
            if not aij.is_zero():
                for c, bvec in enumerate(basis):
                    col = j * m + c
                    for rr, val in enumerate((aij * bvec).coords()):
                        mat[i * m + rr][col] += val
        for c, bvec in enumerate(basis):
            col = i * m + c
            for rr, val in enumerate((bvec * lam).coords()):
                mat[i * m + rr][col] -= val
    rhs = []
    for vi in v:
        rhs.extend(vi.coords())
    sol = solve_rational(mat, rhs)
    if sol is None:
        raise NoSolution("generalized eigenvector system is inconsistent")
    return [carrier.from_coords(sol[j * m : (j + 1) * m]) for j in range(n)]


class JordanData:
    """Jordan decomposition A = U * J * Uinv with exact block data."""

    __slots__ = ("blocks", "U", "Uinv")

    def __init__(self, blocks, U: DMatrix, Uinv: DMatrix):
        self.blocks = tuple(blocks)
        self.U = U
        self.Uinv = Uinv

    def jordan_matrix(self) -> DMatrix:
        return jordan_matrix(self.blocks)

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


def jordan_from_roots(a: DMatrix, rootdata) -> JordanData:
    """Build U column by column from eigenvector chains of a companion matrix.

    Each root lam starts a chain at (1, lam, ..., lam^(n-1)); successive
    columns solve A*w - w*lam = previous.  The result is not checked here:
    solve certifies the closed form built from it (solver._certify).
    """
    rootdata = [(lam, int(m)) for lam, m in rootdata]
    n = a.rows
    if sum(m for _, m in rootdata) != n:
        raise ValueError("block sizes must sum to the matrix size")
    columns = []
    for lam, m in rootdata:
        v = [lam ** i for i in range(n)]
        columns.append(v)
        for _ in range(m - 1):
            v = sylvester_chain_solve(a, lam, v)
            columns.append(v)
    u = DMatrix(n, n, [columns[j][i] for i in range(n) for j in range(n)])
    try:
        uinv = mat_inverse(u)
    except Singular as exc:
        raise SingularU("eigenvector chains are linearly dependent") from exc
    return JordanData(rootdata, u, uinv)
