import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from skewrec import (
    ContextMismatch,
    DMatrix,
    DimensionMismatch,
    DivisionByZero,
    FieldContext,
    LeftPoly,
    NoSolution,
    OctonionAlgebra,
    QuaternionAlgebra,
    Singular,
    SingularU,
    SkewrecError,
    ValidationError,
    ZeroDivisor,
    companion_matrix,
    eig_check,
    jordan_from_roots,
    jordan_matrix,
    mat_inverse,
    vandermonde,
)
from skewrec.matlin import _companion_step, _primitive, _reduce_rows, mat_solve
from conftest import rand_frac, rand_quat, rand_scalar

Q = FieldContext.rational()
H = QuaternionAlgebra(-1, -1)
I, J, K = H.e1, H.e2, H.e3


def test_companion_matrix_examples():
    p = LeftPoly(H, [1 + K, -I, 1])
    assert companion_matrix(p) == DMatrix.from_rows(
        [[H.zero(), H.one()], [-1 - K, I]])
    fib = LeftPoly(Q, [-1, -1, 1])
    assert companion_matrix(fib) == DMatrix.from_rows(
        [[Q.zero(), Q.one()], [Q.one(), Q.one()]])
    assert companion_matrix(LeftPoly(H, [-J, 1])) == DMatrix(1, 1, [J])


def test_matrix_arithmetic():
    m = DMatrix.from_rows([[I, J], [K, H.one()]])
    ident = DMatrix.identity(2, H)
    assert ident * m == m and m * ident == m
    zero = DMatrix(2, 2, [H.zero()] * 4)
    assert zero * m == zero
    with pytest.raises(DimensionMismatch):
        m * DMatrix(3, 3, [H.zero()] * 9)
    with pytest.raises(DimensionMismatch):
        m.apply([I])


def test_matrix_vector_eigen_relation():
    p = LeftPoly(H, [1 + K, -I, 1])
    a = companion_matrix(p)
    v = [H.one(), J]
    assert a.apply(v) == [J * x for x in v]


def test_inverse_printed_vandermonde():
    v = vandermonde([J, I + J])
    vinv = mat_inverse(v)
    assert vinv == DMatrix.from_rows([[1 - K, I], [K, -I]])
    ident = DMatrix.identity(2, H)
    assert v * vinv == ident and vinv * v == ident


def test_inverse_singular_vandermonde():
    with pytest.raises(Singular):
        mat_inverse(vandermonde([I, J, K]))


def test_inverse_identity_and_random():
    ident = DMatrix.identity(3, H)
    assert mat_inverse(ident) == ident
    rng = random.Random(3)
    done = 0
    while done < 25:
        m = DMatrix(3, 3, [rand_quat(rng, H) for _ in range(9)])
        try:
            minv = mat_inverse(m)
        except Singular:
            continue
        assert m * minv == ident and minv * m == ident
        done += 1


def test_inverse_propagates_zero_divisor():
    split = QuaternionAlgebra(1, 1)
    from skewrec import ZeroDivisor
    bad = DMatrix.from_rows([[1 + split.e1, split.zero()],
                             [split.zero(), split.one()]])
    with pytest.raises(ZeroDivisor):
        mat_inverse(bad)


def _assert_solves_and_inverts(m, v, expected):
    x = mat_solve(m, v)
    assert x == expected and m.apply(x) == v
    ident = DMatrix.identity(m.rows, m.entries[0].carrier)
    minv = mat_inverse(m)
    assert m * minv == ident and minv * m == ident


def test_elimination_swaps_rows_for_a_zero_pivot():
    # the first pivot is 0, so rows 0 and 1 are swapped
    m = DMatrix.from_rows([[H.zero(), H.one()], [H.one(), J]])
    _assert_solves_and_inverts(m, [I, J], [J + K, I])


def test_elimination_swaps_rows_for_a_pivot_of_norm_zero():
    # over the split algebra (1, 1) the first pivot 1 + e1 is nonzero but has
    # norm 0: elimination takes the next row instead of inverting it
    split = QuaternionAlgebra(1, 1)
    e1, one = split.e1, split.one()
    assert (1 + e1).norm() == 0
    m = DMatrix.from_rows([[1 + e1, one], [one, split.zero()]])
    _assert_solves_and_inverts(m, [one, e1], [e1, -e1])


def test_inverse_rejects_octonion_entries():
    # a non-central entry anywhere, not only first, refuses elimination
    O = OctonionAlgebra(-1, -1, -1)
    one, i = O.one(), O.basis()[1]
    m = DMatrix.from_rows([[one, i], [O.zero(), one]])
    with pytest.raises(ValueError, match="non-central entry"):
        mat_inverse(m)
    # matrix arithmetic itself stays available
    assert m * DMatrix.identity(2, O) == m
    # with every entry central, every pivot and row factor is rational
    ident = DMatrix.identity(2, O)
    assert mat_inverse(ident) == ident
    c = DMatrix.from_rows([[one, one], [O.scalar(2), O.scalar(3)]])
    assert mat_inverse(c) == DMatrix.from_rows([[O.scalar(3), -one], [O.scalar(-2), one]])


def test_vandermonde_rows():
    v = vandermonde([I, J, K])
    assert v.row(0) == [H.one()] * 3
    assert v.row(1) == [I, J, K]
    assert v.row(2) == [H.scalar(-1)] * 3
    assert vandermonde([I]) == DMatrix(1, 1, [H.one()])


def test_eig_check_sides():
    p = LeftPoly(H, [1 + K, -I, 1])
    a = companion_matrix(p)
    v = [H.one(), J]
    assert eig_check(a, J, v)
    assert not eig_check(a, H.zero(), [H.one(), H.zero()])
    assert not eig_check(a, H.one(), v)
    with pytest.raises(ValueError):
        eig_check(a, J, [H.zero(), H.zero()])


def test_left_eigen_iff_root():
    rng = random.Random(7)
    for _ in range(60):
        lam, mu = rand_quat(rng, H), rand_quat(rng, H)
        if lam.is_zero() or mu.is_zero():
            continue
        p = LeftPoly.x_minus(mu) * LeftPoly.x_minus(lam)
        a = companion_matrix(p)
        probe = rand_quat(rng, H)
        for cand in (lam, probe):
            v = [H.one(), cand]
            assert eig_check(a, cand, v) == p.eval(cand).is_zero()


def test_chain_solve_satisfies_equation():
    p = LeftPoly(H, [-K, -(I + J), 1])
    a = companion_matrix(p)
    v = [H.one(), I]
    w = _companion_step(a.row(1), I, I.inverse(), v)
    lhs = [x - y for x, y in zip(a.apply(w), [wi * I for wi in w])]
    assert lhs == v


def test_chain_solve_inconsistent():
    # diagonalizable matrix: the chain on a root's own eigenvector cannot extend
    p = LeftPoly(H, [1 + K, -I, 1])
    a = companion_matrix(p)
    with pytest.raises(NoSolution):
        _companion_step(a.row(1), J, J.inverse(), [H.one(), J])


def test_jordan_from_roots_repeated():
    p = LeftPoly(H, [-K, -(I + J), 1])
    a = companion_matrix(p)
    jd = jordan_from_roots(a, [(I, 2)])
    assert jordan_matrix(jd.blocks) == DMatrix.from_rows([[I, H.one()], [H.zero(), I]])
    ident = DMatrix.identity(2, H)
    assert jd.U * jd.Uinv == ident and jd.Uinv * jd.U == ident
    assert (jd.U * jordan_matrix(jd.blocks)) * jd.Uinv == a


def test_jordan_from_roots_diagonal_is_vandermonde():
    p = LeftPoly(H, [1 + K, -I, 1])
    a = companion_matrix(p)
    jd = jordan_from_roots(a, [(J, 1), (I + J, 1)])
    assert jd.U == vandermonde([J, I + J])
    assert jordan_matrix(jd.blocks) == DMatrix.from_rows(
        [[J, H.zero()], [H.zero(), I + J]])


def test_jordan_from_roots_errors():
    p = LeftPoly(H, [1 + K, -I, 1])
    a = companion_matrix(p)
    with pytest.raises(ValueError):
        jordan_from_roots(a, [(J, 1)])  # multiplicities must sum to n
    with pytest.raises(SingularU):
        jordan_from_roots(a, [(J, 1), (J, 1)])  # identical chains


def test_jordan_from_roots_refuses_a_matrix_that_is_not_a_companion_matrix():
    # diag(i, j) has eigenvectors e_0 and e_1, not (1, i) and (1, j): the
    # chains would give a U with U*J*U^-1 != A
    diag = DMatrix(2, 2, [I, H.zero(), H.zero(), J])
    with pytest.raises(ValueError, match="needs a companion matrix"):
        jordan_from_roots(diag, [(I, 1), (J, 1)])


def test_jordan_from_roots_needs_a_square_matrix():
    # a 1x2 matrix has no shift rows to check and a simple root takes no
    # chain step, so only the shape refuses it; a 2x3 one has a shift row
    with pytest.raises(DimensionMismatch, match="needs a square matrix"):
        jordan_from_roots(DMatrix(1, 2, [I, H.zero()]), [(I, 1)])
    with pytest.raises(DimensionMismatch, match="needs a square matrix"):
        jordan_from_roots(DMatrix(2, 3, [H.zero(), H.one(), H.zero(), I, J, K]), [(I, 2)])


def test_jordan_from_roots_inverts_each_chain_root_up_front():
    # a chain step needs lam^-1: a double root 0 of x^2 is DivisionByZero
    # and a double root of norm 0 in the split (1, 1) ZeroDivisor
    with pytest.raises(DivisionByZero):
        jordan_from_roots(companion_matrix(LeftPoly(Q, [0, 0, 1])), [(Q.zero(), 2)])
    S = QuaternionAlgebra(1, 1)
    lam = S.element([1, 1, 0, 0])  # (1 + e1)^2 = 2*(1 + e1), norm 0
    a = companion_matrix(LeftPoly.x_minus(lam) * LeftPoly.x_minus(lam))
    with pytest.raises(ZeroDivisor):
        jordan_from_roots(a, [(lam, 2)])
    # a simple root 0, of x^2 - i*x, takes no chain step
    a = companion_matrix(LeftPoly(H, [0, -I, 1]))
    jd = jordan_from_roots(a, [(H.zero(), 1), (I, 1)])
    assert jd.U == vandermonde([H.zero(), I])
    assert (jd.U * jordan_matrix(jd.blocks)) * jd.Uinv == a


def test_jordan_from_roots_coerces_each_root_into_the_matrix_carrier():
    # x^2 - 4x + 4 = (x - 2)^2 over (-1,-1): the double root given as the
    # int 2, and as a rational of Q, gives the chains of H.scalar(2)
    a = companion_matrix(LeftPoly(H, [4, -4, 1]))
    want = jordan_from_roots(a, [(H.scalar(2), 2)])
    for root in (2, Fraction(2), Q.scalar(2)):
        jd = jordan_from_roots(a, [(root, 2)])
        assert jd.blocks == ((H.scalar(2), 2),) and jd.blocks[0][0].carrier == H
        assert jd.U == want.U and jd.Uinv == want.Uinv
        assert (jd.U * jordan_matrix(jd.blocks)) * jd.Uinv == a
    # x^2 - 3x + 2 over Q with its roots as ints
    a = companion_matrix(LeftPoly(Q, [2, -3, 1]))
    assert jordan_from_roots(a, [(1, 1), (2, 1)]).U == vandermonde([Q.scalar(1), Q.scalar(2)])
    with pytest.raises(SkewrecError):  # a value of another algebra
        jordan_from_roots(companion_matrix(LeftPoly(H, [4, -4, 1])),
                          [(QuaternionAlgebra(-1, -3).scalar(2) + QuaternionAlgebra(-1, -3).e1, 2)])
    # a hand-built companion matrix whose shift rows hold plain ints takes
    # its carrier from the first entry that is a value, else from a root
    b = DMatrix.from_rows([[0, 1], [H.scalar(-2), H.scalar(3)]])
    assert jordan_from_roots(b, [(1, 1), (2, 1)]).U == vandermonde([H.scalar(1), H.scalar(2)])
    b = DMatrix.from_rows([[0, 1], [-2, 3]])
    assert jordan_from_roots(b, [(1, 1), (Q.scalar(2), 1)]).U == vandermonde([Q.scalar(1), Q.scalar(2)])
    with pytest.raises(ValidationError, match="needs a value of an algebra"):
        jordan_from_roots(b, [(1, 1), (2, 1)])


def test_vandermonde_refuses_a_node_that_is_not_a_value():
    for nodes in ([2, I], [I, 2], [I, Fraction(1, 2)], ["i"]):
        with pytest.raises(ValidationError, match="must be values of an algebra"):
            vandermonde(nodes)


def test_vandermonde_coerces_each_node_into_the_first_nodes_carrier():
    # as jordan_from_roots coerces its roots: a node of another algebra is a
    # ContextMismatch at the call, not at a later product or inversion
    with pytest.raises(ContextMismatch):
        vandermonde([H.e1, QuaternionAlgebra(-1, -3).e1])
    v = vandermonde([I, Q.scalar(2)])
    assert all(x.carrier is H for x in v.entries)
    assert v.row(1) == [I, H.scalar(2)]


def test_jordan_from_roots_rejects_multiplicities_off_the_ints():
    # int(m) read 1.9 and "1" as 1: blocks (1, 1), (2, 1) for x^2 - 3x + 2
    a = companion_matrix(LeftPoly(Q, [2, -3, 1]))
    with pytest.raises(ValidationError, match="^root multiplicities must be integers$"):
        jordan_from_roots(a, [(1, 1.9), (2, "1")])
    with pytest.raises(ValidationError, match="^root multiplicities must be >= 1$"):
        jordan_from_roots(a, [(Q.scalar(1), 0), (Q.scalar(2), 2)])
    jd = jordan_from_roots(a, [(Q.scalar(1), 1), (Q.scalar(2), 1)])
    assert jd.blocks == ((1, 1), (2, 1)) and jd.U == vandermonde([Q.scalar(1), Q.scalar(2)])


def test_lam_random_triples_and_pairs():
    rng = random.Random(13)
    ident3 = DMatrix.identity(3, H)
    done = 0
    while done < 50:
        xs = [rand_quat(rng, H) for _ in range(3)]
        if len({str(x) for x in xs}) < 3:
            continue
        from skewrec import conj_class
        classes = [conj_class(x) for x in xs]
        if classes[0] == classes[1] == classes[2]:
            continue
        v = vandermonde(xs)
        vinv = mat_inverse(v)
        assert v * vinv == ident3
        done += 1
    ident2 = DMatrix.identity(2, H)
    done = 0
    while done < 80:
        x, y = rand_quat(rng, H), rand_quat(rng, H)
        if x == y:
            continue
        v = vandermonde([x, y])
        assert v * mat_inverse(v) == ident2
        done += 1


# ---------------------------------------------------------------------------
# the integer elimination kernel and the chain system built on it

props = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def _integer_row(row) -> list:
    """A row of ints and Fractions as the primitive integer row on its line."""
    den = lcm(*(x.denominator for x in row))
    return _primitive([x.numerator * (den // x.denominator) for x in row])


def solve_rational(mat, rhs):
    """Solve a linear system with int or Fraction entries; free variables
    are set to 0.

    Returns the solution as Fractions, or None when the system is
    inconsistent.  Each augmented row is scaled to integers by the lcm of
    its denominators and eliminated by the package's integer kernel
    `_reduce_rows`; the only division is rhs_r / pivot_r at the end.  Being
    checked against sympy here, it is the oracle for `_companion_step`
    below (`chain_solve_on_coords`).
    """
    cols = len(mat[0]) if mat else 0
    aug = [_integer_row(list(mat[r]) + [rhs[r]]) for r in range(len(mat))]
    sol = _reduce_rows(aug, cols)
    return None if sol is None else [Fraction(p, q) for p, q in sol]


def sympy_solution(mat, rhs):
    """The solution with free variables at 0, read off sympy's reduced row
    echelon form of [mat | rhs], and the pivot columns; None if inconsistent."""
    from sympy import Matrix, Rational

    cols = len(mat[0])
    aug = Matrix([[Rational(x.numerator, x.denominator) for x in row + [b]]
                  for row, b in zip(mat, rhs)])
    rref, pivots = aug.rref()
    if cols in pivots:
        return None, pivots
    sol = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        sol[pc] = Fraction(int(rref[r, cols].p), int(rref[r, cols].q))
    return sol, pivots


@props
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 6),
       st.sampled_from(["consistent", "inconsistent", "arbitrary"]),
       st.integers(0, 2 ** 32))
def test_solve_rational_agrees_with_sympy(rows, cols, rank, kind, seed):
    # a rank-limited matrix B*C (full rank when rank >= rows, cols); its rhs
    # is in the column space, off it by a dependent row, or drawn freely
    rng = random.Random(seed)
    rank = min(rank, rows, cols)
    b = [[rand_frac(rng) for _ in range(rank)] for _ in range(rows)]
    c = [[rand_frac(rng) for _ in range(cols)] for _ in range(rank)]
    mat = [[sum((b[i][t] * c[t][j] for t in range(rank)), Fraction(0))
            for j in range(cols)] for i in range(rows)]
    x = [rand_frac(rng) for _ in range(cols)]
    rhs = [sum((m * xi for m, xi in zip(row, x)), Fraction(0)) for row in mat]
    if kind == "inconsistent":
        mat.append([sum(col) for col in zip(*mat)])
        rhs.append(sum(rhs) + 1)
    elif kind == "arbitrary":
        rhs = [rand_frac(rng) for _ in rhs]
    mat = [[int(v) if v.denominator == 1 else v for v in row] for row in mat]
    expected, pivots = sympy_solution(mat, rhs)
    got = solve_rational(mat, rhs)
    assert got == expected
    if kind == "inconsistent":
        assert got is None
    if got is not None:
        assert all(isinstance(v, Fraction) for v in got)
        assert all(got[j] == 0 for j in range(len(got)) if j not in pivots)
        assert [sum(m * v for m, v in zip(row, got)) for row in mat] == rhs


CHAIN_CARRIERS = [
    FieldContext.rational(),
    FieldContext(2),
    QuaternionAlgebra(-1, -1),
    QuaternionAlgebra(Fraction(-1, 2), Fraction(3, 5)),
    QuaternionAlgebra(Fraction(7, 3), Fraction(-2, 9)),
]


def rand_entry(rng, carrier):
    if isinstance(carrier, FieldContext):
        return rand_scalar(rng, carrier)
    return rand_quat(rng, carrier)


@props
@given(st.sampled_from(CHAIN_CARRIERS), st.integers(1, 3), st.integers(0, 2 ** 32))
def test_chain_solve_satisfies_equation_over_every_carrier(carrier, n, seed):
    # v = A*w0 - w0*lam is in the image, so a solution w exists; A is the
    # companion matrix of (x - mu_1)...(x - mu_{n-1})(x - lam), which has
    # lam != 0 as a root, with each mu_i = lam or random
    rng = random.Random(seed)
    lam = rand_entry(rng, carrier)
    while lam.is_zero():
        lam = rand_entry(rng, carrier)
    p = LeftPoly.x_minus(lam)
    for _ in range(n - 1):
        mu = lam if rng.random() < 0.5 else rand_entry(rng, carrier)
        p = LeftPoly.x_minus(mu) * p
    a = companion_matrix(p)
    w0 = [rand_entry(rng, carrier) for _ in range(n)]
    v = [x - y * lam for x, y in zip(a.apply(w0), w0)]
    w = _companion_step(a.row(n - 1), lam, lam.inverse(), v)
    assert [x - y * lam for x, y in zip(a.apply(w), w)] == v


KERNEL_ALGEBRAS = (
    QuaternionAlgebra(-1, -1),
    QuaternionAlgebra(-1, -3),
    QuaternionAlgebra(Fraction(-1, 2), Fraction(3, 5)),
    QuaternionAlgebra(1, 1),  # split: zero-norm pivots raise ZeroDivisor
)
KERNEL_COORDS = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 5)])


@props
@given(st.sampled_from(KERNEL_ALGEBRAS), st.integers(1, 3), st.booleans(), st.data())
def test_mat_solve_is_the_inverse_applied(alg, n, chains, data):
    # mat_solve eliminates [U | v] once; it must give mat_inverse(U).apply(v)
    # or raise what mat_inverse(U) raises, on U the Vandermonde matrix of
    # random nodes (the chain matrix of simple roots) or a random matrix
    quat = st.lists(KERNEL_COORDS, min_size=4, max_size=4).map(alg.element)
    if chains:
        u = vandermonde(data.draw(st.lists(quat, min_size=n, max_size=n)))
    else:
        u = DMatrix(n, n, data.draw(st.lists(quat, min_size=n * n, max_size=n * n)))
    v = data.draw(st.lists(quat, min_size=n, max_size=n))
    try:
        expected = mat_inverse(u).apply(v)
    except SkewrecError as exc:
        with pytest.raises(type(exc)):
            mat_solve(u, v)
    else:
        assert mat_solve(u, v) == expected


def test_mat_solve_makes_no_product_or_inverse_by_one(monkeypatch):
    # on [[1, 1], [lam, mu] | init] the pivot 1 is neither inverted nor
    # applied, the row factor 1 costs a difference and lam*1 is skipped:
    # what is left is lam*a_0, one inverse of mu - lam and one product by it
    from skewrec import algebra, scalar

    products, inverses = [], []
    quat_mul, inverse = algebra._quat_mul, scalar.IntValue.inverse
    monkeypatch.setattr(algebra, "_quat_mul", lambda *a: products.append(1) or quat_mul(*a))
    monkeypatch.setattr(scalar.IntValue, "inverse", lambda x: inverses.append(1) or inverse(x))
    lam, mu = H.element([1, 2, 0, -1]), H.element([Fraction(1, 2), 0, 3, 1])
    init = [H.element([0, 1, Fraction(1, 3), 0]), H.element([2, 0, -1, 1])]
    u = vandermonde([lam, mu])
    b = mat_solve(u, init)
    assert (len(products), len(inverses)) == (2, 1)
    assert b == mat_inverse(u).apply(init) and u.apply(b) == init


def chain_solve_on_coords(a, lam, v):
    """The flattened chain system A*w - w*lam = v, (n*m) x (n*m) on the
    coords() of its values, m the carrier's dimension, solved by
    solve_rational with free variables at 0."""
    carrier = lam.carrier
    basis = carrier.basis()
    m, n = len(basis), a.rows
    mat, rhs = [], []
    for i in range(n):
        cols = [a.entry(i, j) * b - (b * lam if i == j else carrier.zero())
                for j in range(n) for b in basis]
        for rr in range(m):
            mat.append([c.coords()[rr] for c in cols])
            rhs.append(v[i].coords()[rr])
    sol = solve_rational(mat, rhs)
    if sol is None:
        raise NoSolution("inconsistent")
    return [carrier.element(sol[j * m:(j + 1) * m]) for j in range(n)]


@props
@given(st.sampled_from(CHAIN_CARRIERS), st.integers(1, 4),
       st.sampled_from(["chain", "image", "random"]), st.integers(0, 2 ** 32))
def test_companion_step_is_the_flattened_chain_solve(carrier, n, kind, seed):
    # the m x m Schur system of a companion matrix gives the representative
    # of the flattened (n*m) x (n*m) system, or raises NoSolution with it;
    # lam is a root of p, repeated about half of the time, or random, and v
    # starts a chain (1, lam, ..., lam^(n-1)), is in the image, or is random
    rng = random.Random(seed)
    lam = rand_entry(rng, carrier)
    while lam.is_zero():
        lam = rand_entry(rng, carrier)
    if rng.random() < 0.8:
        p = LeftPoly.x_minus(lam)
        for _ in range(n - 1):
            p = LeftPoly.x_minus(lam if rng.random() < 0.5 else rand_entry(rng, carrier)) * p
    else:
        p = LeftPoly(carrier, [rand_entry(rng, carrier) for _ in range(n)] + [1])
    a = companion_matrix(p)
    if kind == "chain":
        v = lam.powers(n - 1)
    elif kind == "image":
        w0 = [rand_entry(rng, carrier) for _ in range(n)]
        v = [x - y * lam for x, y in zip(a.apply(w0), w0)]
    else:
        v = [rand_entry(rng, carrier) for _ in range(n)]
    try:
        expected = chain_solve_on_coords(a, lam, v)
    except NoSolution:
        with pytest.raises(NoSolution):
            _companion_step(a.row(n - 1), lam, lam.inverse(), v)
    else:
        assert _companion_step(a.row(n - 1), lam, lam.inverse(), v) == expected
