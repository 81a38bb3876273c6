"""Acceptance suite: one test per criterion, exact equality everywhere.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion together with its runtime.
"""

import random
import time
from fractions import Fraction

import pytest

from skewrec import (
    DMatrix,
    FieldContext,
    LeftPoly,
    OctonionAlgebra,
    QuaternionAlgebra,
    RecurrenceSpec,
    Singular,
    build_frame,
    companion_matrix,
    conj_class,
    eig_check,
    eval_closed_form,
    iterate_oracle,
    jordan_from_roots,
    jordan_matrix,
    mat_inverse,
    primitive_char_poly,
    solve,
    vandermonde,
    verify_closed_form,
)
from conftest import rand_invertible_quat, rand_oct, rand_quat, rand_quat_common_den

H = QuaternionAlgebra(-1, -1)
I, J, K = H.e1, H.e2, H.e3
O = OctonionAlgebra(-1, -1, -1)
OI = O.element([0, 1, 0, 0, 0, 0, 0, 0])
OJ = O.element([0, 0, 1, 0, 0, 0, 0, 0])
OK = O.element([0, 0, 0, 1, 0, 0, 0, 0])
L = O.ell0


@pytest.fixture(scope="module", autouse=True)
def whole_suite_budget():
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE total: {elapsed:.2f}s (budget 60s)")
    assert elapsed < 60.0


class criterion:
    """Prints one PASS/FAIL line per criterion and enforces its time budget."""

    def __init__(self, num, label, budget=None):
        self.num = num
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is not None:
            print(f"ACCEPTANCE {self.num} ({self.label}): FAIL after {elapsed:.2f}s")
            return False
        if self.budget is not None and elapsed >= self.budget:
            print(f"ACCEPTANCE {self.num} ({self.label}): FAIL "
                  f"({elapsed:.2f}s over the {self.budget}s budget)")
            raise AssertionError(f"criterion {self.num} exceeded its time budget")
        print(f"ACCEPTANCE {self.num} ({self.label}): PASS ({elapsed:.2f}s)")
        return False


def test_criterion_1_two_distinct_quaternion_roots():
    with criterion(1, "order-2 quaternion solve with two distinct roots", 1.0):
        spec = RecurrenceSpec(H, 2, (-1 - K, I), (1, 1))
        cf = solve(spec)
        assert [t.base for t in cf.terms] == [J, I + J]
        v = vandermonde([J, I + J])
        vinv = mat_inverse(v)
        assert vinv == DMatrix.from_rows([[1 - K, I], [K, -I]])
        # right coefficients forced by V^-1 (1,1)^T; the second is ij - i
        assert [t.right for t in cf.terms] == [1 + I - K, K - I]
        report = verify_closed_form(spec, cf, 64)
        assert report.ok


def test_criterion_2_repeated_root_quaternion():
    with criterion(2, "order-2 quaternion solve with a repeated root", 1.0):
        spec = RecurrenceSpec(H, 2, (K, I + J), (1, 0))
        a = companion_matrix(primitive_char_poly(spec))
        jd = jordan_from_roots(a, [(I, 2)])
        assert jordan_matrix(jd.blocks) == DMatrix.from_rows(
            [[I, H.one()], [H.zero(), I]])
        assert (jd.U * jordan_matrix(jd.blocks)) * jd.Uinv == a
        for inits in ((1, 0), (0, 1)):
            s = RecurrenceSpec(H, 2, (K, I + J), inits)
            assert verify_closed_form(s, solve(s), 64).ok
        # the reference transition matrix and its stated inverse agree
        u_ref = DMatrix.from_rows([[H.one(), -J / 2], [I, 1 + K / 2]])
        u_ref_inv = DMatrix.from_rows([
            [Fraction(3, 4) + K / 4, -I / 4 + J / 4],
            [-I / 2 + J / 2, Fraction(1, 2) - K / 2],
        ])
        ident = DMatrix.identity(2, H)
        assert u_ref * u_ref_inv == ident and u_ref_inv * u_ref == ident
        assert (u_ref * jordan_matrix(jd.blocks)) * u_ref_inv == a


def test_criterion_3_octonion_two_distinct_roots():
    with criterion(3, "order-2 octonion solve, distinct-class roots", 1.0):
        spec = RecurrenceSpec(O, 2, (-1 - OK, OI), (1, L))
        cf = solve(spec)
        seq = [spec.init[0], spec.init[1]]
        while len(seq) < 33:
            seq.append((-1 - OK) * seq[-2] + OI * seq[-1])
        pows = [O.one()] * 4
        bases = [OJ, OI + OJ, -OJ, OI - OJ]
        for n in range(33):
            known = (pows[0] * (1 - OK) + pows[1] * OK
                     + (OI * pows[2] - OI * pows[3]) * L)
            value = eval_closed_form(cf, n)
            assert value == known
            assert value == seq[n]
            pows = [pw * b for pw, b in zip(pows, bases)]


def test_criterion_4_octonion_repeated_root():
    with criterion(4, "order-2 octonion solve, repeated root", 1.0):
        spec = RecurrenceSpec(O, 2, (OK, OI + OJ), (1, L))
        cf = solve(spec)
        assert verify_closed_form(spec, cf, 32).ok
        degrees = [t.degree for t in cf.main.terms + cf.tail.terms]
        assert all(d <= 1 for d in degrees) and max(degrees) == 1


def test_criterion_5_golden_ratio():
    with criterion(5, "field promotion to Q(rt5) and the golden ratio", 1.0):
        spec = RecurrenceSpec(FieldContext.rational(), 2, (1, 1), (0, 1))
        cf = solve(spec)
        ctx = cf.carrier
        assert ctx.d == 5
        phi = ctx.element((Fraction(1, 2), Fraction(1, 2)))
        psi = ctx.element((Fraction(1, 2), Fraction(-1, 2)))
        by_base = {t.base: t.right for t in cf.terms}
        assert set(by_base) == {phi, psi}
        assert by_base[phi] == ctx.element((0, Fraction(1, 5)))
        assert by_base[psi] == ctx.element((0, Fraction(-1, 5)))
        expected = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
        assert [eval_closed_form(cf, n) for n in range(11)] == expected
        assert eval_closed_form(cf, 30) == 832040


def test_criterion_6_vandermonde_conjugacy_suite():
    with criterion(6, "Vandermonde invertibility across conjugacy classes", 10.0):
        try:
            mat_inverse(vandermonde([I, J, K]))
            raise AssertionError("V3(i,j,k) must be singular")
        except Singular:
            pass
        rng = random.Random(101)
        ident3 = DMatrix.identity(3, H)
        done = 0
        while done < 200:
            xs = [rand_quat(rng, H, 5, 2) for _ in range(3)]
            if len({hash(x) for x in xs}) < 3:
                continue
            classes = [conj_class(x) for x in xs]
            if classes[0] == classes[1] == classes[2]:
                continue
            v = vandermonde(xs)
            assert v * mat_inverse(v) == ident3
            done += 1
        ident2 = DMatrix.identity(2, H)
        done = 0
        while done < 500:
            x, y = rand_quat(rng, H, 5, 2), rand_quat(rng, H, 5, 2)
            if x == y:
                continue
            v = vandermonde([x, y])
            assert v * mat_inverse(v) == ident2
            done += 1


def test_criterion_7_randomized_solver_vs_iteration():
    with criterion(7, "200 randomized order-2 quaternion solves", 20.0):
        rng = random.Random(202)
        solved = 0

        def run(spec):
            nonlocal solved
            cf = solve(spec)
            assert verify_closed_form(spec, cf, 32).ok
            solved += 1

        # generic pairs: distinct conjugacy classes, the diagonalizable path
        while solved < 140:
            lam, mu = rand_quat(rng, H, 6, 2), rand_quat(rng, H, 6, 2)
            if lam.is_zero() or mu.is_zero():
                continue
            p = LeftPoly.x_minus(mu) * LeftPoly.x_minus(lam)
            if p.coeffs[0].is_zero():
                continue
            run(RecurrenceSpec(H, 2, (-p.coeffs[0], -p.coeffs[1]),
                               (rand_quat(rng, H), rand_quat(rng, H))))
        # conjugate factor pairs: the repeated-root path
        while solved < 170:
            lam = rand_quat(rng, H, 6, 2)
            if lam.is_central() or lam.norm().is_zero():
                continue
            g = rand_invertible_quat(rng, H, 4, 2)
            mu = (g * lam) * g.inverse()
            if mu == lam or mu == lam.conj():
                continue
            p = LeftPoly.x_minus(mu) * LeftPoly.x_minus(lam)
            run(RecurrenceSpec(H, 2, (-p.coeffs[0], -p.coeffs[1]),
                               (rand_quat(rng, H), rand_quat(rng, H))))
        # conjugate-root products: central polynomial, the Lucas form
        while solved < 200:
            lam = rand_quat_common_den(rng, H, 6, 2)
            if lam.is_central() or lam.norm().is_zero():
                continue
            p = LeftPoly.x_minus(lam.conj()) * LeftPoly.x_minus(lam)
            run(RecurrenceSpec(H, 2, (-p.coeffs[0], -p.coeffs[1]),
                               (rand_quat(rng, H), rand_quat(rng, H))))
        assert solved == 200


def test_criterion_8_octonion_identity_suite():
    with criterion(8, "octonion norm, alternativity and frame identities", 10.0):
        rng = random.Random(303)
        algebras = [O, OctonionAlgebra(-1, -1, -2), OctonionAlgebra(2, 3, -1)]
        pairs = 0
        for alg, count in zip(algebras, (700, 150, 150)):
            for _ in range(count):
                x, y = rand_oct(rng, alg, 3, 2), rand_oct(rng, alg, 3, 2)
                assert (x * y).norm() == x.norm() * y.norm()
                assert (x * x) * y == x * (x * y)
                assert (y * x) * x == y * (x * x)
                pairs += 1
        assert pairs == 1000
        frames = []
        while len(frames) < 3:
            fr = build_frame(O, rand_oct(rng, O), rand_oct(rng, O))
            if all((fr.u, fr.w, fr.ell) != (g.u, g.w, g.ell) for g in frames):
                frames.append(fr)
        for fr in frames:
            for _ in range(25):
                b = [[fr.join(rand_quat(rng, fr.quat, 3, 2), 0) for _ in range(2)]
                     for _ in range(2)]
                v = [fr.join(rand_quat(rng, fr.quat, 3, 2), 0) for _ in range(2)]
                lhs = [b[i][0] * (v[0] * fr.ell) + b[i][1] * (v[1] * fr.ell)
                       for i in range(2)]
                rhs = [(b[i][0].conj() * v[0].conj()
                        + b[i][1].conj() * v[1].conj()).conj() * fr.ell
                       for i in range(2)]
                assert lhs == rhs


def test_criterion_9_companion_left_eigenvectors():
    with criterion(9, "planted roots are left eigenvalues of the companion", 10.0):
        rng = random.Random(404)
        done = 0
        while done < 100:
            lam, mu = rand_quat(rng, H), rand_quat(rng, H)
            if lam.is_zero() or mu.is_zero():
                continue
            p = LeftPoly.x_minus(mu) * LeftPoly.x_minus(lam)
            a = companion_matrix(p)
            assert eig_check(a, lam, [H.one(), lam])
            done += 1
