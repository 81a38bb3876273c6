import ast
import contextlib
import copy
import dataclasses
import glob
import importlib
import os
import pickle
import random
import re
import subprocess
import sys
import time
import types
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from skewrec import (
    AssocForm,
    ConjClass,
    ContextMismatch,
    DegenerateFrame,
    DMatrix,
    FieldContext,
    InternalError,
    LeftPoly,
    LamViolation,
    NoRootsFound,
    OctSplitForm,
    OctonionAlgebra,
    QuaternionAlgebra,
    RecurrenceSpec,
    SingularU,
    SkewrecError,
    Term,
    UnsupportedOrder,
    ValidationError,
    ZeroDivisor,
    eval_closed_form,
    iterate_oracle,
    primitive_char_poly,
    quadratic_roots,
    solve,
    build_frame,
    companion_matrix,
    conj_class,
    jordan_from_roots,
    mat_inverse,
    vandermonde,
    verify_closed_form,
)
from skewrec import forms, matlin, scalar, solver
from skewrec.algebra import SubalgebraFrame
from skewrec.cli import parse_spec_file, render_closed_form, render_spec
from skewrec.matlin import mat_solve
from skewrec.forms import CompanionForm
from conftest import adjoin_root, fraction_mul, rand_oct, rand_quat, rand_quat_common_den

Q = FieldContext.rational()
H = QuaternionAlgebra(-1, -1)
I, J, K = H.e1, H.e2, H.e3
O = OctonionAlgebra(-1, -1, -1)
OI = O.element([0, 1, 0, 0, 0, 0, 0, 0])
OJ = O.element([0, 0, 1, 0, 0, 0, 0, 0])
OK = O.element([0, 0, 0, 1, 0, 0, 0, 0])
L = O.ell0

DIAG = RecurrenceSpec(H, 2, (-1 - K, I), (1, 1))
JORDAN = RecurrenceSpec(H, 2, (K, I + J), (1, 0))
FIB = RecurrenceSpec(Q, 2, (1, 1), (0, 1))


PUBLIC_NAMES = {
    # errors
    "ContextMismatch", "DegenerateFrame", "DimensionMismatch", "DivisionByZero",
    "InternalError", "LamViolation", "NoRootsFound", "NoSolution",
    "ParseError", "SingularU", "Singular", "SkewrecError", "UnsupportedDegree",
    "UnsupportedOrder", "ValidationError", "ZeroDivisor",
    # scalar
    "FieldContext", "ScalarValue",
    # algebra: the carriers and their values, and build_frame of the search
    "OctValue", "OctonionAlgebra", "QuatValue", "QuaternionAlgebra", "build_frame",
    # poly: the search's polynomials, roots and conjugacy-class labels
    "ConjClass", "LeftPoly", "companion_poly", "conj_class", "divide_by_linear",
    "factor_central_quartic", "quadratic_roots",
    # matlin
    "DMatrix", "companion_matrix", "eig_check", "jordan_from_roots", "jordan_matrix",
    "mat_inverse", "vandermonde",
    # forms: the spec and the form kinds; solver: solve is the one public way
    # to a closed form
    "AssocForm", "CompanionForm", "OctSplitForm", "RecurrenceSpec", "Term", "eval_closed_form",
    "iterate_oracle", "primitive_char_poly", "solve", "verify_closed_form",
}


def test_public_names_are_the_listed_exports():
    # an export changes only on purpose: the list is edited with it
    import skewrec
    names = {n for n, v in vars(skewrec).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert len(PUBLIC_NAMES) == 47
    assert names == PUBLIC_NAMES
    # every form kind solve returns can be imported, CompanionForm included
    path = os.path.join(os.path.dirname(__file__), "..", "demos", "specs", "spherical.rec")
    with open(path, encoding="utf-8") as fh:
        assert isinstance(solve(parse_spec_file(fh.read())), skewrec.CompanionForm)


def test_import_loads_only_the_standard_library_and_the_package():
    # the package has no runtime dependency (pyproject's dependencies = []):
    # sympy and hypothesis stay on the test side
    import skewrec
    code = ("import sys; before = set(sys.modules); import skewrec; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(skewrec.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert "skewrec.solver" in out
    assert [m for m in out if m.partition(".")[0] not in sys.stdlib_module_names | {"skewrec"}] == []


TRUSTED = {"forms", "scalar", "algebra", "errors"}


def _package_imports(tree) -> set:
    """The skewrec modules that a module's code imports, at any depth."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:  # from .x import y, from . import x
            out |= {node.module.partition(".")[0]} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.partition(".")[0] == "skewrec":
            out |= {node.module.partition(".")[2] or "__init__"}
        elif isinstance(node, ast.Import):
            out |= {a.name.partition(".")[2] or "__init__" for a in node.names
                    if a.name.partition(".")[0] == "skewrec"}
    return out


def test_the_trusted_checker_imports_none_of_the_search():
    # the certificate (forms) and its import closure, scalar, algebra and
    # errors, import nothing from poly, matlin, solver or cli, not even
    # inside a function: a form is proved by these four modules alone
    import skewrec
    src = os.path.dirname(skewrec.__file__)
    for name in sorted(TRUSTED):
        with open(os.path.join(src, name + ".py"), encoding="utf-8") as fh:
            imported = _package_imports(ast.parse(fh.read()))
        assert imported <= TRUSTED, (name, imported - TRUSTED)


# The trusted functions that the checker's three jobs never run on the forms
# of test_the_checker_reaches_every_trusted_function_but_the_listed_ones,
# each kept trusted for its reason.
UNREACHED = {
    # construction: specs, terms, forms, carriers and frames are built
    # before the checker sees them
    "forms.RecurrenceSpec.__post_init__", "forms._checked_multiplicities",
    "forms.Term.__post_init__", "forms.AssocForm.__post_init__",
    "forms._term_order", "forms._term_order.<locals>.key",
    "forms.CompanionForm.__post_init__",
    "algebra.OctonionAlgebra.__init__", "algebra.QuaternionAlgebra.__init__",
    "algebra.QuaternionAlgebra.key", "scalar.FieldContext.__init__",
    "algebra.SubalgebraFrame.__post_init__", "algebra._frame_basis",
    "scalar.squarefree_split", "scalar._from_ratios", "scalar.Carrier.element",
    # the reader, which a form read back from its text will need
    "scalar.Carrier.read", "scalar.FieldContext.read", "scalar._read_int", "scalar._read_rat",
    "errors.ParseError.__init__",
    # the value and carrier API
    "scalar.IntValue.inverse", "scalar.IntValue.powers", "scalar.IntValue.pure",
    "scalar.IntValue.coords", "scalar.IntValue.__bool__", "scalar.IntValue.__hash__",
    "scalar.IntValue.__pow__", "scalar.IntValue.__rsub__", "scalar.IntValue.__truediv__",
    "scalar.IntValue.__rmul__", "scalar.IntValue.scalar_part",
    "scalar.ScalarValue.__truediv__", "scalar.Carrier.basis", "scalar.Carrier.__hash__",
    "scalar.FieldContext.rational", "scalar.FieldContext.__repr__",
    "algebra.QuaternionAlgebra.e1", "algebra.QuaternionAlgebra.e2",
    "algebra.QuaternionAlgebra.e3", "algebra.QuaternionAlgebra.__repr__",
    "algebra.OctValue.__hash__", "algebra.OctonionAlgebra.embed", "algebra.OctonionAlgebra.ell0",
    "algebra.OctonionAlgebra.key", "algebra.OctonionAlgebra.__repr__", "algebra._conj4",
    # Pollard rho: _PowerReducer factors s with it, and every s here has
    # only prime factors up to 41, which _factor divides out first
    "scalar._rho_factor",
    # search code that bench/run.py times under skewrec.algebra
    "algebra.build_frame", "algebra._orthogonalize", "algebra.spherical_representative",
}


def _trusted_functions() -> dict:
    """{(file, name, first line): "module.qualname"} for every function and
    method defined in the source of the trusted modules, nested ones too,
    keyed as its code object is: a decorated function's code starts at its
    first decorator.  The methods that dataclass generates have no source
    there."""
    out = {}
    for name in TRUSTED:
        path = importlib.import_module("skewrec." + name).__file__
        with open(path, encoding="utf-8") as fh:
            todo = [(ast.parse(fh.read()), name + ".")]
        while todo:
            node, prefix = todo.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.FunctionDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(path, child.name, first)] = prefix + child.name
                    todo.append((child, prefix + child.name + ".<locals>."))
                else:
                    inner = prefix + child.name + "." if isinstance(child, ast.ClassDef) else prefix
                    todo.append((child, inner))
    return out


def test_the_checker_reaches_every_trusted_function_but_the_listed_ones():
    # the trusted base holds what the checker runs: its three jobs, the
    # certificate, the first value(k) and the text, reach every function of
    # the four modules on the forms of the demo specs, the certificate specs
    # and the census's Q grids, except the listed ones; a listed function
    # that the checker does reach fails too, so the list cannot go stale
    import census
    specs = []
    for path in DEMO_SPECS:
        with open(path, encoding="utf-8") as fh:
            specs.append(parse_spec_file(fh.read()))
    specs += _certificate_specs()
    for _title, carrier, rhs_tuples, init in census.grids():
        if carrier == Q:
            specs += [RecurrenceSpec(Q, len(init), rhs, init) for rhs in rhs_tuples if rhs[0]]
    solved = []
    for spec in specs:
        with contextlib.suppress(SkewrecError):
            solved.append((spec, solve(spec)))
    ks = (0, 1, 5, 40, 1000)
    fresh = [[copy.copy(cf) for _ in ks] for _, cf in solved]
    for cf in (c for copies in fresh for c in copies):
        cf.__dict__.pop("_lucas", None)  # each value(k) is its copy's first
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_name, code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for (spec, cf), copies in zip(solved, fresh):
            cf._certify(spec)
            for k, c in zip(ks, copies):
                c.value(k)
            cf._lines()
    finally:
        sys.setprofile(previous)
    assert len(solved) == 79
    unreached = {q for key, q in _trusted_functions().items() if key not in reached}
    assert unreached == UNREACHED


def test_primitive_char_poly():
    assert primitive_char_poly(DIAG) == LeftPoly(H, [1 + K, -I, 1])
    assert primitive_char_poly(FIB) == LeftPoly(Q, [-1, -1, 1])
    spec = RecurrenceSpec(H, 1, (J,), (1,))
    assert primitive_char_poly(spec) == LeftPoly(H, [-J, 1])


def test_spec_validation():
    with pytest.raises(ValidationError):
        RecurrenceSpec(H, 2, (H.zero(), I), (1, 1))  # rhs[0] = 0
    with pytest.raises(ValidationError):
        RecurrenceSpec(H, 2, (I,), (1, 1))  # arity
    # every recurrence is a spec, and the search declines what it cannot
    # solve before any path runs: central rhs would reach the quaternion
    # order message, non-central ones build_frame with three coefficients
    for spec in (RecurrenceSpec(O, 3, (L, L, L), (1, 1, 1)),
                 RecurrenceSpec(O, 3, (1, 1, 1), (1, L, OI)),
                 RecurrenceSpec(O, 1, (OI,), (L,))):
        with pytest.raises(UnsupportedOrder, match="^octonion recurrences are solved at order 2 only$"):
            solve(spec)
    for spec in (RecurrenceSpec(O, 2, (L, L), (1, 1), roots=((L, 1), (L, 1))),
                 RecurrenceSpec(O, 2, (-1, 2), (1, L), roots=((1, 2),))):
        with pytest.raises(ValidationError, match="^user roots are not accepted for octonion specs$"):
            solve(spec)


def test_an_order_3_octonion_spec_is_a_spec_that_renders_and_iterates():
    spec = RecurrenceSpec(O, 3, (OI + L, Fraction(1, 2) * OJ, 2 - OK), (1, L, OI - Fraction(1, 3)))
    assert parse_spec_file(render_spec(spec)) == spec
    window = [list(v.coords()) for v in spec.init]
    rhs = [list(r.coords()) for r in spec.rhs]
    for k in range(21):
        assert iterate_oracle(spec, k) == O.element(window[0])
        nxt = [Fraction(0)] * 8
        for r, a in zip(rhs, window):
            nxt = [x + y for x, y in zip(nxt, fraction_mul(O, r, a))]
        window = window[1:] + [nxt]


@pytest.mark.parametrize("alg, rhs", [
    (QuaternionAlgebra(-1, -1), (OctonionAlgebra(-1, -1, -1).one(), 1)),
    (FieldContext.rational(), (QuaternionAlgebra(-1, -1).e1,)),
], ids=["octonion in a quaternion spec", "quaternion in a field spec"])
def test_spec_rejects_values_of_another_algebra(alg, rhs):
    with pytest.raises(ContextMismatch):
        RecurrenceSpec(alg, len(rhs), rhs, (1,) * len(rhs))


def test_spec_rejects_an_algebra_that_is_no_carrier():
    with pytest.raises(TypeError):
        RecurrenceSpec("quaternion -1 -1", 1, (1,), (1,))


def test_a_value_that_is_no_number_is_a_validation_error():
    # a SkewrecError, which the CLI and other callers catch, not a TypeError
    for call in (lambda: H.coerce("x"),
                 lambda: RecurrenceSpec(H, 2, (-4, 4), (1, 2), roots=(("x", 2),)),
                 lambda: jordan_from_roots(companion_matrix(LeftPoly(H, [4, -4, 1])), [("2", 2)])):
        with pytest.raises(ValidationError, match="^cannot interpret '.' as a scalar$"):
            call()


@pytest.mark.parametrize("spec", [DIAG, RecurrenceSpec(O, 2, (-1 - OK, OI), (1, L))],
                         ids=["AssocForm", "OctSplitForm"])
def test_value_rejects_negative_k(spec):
    cf = solve(spec)
    for k in (-1, -1025):
        with pytest.raises(ValueError, match="nonnegative"):
            cf.value(k)
        with pytest.raises(ValueError, match="nonnegative"):
            eval_closed_form(cf, k)


def test_iteration_rejects_a_negative_k():
    with pytest.raises(ValueError, match="^k must be nonnegative$"):
        iterate_oracle(FIB, -1)
    with pytest.raises(ValueError, match="^kmax must be nonnegative$"):
        verify_closed_form(FIB, solve(FIB), -1)


def test_iterate_oracle():
    assert iterate_oracle(FIB, 10) == 55
    assert iterate_oracle(FIB, 0) == 0 and iterate_oracle(FIB, 1) == 1
    assert iterate_oracle(DIAG, 2) == -1 + I - K
    assert iterate_oracle(DIAG, 0) == 1


F = Fraction
# one spec with fractional coefficients and initial values per carrier, as
# (carrier, rhs, init) coordinate lists; (1,1) has the zero divisor
# (1 + e1)/2 as its rhs[0]
ORACLE_SPECS = {
    "Q": (Q, [[F(3, 2)], [F(-1, 3)], [F(5, 4)]], [[F(1, 2)], [-2], [F(7, 3)]]),
    "(-1,-1)": (H, [[F(1, 2), 0, 1, F(-1, 3)], [2, F(1, 3), 0, 1], [-1, 1, F(1, 2), 0]],
                [[1, 0, 0, F(1, 2)], [0, F(2, 3), 1, 0], [F(-1, 2), 1, 1, 1]]),
    "(-1/2,3/5)": (QuaternionAlgebra(F(-1, 2), F(3, 5)), [[F(1, 3), 1, -1, 0], [1, F(1, 2), 0, 2]],
                   [[1, F(1, 7), 0, 0], [0, 0, 1, F(-1, 2)]]),
    "(1,1)": (QuaternionAlgebra(1, 1), [[F(1, 2), F(1, 2), 0, 0], [1, F(-2, 3), F(1, 5), 3]],
              [[1, 0, F(1, 3), 0], [0, 1, 0, F(-1, 4)]]),
    "(-1,-1,-1)": (O, [[F(1, 2), 0, 1, 0, 0, -1, 0, F(1, 3)], [1, 1, 0, 0, F(1, 2), 0, 0, 0]],
                   [[1, 0, F(-1, 2), 0, 0, 0, 2, 0], [0, F(1, 3), 0, 1, 0, 0, 0, -1]]),
    "(1,1,1)": (OctonionAlgebra(1, 1, 1), [[F(2, 3), 0, 0, 1, F(-1, 2), 0, 0, 0],
                                           [0, 1, F(1, 4), 0, 0, 0, 1, 0]],
                [[0, 1, 0, 0, F(1, 5), 0, 0, 1], [1, 0, 0, F(-1, 3), 0, 2, 0, 0]]),
}


@pytest.mark.parametrize("name", ORACLE_SPECS)
def test_iterate_oracle_matches_a_fraction_iteration(name):
    # an independent forward iteration on Fraction coordinates, its products
    # written out from the carrier's a, b and gamma (`conftest.fraction_mul`)
    alg, rhs, init = ORACLE_SPECS[name]
    n = len(rhs)
    spec = RecurrenceSpec(alg, n, tuple(map(alg.element, rhs)), tuple(map(alg.element, init)))
    window = [[F(c) for c in a] for a in init]
    for _ in range(301 - n):
        terms = [fraction_mul(alg, r, a) for r, a in zip(rhs, window)]
        window = window[1:] + [[sum(cs) for cs in zip(*terms)]]
    a300 = iterate_oracle(spec, 300)
    assert a300.coords() == window[-1]
    assert a300.den.bit_length() > 64


def test_promote_golden_ratio():
    cf = solver._propose(FIB)
    ctx = cf.carrier
    assert ctx.d == 5
    polys = {t.base: len(t.poly) for t in cf.terms}
    assert polys == {ctx.element((Fraction(1, 2), Fraction(1, 2))): 1,
                     ctx.element((Fraction(1, 2), Fraction(-1, 2))): 1}


def test_promote_rational_and_repeated():
    spec = RecurrenceSpec(Q, 2, (-2, 3), (0, 1))  # x^2 - 3x + 2
    cf = solver._propose(spec)
    assert cf.carrier == Q
    assert {t.base for t in cf.terms} == {Q.scalar(2), Q.scalar(1)} and len(cf.terms) == 2
    spec = RecurrenceSpec(Q, 2, (-1, 2), (1, 5))  # x^2 - 2x + 1
    cf = solver._propose(spec)
    # one chain of the double root 1: a constant term and a linear one
    assert sorted((t.base, len(t.poly)) for t in cf.terms) == [(Q.scalar(1), 1), (Q.scalar(1), 2)]


def test_promote_negative_discriminant():
    spec = RecurrenceSpec(Q, 2, (-1, 0), (0, 1))  # x^2 + 1
    with pytest.raises(NoRootsFound):
        solver._propose(spec)


def test_promote_inside_quadratic_context():
    ctx = FieldContext(5)
    # x^2 - x - 1 splits over Q(rt5) without further promotion
    spec = RecurrenceSpec(ctx, 2, (1, 1), (0, 1))
    cf = solver._propose(spec)
    assert cf.carrier == ctx
    assert ctx.element((Fraction(1, 2), Fraction(1, 2))) in [t.base for t in cf.terms]
    # x^2 - 3x + 1 has discriminant 5, a square in Q(rt5)
    spec = RecurrenceSpec(ctx, 2, (-1, 3), (0, 1))
    assert verify_closed_form(spec, solve(spec), 20).ok
    # x^2 - x - 7 has discriminant 29; no further extension is attempted
    with pytest.raises(NoRootsFound):
        solver._propose(RecurrenceSpec(ctx, 2, (7, 1), (0, 1)))


def test_solve_two_distinct_roots():
    cf = solve(DIAG)
    assert isinstance(cf, AssocForm)
    assert [t.base for t in cf.terms] == [J, I + J]
    assert [t.right for t in cf.terms] == [1 + I - K, K - I]
    assert verify_closed_form(DIAG, cf, 64).ok


def test_solve_repeated_root():
    cf = solve(JORDAN)
    degrees = sorted(t.degree for t in cf.terms)
    assert degrees == [0, 1]
    assert all(t.base == I for t in cf.terms)
    assert verify_closed_form(JORDAN, cf, 64).ok
    other = RecurrenceSpec(H, 2, (K, I + J), (0, 1))
    assert verify_closed_form(other, solve(other), 64).ok


def test_simple_roots_solve_through_the_vandermonde_matrix():
    # 1x1 Jordan blocks: U is the Vandermonde matrix, every term is
    # lam**k * b_i with b = V^-1 * init
    roots = [J, I + J]
    cf = solve(dataclasses.replace(DIAG, roots=[(r, 1) for r in roots]))
    b = mat_inverse(vandermonde(roots)).apply(list(DIAG.init))
    assert [(t.poly, t.base, t.right) for t in cf.terms] == [
        ((H.one(),), lam, bi) for lam, bi in zip(roots, b)]
    assert cf == solve(DIAG)


def test_solve_spherical():
    # x^2 + 1 and x^2 - x + 1 are central with no rational root: every
    # element of their class is a root, and the spec takes the Lucas form
    for rhs, init, t, n in (((-1, 0), (H.one(), K), 0, 1), ((-1, 1), (I, J), 1, 1)):
        spec = RecurrenceSpec(H, 2, rhs, init)
        cf = solve(spec)
        assert cf == CompanionForm(H, (Q.scalar(n), Q.scalar(-t)), init)
        assert verify_closed_form(spec, cf, 32).ok


def test_a_companion_form_takes_only_a_rational_c():
    # C enters by the carrier field's scalar, the values by the carrier's
    # coerce: the evaluator's proof checks k < deg C only, which proves a
    # rational C alone, so C = (2 + i, -2) or (-1, -rt5) would otherwise
    # evaluate other values than the form's own
    Q5 = FieldContext(5)
    with pytest.raises(ValidationError, match=re.escape("cannot interpret [2,1,0,0] as a scalar")):
        CompanionForm(H, (2 + I, -2), (1, I))
    with pytest.raises(ContextMismatch, match=re.escape("0-1*rt is not rational")):
        CompanionForm(Q5, (-1, -Q5.element((0, 1))), (0, 1))
    # an int C and int values, as _annihilates allows, give solve's form
    spec = RecurrenceSpec(H, 2, (-2, 1), (1, 2))
    cf = CompanionForm(H, (2, -1), (1, 2))
    assert cf == solve(spec)
    cf._certify(spec)
    assert [cf.value(k) for k in (0, 1, 2, 3, 40)] == [iterate_oracle(spec, k) for k in (0, 1, 2, 3, 40)]


def test_a_term_form_takes_only_values_of_its_carrier():
    # a value of another carrier raises at construction: taken as given,
    # the first form was certified for a_(k+1) = 2*a_k and gave a_3 = 2, and
    # the second was certified and raised ContextMismatch at its value(1)
    with pytest.raises(ContextMismatch, match=re.escape("value from (-1,-1 | Q) used in Q")):
        AssocForm(Q, (Term((Q.one(),), H.scalar(2) + I, Q.one()),))
    H23 = QuaternionAlgebra(-2, -3)
    with pytest.raises(ContextMismatch, match=re.escape("value from (-2,-3 | Q) used in (-1,-1 | Q)")):
        AssocForm(H, (Term((H.one(),), H23.e1, H.one()),))
    # ints and rationals enter by the carrier's coerce: solve's form
    term = Term((1,), I, 1)
    assert term.degree == 0 and Term((0, Fraction(1, 2), 0), I, 1).degree == 1
    spec = RecurrenceSpec(H, 1, (I,), (1,))
    cf = AssocForm(H, (term,))
    assert cf == solve(spec)
    cf._certify(spec)
    assert [cf.value(k) for k in range(6)] == [iterate_oracle(spec, k) for k in range(6)]


def test_forms_and_terms_hold_tuples():
    # terms given as a list and a poly given as a list are kept as tuples,
    # so the form equals the one built from tuples, and both hash
    t = Term((H.one(),), I, H.one())
    assert AssocForm(H, [t]) == AssocForm(H, (t,))
    assert hash(AssocForm(H, [t])) == hash(AssocForm(H, (t,)))
    assert hash(Term([H.one()], I, H.one())) == hash(t)


def test_a_bool_is_no_integer_in_a_spec():
    # render_spec would print "order True", which parse_spec_file rejects
    with pytest.raises(ValidationError, match="^order must be a positive integer$"):
        RecurrenceSpec(H, True, (I,), (1,))
    with pytest.raises(ValidationError, match="^root multiplicities must be integers$"):
        RecurrenceSpec(Q, 1, (2,), (1,), roots=((2, True),))


def test_solve_field_paths():
    cf = solve(FIB)
    assert eval_closed_form(cf, 30) == 832040
    spec = RecurrenceSpec(Q, 2, (-1, 2), (1, 5))
    cf = solve(spec)
    assert verify_closed_form(spec, cf, 32).ok
    assert sorted(t.degree for t in cf.terms) == [0, 1]


def test_solve_order_one():
    spec = RecurrenceSpec(H, 1, (I,), (1 + J,))
    cf = solve(spec)
    assert len(cf.terms) == 1 and cf.terms[0].base == I
    assert verify_closed_form(spec, cf, 20).ok


def test_solve_order_three_with_user_roots():
    lams = [I, 1 + J, H.scalar(2)]
    p = LeftPoly.x_minus(lams[0])
    p = adjoin_root(p, lams[1])
    p = adjoin_root(p, lams[2])
    spec = RecurrenceSpec(H, 3, tuple(-c for c in p.coeffs[:3]), (1, I, J),
                          roots=tuple((lam, 1) for lam in lams))
    cf = solve(spec)
    assert verify_closed_form(spec, cf, 24).ok


def test_solve_field_jordan_order_three_with_user_roots():
    p = LeftPoly(Q, [-2, 5, -4, 1])  # (x-1)^2 (x-2)
    spec = RecurrenceSpec(Q, 3, tuple(-c for c in p.coeffs[:3]), (3, 1, 4),
                          roots=((1, 2), (2, 1)))
    cf = solve(spec)
    assert verify_closed_form(spec, cf, 24).ok


def test_solve_requires_roots_for_high_order():
    with pytest.raises(UnsupportedOrder):
        solve(RecurrenceSpec(Q, 3, (1, 1, 1), (0, 0, 1)))
    with pytest.raises(UnsupportedOrder):
        solve(RecurrenceSpec(H, 3, (I, J, K), (1, 0, 0)))


def test_solve_rejects_wrong_user_roots():
    for roots, why in ((((I, 1), (J, 1)), "not a root"),
                       (((J, 1),), "must sum to the order 2"),
                       (((J, 1), (I + J, 2)), "must sum to the order 2"),
                       (((J, 1), (J, 1)), "pairwise distinct")):
        with pytest.raises(ValidationError, match=why):
            solve(RecurrenceSpec(H, 2, (-1 - K, I), (1, 1), roots=roots))


@pytest.mark.parametrize("roots", [((I, 1.9), (J, "1")), ((I, Fraction(1)), (J, 1)),
                                   ((I, 2.0),), ((I, 0), (J, 2))])
def test_root_multiplicities_must_be_ints_of_at_least_one(roots):
    # a multiplicity is never truncated: 1.9 is no simple root
    why = "must be >= 1" if roots[0][1] == 0 else "must be integers"
    with pytest.raises(ValidationError, match=why):
        RecurrenceSpec(H, 2, (-1 - K, I), (1, 1), roots=roots)


def test_solve_builds_no_class_labels(monkeypatch):
    # quadratic_roots returns (root, multiplicity) pairs without labels, so
    # no ConjClass is built on the distinct-root or on the Jordan path;
    # conj_class labels a root
    built = []
    monkeypatch.setattr("skewrec.poly.ConjClass",
                        lambda t, n: built.append((t, n)) or ConjClass(t, n))
    distinct = LeftPoly.x_minus(1 + J) * LeftPoly.x_minus(I)
    jordan = LeftPoly(H, [-K, -(I + J), 1])  # (x - j)(x - i): i twice
    for p, mults in ((distinct, [1, 1]), (jordan, [2])):
        roots = quadratic_roots(p)
        assert I in [lam for lam, _ in roots] and [m for _, m in roots] == mults
        cf = solve(RecurrenceSpec(H, 2, (-p.coeffs[0], -p.coeffs[1]), (1, J)))
        assert {t.base for t in cf.terms} == {lam for lam, _ in roots}
    assert not built
    assert quadratic_roots(jordan) == ((I, 2),) and not built
    assert conj_class(I) == ConjClass(I.trace(), I.norm()) and len(built) == 1


def test_lam_violation():
    y = H.element([0, Fraction(3, 5), Fraction(4, 5), 0])
    spec = RecurrenceSpec(H, 3, (I, -1, I), (1, 0, 0),
                          roots=((I, 1), (J, 1), (y, 1)))
    with pytest.raises(LamViolation):
        solve(spec)


def test_derived_roots_are_covered_by_the_certificate(monkeypatch):
    # roots found by quadratic_roots skip the search step's checks for user
    # roots, so a wrong one must still be caught, by _certify
    wrong = ((I, 1), (J, 1))  # not roots of DIAG's polynomial
    monkeypatch.setattr("skewrec.solver.quadratic_roots", lambda *args: wrong)
    with pytest.raises(InternalError, match="certificate failed"):
        solve(DIAG)


def test_planted_roots_with_large_denominators_solve_in_time():
    # roots with coordinates n/d, |n| <= 10, d <= 100: the companion quartic
    # has 51-bit coefficients, and scaled to integers 199-bit ones; its
    # resolvent cubic has a 310-bit constant term, far beyond a divisor search
    rng = random.Random(5)
    lam, mu = (H.element([Fraction(rng.randint(-10, 10), rng.randint(1, 100))
                          for _ in range(4)]) for _ in range(2))
    p = LeftPoly.x_minus(mu) * LeftPoly.x_minus(lam)
    spec = RecurrenceSpec(H, 2, (-p.coeffs[0], -p.coeffs[1]), (1, J))
    t0 = time.perf_counter()
    cf = solve(spec)
    assert time.perf_counter() - t0 < 1.0
    assert verify_closed_form(spec, cf, 16).ok
    roots = [r for r, _ in quadratic_roots(p)]
    assert lam in roots and len(roots) == 2 and all(p.eval(r).is_zero() for r in roots)


def test_no_roots_found():
    with pytest.raises(NoRootsFound):
        solve(RecurrenceSpec(H, 2, (I, 0), (1, 1)))


def test_a_single_isolated_root_is_no_closed_form():
    # in the split algebra (1,1), the classes of C_p yield one root, of
    # class (3/2, -2); its cofactor, a zero divisor of class (1/2, 0), is
    # no root C_p's factors find, so there is neither a pair nor a Jordan root
    S = QuaternionAlgebra(1, 1)
    spec = RecurrenceSpec(S, 2, (S.element([-1, 1, -1, 1]), S.element([1, Fraction(1, 2), 2, 0])),
                          (S.element([0, 1, Fraction(-1, 2), -2]), S.element([-1, 2, 1, 0])))
    lone = ("^a single isolated root without repeated-root structure cannot determine an "
            "order-2 closed form$")
    with pytest.raises(NoRootsFound, match=lone):
        solve(spec)
    # the central root 2 of (x - (2 + n))(x - 2), n = e1 + e3 nilpotent, and
    # its cofactor 2 + n share the label (4, 4), but no chain of 2 has a
    # second vector: a central root's cofactor is its Jordan partner only if
    # central too
    nilpotent = S.e1 + S.e3
    p = LeftPoly.x_minus(2 + nilpotent) * LeftPoly.x_minus(S.scalar(2))
    assert conj_class(2 + nilpotent) == conj_class(S.scalar(2))
    with pytest.raises(NoRootsFound, match=lone):
        solve(RecurrenceSpec(S, 2, (-p.coeffs[0], -p.coeffs[1]), (1, S.e2)))


def test_octonion_two_distinct_roots():
    spec = RecurrenceSpec(O, 2, (-1 - OK, OI), (1, L))
    cf = solve(spec)
    assert isinstance(cf, OctSplitForm)
    assert len(cf.main.terms) == 2 and len(cf.tail.terms) == 2
    assert all(t.degree == 0 for t in cf.main.terms + cf.tail.terms)
    assert verify_closed_form(spec, cf, 32).ok
    for n in range(33):
        known = ((OJ ** n) * (1 - OK) + ((OI + OJ) ** n) * OK
                 + (OI * ((-OJ) ** n) - OI * ((OI - OJ) ** n)) * L)
        assert eval_closed_form(cf, n) == known


def test_octonion_repeated_root():
    spec = RecurrenceSpec(O, 2, (OK, OI + OJ), (1, L))
    cf = solve(spec)
    assert verify_closed_form(spec, cf, 32).ok
    degrees = [t.degree for t in cf.main.terms + cf.tail.terms]
    assert max(degrees) == 1 and all(d <= 1 for d in degrees)


def test_octonion_central_coefficients():
    # rational roots 1 and 2: their terms in the octonion carrier, no frame
    spec = RecurrenceSpec(O, 2, (-2, 3), (1, L))
    cf = solve(spec)
    assert isinstance(cf, AssocForm) and cf.carrier == O
    assert {t.base for t in cf.terms} == {O.one(), O.scalar(2)}
    assert verify_closed_form(spec, cf, 32).ok
    # x^2 + 1, x^2 - 2x + 5 (class (2, 5)) and x^2 + 3x - 2, whose class of
    # trace -3 and norm -2 is empty in a definite algebra: no rational
    # root, so each takes the Lucas form
    for rhs, init in (((-1, 0), (1, L)), ((-5, 2), (OI, L)), ((2, -3), (OI, L))):
        spec = RecurrenceSpec(O, 2, rhs, init)
        cf = solve(spec)
        assert cf == CompanionForm(O, (Q.scalar(-rhs[0]), Q.scalar(-rhs[1])), spec.init)
        assert verify_closed_form(spec, cf, 32).ok


@pytest.mark.parametrize("alg", [H, O])
def test_a_spec_with_one_central_coefficient_takes_the_root_search(alg):
    # rhs[0] = -2 is central and rhs[1] = -i is not: chi is not in Q[x], and
    # the scalar parts' discriminant -8 says nothing about its roots
    e = alg.basis()
    spec = RecurrenceSpec(alg, 2, (-2, -e[1]), (1, e[2]))
    cf = solve(spec)
    assert not isinstance(cf, CompanionForm)
    assert verify_closed_form(spec, cf, 16).ok


def test_a_non_central_octonion_term_form_is_refused_by_the_certificate():
    # lam = i is a root of chi for rhs (i*i - j*i, j), and the term
    # lam**k * l has the spec's a_0 and a_1; the term proof regroups
    # j*(i*l) as (j*i)*l, which octonions do not allow, and a_2 is wrong
    spec = RecurrenceSpec(O, 2, (OI * OI - OJ * OI, OJ), (L, OI * L))
    form = AssocForm(O, (Term((O.one(),), OI, L),))
    assert verify_closed_form(spec, form, 8).first_failure == 2
    with pytest.raises(InternalError, match=re.escape(
            "certificate failed: (-1,-1,-1 | Q) does not associate, and the terms are proved "
            "only with central rhs, bases and poly coefficients")):
        form._certify(spec)


def test_closed_form_reproduces_initials():
    rng = random.Random(3)
    for _ in range(20):
        lam, mu = rand_quat(rng, H), rand_quat(rng, H)
        if lam.is_zero() or mu.is_zero():
            continue
        p = LeftPoly.x_minus(mu) * LeftPoly.x_minus(lam)
        inits = (rand_quat(rng, H), rand_quat(rng, H))
        spec = RecurrenceSpec(H, 2, (-p.coeffs[0], -p.coeffs[1]), inits)
        cf = solve(spec)
        assert eval_closed_form(cf, 0) == inits[0]
        assert eval_closed_form(cf, 1) == inits[1]


def test_verify_detects_perturbation():
    cf = solve(DIAG)
    bad_terms = (Term(cf.terms[0].poly, cf.terms[0].base, cf.terms[0].right + 1),
                 cf.terms[1])
    bad = AssocForm(cf.carrier, bad_terms)
    report = verify_closed_form(DIAG, bad, 16)
    assert not report.ok and report.first_failure is not None
    assert report.first_failure < DIAG.order
    assert verify_closed_form(DIAG, cf, 0).ok  # kmax=0 checks only a_0


def test_shift_property():
    rng = random.Random(5)
    for _ in range(15):
        lam, mu = rand_quat(rng, H), rand_quat(rng, H)
        if lam.is_zero() or mu.is_zero():
            continue
        p = LeftPoly.x_minus(mu) * LeftPoly.x_minus(lam)
        rhs = (-p.coeffs[0], -p.coeffs[1])
        inits = (rand_quat(rng, H), rand_quat(rng, H))
        spec = RecurrenceSpec(H, 2, rhs, inits)
        shifted = RecurrenceSpec(H, 2, rhs,
                                 (iterate_oracle(spec, 1), iterate_oracle(spec, 2)))
        cf, cf_shift = solve(spec), solve(shifted)
        for k in range(17):
            assert eval_closed_form(cf_shift, k) == eval_closed_form(cf, k + 1)


def test_right_superposition():
    rng = random.Random(7)
    for _ in range(15):
        lam, mu = rand_quat(rng, H), rand_quat(rng, H)
        if lam.is_zero() or mu.is_zero():
            continue
        p = LeftPoly.x_minus(mu) * LeftPoly.x_minus(lam)
        rhs = (-p.coeffs[0], -p.coeffs[1])
        a = (rand_quat(rng, H), rand_quat(rng, H))
        b = (rand_quat(rng, H), rand_quat(rng, H))
        cf_a = solve(RecurrenceSpec(H, 2, rhs, a))
        cf_b = solve(RecurrenceSpec(H, 2, rhs, b))
        spec_sum = RecurrenceSpec(H, 2, rhs, (a[0] + b[0], a[1] + b[1]))
        assert [t.base for t in cf_a.terms] == [t.base for t in cf_b.terms]
        summed = AssocForm(H, tuple(
            Term(ta.poly, ta.base, ta.right + tb.right)
            for ta, tb in zip(cf_a.terms, cf_b.terms)))
        assert verify_closed_form(spec_sum, summed, 16).ok


def test_solver_verifies_against_oracle_randomized():
    rng = random.Random(11)
    done = 0
    while done < 40:
        lam, mu = rand_quat(rng, H), rand_quat(rng, H)
        if lam.is_zero() or mu.is_zero():
            continue
        p = LeftPoly.x_minus(mu) * LeftPoly.x_minus(lam)
        if p.coeffs[0].is_zero():
            continue
        spec = RecurrenceSpec(H, 2, (-p.coeffs[0], -p.coeffs[1]),
                              (rand_quat(rng, H), rand_quat(rng, H)))
        assert verify_closed_form(spec, solve(spec), 32).ok
        done += 1


# ---------------------------------------------------------------------------
# the all-k certificate that solve runs instead of iterating


def _certifies(spec, cf):
    try:
        cf._certify(spec)
    except InternalError:
        return False
    return True


def _annihilator(cf):
    """(C, values) of cf for `forms._annihilates`: a CompanionForm's own,
    and for a root or split form C = prod (x^2 - T*x + N)^m over the classes
    (T, N) of its `_classes()`, m the largest for each class, multiplied out
    as Fractions, with the form's first deg C values."""
    if isinstance(cf, CompanionForm):
        return cf.C, cf.values
    mult = {}
    for key, m in cf._classes():
        mult[key] = max(mult.get(key, 0), m)
    C = [Fraction(1)]
    for (P, Qn, s), m in mult.items():  # T = P/s and N = Qn/s^2
        for _ in range(m):
            out = [Fraction(0)] * (len(C) + 2)
            for i, c in enumerate(C):
                out[i] += c * Fraction(Qn, s * s)
                out[i + 1] -= c * Fraction(P, s)
                out[i + 2] += c
            C = out
    return tuple(C[:-1]), cf._values(len(C) - 1)


def _proofs_agree(spec, cf) -> bool:
    """Whether _certify accepts cf, once the annihilator proof has decided alike."""
    C, values = _annihilator(cf)
    try:
        forms._annihilates(spec, C, values)
        annihilated = True
    except InternalError:
        annihilated = False
    assert annihilated == _certifies(spec, cf), (spec, cf, C)
    return annihilated


def _corrupted(cf, n):
    """Every form that differs from cf in one term: right + 1, base + 1, an
    extra power of k in the coefficient polynomial, or k*(k-1)*...*(k-n+1)
    added to that polynomial, which keeps a_0..a_{n-1} and so leaves the
    term proofs alone to see it; for a CompanionForm, every one that differs
    in one coefficient of C or one value by 1."""
    if isinstance(cf, CompanionForm):
        for field in ("C", "values"):
            old = getattr(cf, field)
            for i in range(len(old)):
                yield dataclasses.replace(cf, **{field: old[:i] + (old[i] + 1,) + old[i + 1:]})
        return
    falling, _ = solver._binom_coeffs(n)

    def variants(form, rebuild):
        for i, t in enumerate(form.terms):
            one = form.carrier.one()
            kept = list(t.poly) + [form.carrier.zero()] * (len(falling) - len(t.poly))
            for s, c in enumerate(falling):
                kept[s] = kept[s] + c
            for bad in (Term(t.poly, t.base, t.right + 1),
                        Term(t.poly, t.base + 1, t.right),
                        Term(t.poly + (one,), t.base, t.right),
                        Term(tuple(kept), t.base, t.right)):
                yield rebuild(AssocForm(form.carrier, form.terms[:i] + (bad,) + form.terms[i + 1:]))

    if isinstance(cf, AssocForm):
        yield from variants(cf, lambda f: f)
    else:
        yield from variants(cf.main, lambda f: OctSplitForm(cf.frame, f, cf.tail))
        yield from variants(cf.tail, lambda f: OctSplitForm(cf.frame, cf.main, f))


def _planted_rhs(lams):
    """rhs of a recurrence whose characteristic polynomial has every lam as
    a root."""
    p = LeftPoly.x_minus(lams[0])
    for lam in lams[1:]:
        p = adjoin_root(p, lam)
    return tuple(-c for c in p.coeffs[:len(lams)])


def _certificate_specs():
    rng = random.Random(17)
    H3 = QuaternionAlgebra(-1, -3)
    specs = []
    for alg in (H, H3):
        for i in range(12):  # distinct roots and, via conjugate roots, Jordan
            while True:
                lam, g = rand_quat(rng, alg, 4, 2), rand_quat(rng, alg, 4, 2)
                if g.is_zero():
                    continue
                mu = rand_quat(rng, alg, 4, 2) if i % 2 else (g * lam) * g.inverse()
                if not (lam.is_central() or mu.is_zero() or mu in (lam, lam.conj())):
                    break
            p = LeftPoly.x_minus(mu) * LeftPoly.x_minus(lam)
            specs.append(RecurrenceSpec(alg, 2, (-p.coeffs[0], -p.coeffs[1]),
                                        (rand_quat(rng, alg), rand_quat(rng, alg))))
        x = rand_quat_common_den(rng, alg)
        if not x.is_central():  # spherical: central coefficients
            specs.append(RecurrenceSpec(alg, 2, (-x.norm(), x.trace()),
                                        (rand_quat(rng, alg), rand_quat(rng, alg))))
        roots = [rand_quat(rng, alg, 4, 2) for _ in range(3)]
        specs.append(RecurrenceSpec(alg, 3, _planted_rhs(roots),
                                    tuple(rand_quat(rng, alg) for _ in range(3)),
                                    roots=tuple((r, 1) for r in roots)))
    for c0, c1 in ((2, -3), (1, -2), (-1, -1), (-3, 1), (Fraction(1, 4), -1)):
        specs.append(RecurrenceSpec(Q, 2, (-c0, -c1), (rng.randint(-5, 5), rng.randint(1, 5))))
    specs.append(RecurrenceSpec(Q, 3, (2, -5, 4), (3, 1, 4), roots=((1, 2), (2, 1))))
    specs.append(RecurrenceSpec(FieldContext(5), 2, (1, 1), (0, 1)))
    specs += [DIAG, JORDAN, RecurrenceSpec(O, 2, (-1 - OK, OI), (1, L)),
              RecurrenceSpec(O, 2, (OK, OI + OJ), (1, L)),
              RecurrenceSpec(O, 2, (-5, 2), (OI, L))]
    O2 = OctonionAlgebra(-1, -1, -2)
    fr = build_frame(O2, rand_oct(rng, O2), rand_oct(rng, O2))
    lam, mu = rand_quat(rng, fr.quat, 3, 1), rand_quat(rng, fr.quat, 3, 1)
    p = LeftPoly.x_minus(mu) * LeftPoly.x_minus(lam)
    specs.append(RecurrenceSpec(O2, 2, tuple(fr.join(-c, 0) for c in p.coeffs[:2]),
                                (rand_oct(rng, O2), rand_oct(rng, O2))))
    return specs


def test_certificate_rejects_what_iteration_rejects():
    # the annihilator proof, a second and independent one, decides alike on
    # every form: deg C is 2 on Lucas forms, 4 on order-2 root and split
    # forms, 6 at order 3 and up to 8 once a corrupted term gains a power of k
    mutants, degrees = 0, set()
    for spec in _certificate_specs():
        cf = solve(spec)
        assert _proofs_agree(spec, cf) and verify_closed_form(spec, cf, 16).ok
        for bad in _corrupted(cf, spec.order):
            assert _proofs_agree(spec, bad) == verify_closed_form(spec, bad, 16).ok
            degrees.add(len(_annihilator(bad)[0]))
            mutants += 1
    assert mutants >= 250 and {2, 4, 6, 8} <= degrees


def test_the_annihilator_proof_checks_every_e_j_below_the_order():
    # a_0 = 0: C = x^2 - x + 2 for x^2 - x + 1 leaves e_0 = a_0 = 0 and
    # e_1 = a_1 = j
    spec = RecurrenceSpec(H, 2, (-1, 1), (0, J))
    cf = solve(spec)
    with pytest.raises(InternalError, match=re.escape("C = [2, -1, 1] leaves e_1 = [0,0,1,0], not 0")):
        dataclasses.replace(cf, C=(cf.C[0] + 1, cf.C[1]))._certify(spec)


def test_the_annihilator_proof_compares_every_value_below_deg_c():
    # C = (x^2 - x - 1)(x - 2) annihilates Fibonacci's a, so only the value
    # check sees a form of that C whose a_2 is 2, not 1
    C = (2, 1, -3)
    forms._annihilates(FIB, C, (0, 1, 1))
    with pytest.raises(InternalError, match=re.escape("gives a_2 = 2, not the recurrence's 1")):
        forms._annihilates(FIB, C, (0, 1, 2))


def test_the_annihilator_proof_agrees_with_the_certificate_on_the_demos_and_census_grids():
    import census
    specs = []
    for path in DEMO_SPECS:
        with open(path, encoding="utf-8") as fh:
            specs.append(parse_spec_file(fh.read()))
    for _title, carrier, rhs_tuples, init in census.grids():
        if carrier in (Q, H) and len(init) == 2:
            specs += [RecurrenceSpec(carrier, 2, rhs, init) for rhs in rhs_tuples
                      if not carrier.coerce(rhs[0]).is_zero()]
    kinds = set()
    for spec in specs:
        try:
            cf = solve(spec)
        except SkewrecError:
            continue
        assert _proofs_agree(spec, cf)
        kinds.add(type(cf).__name__)
    assert len(specs) == 11 + 42 + 6480
    assert kinds == {"AssocForm", "CompanionForm", "OctSplitForm"}


SPLIT_AND_DIVISION = [Q, FieldContext(2), H, QuaternionAlgebra(Fraction(-1, 2), Fraction(3, 5)),
                      QuaternionAlgebra(1, 1), QuaternionAlgebra(2, 3), O, OctonionAlgebra(1, 1, 1),
                      OctonionAlgebra(2, 3, -1)]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_the_annihilator_proof_agrees_with_the_certificate_on_drawn_specs(data):
    # every carrier, split ones included: random, planted and central rhs,
    # and each corrupted form of what solve returns
    fracs = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    alg = data.draw(st.sampled_from(SPLIT_AND_DIVISION), label="algebra")
    octonion = isinstance(alg, OctonionAlgebra)

    def element(carrier):
        return carrier.element(data.draw(st.lists(fracs, min_size=carrier.dim, max_size=carrier.dim)))

    how = data.draw(st.sampled_from(["random", "planted", "central"]))
    if how == "random":
        rhs = (element(alg), element(alg))
    elif how == "planted":
        rhs = _planted_rhs([element(alg.base if octonion else alg) for _ in range(2)])
    else:
        rhs = (data.draw(fracs), data.draw(fracs))
    try:
        spec = RecurrenceSpec(alg, 2, rhs, (element(alg), element(alg)))
        cf = solve(spec)
    except SkewrecError:
        assume(False)
    assert _proofs_agree(spec, cf)
    for bad in _corrupted(cf, 2):
        _proofs_agree(spec, bad)


def test_certificate_names_what_fails():
    cf = solve(JORDAN)
    t = cf.terms[1]
    bad = AssocForm(H, (cf.terms[0], Term(t.poly + (H.one(),), t.base, t.right)))
    with pytest.raises(InternalError, match="term 1 leaves the residual"):
        bad._certify(JORDAN)
    # each term still solves the recurrence, but their sum misses a_0
    shifted = RecurrenceSpec(H, 2, DIAG.rhs, (2, 1))
    with pytest.raises(InternalError, match="a_0"):
        solve(DIAG)._certify(shifted)
    # a Lucas form of another recurrence, and one of other initial values:
    # C = x^2 - 2x + 1 leaves e_0 = a_2 - 2*a_1 + a_0 = -j for a_2 = j - i
    spec = RecurrenceSpec(H, 2, (-1, 1), (I, J))
    cf = solve(spec)
    with pytest.raises(InternalError, match=re.escape(
            "C = [1, -2, 1] leaves e_0 = [0,0,-1,0], not 0")):
        dataclasses.replace(cf, C=(cf.C[0], cf.C[1] - 1))._certify(spec)
    with pytest.raises(InternalError, match=re.escape(
            "the companion form gives a_1 = [1,0,1,0], not the recurrence's [0,0,1,0]")):
        dataclasses.replace(cf, values=(cf.values[0], cf.values[1] + 1))._certify(spec)


def test_a_lucas_form_is_proved_by_one_value_comparison_and_no_value_product(monkeypatch):
    # the annihilator proof compares the form's values with the iterated
    # a_0, a_1, the initial values, and nothing compares them again; the
    # forward iterator scales by a central rhs and the proof by each
    # rational C[i], so neither multiplies two values
    with open(os.path.join(os.path.dirname(__file__), "..", "demos", "specs", "spherical.rec"),
              encoding="utf-8") as fh:
        spherical = parse_spec_file(fh.read())
    fractional = RecurrenceSpec(H, 2, (Fraction(-3, 4), Fraction(1, 2)), (I + J, Fraction(1, 3) * K))
    for spec in (spherical, fractional):
        cf = solve(spec)
        assert isinstance(cf, CompanionForm)
        checks, products = [], []
        with monkeypatch.context() as m:
            check = forms._check_values
            m.setattr(forms, "_check_values", lambda *args: (checks.append(args), check(*args)))
            for cls in (scalar.ScalarValue, type(H.one())):
                m.setattr(cls, "__mul__",
                          lambda x, y, mul=cls.__mul__: (products.append(x), mul(x, y))[1])
            cf._certify(spec)
            a50 = iterate_oracle(spec, 50)
        assert len(checks) == 1 and products == []
        assert a50 == cf.value(50)


def test_certificate_checks_every_point_up_to_the_degree():
    # a_{k+1} = 2 a_k; the term (1 - k + k^2) * 2^k has a_0 right and the
    # residual Q(k) = -4k, which vanishes at k = 0 but not at k = 1
    spec = RecurrenceSpec(Q, 1, (2,), (1,))
    one = Q.one()
    bad = AssocForm(Q, (Term((one, -one, one), Q.scalar(2), one),))
    assert not verify_closed_form(spec, bad, 16).ok
    with pytest.raises(InternalError, match="term 0 leaves the residual -4 at k=1"):
        bad._certify(spec)


def test_solve_keeps_no_term_whose_right_factor_is_zero():
    # the double root 2 of a_{k+2} = 4a_{k+1} - 4a_k with a_k = 2^k leaves
    # b = 0 on its chain's second column, and init (0, 0) leaves every b_i
    # at 0; a hand-built form drops such a term when it is built, so the
    # certificate and the evaluator never see it (3^k * 0 with chi(3) != 0)
    chain = RecurrenceSpec(Q, 2, (-4, 4), (1, 2))
    zero = RecurrenceSpec(Q, 2, (-2, 3), (0, 0))
    assert render_closed_form(solve(chain)) == ["a_k = (1)*(2)^k*(1)"]
    assert solve(zero).terms == () and render_closed_form(solve(zero)) == ["a_k = 0"]
    # initial values in the ell half leave the octonion main part no term
    e = O.basis()
    oct_spec = RecurrenceSpec(O, 2, (O.embed(-K), O.embed(I + J)), (e[4], e[5]))
    assert render_closed_form(solve(oct_spec))[-1] == (
        "a_k = conj(([1,0,0,0])*([0,-1/2,0,1/2])^k*([1,0,0,0]))*l")
    for spec in (chain, zero, oct_spec):
        assert verify_closed_form(spec, solve(spec), 16).ok
    spec, one = RecurrenceSpec(Q, 1, (2,), (1,)), Q.one()
    form = AssocForm(Q, (Term((one,), Q.scalar(2), one), Term((one,), Q.scalar(3), Q.zero())))
    assert form.terms == (Term((one,), Q.scalar(2), one),)
    form._certify(spec)
    assert verify_closed_form(spec, form, 16).ok


def test_a_form_prints_only_the_terms_it_proves():
    # a term whose right factor or whose p is 0 is dropped when its form is
    # built, so no reader sees it: a hand-built form prints, and equals, the
    # form without it, or prints a_k = 0
    assert render_closed_form(AssocForm(H, (Term((1,), I, 0),))) == ["a_k = 0"]
    two = Term((1,), 2, 1)
    assert render_closed_form(AssocForm(Q, (Term((0,), 3, 1), two))) == ["a_k = (1)*(2)^k*(1)"]
    cf = solve(RecurrenceSpec(O, 2, (-1 - OK, OI), (1, L)))
    quat = cf.frame.quat
    dead, empty = AssocForm(quat, (Term((1,), quat.e1, 0),)), AssocForm(quat, ())
    assert cf.main.terms and cf.tail.terms
    for main, tail in ((cf.main, dead), (dead, cf.tail), (dead, dead)):
        live = OctSplitForm(cf.frame, empty if main is dead else main, empty if tail is dead else tail)
        assert render_closed_form(OctSplitForm(cf.frame, main, tail)) == render_closed_form(live)
    assert render_closed_form(OctSplitForm(cf.frame, dead, dead))[-1] == "a_k = 0"
    assert OctSplitForm(cf.frame, dead, dead) == OctSplitForm(cf.frame, empty, empty)


def test_a_form_is_the_value_of_the_terms_it_proves():
    # a term of b = 0 or of p = 0 is dropped, and p's trailing zeros with
    # it, when the form is built: forms of the same proved terms are equal
    form = AssocForm(Q, (Term((1,), 2, 1), Term((0,), 3, 1), Term((1,), 5, 0)))
    live = AssocForm(Q, (Term((1,), 2, 1),))
    assert form == live and hash(form) == hash(live)
    assert Term((1, 0), 2, 1) == Term((1,), 2, 1)


def _outcome(f, *args):
    """f(*args), or the type and text of the SkewrecError it raises."""
    try:
        return f(*args)
    except SkewrecError as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_a_hand_built_form_equals_the_form_of_its_live_terms(data):
    # dead terms, b = 0 or p = 0, and trailing zeros of p are drawn on
    # purpose; the live form is built from what the test itself keeps.  A
    # proved form's terms are c * r**k * b, c rational, which solve
    # a_(k+1) = r*a_k, and its p is given in rationals and ints
    carrier = data.draw(st.sampled_from([Q, FieldContext(5), H, S11]), label="carrier")
    fracs = st.fractions(min_value=-2, max_value=2, max_denominator=2)

    def element(zero=False):
        if zero or data.draw(st.integers(0, 3)) == 0:
            return carrier.zero()
        x = carrier.element(data.draw(st.lists(fracs, min_size=carrier.dim, max_size=carrier.dim)))
        return carrier.one() if x.is_zero() else x

    r = carrier.one() + element()
    assume(not r.is_zero())
    terms, live, proved = [], [], data.draw(st.booleans(), label="proved")
    for _ in range(data.draw(st.integers(0, 4), label="terms")):
        dead_p = data.draw(st.booleans())
        if proved:
            poly, base = [0 if dead_p else data.draw(fracs)], r
        else:
            poly = [element(dead_p) for _ in range(data.draw(st.integers(1, 3)))]
            base = data.draw(st.sampled_from([r, element()]))
        poly += [0 if proved else carrier.zero()] * data.draw(st.integers(0, 2))
        right = element()
        terms.append(Term(poly, base, right))
        poly = [carrier.coerce(c) for c in poly]
        while poly and poly[-1].is_zero():
            poly.pop()
        if poly and not right.is_zero():
            live.append(Term(tuple(poly), base, right))
    form, want = AssocForm(carrier, terms), AssocForm(carrier, live)
    assert form == want and hash(form) == hash(want)
    assert form.terms == tuple(forms._term_order(live))
    assert form._lines() == want._lines()
    # the terms in any order make the same form
    shuffled = AssocForm(carrier, data.draw(st.permutations(terms), label="shuffled"))
    assert shuffled == form and hash(shuffled) == hash(form) and shuffled._lines() == form._lines()
    assert [_outcome(form.value, k) for k in range(21)] == [_outcome(want.value, k) for k in range(21)]
    init = want.value(0) if data.draw(st.booleans()) else element()
    spec = RecurrenceSpec(carrier, 1, (r,), (init,))
    assert _outcome(form._certify, spec) == _outcome(want._certify, spec)


def test_simple_roots_certify_by_one_integer_root_test_each(monkeypatch):
    # each simple root is proved by one pass of the residual kernel over
    # chi's coefficients, which finds chi(lam) = 0, and its a_j are read on
    # integer numerators: the certificate multiplies no value
    from skewrec import algebra

    products, zeros = [], []
    mul, residual = algebra.QuatValue.__mul__, forms._residual

    def spy(coeffs, lam):
        out = residual(coeffs, lam)
        zeros.append(not any(out[0]))
        return out

    cf = solve(DIAG)
    monkeypatch.setattr(algebra.QuatValue, "__mul__", lambda x, y: products.append(1) or mul(x, y))
    monkeypatch.setattr(forms, "_residual", spy)
    cf._certify(DIAG)
    assert all(t.degree == 0 for t in cf.terms)
    assert zeros == [True, True] and products == []


S11 = QuaternionAlgebra(1, 1)  # M_2(Q): w + x*e1 + y*e2 + z*e3 is [[w+x, y+z], [y-z, w-x]]
E11 = S11.element([Fraction(1, 2), Fraction(1, 2), 0, 0])
E22 = S11.element([Fraction(1, 2), Fraction(-1, 2), 0, 0])


def test_a_split_term_with_a_nonzero_residual_is_refused_though_iteration_agrees():
    # a_{k+1} = r*a_k with r = 2*E22 - E11: a_k = (2*E22)^k * E22 is 2^k*E22,
    # a solution, though chi(lam) = lam - r = E11 is no zero; E11 * E22 = 0.
    # A term is proved by its residual alone, so this right one is refused
    lam, b = 2 * E22, E22
    spec = RecurrenceSpec(S11, 1, (lam - E11,), (b,))
    form = AssocForm(S11, (Term((S11.one(),), lam, b),))
    assert not (lam - spec.rhs[0]).is_zero() and ((lam - spec.rhs[0]) * b).is_zero()
    assert verify_closed_form(spec, form, 16).ok
    with pytest.raises(InternalError, match=re.escape(f"term 0 leaves the residual {-E11} at k=0")):
        form._certify(spec)


def test_a_split_term_with_chi_lam_times_lam_b_nonzero_is_rejected():
    # chi(lam) * b = 0 alone proves nothing: here chi(lam) * lam * b != 0,
    # and the form is right at k = 0 and 1 but wrong from k = 2 on
    h = Fraction(1, 2)
    lam = S11.element([h, -h, h, h])  # [[0, 1], [0, 1]]
    spec = RecurrenceSpec(S11, 1, (lam - E11,), (E22,))
    form = AssocForm(S11, (Term((S11.one(),), lam, E22),))
    assert (E11 * E22).is_zero() and not (E11 * lam * E22).is_zero()
    assert verify_closed_form(spec, form, 16).first_failure == 2
    with pytest.raises(InternalError, match=re.escape(f"term 0 leaves the residual {-E11} at k=0")):
        form._certify(spec)


def test_a_constant_term_with_a_quaternion_coefficient_takes_the_residual():
    # only a rational c passes c * lam**k * b by chi(lam) = 0: with c = 1 + i
    # and b solved so that a_0 and a_1 are right, the term is no solution
    lam, mu = (t.base for t in solve(DIAG).terms)
    c = 1 + I
    u = DMatrix.from_rows([[c, H.one()], [c * lam, mu]])
    b1, b2 = mat_solve(u, DIAG.init)
    form = AssocForm(H, (Term((c,), lam, b1), Term((H.one(),), mu, b2)))
    assert verify_closed_form(DIAG, form, 16).first_failure == 2
    with pytest.raises(InternalError, match="term 0 leaves the residual"):
        form._certify(DIAG)


def test_dependent_chains_in_a_split_algebra_raise_singular_u():
    # nu = diag(1, 2) in M_2(Q) is a root of (x - 1)(x - 2), so the three
    # distinct roots 1, 2, nu of (x - 1)(x - 2)(x - nu), in three classes,
    # have a singular Vandermonde matrix
    nu = S11.element([Fraction(3, 2), Fraction(-1, 2), 0, 0])
    p = LeftPoly(S11, [2, -3, 1]) * LeftPoly.x_minus(nu)
    spec = RecurrenceSpec(S11, 3, tuple(-c for c in p.coeffs[:3]), (1, 0, 0),
                          roots=((1, 1), (2, 1), (nu, 1)))
    with pytest.raises(SingularU, match="eigenvector chains are linearly dependent"):
        solve(spec)


def test_certificate_checks_the_frame():
    spec = RecurrenceSpec(O, 2, (-1 - OK, OI), (1, L))
    cf = solve(spec)
    other = build_frame(O, L, OJ)  # span(1, j, l, j*l) holds neither OI nor OK
    with pytest.raises(InternalError, match="not in the frame"):
        OctSplitForm(other, cf.main, cf.tail)._certify(spec)
    # the same coordinates of u, w and ell make a frame of another octonion
    # algebra, whose products prove nothing about the spec's
    O2, fr = OctonionAlgebra(-1, -1, -2), cf.frame
    alien = SubalgebraFrame(O2, *[O2.element(x.coords()) for x in (fr.u, fr.w, fr.ell)])
    with pytest.raises(InternalError, match="does not split the algebra"):
        OctSplitForm(alien, cf.main, cf.tail)._certify(spec)
    # the frame's main and tail coordinates over another quaternion algebra
    other = QuaternionAlgebra(cf.frame.quat.a, 2 * cf.frame.quat.b)

    def moved(form):
        return AssocForm(other, tuple(
            Term(tuple(other.element(c.coords()) for c in t.poly), other.element(t.base.coords()),
                 other.element(t.right.coords())) for t in form.terms))

    for main, tail in ((moved(cf.main), cf.tail), (cf.main, moved(cf.tail))):
        with pytest.raises(InternalError, match="main and tail are not over the frame"):
            OctSplitForm(cf.frame, main, tail)._certify(spec)


def _splits_by_identities(frame):
    """The product-identity oracle: join(x, 0)*join(y, 0) = join(x*y, 0) and
    join(x, 0)*(join(y, 0)*ell) = join(y*x, 0)*ell on the 16 pairs of the
    frame's quaternion basis; both sides of each are bilinear, so they then
    hold for all x, y."""
    basis = frame.quat.basis()
    emb = [frame.join(e, 0) for e in basis]
    return all(ex * ey == frame.join(x * y, 0)
               and ex * (ey * frame.ell) == frame.join(y * x, 0) * frame.ell
               for x, ex in zip(basis, emb) for y, ey in zip(basis, emb))


FRAME_ALGEBRAS = [O, OctonionAlgebra(-1, -2, Fraction(-3, 2)), OctonionAlgebra(1, 1, 1),
                  OctonionAlgebra(2, 3, -1)]
frame_coords = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2),
                        min_size=8, max_size=8)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(FRAME_ALGEBRAS), frame_coords, frame_coords,
       st.sampled_from([None, "u", "w", "ell"]), st.integers(1, 3), st.integers(0, 7))
def test_frame_check_against_the_product_identities(alg, ca, cb, attr, step, at):
    # the u, w and ell of a frame build_frame returns, one of them shifted or
    # none, go through the constructor: it raises DegenerateFrame or builds a
    # frame on which the 16-pair identities hold
    try:
        fr = build_frame(alg, alg.element(ca), alg.element(cb))
    except DegenerateFrame:
        return
    gens = {"u": fr.u, "w": fr.w, "ell": fr.ell}
    if attr is not None:
        gens[attr] = gens[attr] + step * alg.basis()[at]
    try:
        fr = SubalgebraFrame(alg, gens["u"], gens["w"], gens["ell"])
    except DegenerateFrame:
        return
    assert _splits_by_identities(fr)


def _order_three_user_roots():
    lams = [I, 1 + J, H.scalar(2)]
    return RecurrenceSpec(H, 3, _planted_rhs(lams), (1, I, J), roots=tuple((lam, 1) for lam in lams))


EVALUATOR_SPECS = {
    "field": RecurrenceSpec(Q, 2, (-2, 3), (0, 1)),  # roots 1 and 2
    "promoted": FIB,
    "distinct": DIAG,
    "jordan": JORDAN,
    "spherical": RecurrenceSpec(H, 2, (-1, 1), (I, J)),
    "order-3 user roots": _order_three_user_roots(),
    "octonion": RecurrenceSpec(O, 2, (-1 - OK, OI), (1, L)),
    "octonion lucas": RecurrenceSpec(O, 2, (-5, 2), (OI, L)),
}


@pytest.mark.parametrize("spec", EVALUATOR_SPECS.values(), ids=EVALUATOR_SPECS.keys())
def test_solve_builds_no_evaluator_and_the_first_value_builds_one(spec, monkeypatch):
    built = []
    init = forms._LucasSum.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(forms._LucasSum, "__init__", counted)
    cf = solve(spec)
    assert built == []
    assert cf.value(7) == iterate_oracle(spec, 7)
    assert len(built) == 1
    assert [cf.value(k) for k in range(spec.order)] == list(spec.init)
    assert len(built) == 1


def test_the_first_value_checks_the_evaluator_against_the_certified_initial_values(monkeypatch):
    cf = solve(DIAG)
    call = forms._LucasSum.__call__
    monkeypatch.setattr(forms._LucasSum, "__call__",
                        lambda self, k: call(self, k) + (1 if k == 1 else 0))
    with pytest.raises(InternalError, match="evaluator check failed: .* gives a_1 = "):
        cf.value(5)
    # a hand-built form is checked against its own terms as well
    bad = AssocForm(H, cf.terms)
    with pytest.raises(InternalError, match="evaluator check failed: .* gives a_1 = "):
        verify_closed_form(DIAG, bad, 4)


def _with_k_k_minus_1(term_groups):
    """_term_groups with c*k*(k - 1) added to the first group's S, c its
    S_0: the evaluator still agrees with the form at k = 0 and 1."""
    def mutated(pieces):
        groups = term_groups(pieces)
        S, R = next(iter(groups.values()))
        while len(S) < 3:
            S.append(S[0] - S[0])
            R.append(R[0] - R[0])
        S[1], S[2] = S[1] - S[0], S[2] + S[0]
        return groups
    return mutated


@pytest.mark.parametrize("name", ["quat_two_roots", "quat_repeated_root", "oct_two_roots"])
def test_the_first_value_proves_the_evaluator_past_the_initial_values(name, monkeypatch):
    # an evaluator that agrees with the form below the order n but not at
    # k = 2 passes solve and a check at k < n; the first value checks it at
    # k < deg C, which proves every k
    path = os.path.join(os.path.dirname(__file__), "..", "demos", "specs", name + ".rec")
    with open(path, encoding="utf-8") as fh:
        spec = parse_spec_file(fh.read())
    monkeypatch.setattr(forms, "_term_groups", _with_k_k_minus_1(forms._term_groups))
    cf = solve(spec)
    with pytest.raises(InternalError, match="evaluator check failed: the Lucas sum gives a_2 = "):
        cf.value(0)


def test_the_values_reader_gives_the_first_oracle_values_on_every_form_kind(monkeypatch):
    # _values(n) at n = the order, which the certificate reads, at the n
    # that the first value proves the evaluator at (2 * sum m, j >= n), and
    # three past that, which neither reads
    lam, mu = S11.e1 + 2 * S11.e2, 1 + S11.e3
    coeffs = (LeftPoly.x_minus(mu) * LeftPoly.x_minus(lam)).coeffs
    specs = [RecurrenceSpec(S11, 2, (-coeffs[0], -coeffs[1]), (1, S11.e1))]
    for path in DEMO_SPECS:
        with open(path, encoding="utf-8") as fh:
            specs.append(parse_spec_file(fh.read()))
    proved, check = [], forms._check_values
    monkeypatch.setattr(forms, "_check_values", lambda values, expected, *args: (
        proved.append(len(expected)), check(values, expected, *args)))
    kinds, past = set(), set()  # form kinds, and those read past the order
    for spec in specs:
        cf = solve(spec)
        proved.clear()
        cf.value(0)
        assert len(proved) == 1 and proved[0] >= spec.order
        for n in (spec.order, proved[0], proved[0] + 3):
            assert cf._values(n) == [iterate_oracle(spec, k) for k in range(n)]
        carrier = getattr(cf, "carrier", None)
        kind = type(cf).__name__ + (f" {carrier.d}" if isinstance(carrier, FieldContext) else "")
        kinds.add(kind)
        if proved[0] > spec.order:
            past.add(kind)
    # Fibonacci's conjugate roots and a Lucas form have deg C = 2
    assert kinds == {"AssocForm None", "AssocForm 5", "AssocForm", "OctSplitForm", "CompanionForm"}
    assert past == {"AssocForm None", "AssocForm", "OctSplitForm"}


SOLVE_ALGEBRAS = [Q, FieldContext(2), H, QuaternionAlgebra(Fraction(-1, 2), Fraction(3, 5)),
                  QuaternionAlgebra(1, 1), O, OctonionAlgebra(1, 1, 1)]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_solve_raises_only_skewrec_errors_and_returns_checked_forms(data):
    fracs = st.fractions(min_value=-4, max_value=4, max_denominator=2)

    def element(carrier):
        n = carrier.dim
        return carrier.element(data.draw(st.lists(fracs, min_size=n, max_size=n)))

    alg = data.draw(st.sampled_from(SOLVE_ALGEBRAS))
    octonion = isinstance(alg, OctonionAlgebra)
    how = data.draw(st.sampled_from(["random", "planted", "roots given"]))
    order = 2 if octonion else data.draw(st.integers(1, 3 if how == "roots given" else 2))
    init = tuple(element(alg) for _ in range(order))
    roots = None
    try:
        if how == "random":
            rhs = tuple(element(alg) for _ in range(order))
        else:  # roots first; octonion roots come from the standard quaternion part
            lams = [element(alg.base if octonion else alg) for _ in range(order)]
            rhs = _planted_rhs(lams)
            if how == "roots given" and not octonion:
                # multiplicities need not sum to the order: solve must say so
                mults = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=order))
                roots = tuple(zip(lams, mults))
        spec = RecurrenceSpec(alg, order, rhs, init, roots=roots)
        cf = solve(spec)
    except SkewrecError:
        return
    assert verify_closed_form(spec, cf, 64).ok


# ---------------------------------------------------------------------------
# the Lucas evaluator against the term sum and against iteration

H2 = QuaternionAlgebra(Fraction(-1, 2), Fraction(3, 5))
O2 = OctonionAlgebra(Fraction(-1, 2), Fraction(3, 5), Fraction(-7, 3))
EVAL_PATHS = ["Q distinct", "Q repeated", "Q(rt5)", "Q(rt13)"] + [
    f"{alg} {path}" for alg in ("H", "H2") for path in ("distinct", "jordan", "spherical")
] + [f"{alg} {path}" for alg in ("O", "O2") for path in ("split", "central", "spherical")]


def _term_sum(form, k):
    """sum of p(k) * lam**k * b over the terms, powers by `**`."""
    acc = form.carrier.zero()
    for t in form.terms:
        pk = form.carrier.zero()
        for j, c in enumerate(t.poly):
            pk = pk + c * (k ** j)
        acc = acc + (pk * t.base ** k) * t.right
    return acc


def _reference_value(spec, cf, k):
    if isinstance(cf, CompanionForm):  # no terms to power: iteration
        return iterate_oracle(spec, k)
    if isinstance(cf, AssocForm):
        return _term_sum(cf, k)
    fr = cf.frame
    return fr.join(_term_sum(cf.main, k), 0) + fr.join(_term_sum(cf.tail, k).conj(), 0) * fr.ell


def _eval_spec(data, path):
    fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    nonzero = fracs.filter(bool)
    if path.startswith("Q"):
        if path == "Q distinct":
            r1, r2 = data.draw(st.lists(nonzero, min_size=2, max_size=2, unique=True))
            c0, c1 = -r1 * r2, r1 + r2
        elif path == "Q repeated":
            r = data.draw(nonzero)
            c0, c1 = -r * r, 2 * r
        else:  # roots u +- e*sqrt(d): solve promotes the spec to Q(sqrt(d))
            d = int(path[4:-1])
            u, e = data.draw(fracs), data.draw(nonzero)
            c0, c1 = d * e * e - u * u, 2 * u
        return RecurrenceSpec(Q, 2, (c0, c1), tuple(data.draw(fracs) for _ in range(2)))
    name, kind = path.split()
    alg = {"H": H, "H2": H2, "O": O, "O2": O2}[name]
    quat = alg.base if name.startswith("O") else alg

    def element(a, n):
        return a.element(data.draw(st.lists(fracs, min_size=n, max_size=n)))

    lam = element(quat, 4)
    if kind in ("distinct", "split"):
        mu = element(quat, 4)
        assume(not lam.is_zero() and not mu.is_zero() and conj_class(lam) != conj_class(mu))
        coeffs = (LeftPoly.x_minus(mu) * LeftPoly.x_minus(lam)).coeffs
        rhs = (-coeffs[0], -coeffs[1])
    elif kind == "jordan":  # (x - lam)^2
        assume(not lam.is_central())
        rhs = (-(lam * lam), 2 * lam)
    elif kind == "spherical":  # x^2 - T(lam) x + N(lam): central coefficients
        assume(not lam.is_central())
        rhs = (-lam.norm(), lam.trace())
    else:  # central: rational coefficients with rational roots
        r1, r2 = data.draw(st.lists(nonzero, min_size=2, max_size=2))
        rhs = (-r1 * r2, r1 + r2)
    n = 4 if quat is alg else 8  # an octonion spec embeds its quaternion rhs
    return RecurrenceSpec(alg, 2, rhs, (element(alg, n), element(alg, n)))


@pytest.mark.parametrize("path", EVAL_PATHS)
# no shrinking: every shrink step iterates up to k = 2048 again, so shrinking
# one failing octonion example would take many minutes
@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.generate])
@given(data=st.data())
def test_lucas_evaluator_matches_powers_and_iteration(path, data):
    spec = _eval_spec(data, path)
    try:
        cf = solve(spec)
    except InternalError:
        raise
    except SkewrecError:  # no root within reach: nothing to evaluate
        assume(False)
    for k in data.draw(st.lists(st.integers(0, 2048), min_size=1, max_size=3)):
        got = eval_closed_form(cf, k)
        assert got == _reference_value(spec, cf, k)
        assert got == iterate_oracle(spec, k)


# ---------------------------------------------------------------------------
# the evaluator's reduction over den * s**k, prime by prime


def _lowest_terms(num, den):
    """num / den in lowest terms, each coordinate reduced as a Fraction and
    put over the lcm of their denominators."""
    fr = [Fraction(n, den) for n in num]
    d = lcm(*[f.denominator for f in fr])
    return tuple([f.numerator * (d // f.denominator) for f in fr]), d


# no shrinking: a failing example near k = 4096 shrinks for minutes
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.generate])
@given(s=st.sampled_from([1, 2, 3, 4, 6, 12]), data=st.data(),
       k=st.one_of(st.integers(0, 3), st.integers(4, 4096)),
       den=st.builds(lambda a, b, c: 2 ** a * 3 ** b * c,
                     st.integers(0, 4), st.integers(0, 4), st.integers(1, 35)),
       small=st.lists(st.integers(-40, 40), min_size=1, max_size=8))
def test_power_reducer_gives_the_lowest_terms_of_every_coordinate(s, k, data, den, small):
    full = den * s ** k
    v2 = (full & -full).bit_length() - 1
    v3 = next(v for v in range(full.bit_length()) if full % 3 ** (v + 1))

    def power(v):  # small, or near the denominator's own power v
        return data.draw(st.one_of(st.integers(0, 3), st.integers(max(0, v - 2), v + 2)))

    common = 2 ** power(v2) * 3 ** power(v3) * data.draw(st.integers(1, 35))
    num = [x * common for x in small]
    reduce = forms._PowerReducer(den, s)
    assert reduce(num, k) == _lowest_terms(num, full)
    assert reduce([0] * len(num), k) == ((0,) * len(num), 1)


def test_power_reducer_at_every_cap_for_small_k():
    # k <= 3, where v_p(den * s**k) can be 1, and common factors 2**i * 3**j
    # on both sides of the denominator's own powers of 2 and 3
    for s in (1, 2, 3, 4, 6, 12):
        for den in (1, 2, 3, 5, 12, 18, 45):
            reduce = forms._PowerReducer(den, s)
            for k in range(4):
                full = den * s ** k
                for i in range(10):
                    for j in range(7):
                        for small in ([1, -2, 0, 5], [0, 15, -45, 0]):
                            num = [x * 2 ** i * 3 ** j for x in small]
                            assert reduce(num, k) == _lowest_terms(num, full)


def test_power_reducer_takes_an_unfactored_part_of_s_by_one_gcd():
    m61, m89 = 2 ** 61 - 1, 2 ** 89 - 1  # Mersenne primes, far past the rho steps on s
    reduce = forms._PowerReducer(6 * m61, 6 * m61 * m89)
    assert (reduce.primes, reduce.rest) == ([(2, 1, 1), (3, 1, 1)], m61 * m89)
    for k in (0, 1, 5, 40):
        full = 6 * m61 * (6 * m61 * m89) ** k
        for num in ([1, -2, 0, 5], [m61 ** 3 * 4, -m61 ** 2 * 12, 0, m61 * m89 * 2],
                    [full, 2 * full, -full, 0]):
            assert reduce(num, k) == _lowest_terms(num, full)


@pytest.mark.parametrize("name", ["quat_fractional", "oct_central_fractional"])
def test_no_gcd_of_the_evaluator_grows_with_k(name, monkeypatch):
    # s = 2 and s = 3: a gcd against den * s**k would take a 50,000- or
    # 79,000-bit argument at k = 50000
    path = os.path.join(os.path.dirname(__file__), "..", "demos", "specs", name + ".rec")
    with open(path) as fh:
        cf = solve(parse_spec_file(fh.read()))
    cf.value(0)  # builds the evaluator and checks it
    calls = []

    def recorded(*args):
        calls.append(args)
        return gcd(*args)

    for module in (forms, scalar):
        monkeypatch.setattr(module, "gcd", recorded)
    got = cf.value(50000)
    assert got.den.bit_length() > 40000
    dim = len(got.num)
    for args in calls:  # every argument but the numerators stays small
        assert len(args) <= dim + 1
        assert all(b < 1000 for b in sorted(a.bit_length() for a in args)[:len(args) - dim])


def _h2_o2_spec(name, kind):
    """A fixed spec of one H2 or O2 path of EVAL_PATHS, its s with the odd
    primes 3 and 5 (3 alone on O2 central)."""
    alg = {"H2": H2, "O2": O2}[name]
    quat = alg.base if name == "O2" else alg
    lam = quat.element([Fraction(1, 3), 1, Fraction(-1, 2), 2])
    mu = quat.element([Fraction(2, 3), -1, 0, Fraction(1, 2)])
    if kind in ("distinct", "split"):
        coeffs = (LeftPoly.x_minus(mu) * LeftPoly.x_minus(lam)).coeffs
        rhs = (-coeffs[0], -coeffs[1])
    elif kind == "jordan":
        rhs = (-(lam * lam), 2 * lam)
    elif kind == "spherical":
        rhs = (-lam.norm(), lam.trace())
    else:  # central, rational roots 1/3 and 2/3
        rhs = (Fraction(-2, 9), 1)
    n = alg.dim
    init = ([Fraction(1, 3)] + [1] * (n - 1), [Fraction(-2, 5)] + [0, 1] * (n // 2 - 1) + [3])
    return RecurrenceSpec(alg, 2, rhs, tuple(alg.element(v) for v in init))


@pytest.mark.parametrize("path", [p for p in EVAL_PATHS if p.split()[0] in ("H2", "O2")])
def test_lucas_evaluator_past_k_2048(path):
    spec = _h2_o2_spec(*path.split())
    cf = solve(spec)
    cf.value(0)
    primes = [p for p, _e, _d in cf._lucas.reduce.primes]
    assert 3 in primes and (path == "O2 central" or 5 in primes)
    for k in (4095, 4096):
        assert cf.value(k) == _reference_value(spec, cf, k)


@pytest.mark.parametrize("alg", [H2, O])
def test_a_vanishing_lucas_form_gives_the_canonical_zero(alg):
    # t = 0 and a0 = 0: a_k = U_k * a1 and U_k = 0 at even k, over den * 3**k
    a1 = alg.element([Fraction(1, 2)] + [1] * (alg.dim - 1))
    cf = solve(RecurrenceSpec(alg, 2, (Fraction(-1, 3), 0), (0, a1)))
    assert isinstance(cf, CompanionForm)
    zero = alg.zero()
    for k in (0, 2, 64, 4096):
        got = cf.value(k)
        assert (got.num, got.den) == (zero.num, 1) and got == zero
    assert cf.value(1) == a1


@pytest.mark.parametrize("alg", [H2, O])
def test_a_cancelling_power_of_3_takes_two_passes_and_two_gcds(alg, monkeypatch):
    # t = 0 and n = 1/3: a_{2m} = (-1/3)**m * a0 and a_{2m+1} = (-1/3)**m * a1,
    # over den * 3**k, so about k/2 powers of 3 cancel at every k; each pass
    # over the numerators is one `any`, and one pass per power would take k/2
    a0 = alg.element([Fraction(2, 5)] + [1] * (alg.dim - 1))
    a1 = alg.element([Fraction(1, 2)] + [-1, 3] * (alg.dim // 2 - 1) + [7])
    cf = solve(RecurrenceSpec(alg, 2, (Fraction(-1, 3), 0), (a0, a1)))
    assert isinstance(cf, CompanionForm)
    cf.value(0)
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(forms, "any", counted("any", any), raising=False)
    monkeypatch.setattr(forms, "gcd", counted("gcd", gcd))
    for k in (1024, 1025, 40000, 40001):
        calls.clear()
        got = cf.value(k)
        assert sorted(calls) == ["any", "any", "gcd", "gcd"]
        assert got == Fraction(-1, 3) ** (k // 2) * (a1 if k % 2 else a0)


# ---------------------------------------------------------------------------
# central order-2 specs: one root branch in every carrier, the Lucas form
# for irrational roots and the root form for rational ones

CENTRAL_CARRIERS = {
    "H": H, "H2": H2, "(1,1)": QuaternionAlgebra(1, 1), "(2,3)": QuaternionAlgebra(2, 3),
    "O": O, "(2,3,-1)": OctonionAlgebra(2, 3, -1), "(1,1,1)": OctonionAlgebra(1, 1, 1),
}


@pytest.mark.parametrize("alg", CENTRAL_CARRIERS.values(), ids=CENTRAL_CARRIERS.keys())
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_central_specs_take_the_lucas_form_in_every_carrier(alg, data):
    fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    roots = data.draw(st.sampled_from(["irrational", "distinct", "double"]))
    if roots == "irrational":
        t, n = data.draw(fracs), data.draw(fracs.filter(bool))
        assume(solver._sqrt(Q.scalar(t * t - 4 * n)) is None)
    else:
        r1 = data.draw(fracs.filter(bool))
        r2 = r1 if roots == "double" else data.draw(fracs.filter(lambda r: r and r != r1))
        t, n = r1 + r2, r1 * r2
    init = tuple(alg.element(data.draw(st.lists(fracs, min_size=alg.dim, max_size=alg.dim)))
                 for _ in range(2))
    spec = RecurrenceSpec(alg, 2, (-n, t), init)
    cf = solve(spec)
    if roots == "irrational":
        assert cf == CompanionForm(alg, (Q.scalar(n), Q.scalar(-t)), init)
    else:
        assert isinstance(cf, AssocForm) and cf.carrier == alg
        assert {term.base for term in cf.terms} <= {alg.scalar(r1), alg.scalar(r2)}
    assert _certifies(spec, cf)
    assert verify_closed_form(spec, cf, 64).ok


# ---------------------------------------------------------------------------
# one kernel per job on the root path

DEMO_SPECS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "demos", "specs",
                                           "*.rec")))


@contextlib.contextmanager
def _one_kernel_per_job():
    """Fail on any companion matrix or value evaluation of a polynomial:
    chains take the m x m companion step off rhs and roots the integer
    root test."""
    def fail(what):
        return lambda *args, **kwargs: pytest.fail(f"solve called {what}")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matlin, "companion_matrix", fail("companion_matrix"))
        mp.setattr(LeftPoly, "eval", fail("LeftPoly.eval"))
        yield


@pytest.mark.parametrize("path", DEMO_SPECS, ids=os.path.basename)
def test_solve_runs_no_flattened_solve_companion_matrix_or_value_eval(path):
    with open(path, encoding="utf-8") as fh:
        spec = parse_spec_file(fh.read())
    with _one_kernel_per_job():
        cf = solve(spec)
    assert verify_closed_form(spec, cf, 8).ok


COPIES = (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)))


@pytest.mark.parametrize("x", [Q.ratio(-3, 4), FieldContext(5).element((Fraction(1, 2), -2)),
                               H.element([1, Fraction(-2, 3), 0, 5]),
                               O.element([0, 1, 0, 0, Fraction(1, 7), 0, -3, 2])], ids=repr)
def test_values_copy_and_pickle(x):
    for dup in COPIES:
        y = dup(x)
        assert y == x and hash(y) == hash(x)


@pytest.mark.parametrize("path", DEMO_SPECS, ids=os.path.basename)
def test_specs_and_forms_pickle(path):
    with open(path, encoding="utf-8") as fh:
        spec = parse_spec_file(fh.read())
    cf = solve(spec)
    ks = [*range(spec.order + 2), 300]
    before = pickle.dumps((spec, cf))
    want = [cf.value(k) for k in ks]  # the first value() caches the evaluator
    for blob in (before, pickle.dumps((spec, cf))):
        spec2, cf2 = pickle.loads(blob)
        assert spec2 == spec
        assert render_closed_form(cf2) == render_closed_form(cf)
        assert [cf2.value(k) for k in ks] == want
    assert copy.deepcopy(spec) == spec
    assert [copy.deepcopy(cf).value(k) for k in ks] == want
    # a form is a value: it equals a second solve of its spec, its deep copy
    # and its unpickled copy, with equal hashes
    for other in (solve(spec), copy.deepcopy(cf), pickle.loads(before)[1]):
        assert other == cf and hash(other) == hash(cf)
    # so is a frame, proved when it is built and never changed after
    if isinstance(cf, OctSplitForm):
        fr = cf.frame
        assert fr == SubalgebraFrame(spec.algebra, fr.u, fr.w, fr.ell)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fr.quat = QuaternionAlgebra(fr.quat.a, 2 * fr.quat.b)


R2 = FieldContext(2)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_drawn_jordan_and_user_root_specs_take_one_kernel_per_job(data):
    fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    alg = data.draw(st.sampled_from([H, H2, R2]), label="algebra")

    def element():
        xs = data.draw(st.lists(fracs, min_size=alg.dim, max_size=alg.dim))
        return alg.element(xs)

    kind = data.draw(st.sampled_from(["jordan", "jordan roots given", "roots given"]))
    lam = element()
    assume(not lam.is_zero())
    if kind == "roots given":  # simple user roots, planted
        lams = [lam] + [element() for _ in range(data.draw(st.integers(0, 2)))]
        assume(len(set(lams)) == len(lams) and not any(x.is_zero() for x in lams))
        spec = RecurrenceSpec(alg, len(lams), _planted_rhs(lams),
                              tuple(element() for _ in lams), roots=tuple((x, 1) for x in lams))
    else:  # (x - lam)^2, its double root found by solve or given
        roots = ((lam, 2),) if kind == "jordan roots given" else None
        spec = RecurrenceSpec(alg, 2, (-(lam * lam), 2 * lam), (element(), element()), roots=roots)
    try:
        with _one_kernel_per_job():
            cf = solve(spec)
    except (LamViolation, NoRootsFound, SingularU):
        assume(False)
    assert verify_closed_form(spec, cf, 12).ok


def test_a_norm_zero_chain_root_raises_zero_divisor_before_any_chain(monkeypatch):
    # 1 + e1 has norm 0 in the split (1, 1): its lam^-1 is taken before the
    # chains are built, so no chain step runs
    lam = S11.element([1, 1, 0, 0])
    spec = RecurrenceSpec(S11, 2, (-(lam * lam), 2 * lam), (1, 0), roots=((lam, 2),))
    monkeypatch.setattr(matlin, "_companion_step", lambda *args: pytest.fail("chain step"))
    with _one_kernel_per_job():
        with pytest.raises(ZeroDivisor, match=re.escape(
                "[1,1,0,0] has norm 0, so (1,1 | Q) is not a division algebra")):
            solve(spec)


def test_the_census_q_grid_gives_its_recorded_counts():
    # tests/census.py reruns every grid in CI; here the Q grids, of orders
    # 2 and 3, with each solved form checked against iteration
    import census
    with open(os.path.join(os.path.dirname(__file__), "census.txt"), encoding="utf-8") as fh:
        table = fh.read().splitlines()
    orders = []
    for title, carrier, rhs_tuples, init in census.grids():
        if carrier == Q:
            lines = census.block(title, census.census(carrier, rhs_tuples, init))
            at = table.index(lines[0])
            assert table[at:at + len(lines)] == lines
            orders.append(len(init))
    assert orders == [2, 3]
