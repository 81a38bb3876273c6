"""Recorded mutants of src/skewrec, each of which its named tests must kill.

    python3 tests/mutants.py

Each entry of MUTANTS names a module of src/skewrec, a snippet that must
occur in it exactly once, the snippet's replacement, and the pytest node ids
that must fail once the replacement is made.  EQUIVALENT lists mutants that
change no behaviour, each with the reason why: their named tests must still
pass, and if one fails, the code it points at has changed.

The runner copies src/, tests/, demos/ and pyproject.toml to a temporary
directory, checks that every named test passes there, then applies one
mutant at a time and runs its tests with pytest in a subprocess, under the
`mutants` Hypothesis profile of tests/conftest.py: a test fails on its first
failing example, and the profile spends no time shrinking it.  It exits 1
if a mutant survives, an equivalent mutant is killed, a snippet does not
occur exactly once, or a named test fails on the unmutated copy.  The
working tree is never changed.  Only the standard library is imported here;
the subprocesses need pytest, hypothesis and sympy, as the test suite does.

A change that adds a check adds the mutants that the check must kill here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "demos", "pyproject.toml")
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    module: str  # a file of src/skewrec
    snippet: str
    replacement: str
    tests: tuple  # pytest node ids, relative to the repository root
    reason: str = ""  # for an equivalent mutant: why nothing changes


ALG, CLI, FORMS, MATLIN, POLY, SCALAR, SOLVER = (
    "algebra.py", "cli.py", "forms.py", "matlin.py", "poly.py", "scalar.py", "solver.py")
# the doubling lemma's seven pairs (i, j) of the frame f = (1, u, w, u*w,
# ell, u*ell, w*ell, (u*w)*ell), as _frame_basis lists them
PAIRS = ("(1, 0)", "(2, 0)", "(2, 1)", "(4, 0)", "(4, 1)", "(4, 2)", "(4, 3)")
ONE_HYPOTHESIS = ("tests/test_algebra.py::test_a_frame_breaking_one_lemma_hypothesis_alone_is_degenerate",
                  "tests/test_algebra.py::test_seven_orthogonalities_decide_as_the_full_gram_test")
ZERO_HALF = ("tests/test_algebra.py::"
             "test_an_octonion_factor_with_a_zero_half_multiplies_as_the_full_product_does",)
REDUCER = ("tests/test_solver.py::test_power_reducer_gives_the_lowest_terms_of_every_coordinate",
           "tests/test_solver.py::test_power_reducer_at_every_cap_for_small_k")


def _pairs(skip=None) -> str:
    return "(" + ", ".join(p for p in PAIRS if p != skip) + ")"


MUTANTS = [
    # the arithmetic kernels that the solver, the certificate and
    # iterate_oracle all multiply and reduce through
    Mutant("quaternion product with the sign of its AB term flipped", ALG,
           "- ABz * z2,", "+ ABz * z2,",
           ("tests/test_algebra.py::test_multiplication_table",)),
    Mutant("quaternion product with its e3 cross term reversed", ALG,
           "Dx * y2 - Dy * x2)", "Dy * x2 - Dx * y2)",
           ("tests/test_algebra.py::test_multiplication_table",)),
    Mutant("central product test misses the e3 coordinate", ALG,
           "if not (q[1] or q[2] or q[3]):", "if not (q[1] or q[2]):",
           ("tests/test_algebra.py::test_multiplication_table",)),
    Mutant("a central left factor scales by the right one", ALG,
           "return other._scaled(p[0], self.den)", "return self._scaled(q[0], other.den)",
           ("tests/test_algebra.py::test_a_rational_factor_multiplies_as_the_full_product_does",)),
    Mutant("a central left octonion factor scales by the right one", ALG,
           "return o._scaled(self.num[0], self.den)", "return self._scaled(o.num[0], o.den)",
           ("tests/test_algebra.py::test_a_rational_factor_multiplies_as_the_full_product_does",)),
    Mutant("octonion product takes t*q as q*t", ALG,
           "tq, rs = _quat_mul(c, t, q)", "tq, rs = _quat_mul(c, q, t)",
           ("tests/test_algebra.py::test_norm_multiplicative_and_alternative_laws",)),
    Mutant("octonion product with gamma's sign flipped", ALG,
           "Gd * a + G * b", "Gd * a - G * b",
           ("tests/test_algebra.py::test_doubling_unit",)),
    # the octonion product by a factor with a zero second half
    Mutant("zero-half product drops Gd", ALG,
           "return num if Gd == 1 else tuple([Gd * a for a in num])", "return num", ZERO_HALF),
    Mutant("tq taken as q*t", ALG,
           "+ _quat_mul(c, t, q)", "+ _quat_mul(c, q, t)", ZERO_HALF),
    Mutant("Q(sqrt(d)) product without d", SCALAR,
           "u1 * u2 + d * (v1 * v2)", "u1 * u2 + (v1 * v2)",
           ("tests/test_scalar.py::test_quadratic_multiplication",)),
    Mutant("sum never reduced", SCALAR,
           "return _reduced(self.__class__, self.carrier, num, den, g)",
           "return _make(self.__class__, self.carrier, num, den)",
           ("tests/test_scalar.py::test_field_axioms",)),
    Mutant("sum scales the wrong operand when one denominator divides the other", SCALAR,
           "if g == d2:  # only o is scaled", "if g == d1:  # only o is scaled",
           ("tests/test_algebra.py::test_a_sum_scales_only_the_operand_whose_denominator_is_not_the_lcm",)),
    Mutant("scaling without its numerator gcd", SCALAR,
           "g1, g2 = gcd(p, den), gcd(q, *num)", "g1, g2 = gcd(p, den), 1",
           ("tests/test_algebra.py::test_octonion_scaling_is_coordinatewise",)),
    Mutant("inverse without D", SCALAR, "s = D * self.den", "s = self.den",
           ("tests/test_solver.py::test_lucas_evaluator_matches_powers_and_iteration",)),
    Mutant("product by a narrow factor bounds its gcd without the factor's norm", SCALAR,
           "w0 * dz * gcd(do, m))", "w0 * dz)",
           ("tests/test_algebra.py::test_planted_products_reduce_by_the_norm_of_the_narrow_factor",)),
    Mutant("wide reduction shifts out more 2s than its bound has", SCALAR,
           "if v := min(e, (low & -low).bit_length() - 1):", "if v := (low & -low).bit_length() - 1:",
           ("tests/test_algebra.py::test_planted_wide_reductions_shift_out_only_the_2s_their_bound_has",)),
    Mutant("wide reduction takes its odd gcd against the whole bound", SCALAR,
           "            b >>= e\n", "",
           ("tests/test_algebra.py::test_planted_wide_reductions_shift_out_only_the_2s_their_bound_has",)),
    Mutant("reduction keeps a negative denominator", SCALAR,
           "        if den < 0:\n            g = -g\n", "",
           ("tests/test_scalar.py::test_field_axioms",)),
    # the integer root search: its prime must not divide the discriminant
    Mutant("root search takes p = 3 even when 3 divides the discriminant", POLY,
           "if disc % p and all(", "if all(",
           ("tests/test_poly.py::test_integer_roots_skip_every_prime_of_the_discriminant",)),
    # the octonion frame: each of the doubling lemma's seven hypotheses, and
    # the norms, is tested by _frame_basis
    *[Mutant(f"frame check skips the pair (i, j) = {p}", ALG, _pairs(), _pairs(p), ONE_HYPOTHESIS)
      for p in PAIRS],
    Mutant("frame check skips the zero test of the Gram diagonal", ALG,
           "if 0 in gram or any(", "if any(",
           ("tests/test_algebra.py::test_frame_constructor_rejects_degenerate_bases",)),
    Mutant("frame column u*ell off by one", ALG,
           "ell, u * ell, w * ell, uw * ell)", "ell, u * ell + 1, w * ell, uw * ell)",
           ("tests/test_algebra.py::test_frame_embed_decompose_roundtrip",)),
    Mutant("build_frame takes ell = u*w inside the quaternion part", ALG,
           "return SubalgebraFrame(alg, u, w, ell)",
           "return SubalgebraFrame(alg, u, w, span[3])",
           ("tests/test_algebra.py::test_frame_orthogonality_invariants",)),
    Mutant("frame constructor takes w*u for u*w", ALG, "uw = u * w", "uw = w * u",
           ("tests/test_solver.py::test_frame_check_against_the_product_identities",)),
    # the roots of a quaternion quadratic (quadratic_roots): a central
    # candidate is tested, a class root is X^-1 Y by theorem
    Mutant("central-p refusal dropped", POLY,
           '    if all(c.is_central() for c in p.coeffs):\n'
           '        raise ValueError("quadratic_roots needs a non-central coefficient: "\n'
           '                         "a central quadratic is solved by its discriminant")\n', "",
           ("tests/test_poly.py::test_quadratic_roots_spherical",)),
    Mutant("central candidate kept without its root test", POLY,
           "if _is_root(p.coeffs, lam):", "if True:",
           ("tests/test_poly.py::test_quadratic_roots_none",)),
    Mutant("class root taken as Y * conj(X), a right quotient", POLY,
           "consts, _conj4(X), Y)", "consts, Y, _conj4(X))",
           ("tests/test_poly.py::test_quadratic_roots_two_distinct_classes",)),
    # a lone root is a Jordan root only if its cofactor is in its class and,
    # as it, central or not
    Mutant("Jordan test taken as passed", POLY,
           "if not (any(Z[1:]) == any(ln[1:])", "if False and not (any(Z[1:]) == any(ln[1:])",
           ("tests/test_solver.py::test_a_single_isolated_root_is_no_closed_form",)),
    Mutant("Jordan test pairs a central root with a non-central cofactor", POLY,
           "any(Z[1:]) == any(ln[1:]) and ", "",
           ("tests/test_solver.py::test_a_single_isolated_root_is_no_closed_form",)),
    # three user roots of one (trace, norm) make U singular
    Mutant("three roots of one class let through", SOLVER,
           "if counts[cls] >= 3:", "if counts[cls] >= 4:",
           ("tests/test_solver.py::test_lam_violation",)),
    # elimination takes entries that do not associate only if all are central
    Mutant("elimination tests only the first octonion entry for being central", MATLIN,
           "for x in m.entries)", "for x in m.entries[:1])",
           ("tests/test_matlin.py::test_inverse_rejects_octonion_entries",)),
    # the search step's central branch: every rhs central, in any carrier
    Mutant("central root branch taken when any rhs is central", SOLVER,
           "if not (field or all(r.is_central() for r in spec.rhs)):",
           "if not (field or any(r.is_central() for r in spec.rhs)):",
           ("tests/test_solver.py::test_a_spec_with_one_central_coefficient_takes_the_root_search",)),
    # the search step declines what it cannot solve before any path runs;
    # RecurrenceSpec takes every recurrence
    Mutant("octonion order check dropped from the search step", SOLVER,
           '    if octonion and spec.order != 2:\n'
           '        raise UnsupportedOrder("octonion recurrences are solved at order 2 only")\n', "",
           ("tests/test_solver.py::test_spec_validation",)),
    Mutant("octonion roots check dropped from the search step", SOLVER,
           '    if octonion and spec.roots is not None:\n'
           '        raise ValidationError("user roots are not accepted for octonion specs")\n', "",
           ("tests/test_solver.py::test_spec_validation",)),
    # the octonion split proposes its ell half from conjugated coefficients
    # and conjugated initial values
    Mutant("octonion tail proposed with rhs in place of its conjugate", SOLVER,
           "tuple(c.conj() for c in rhs)", "rhs",
           ("tests/test_solver.py::test_octonion_two_distinct_roots",)),
    Mutant("octonion tail proposed from unconjugated initial values", SOLVER,
           "(s.conj(), t.conj())", "(s, t)",
           ("tests/test_solver.py::test_solve_keeps_no_term_whose_right_factor_is_zero",)),
    # the public Jordan form's chains start at eigenvectors of a companion
    # matrix only
    Mutant("jordan_from_roots takes a matrix that is not a companion matrix", MATLIN,
           "if any(a.entry(i, j)", "if False and any(a.entry(i, j)",
           ("tests/test_matlin.py::"
            "test_jordan_from_roots_refuses_a_matrix_that_is_not_a_companion_matrix",)),
    Mutant("jordan_from_roots takes a matrix that is not square", MATLIN,
           'if a.rows != a.cols:\n        raise DimensionMismatch("jordan_from_roots',
           'if False:\n        raise DimensionMismatch("jordan_from_roots',
           ("tests/test_matlin.py::test_jordan_from_roots_needs_a_square_matrix",)),
    Mutant("jordan_from_roots takes block sizes that do not sum to n", MATLIN,
           "if sum(m for _, m in rootdata) != n:", "if False:",
           ("tests/test_matlin.py::test_jordan_from_roots_errors",)),
    # vandermonde coerces its nodes into one carrier, as jordan_from_roots does
    Mutant("vandermonde takes nodes of two carriers", MATLIN,
           "[(coerce(node), 1) for node in nodes]", "[(node, 1) for node in nodes]",
           ("tests/test_matlin.py::test_vandermonde_coerces_each_node_into_the_first_nodes_carrier",)),
    # the chain step of the solver's Jordan form reads rhs, the companion
    # matrix's last row, and builds no companion matrix
    Mutant("companion matrix built for the chain step's last row", SOLVER,
           "u = _chain_matrix(rootdata, spec.rhs,",
           "u = _chain_matrix(rootdata, __import__('skewrec.matlin', fromlist=['_'])"
           ".companion_matrix(\n        primitive_char_poly(spec)).row(spec.order - 1),",
           ("tests/test_solver.py::test_solve_runs_no_flattened_solve_companion_matrix_or_value_eval",)),
    # the evaluator is proved against the form's terms at k < deg C
    Mutant("Lucas groups add c*k*(k-1) to the first group", FORMS,
           "    return sums\n",
           "    S, R = next(iter(sums.values()))\n"
           "    while len(S) < 3:\n"
           "        S.append(S[0] - S[0])\n"
           "        R.append(R[0] - R[0])\n"
           "    S[1], S[2] = S[1] - S[0], S[2] + S[0]\n"
           "    return sums\n",
           ("tests/test_solver.py::test_solve_builds_no_evaluator_and_the_first_value_builds_one",)),
    # the one reader of a form's first values, for the certificate at
    # j < n and for the evaluator proof past it (AssocForm._values)
    Mutant("lam's power advances only while 0 < j < 2", FORMS,
           "if j:\n", "if 0 < j < 2:\n",
           ("tests/test_solver.py::test_the_values_reader_gives_the_first_oracle_values_on_every_form_kind",)),
    # the trusted checker: forms imports none of the search, not even in a
    # function body (a module-level import of poly would be an import cycle,
    # which fails every test at collection, not only the boundary test)
    Mutant("the certificate imports the root search", FORMS,
           'so their sum does; n values fix it."""\n',
           'so their sum does; n values fix it."""\n        from .poly import LeftPoly\n',
           ("tests/test_solver.py::test_the_trusted_checker_imports_none_of_the_search",)),
    # the companion form's whole proof, the annihilator proof
    # (_annihilates), over the one forward iterator, and the form solve
    # builds for it
    Mutant("annihilator proof drops C[0] from e_j", FORMS,
           "zip(C, a[j:])", "zip(C[1:], a[j + 1:])",
           ("tests/test_solver.py::test_certificate_rejects_what_iteration_rejects",)),
    Mutant("annihilator proof drops C[1] from e_j", FORMS,
           "zip(C, a[j:])", "zip(C[:1], a[j:])",
           ("tests/test_solver.py::test_certificate_rejects_what_iteration_rejects",)),
    Mutant("annihilator proof checks e_j at j = 0 only", FORMS,
           "for j in range(spec.order):", "for j in range(1):",
           ("tests/test_solver.py::test_the_annihilator_proof_checks_every_e_j_below_the_order",)),
    Mutant("annihilator proof compares values at k < N - 1 only", FORMS,
           "_check_values(values, a[:N],", "_check_values(values[:N - 1], a[:N - 1],",
           ("tests/test_solver.py::test_the_annihilator_proof_compares_every_value_below_deg_c",)),
    Mutant("forward iterator steps with rhs[1:]", FORMS,
           "for r, a in zip(rats, window)]", "for r, a in zip(rats[1:], window)]",
           ("tests/test_solver.py::test_solve_spherical",)),
    Mutant("a rational coefficient scaled by its numerator alone", FORMS,
           "(r.num[0], r.den)", "(r.num[0], 1)",
           ("tests/test_solver.py::test_certificate_rejects_what_iteration_rejects",)),
    Mutant("companion form proposed with C[0] off by one", SOLVER,
           "CompanionForm(alg, (c0, c1), spec.init)", "CompanionForm(alg, (c0 + 1, c1), spec.init)",
           ("tests/test_solver.py::test_solve_spherical",)),
    # each form's values are its carrier's, coerced when it is built
    Mutant("term form keeps its values as given", FORMS,
           "c = self.carrier.coerce", "c = lambda x: x",
           ("tests/test_solver.py::test_a_term_form_takes_only_values_of_its_carrier",)),
    Mutant("companion form keeps C as given", FORMS,
           '        object.__setattr__(self, "C", tuple([self.carrier.ctx.scalar(c) for c in self.C]))\n',
           "", ("tests/test_solver.py::test_a_companion_form_takes_only_a_rational_c",)),
    # the certificate of a root or split form, its `_certify`: its terms,
    # its frame's algebra and rhs, then its first n values against the
    # initial values
    Mutant("initial values of a root form not compared", FORMS,
           '"")\n        _check_values(self._values(spec.order), spec.init,',
           '"")\n        _check_values(spec.init, spec.init,',
           ("tests/test_solver.py::test_certificate_rejects_what_iteration_rejects",)),
    Mutant("initial values of a split form not compared", FORMS,
           '"tail ")\n        _check_values(self._values(spec.order), spec.init,',
           '"tail ")\n        _check_values(spec.init, spec.init,',
           ("tests/test_solver.py::test_certificate_rejects_what_iteration_rejects",)),
    Mutant("split form's main and tail taken over any quaternion algebra", FORMS,
           "if not self.main.carrier == self.tail.carrier == self.frame.quat:", "if False:",
           ("tests/test_solver.py::test_certificate_checks_the_frame",)),
    Mutant("split certificate skips the frame's algebra check", FORMS,
           "if self.frame.oct != spec.algebra:", "if False:",
           ("tests/test_solver.py::test_certificate_checks_the_frame",)),
    Mutant("octonion rhs-in-frame test skipped", FORMS,
           "if not s.is_zero():", "if False:",
           ("tests/test_solver.py::test_certificate_checks_the_frame",)),
    Mutant("octonion tail proved with rhs, not conj(rhs)", FORMS,
           '_certify_terms(self.tail, [r.conj() for r in rhs], "tail ")',
           '_certify_terms(self.tail, rhs, "tail ")',
           ("tests/test_solver.py::test_octonion_two_distinct_roots",)),
    Mutant("octonion main part not proved", FORMS,
           '_certify_terms(self.main, rhs, "main ")', "pass",
           ("tests/test_solver.py::test_certificate_rejects_what_iteration_rejects",)),
    Mutant("octonion tail not proved", FORMS,
           '_certify_terms(self.tail, [r.conj() for r in rhs], "tail ")', "pass",
           ("tests/test_solver.py::test_certificate_rejects_what_iteration_rejects",)),
    # the certificate's term proof (_certify_terms), which regroups products
    # and so takes a non-associative carrier only with central rhs and terms
    Mutant("term proof takes any octonion form", FORMS,
           "if not carrier.value_type.ASSOCIATIVE and not all(", "if False and not all(",
           ("tests/test_solver.py::test_a_non_central_octonion_term_form_is_refused_by_the_certificate",)),
    Mutant("term residual checked at k = 0 only", FORMS,
           "for k in range(d + 1):", "for k in range(1):",
           ("tests/test_solver.py::test_certificate_checks_every_point_up_to_the_degree",)),
    Mutant("term residual takes p(k) for p(k+j)", FORMS, "vals[k + j]", "vals[k]",
           ("tests/test_solver.py::test_solve_repeated_root",)),
    Mutant("a term passes whatever its residual", FORMS, "if any(num):", "if False:",
           ("tests/test_solver.py::test_certificate_rejects_what_iteration_rejects",
            "tests/test_solver.py::test_a_split_term_with_chi_lam_times_lam_b_nonzero_is_rejected")),
    # the evaluator's reduction (_PowerReducer and its call in _LucasSum)
    Mutant("value reduced by one gcd against den*s**k", FORMS,
           "return _make(zero.__class__, zero.carrier, *self.reduce(out, k))",
           "return _reduced(zero.__class__, zero.carrier, tuple(out), self.reduce.den * self.reduce.s ** k)",
           ("tests/test_solver.py::test_no_gcd_of_the_evaluator_grows_with_k",)),
    Mutant("power of 2 taken past its cap", FORMS,
           "v = min((x & -x).bit_length() - 1, cap)", "v = (x & -x).bit_length() - 1", REDUCER),
    Mutant("odd prime's gcd against p**(cap + 1)", FORMS,
           "f = gcd(p ** cap, *num)", "f = gcd(p ** (cap + 1), *num)", REDUCER),
    Mutant("base takes p for p**2", FORMS, "base *= p * p", "base *= p", REDUCER),
    Mutant("one-gcd path for k < 1 only", FORMS, "or k < 2:", "or k < 1:", REDUCER),
    Mutant("no gcd on the s = 1 path", FORMS,
           "den = self.den if s == 1 else self.den * s ** k",
           "den = self.den if s == 1 else self.den * s ** k\n"
           "            if s == 1:\n                return tuple(num), den",
           ("tests/test_solver.py::test_lucas_evaluator_matches_powers_and_iteration",)),
    Mutant("odd prime's tail gcd against p**(cap - 1)", FORMS,
           "f = gcd(p ** cap, *num)", "f = gcd(p ** (cap - 1), *num)", REDUCER),
    Mutant("no tail gcd for an odd prime", FORMS,
           "elif cap and not any(", "elif False and not any(", REDUCER),
    Mutant("tail gcd only when cap > 1", FORMS,
           "elif cap and not any(", "elif cap > 1 and not any(", REDUCER),
    # a form holds the terms its certificate proves, and no other, so its
    # text prints no other; it keeps them in one order, so forms of the same
    # terms are equal
    Mutant("a form keeps a term that contributes nothing", FORMS,
           "[t for t in terms if t.poly and t.right]", "terms",
           ("tests/test_solver.py::test_a_form_prints_only_the_terms_it_proves",)),
    Mutant("a form keeps its terms in the order given", FORMS,
           "_term_order([t for t in terms if t.poly and t.right])",
           "tuple([t for t in terms if t.poly and t.right])",
           ("tests/test_solver.py::test_a_hand_built_form_equals_the_form_of_its_live_terms",)),
    Mutant("a term keeps its trailing zero coefficients", FORMS,
           "while poly and not poly[-1]:", "while False:",
           ("tests/test_solver.py::test_a_term_form_takes_only_values_of_its_carrier",)),
    # the spec reader's one split of each line
    Mutant("spec line stripped of Unicode whitespace", CLI,
           '_TOKEN.findall(raw.split("#", 1)[0])', '_TOKEN.findall(raw.split("#", 1)[0].strip())',
           ("tests/test_cli.py::test_a_no_break_space_in_a_literal_is_a_parse_error_at_its_column",)),
    Mutant("tab read as part of a token", CLI, r'_TOKEN = re.compile(r"[^ \t]+")',
           r'_TOKEN = re.compile(r"[^ ]+")',
           ("tests/test_cli.py::test_respaced_demo_specs_parse_to_the_same_spec",)),
    Mutant("a 0 after a root read as its multiplicity", CLI, "int(tok) >= 1", "int(tok) >= 0",
           ("tests/test_cli.py::test_parse_roots_and_height",)),
    # the reader keeps token texts and finds a column only for an error
    Mutant("a value's error placed at the token before it", CLI,
           "lambda i: _column(raw, i + 1)", "lambda i: _column(raw, i)",
           ("tests/test_cli.py::test_a_malformed_token_is_placed_at_its_own_column",)),
    Mutant("a root's error placed by its index among the roots", CLI,
           "lambda i: _column(raw, at[i])", "lambda i: _column(raw, i + 1)",
           ("tests/test_cli.py::test_a_malformed_token_is_placed_at_its_own_column",)),
    # the integer literal fast path
    Mutant("integer literal fast path drops a coordinate's sign", SCALAR,
           "tuple(map(int, g[::2]))", "tuple([abs(int(p)) for p in g[::2]])",
           ("tests/test_cli.py::test_integer_literals_read_as_their_coordinates_over_one",)),
    # the trusted base holds what the checker runs
    Mutant("an uncalled helper in scalar", SCALAR,
           "_new = object.__new__\n", "_new = object.__new__\n\n\ndef _unused(x):\n    return x\n",
           ("tests/test_solver.py::test_the_checker_reaches_every_trusted_function_but_the_listed_ones",)),
]

EQUIVALENT = [
    Mutant("central hash maps -1 to -2 itself", SCALAR,
           "return h if n >= 0 else -h",
           "h = h if n >= 0 else -h\n        return -2 if h == -1 else h",
           ("tests/test_scalar.py::test_central_values_hash_like_their_fractions",
            "tests/test_algebra.py::test_equal_values_hash_equal"),
           reason="Python maps a __hash__ result of -1 to -2 for every class"),
]


def _pytest(copy: str, tests) -> int:
    """pytest's exit status on the named tests of the copy."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-profile=mutants", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory(prefix="skewrec-mutants-") as copy:
        for name in COPIED:
            src = os.path.join(ROOT, name)
            if os.path.isdir(src):
                shutil.copytree(src, os.path.join(copy, name),
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, copy)
        named = sorted({t for m in MUTANTS + EQUIVALENT for t in m.tests})
        status = _pytest(copy, named)
        if status != 0:
            print(f"the named tests do not pass unmutated (pytest exit {status})")
            return 1
        for m in MUTANTS + EQUIVALENT:
            path = os.path.join(copy, "src", "skewrec", m.module)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            found = text.count(m.snippet)
            if found != 1:
                problems.append(f"{m.name}: snippet found {found} times in {m.module}")
                print(f"ERROR     {problems[-1]}")
                continue
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(m.snippet, m.replacement))
            start = time.perf_counter()
            try:
                status = _pytest(copy, m.tests)
            except subprocess.TimeoutExpired:
                status = None
            finally:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            took = f"{time.perf_counter() - start:5.1f} s"
            if m.reason:
                verdict = "survived" if status == 0 else "KILLED"
                if status != 0:
                    problems.append(f"equivalent mutant {m.name} fails its tests")
            else:
                verdict = "killed" if status == 1 else "SURVIVED" if status == 0 else "ERROR"
                if status != 1:
                    problems.append(f"{m.name}: pytest exit {status}, not 1")
            print(f"{verdict:9} {took}  {m.name}")
    print(f"{len(MUTANTS)} mutants, {len(EQUIVALENT)} equivalent: "
          + ("all as recorded" if not problems else f"{len(problems)} problems"))
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
