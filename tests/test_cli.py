import glob
import os
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewrec import (
    FieldContext,
    OctonionAlgebra,
    ParseError,
    QuaternionAlgebra,
    UnsupportedOrder,
    ValidationError,
)
from skewrec.cli import (
    main,
    parse_spec_file,
    render_closed_form,
    render_spec,
)
from skewrec import cli, forms, solver
from skewrec.forms import Term, _term_order
from skewrec.solver import iterate_oracle, solve

DEMO_DIR = os.path.join(os.path.dirname(__file__), "..", "demos", "specs")

DIAG_TEXT = """\
algebra quaternion -1 -1
order 2
rhs [-1,0,0,-1] [0,1,0,0]
init [1,0,0,0] [1,0,0,0]
"""


def test_parse_spec_file():
    spec = parse_spec_file(DIAG_TEXT)
    assert isinstance(spec.algebra, QuaternionAlgebra)
    H = QuaternionAlgebra(-1, -1)
    assert spec.rhs == (-1 - H.e3, H.e1)
    assert spec.init == (H.one(), H.one())
    assert spec.roots is None


def test_parse_comments_and_blanks():
    spec = parse_spec_file(
        "# a comment\nalgebra field\n\norder 1\nrhs 2  # trailing\ninit 3\n")
    assert spec.order == 1
    assert spec.rhs[0] == 2


def test_parse_roots_and_height():
    text = "algebra field\norder 2\nrhs -2 3\ninit 0 1\nroots 1 1 2 1\n"
    spec = parse_spec_file(text)
    assert spec.roots == ((FieldContext.rational().scalar(1), 1),
                          (FieldContext.rational().scalar(2), 1))
    # the format has no height key: no search needs a bound
    with pytest.raises(ParseError) as exc:
        parse_spec_file(text + "height 12\n")
    assert (exc.value.reason, exc.value.line, exc.value.col) == ("unknown key 'height'", 6, 1)
    # a bare positive integer right after an element is its multiplicity
    spec = parse_spec_file(
        "algebra field\norder 2\nrhs -1 2\ninit 1 5\nroots 1 2\n")
    assert spec.roots == ((FieldContext.rational().scalar(1), 2),)
    # a 0 is no multiplicity: it is the next root
    spec = parse_spec_file(text.replace("roots 1 1 2 1", "roots 2 0"))
    assert spec.roots == ((FieldContext.rational().scalar(2), 1),
                          (FieldContext.rational().scalar(0), 1))
    spec = parse_spec_file(
        "algebra quaternion -1 -1\norder 2\nrhs [0,0,0,1] [0,1,1,0]\n"
        "init [1,0,0,0] [0,0,0,0]\nroots [0,1,0,0] 2\n")
    H = QuaternionAlgebra(-1, -1)
    assert spec.roots == ((H.e1, 2),)
    from skewrec.solver import solve as _solve, verify_closed_form
    assert verify_closed_form(spec, _solve(spec), 32).ok


def test_parse_octonion_and_field_sqrt():
    spec = parse_spec_file(
        "algebra octonion -1 -1 -1\norder 2\n"
        "rhs [-1,0,0,-1,0,0,0,0] [0,1,0,0,0,0,0,0]\n"
        "init [1,0,0,0,0,0,0,0] [0,0,0,0,1,0,0,0]\n")
    assert isinstance(spec.algebra, OctonionAlgebra)
    spec = parse_spec_file(
        "algebra field_sqrt 5\norder 2\nrhs 1 0+1*rt\ninit 0 1\n")
    assert spec.algebra.d == 5
    assert spec.rhs[1].coords()[1] == 1


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_spec_file("algebra field\nborder 2\n")
    assert exc.value.line == 2
    # a malformed literal is placed at its own column in the line, once
    for text, line, col in (
            ("algebra field\norder 2\nrhs 1/0 1\ninit 0 1\n", 3, 7),
            ("algebra quaternion -1 -1\norder 1\nrhs [1,2/0,0,0]\ninit [1,0,0,0]\n", 3, 10),
            ("algebra quaternion 1/0 -1\norder 1\nrhs [1,0,0,0]\ninit [1,0,0,0]\n", 1, 22),
            ("algebra field_sqrt 2\norder 1\nrhs 1+2\ninit 1\n", 3, 8)):
        with pytest.raises(ParseError) as exc:
            parse_spec_file(text)
        assert (exc.value.line, exc.value.col) == (line, col)
        assert str(exc.value).count("col") == 1
    # the last case: a second part with no '*rt' after it
    assert exc.value.reason == "expected '*rt'"
    # a duplicate key is placed at its own column, as an unknown key is
    for text, line, col in (("algebra field\nalgebra field\norder 1\nrhs 1\ninit 1\n", 2, 1),
                            ("algebra field\norder 1\n   order 1\nrhs 1\ninit 1\n", 3, 4),
                            ("algebra field\norder 1\n   rhs 1\n\trhs 1\ninit 1\n", 4, 2)):
        with pytest.raises(ParseError) as exc:
            parse_spec_file(text)
        key = text.splitlines()[line - 1].split()[0]
        assert (exc.value.line, exc.value.col, exc.value.reason) == (
            line, col, f"duplicate key {key!r}")
    with pytest.raises(ParseError):
        parse_spec_file("algebra quaternion -1 -1\norder 1\nrhs [1,0,0]\ninit [1,0,0,0]\n")
    # a '*rt' literal where the scalars are rational, an algebra parameter too
    for text, line, col in (
            ("algebra field\norder 1\nrhs 1+1*rt\ninit 1\n", 3, 5),
            ("algebra quaternion -1 -1\norder 1\nrhs [1+1*rt,0,0,0]\ninit [1,0,0,0]\n", 3, 6),
            ("algebra quaternion 1+1*rt -1\norder 1\nrhs [1,0,0,0]\ninit [1,0,0,0]\n", 1, 20)):
        with pytest.raises(ParseError) as exc:
            parse_spec_file(text)
        assert (exc.value.line, exc.value.col) == (line, col)
    # a parameter the algebra refuses is placed where the algebra form
    # starts, as a field_sqrt D that is no squarefree D > 1 is
    for form, reason in (("quaternion -1 0/5", "structure constants a, b must be nonzero"),
                         ("octonion -1 -1 0", "doubling parameter gamma must be nonzero")):
        with pytest.raises(ParseError) as exc:
            parse_spec_file(f"algebra {form}\norder 1\nrhs 1\ninit 1\n")
        assert (exc.value.line, exc.value.col, exc.value.reason) == (
            1, 9, f"bad algebra parameters: {reason}")


def test_validation_errors():
    with pytest.raises(ValidationError):
        parse_spec_file("algebra field\norder 1\nrhs 1\n")  # missing init
    with pytest.raises(ValidationError):
        parse_spec_file("algebra field\norder 2\nrhs 0 1\ninit 0 1\n")  # r0 = 0
    spec = parse_spec_file(  # a spec of any order, declined by solve
        "algebra octonion -1 -1 -1\norder 3\n"
        "rhs [1,0,0,0,0,0,0,0] [0,0,0,0,0,0,0,0] [0,0,0,0,0,0,0,0]\n"
        "init [1,0,0,0,0,0,0,0] [0,0,0,0,0,0,0,0] [0,0,0,0,0,0,0,0]\n")
    with pytest.raises(UnsupportedOrder, match="^octonion recurrences are solved at order 2 only$"):
        solve(spec)


def test_render_roundtrip():
    spec = parse_spec_file(DIAG_TEXT)
    text = render_spec(spec)
    again = parse_spec_file(text)
    assert again == spec
    assert render_spec(again) == text
    witht = parse_spec_file(
        "algebra field\norder 2\nrhs -1 2\ninit 1 5\nroots 1 2\n")
    assert parse_spec_file(render_spec(witht)) == witht


def test_render_elements():
    H = QuaternionAlgebra(-1, -1)
    assert str(1 + H.e1) == "[1,1,0,0]"
    assert str(FieldContext.rational().scalar(5) / 10) == "1/2"
    O = OctonionAlgebra(-1, -1, -1)
    assert str(O.ell0) == "[0,0,0,0,1,0,0,0]"


def test_render_closed_form_shapes():
    spec = parse_spec_file(open(os.path.join(DEMO_DIR, "quat_repeated_root.rec")).read())
    lines = render_closed_form(solve(spec))
    assert len(lines) == 1 and lines[0].startswith("a_k = ")
    assert "*k" in lines[0] and "^k" in lines[0]  # a degree-1 coefficient poly
    oct_spec = parse_spec_file(open(os.path.join(DEMO_DIR, "oct_two_roots.rec")).read())
    lines = render_closed_form(solve(oct_spec))
    assert lines[0].startswith("frame u = ")
    assert lines[-1].endswith(")*l") and " + conj(" in lines[-1]


def test_cli_commands(tmp_path, capsys):
    f = tmp_path / "diag.rec"
    f.write_text(DIAG_TEXT)
    assert main(["verify", str(f), "50"]) == 0
    assert capsys.readouterr().out.strip() == "PASS (k = 0..50)"
    assert main(["solve", str(f)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("a_k = ")
    assert main(["eval", str(f), "2"]) == 0
    assert capsys.readouterr().out.strip() == "[-1,1,0,-1]"
    assert main(["oracle", str(f), "2"]) == 0
    assert capsys.readouterr().out.strip() == "[-1,1,0,-1]"


def test_cli_eval_octonion_initial(tmp_path, capsys):
    f = tmp_path / "oct.rec"
    f.write_text(open(os.path.join(DEMO_DIR, "oct_two_roots.rec")).read())
    assert main(["eval", str(f), "1"]) == 0
    assert capsys.readouterr().out.strip() == "[0,0,0,0,1,0,0,0]"


def test_cli_fibonacci(tmp_path, capsys):
    f = tmp_path / "fib.rec"
    f.write_text("algebra field\norder 2\nrhs 1 1\ninit 0 1\n")
    assert main(["oracle", str(f), "10"]) == 0
    assert capsys.readouterr().out.strip() == "55"
    assert main(["solve", str(f)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "algebra field_sqrt 5"  # promotion is reported
    assert "1/2+1/2*rt" in out[1]


def test_an_octonion_spec_the_search_declines_exits_2_and_iterates(tmp_path, capsys):
    f = tmp_path / "oct3.rec"
    f.write_text("algebra octonion -1 -1 -1\norder 3\n"
                 "rhs [0,1,0,0,1,0,0,0] [1/2,0,0,0,0,0,0,0] [2,0,0,-1,0,0,0,0]\n"
                 "init [1,0,0,0,0,0,0,0] [0,0,0,0,1,0,0,0] [0,1,0,0,0,0,0,0]\n")
    for args in (["solve"], ["eval", "5"], ["verify", "5"]):
        assert main([args[0], str(f), *args[1:]]) == 2
        assert capsys.readouterr().err == "error: octonion recurrences are solved at order 2 only\n"
    assert main(["oracle", str(f), "5"]) == 0
    assert capsys.readouterr().out.strip() == str(iterate_oracle(parse_spec_file(f.read_text()), 5))


def test_cli_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.rec"
    assert main(["solve", str(missing)]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.rec"
    bad.write_text("algebra field\norder 2\nrhs 0 1\ninit 0 1\n")
    assert main(["solve", str(bad)]) == 2
    capsys.readouterr()
    bad.write_text("algebra field\norder 1\nrhs 1+1*rt\ninit 1\n")
    assert main(["solve", str(bad)]) == 2
    capsys.readouterr()
    bad.write_text("algebra octonion -1 -1 0\norder 1\nrhs 1\ninit 1\n")
    assert main(["solve", str(bad)]) == 2
    capsys.readouterr()
    unsolvable = tmp_path / "hard.rec"
    unsolvable.write_text(
        "algebra quaternion -1 -1\norder 2\nrhs [0,1,0,0] [0,0,0,0]\n"
        "init [1,0,0,0] [1,0,0,0]\n")
    assert main(["solve", str(unsolvable)]) == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", str(bad)])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("text, message", [
    ("algebra\norder 1\nrhs 2\ninit 1\n", "error: line 1, col 8: empty algebra line"),
    ("algebra quaternion -1\norder 1\nrhs 2\ninit 1\n",
     "error: line 1, col 9: unknown algebra form 'quaternion -1'"),
    ("algebra field\norder 0\nrhs 2\ninit 1\n", "error: order must be a positive integer"),
    ("algebra field\norder 2\nrhs 1 1\ninit 0\n", "error: init needs 2 values, got 1"),
], ids=["no algebra form", "unknown algebra form", "order 0", "init one value short"])
def test_cli_rejects_a_malformed_spec_with_its_message(tmp_path, capsys, text, message):
    spec = tmp_path / "bad.rec"
    spec.write_text(text)
    assert main(["solve", str(spec)]) == 2
    assert capsys.readouterr().err == message + "\n"


def test_cli_rejects_a_negative_k(tmp_path, capsys):
    spec = tmp_path / "pow2.rec"
    spec.write_text("algebra field\norder 1\nrhs 2\ninit 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["eval", str(spec), "-1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument k: must be nonnegative\n")


def test_a_term_with_a_bare_k_renders_it_without_a_constant():
    Q = FieldContext.rational()
    form = forms.AssocForm(Q, (Term((Q.zero(), Q.one()), Q.scalar(2), Q.one()),))
    assert render_closed_form(form) == ["a_k = (1*k)*(2)^k*(1)"]


def test_cli_refuses_a_field_it_cannot_factor_in_time(tmp_path, capsys):
    # two 61-bit prime factors are far past Pollard rho's step budget, both
    # in a field_sqrt line and in the discriminant of an order-2 field spec
    from sympy import nextprime

    from skewrec.scalar import RHO_BUDGET

    p = nextprime(2 ** 60)
    q = nextprime(p + 2 ** 32)
    spec = tmp_path / "big.rec"
    for text in (f"algebra field_sqrt {p * q}\norder 1\nrhs 2\ninit 1\n",
                 f"algebra field\norder 2\nrhs {p * q} 0\ninit 0 1\n"):
        spec.write_text(text)
        t0 = time.perf_counter()
        assert main(["solve", str(spec)]) == 2
        assert time.perf_counter() - t0 < 5.0
        err = capsys.readouterr().err
        assert str(p * q) in err and str(RHO_BUDGET) in err


def test_cli_solves_a_square_discriminant_it_cannot_factor(tmp_path, capsys):
    # the roots 1 and 1 + pq are rational: the discriminant's exact root is
    # found without factoring (pq)^2, which is past Pollard rho's budget
    from sympy import nextprime

    p = nextprime(2 ** 60)
    q = nextprime(p + 2 ** 32)
    spec = tmp_path / "square.rec"
    spec.write_text(f"algebra field\norder 2\nrhs {-(1 + p * q)} {2 + p * q}\ninit 0 1\n")
    t0 = time.perf_counter()
    assert main(["verify", str(spec), "16"]) == 0
    assert time.perf_counter() - t0 < 1.0
    capsys.readouterr()
    assert main(["solve", str(spec)]) == 0
    assert "algebra field_sqrt" not in capsys.readouterr().out


def _read_decimal(text: str) -> int:
    # int(text) refuses more than 4300 digits on CPython >= 3.10.7
    value = 0
    for i in range(0, len(text), 1000):
        value = value * 10 ** len(text[i:i + 1000]) + int(text[i:i + 1000])
    return value


def test_cli_prints_exact_values_past_the_int_str_limit(tmp_path, capsys):
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    spec = tmp_path / "pow2.rec"
    spec.write_text("algebra field\norder 1\nrhs 2\ninit 1\n")
    for command in ("eval", "oracle"):
        assert main([command, str(spec), "20000"]) == 0
        assert get_limit() == limit
        assert _read_decimal(capsys.readouterr().out.strip()) == 2 ** 20000


def test_cli_rejects_root_multiplicities_off_the_order(tmp_path, capsys):
    # 1 is a root of x^2 - e1*x - (1 - e1), but not of multiplicity 3
    spec = tmp_path / "mult.rec"
    spec.write_text("algebra quaternion -1 -1\norder 2\nrhs [1,-1,0,0] [0,1,0,0]\n"
                    "init [1,0,0,0] [0,0,1,0]\nroots [1,0,0,0] 3\n")
    assert main(["solve", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err == "error: root multiplicities must sum to the order 2\n"


NON_ASCII_DIGITS = (
    # str.isdigit accepts a superscript two, and int() an Arabic-Indic
    # three and an underscore; a spec file takes ASCII digits only
    ("algebra field\norder 1\nrhs 2\ninit ²\n", 4, 6),
    ("algebra field\norder 1\nrhs 2\ninit ٣\n", 4, 6),
    ("algebra field\norder 2\nrhs -1 2\ninit 1 5\nroots 1 ²\n", 5, 9),
    ("algebra quaternion -1 -1\norder 1\nrhs [1,²,0,0]\ninit [1,0,0,0]\n", 3, 8),
    ("algebra field\norder 1_0\nrhs 2\ninit 1\n", 2, 7),
    ("algebra field\norder ١\nrhs 2\ninit 1\n", 2, 7),
    ("algebra field_sqrt ٥\norder 1\nrhs 2\ninit 1\n", 1, 9),
)


@pytest.mark.parametrize("text,line,col", NON_ASCII_DIGITS)
def test_non_ascii_digits_are_parse_errors(text, line, col):
    with pytest.raises(ParseError) as exc:
        parse_spec_file(text)
    assert (exc.value.line, exc.value.col) == (line, col)


NO_BREAK_SPACES = {  # test id: (spec text, (reason, line, col))
    # the part "\xa01/0" of the literal starts at col 12, where the no-break
    # space is; stripped, it read as 1 or placed its zero denominator at col 14
    "\xa01": ("algebra quaternion -1 -1\norder 1\nrhs [1,0,0,\xa01]\ninit [1,0,0,0]\n",
              ("expected an integer", 3, 12)),
    "\xa01/0": ("algebra quaternion -1 -1\norder 1\nrhs [1,0,0,\xa01/0]\ninit [1,0,0,0]\n",
                ("expected an integer", 3, 12)),
    # only ASCII spaces and tabs separate tokens, at a line's ends too (a
    # token's repr in a message shows a no-break space as \xa0)
    "rhs \xa02": ("algebra field\norder 1\nrhs \xa02\ninit 1\n", ("expected an integer", 3, 5)),
    "\xa0algebra field": ("\xa0algebra field\norder 1\nrhs 2\ninit 1\n",
                          ("unknown key '\\xa0algebra'", 1, 1)),
    "order 2\xa0": ("algebra field\norder 2\xa0\nrhs -2 3\ninit 0 1\n",
                    ("order must be an integer, got '2\\xa0'", 2, 7)),
}


@pytest.mark.parametrize("text,expected", NO_BREAK_SPACES.values(), ids=NO_BREAK_SPACES)
def test_a_no_break_space_in_a_literal_is_a_parse_error_at_its_column(text, expected):
    with pytest.raises(ParseError) as exc:
        parse_spec_file(text)
    assert (exc.value.reason, exc.value.line, exc.value.col) == expected


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(glob.glob(os.path.join(DEMO_DIR, "*.rec")))), st.data())
def test_respaced_demo_specs_parse_to_the_same_spec(path, data):
    # tokens are separated by runs of ASCII spaces and tabs, at a line's ends
    # too, and a '#' comment ends any line
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    edge = st.text(st.sampled_from(" \t"), max_size=3)
    gap = st.text(st.sampled_from(" \t"), min_size=1, max_size=3)
    respaced = []
    for line in lines:
        toks = line.split("#", 1)[0].split()
        seps = [data.draw(edge), *[data.draw(gap) for _ in toks[1:]], data.draw(edge)]
        respaced.append("".join(map("".join, zip(seps, toks + [""]))) + "# comment")
    assert parse_spec_file("\n".join(respaced)) == parse_spec_file("\n".join(lines))


# coordinates the one-match element reader takes, and near-misses that it
# must leave to the positioned reader: a zero, signed or '+'-signed
# denominator, a '*rt' literal, non-ASCII digits, an empty coordinate
VALID_COORDS = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-999, 999), st.integers(1, 999)),
    st.builds(lambda sign, z, n: f"{sign}{'0' * z}{n}", st.sampled_from(["", "+", "-"]),
              st.integers(0, 3), st.integers(0, 99)),
    st.builds(lambda p, z, q: f"{p}/{'0' * z}{q}", st.integers(-99, 99), st.integers(1, 3),
              st.integers(1, 99)),
)
NEAR_MISSES = ["1/0", "3/00", "2/-3", "2/+3", "-2/+3", "+7/+1", "0/+05", "1+2*rt", "2*rt",
               "1/2-1*rt", "²", "٣", "1٣", "1/٣", "", " ", "+", "-", "1/", "/2", "1//2", "1_0",
               "0x1", "1.5", "1e3", "[1", "1]"]


def _read_element(token, alg):
    """alg.read's value for a token at line 7, col 3, as the spec reader
    places it, or its ParseError as (line, col, reason)."""
    try:
        return cli._read_all(alg, [token], 7, lambda i: 3)[0]
    except ParseError as exc:
        return (exc.line, exc.col, exc.reason)


def _read_by_the_positioned_reader(token, alg):
    from skewrec import scalar

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalar, "_ELEMENT", {alg.dim: re.compile(r"(?!)")})
        return _read_element(token, alg)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([QuaternionAlgebra(-1, -1), OctonionAlgebra(-1, -1, -1)]), st.data())
def test_element_reader_agrees_with_the_positioned_reader(alg, data):
    arity = data.draw(st.sampled_from([alg.dim] * 4 + [alg.dim - 1, alg.dim + 1]))
    parts = data.draw(st.lists(VALID_COORDS, min_size=arity, max_size=arity))
    if data.draw(st.booleans()):
        parts[data.draw(st.integers(0, arity - 1))] = data.draw(st.sampled_from(NEAR_MISSES))
    shape = data.draw(st.sampled_from(["[{}]"] * 12 + ["{}]", "[{}", "{}", "[[{}]"]))
    token = shape.format(",".join(parts))
    assert _read_element(token, alg) == _read_by_the_positioned_reader(token, alg)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([QuaternionAlgebra(-1, -1), QuaternionAlgebra(Fraction(-1, 2), 3),
                        OctonionAlgebra(-1, -1, -1)]), st.data())
def test_integer_literals_read_as_their_coordinates_over_one(alg, data):
    coords = data.draw(st.lists(st.integers(-10 ** 20, 10 ** 20), min_size=alg.dim,
                                max_size=alg.dim))
    parts = []  # each with a sign, "-0" and "+0" among them, and leading zeros
    for c in coords:
        sign = data.draw(st.sampled_from(["-"] if c < 0 else ["", "+", "-"] if c == 0 else ["", "+"]))
        parts.append(sign + "0" * data.draw(st.integers(0, 3)) + str(abs(c)))
    x = alg.read("[" + ",".join(parts) + "]")
    assert x == alg.element(coords)
    assert (x.num, x.den) == (tuple(coords), 1)


def test_a_literal_with_a_fraction_is_reduced():
    H = QuaternionAlgebra(-1, -1)
    half = H.read("[2/4,1,0,0]")
    assert str(half) == "[1/2,1,0,0]" and (half.num, half.den) == ((1, 2, 0, 0), 2)
    two = H.read("[4/2,-0,+6/3,0]")
    assert (two.num, two.den) == ((2, 0, 2, 0), 1)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_a_malformed_token_is_placed_at_its_own_column(data):
    # the reader keeps each line's token texts and finds a column from the
    # line only for an error: an algebra parameter, a value, and a root
    # after a multiplicity are each placed where they start
    lines = ["algebra quaternion -1 -1", "order 2", "rhs [1,0,0,0] [0,1,0,0]",
             "init [1,0,0,0] [0,0,1,0]", "roots [0,1,0,0] 1 [0,0,1,0] 1"]
    lineno = data.draw(st.sampled_from([1, 3, 4, 5]))
    toks = lines[lineno - 1].split()
    bad = data.draw(st.sampled_from([i for i, tok in enumerate(toks) if tok[0] in "-["]))
    toks[bad] = toks[bad][:-1] + "x"
    seps = [data.draw(st.text(st.sampled_from(" \t"), min_size=i > 0, max_size=3))
            for i in range(len(toks))]
    lines[lineno - 1] = "".join(sep + tok for sep, tok in zip(seps, toks)) + " # x"
    carrier = FieldContext() if lineno == 1 else QuaternionAlgebra(-1, -1)
    with pytest.raises(ParseError) as read:
        carrier.read(toks[bad])
    with pytest.raises(ParseError) as exc:
        parse_spec_file("\n".join(lines))
    start = len("".join(sep + tok for sep, tok in zip(seps[:bad], toks))) + len(seps[bad]) + 1
    assert (exc.value.reason, exc.value.line, exc.value.col) == (
        read.value.reason, lineno, start + read.value.col)


def test_element_reader_leaves_every_near_miss_to_the_positioned_reader():
    from skewrec import scalar

    alg = QuaternionAlgebra(-1, -1)
    for bad in NEAR_MISSES:
        for token in (f"[{bad},1,-2,3/4]", f"[1,-2,3/4,{bad}]"):
            assert not scalar._ELEMENT[4].fullmatch(token)
            assert _read_element(token, alg) == _read_by_the_positioned_reader(token, alg)
    # a '+' on a denominator is the reader's to accept
    assert _read_element("[1/+3,0,0,0]", alg) == alg.element([Fraction(1, 3), 0, 0, 0])
    token = "[-3/004,+2,0,7/21]"
    assert scalar._ELEMENT[4].fullmatch(token)
    assert _read_element(token, alg) == alg.element([Fraction(-3, 4), 2, 0, Fraction(1, 3)])


def test_cli_non_ascii_digits_exit_2(tmp_path, capsys):
    spec = tmp_path / "digits.rec"
    for text, line, col in NON_ASCII_DIGITS:
        spec.write_text(text, encoding="utf-8")
        assert main(["solve", str(spec)]) == 2
        assert capsys.readouterr().err.startswith(f"error: line {line}, col {col}: ")


def test_cli_spec_that_is_not_utf8_exits_2(tmp_path, capsys):
    # a byte that starts no UTF-8 sequence is reported, not raised
    # at its line and column, as every other parse error is, also after a
    # byte-order mark, which is no column
    spec = tmp_path / "latin1.rec"
    spec.write_bytes(b"algebra field\norder 1\nrhs 2\ninit \xff\n")
    bom = tmp_path / "bom_latin1.rec"
    bom.write_bytes(b"\xef\xbb\xbf" + spec.read_bytes())
    for argv in (["solve", str(spec)], ["eval", str(spec), "3"], ["solve", str(bom)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "can't decode byte 0xff" in captured.err
        assert captured.err == "error: line 4, col 6: can't decode byte 0xff: invalid start byte\n"
    # lines as the parser counts them (CRLF is one break), columns in characters
    spec.write_bytes(b"algebra field\r\norder 1\r\n\r\nrhs 2\r\ninit 1 \xe2\x82\xac\xe2\n")
    assert main(["solve", str(spec)]) == 2
    assert capsys.readouterr().err == ("error: line 5, col 9: can't decode byte 0xe2: "
                                       "invalid continuation byte\n")


def test_cli_verify_reports_the_first_failing_k(monkeypatch, capsys):
    # a Lucas sum off by 1 from k = 2 on passes the evaluator's own check of
    # a_0 and a_1, so only the comparison with iteration can catch it
    lucas_call = forms._LucasSum.__call__
    monkeypatch.setattr(forms._LucasSum, "__call__",
                        lambda self, k: lucas_call(self, k) + (1 if k >= 2 else 0))
    path = os.path.join(DEMO_DIR, "fibonacci.rec")
    assert main(["verify", path, "10"]) == 1
    assert capsys.readouterr().out == "FAIL at k=2\n"
    spec = parse_spec_file(open(path).read())
    assert solver.verify_closed_form(spec, solve(spec), 10).first_failure == 2


@pytest.mark.parametrize("command", [["solve"], ["eval", "1025"], ["verify", "16"]])
def test_a_byte_order_mark_changes_no_output(tmp_path, capsys, command):
    # editors on some systems save UTF-8 with a leading BOM; it is no key
    plain = os.path.join(DEMO_DIR, "quat_repeated_root.rec")
    bom = tmp_path / "bom.rec"
    with open(plain, "rb") as fh:
        bom.write_bytes(b"\xef\xbb\xbf" + fh.read())
    assert main([command[0], plain, *command[1:]]) == 0
    expected = capsys.readouterr()
    assert main([command[0], str(bom), *command[1:]]) == 0
    assert capsys.readouterr() == expected


def test_bundled_demo_files_solve_and_verify(capsys):
    files = sorted(glob.glob(os.path.join(DEMO_DIR, "*.rec")))
    assert len(files) >= 5
    for path in files:
        assert main(["verify", path, "50"]) == 0, path
        capsys.readouterr()
        text = open(path).read()
        spec = parse_spec_file(text)
        assert parse_spec_file(render_spec(spec)) == spec


def fraction_term_key(term):
    """The order terms were printed in: rational coordinates as Fractions."""
    return (tuple(term.base.coords()), len(term.poly),
            tuple(c for e in term.poly for c in e.coords()), tuple(term.right.coords()))


ORDER_COORDS = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2),
                                Fraction(2, 3), Fraction(-5, 6), Fraction(7, 4)])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([FieldContext.rational(), FieldContext(3),
                        QuaternionAlgebra(-1, -1), QuaternionAlgebra(Fraction(-1, 2), 3)]),
       st.data())
def test_term_order_is_the_fraction_order(carrier, data):
    # few coordinate values, so that bases and poly lengths often tie and
    # the later parts of the key decide; sorted() is stable in both orders
    value = st.lists(ORDER_COORDS, min_size=carrier.dim, max_size=carrier.dim).map(carrier.element)
    term = st.builds(Term, st.lists(value, min_size=1, max_size=3).map(tuple), value, value)
    terms = data.draw(st.lists(term, min_size=1, max_size=6))
    assert [id(t) for t in _term_order(terms)] == [id(t) for t in sorted(terms, key=fraction_term_key)]
