import glob
import os

import pytest

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
from skewrec.solver import algebra_kind, solve

DEMO_DIR = os.path.join(os.path.dirname(__file__), "..", "demos", "specs")

DIAG_TEXT = """\
algebra quaternion -1 -1
order 2
rhs [-1,0,0,-1] [0,1,0,0]
init [1,0,0,0] [1,0,0,0]
"""


def test_parse_spec_file():
    spec = parse_spec_file(DIAG_TEXT)
    assert algebra_kind(spec.algebra) == "quaternion"
    H = QuaternionAlgebra(-1, -1)
    assert spec.rhs == (-1 - H.e3, H.e1)
    assert spec.init == (H.one(), H.one())
    assert spec.height == 20 and spec.roots is None


def test_parse_comments_and_blanks():
    spec = parse_spec_file(
        "# a comment\nalgebra field\n\norder 1\nrhs 2  # trailing\ninit 3\n")
    assert spec.order == 1
    assert spec.rhs[0] == 2


def test_parse_roots_and_height():
    text = ("algebra field\norder 2\nrhs -2 3\ninit 0 1\n"
            "roots 1 1 2 1\nheight 12\n")
    spec = parse_spec_file(text)
    assert spec.roots == ((FieldContext.rational().scalar(1), 1),
                          (FieldContext.rational().scalar(2), 1))
    assert spec.height == 12
    # a bare positive integer right after an element is its multiplicity
    spec = parse_spec_file(
        "algebra field\norder 2\nrhs -1 2\ninit 1 5\nroots 1 2\n")
    assert spec.roots == ((FieldContext.rational().scalar(1), 2),)
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
    assert algebra_kind(spec.algebra) == "octonion"
    spec = parse_spec_file(
        "algebra field_sqrt 5\norder 2\nrhs 1 0+1*rt\ninit 0 1\n")
    assert spec.algebra.d == 5
    assert spec.rhs[1].v == 1


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_spec_file("algebra field\nborder 2\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_spec_file("algebra field\norder 2\nrhs 1/0 1\ninit 0 1\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError):
        parse_spec_file("algebra field\nalgebra field\norder 1\nrhs 1\ninit 1\n")
    with pytest.raises(ParseError):
        parse_spec_file("algebra quaternion -1 -1\norder 1\nrhs [1,0,0]\ninit [1,0,0,0]\n")


def test_validation_errors():
    with pytest.raises(ValidationError):
        parse_spec_file("algebra field\norder 1\nrhs 1\n")  # missing init
    with pytest.raises(ValidationError):
        parse_spec_file("algebra field\norder 2\nrhs 0 1\ninit 0 1\n")  # r0 = 0
    with pytest.raises(UnsupportedOrder):
        parse_spec_file(
            "algebra octonion -1 -1 -1\norder 3\n"
            "rhs [1,0,0,0,0,0,0,0] [0,0,0,0,0,0,0,0] [0,0,0,0,0,0,0,0]\n"
            "init [1,0,0,0,0,0,0,0] [0,0,0,0,0,0,0,0] [0,0,0,0,0,0,0,0]\n")


def test_render_roundtrip():
    spec = parse_spec_file(DIAG_TEXT)
    text = render_spec(spec)
    again = parse_spec_file(text)
    assert again == spec
    assert render_spec(again) == text
    witht = parse_spec_file(
        "algebra field\norder 2\nrhs -1 2\ninit 1 5\nroots 1 2\nheight 9\n")
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


def test_cli_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.rec"
    assert main(["solve", str(missing)]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.rec"
    bad.write_text("algebra field\norder 2\nrhs 0 1\ninit 0 1\n")
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


def test_bundled_demo_files_solve_and_verify(capsys):
    files = sorted(glob.glob(os.path.join(DEMO_DIR, "*.rec")))
    assert len(files) >= 5
    for path in files:
        assert main(["verify", path, "50"]) == 0, path
        capsys.readouterr()
        text = open(path).read()
        spec = parse_spec_file(text)
        assert parse_spec_file(render_spec(spec)) == spec
