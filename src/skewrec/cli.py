"""Command-line front end: skewrec {solve,eval,oracle,verify} FILE [K].

Spec files are line oriented, one key per line, '#' starting a comment:

    algebra field | field_sqrt D | quaternion A B | octonion A B G
    order N
    rhs E0 E1 ... E{N-1}          # a_{k+N} = sum rhs[j] * a_{k+j}
    init E0 E1 ... E{N-1}
    roots E [mult] E [mult] ...   # optional user-supplied roots
    height H                      # optional search bound, default 20

Scalar literals are INT, INT/POSINT, or U+V*rt (rt meaning sqrt(D) of a
field_sqrt context).  Quaternions are [w,x,y,z], octonions [s0,...,s7],
with scalar entries and no internal spaces.  On a roots line, a bare
positive integer directly after an element is read as that root's
multiplicity; write "roots 1 1 2 1" to give the two simple roots 1 and 2.

All output is exact.  Exit status: 0 for success or PASS, 1 for FAIL or a
solver failure, 2 for usage, parse or validation errors.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ParseError, SkewrecError, ValidationError
from .scalar import FieldContext, scalar_parse
from .algebra import OctonionAlgebra, QuaternionAlgebra
from .solver import (
    AssocForm,
    RecurrenceSpec,
    algebra_kind,
    eval_closed_form,
    iterate_oracle,
    solve,
    verify_closed_form,
)

_KEYS = ("algebra", "order", "rhs", "init", "roots", "height")


def _parse_bracketed(token: str, ctx: FieldContext, arity: int, line: int, col: int):
    if not (token.startswith("[") and token.endswith("]")):
        raise ParseError(f"expected a {arity}-component [..] literal", line, col)
    parts = token[1:-1].split(",")
    if len(parts) != arity:
        raise ParseError(f"expected {arity} components, got {len(parts)}", line, col)
    out = []
    offset = col + 1
    for part in parts:
        try:
            out.append(scalar_parse(part, ctx))
        except ParseError as exc:
            raise ParseError(str(exc), line, offset) from exc
        offset += len(part) + 1
    return out


def _parse_element(token: str, algebra, line: int, col: int):
    kind = algebra_kind(algebra)
    if kind == "field":
        try:
            return scalar_parse(token, algebra)
        except ParseError as exc:
            raise ParseError(str(exc), line, col) from exc
    if kind == "quaternion":
        return algebra.element(_parse_bracketed(token, algebra.ctx, 4, line, col))
    return algebra.element(_parse_bracketed(token, algebra.ctx, 8, line, col))


def _tokenize(rest: str, line: int, base_col: int):
    tokens = []
    col = base_col
    for tok in rest.split(" "):
        if tok:
            tokens.append((tok, col))
        col += len(tok) + 1
    return tokens


def _parse_algebra(rest: str, line: int, col: int):
    toks = [t for t, _ in _tokenize(rest, line, col)]
    if not toks:
        raise ParseError("empty algebra line", line, col)
    name = toks[0]
    rational = FieldContext.rational()

    def frac(tok):
        v = scalar_parse(tok, rational)
        return v.u

    try:
        if name == "field" and len(toks) == 1:
            return rational
        if name == "field_sqrt" and len(toks) == 2:
            return FieldContext.quadratic(int(toks[1]))
        if name == "quaternion" and len(toks) == 3:
            return QuaternionAlgebra(frac(toks[1]), frac(toks[2]))
        if name == "octonion" and len(toks) == 4:
            return OctonionAlgebra(frac(toks[1]), frac(toks[2]), frac(toks[3]))
    except (ValueError, ParseError) as exc:
        raise ParseError(f"bad algebra parameters: {exc}", line, col) from exc
    raise ParseError(f"unknown algebra form {rest!r}", line, col)


def parse_spec_file(text: str) -> RecurrenceSpec:
    """Parse and validate a recurrence spec file."""
    seen: dict[str, tuple[str, int, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        raw = raw.replace("\t", " ")
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        key = stripped.split(" ", 1)[0]
        if key not in _KEYS:
            raise ParseError(f"unknown key {key!r}", lineno, line.index(key) + 1)
        if key in seen:
            raise ParseError(f"duplicate key {key!r}", lineno, 1)
        rest = stripped[len(key):].strip()
        col = raw.index(rest, raw.index(key)) + 1 if rest else len(raw) + 1
        seen[key] = (rest, lineno, col)

    for key in ("algebra", "order", "rhs", "init"):
        if key not in seen:
            raise ValidationError(f"missing required key {key!r}")

    rest, lineno, col = seen["algebra"]
    algebra = _parse_algebra(rest, lineno, col)

    rest, lineno, col = seen["order"]
    try:
        order = int(rest)
    except ValueError:
        raise ParseError(f"order must be an integer, got {rest!r}", lineno, col)

    def elements(key):
        rest, lineno, col = seen[key]
        return [
            _parse_element(tok, algebra, lineno, tcol)
            for tok, tcol in _tokenize(rest, lineno, col)
        ]

    rhs = elements("rhs")
    init = elements("init")

    roots = None
    if "roots" in seen:
        rest, lineno, col = seen["roots"]
        toks = _tokenize(rest, lineno, col)
        roots = []
        i = 0
        while i < len(toks):
            tok, tcol = toks[i]
            elem = _parse_element(tok, algebra, lineno, tcol)
            i += 1
            mult = 1
            if i < len(toks) and toks[i][0].isdigit() and int(toks[i][0]) >= 1:
                mult = int(toks[i][0])
                i += 1
            roots.append((elem, mult))
        roots = tuple(roots)

    height = 20
    if "height" in seen:
        rest, lineno, col = seen["height"]
        try:
            height = int(rest)
        except ValueError:
            raise ParseError(f"height must be an integer, got {rest!r}", lineno, col)

    return RecurrenceSpec(algebra, order, tuple(rhs), tuple(init),
                          roots=roots, height=height)


def render_spec(spec: RecurrenceSpec) -> str:
    """Canonical file text; parse_spec_file(render_spec(s)) equals s."""
    kind = algebra_kind(spec.algebra)
    if kind == "field":
        alg = "field" if spec.algebra.kind == "rational" else f"field_sqrt {spec.algebra.d}"
    elif kind == "quaternion":
        alg = f"quaternion {spec.algebra.a} {spec.algebra.b}"
    else:
        alg = (f"octonion {spec.algebra.base.a} {spec.algebra.base.b} "
               f"{spec.algebra.gamma}")
    lines = [
        f"algebra {alg}",
        f"order {spec.order}",
        "rhs " + " ".join(map(str, spec.rhs)),
        "init " + " ".join(map(str, spec.init)),
    ]
    if spec.roots is not None:
        lines.append("roots " + " ".join(
            f"{r} {m}" for r, m in spec.roots))
    if spec.height != 20:
        lines.append(f"height {spec.height}")
    return "\n".join(lines) + "\n"


def _term_sort_key(term):
    return (
        tuple(term.base.coords()),
        len(term.poly),
        tuple(c for e in term.poly for c in e.coords()),
        tuple(term.right.coords()),
    )


def _render_poly(poly) -> str:
    parts = []
    for s in range(len(poly) - 1, -1, -1):
        c = poly[s]
        if c.is_zero():
            continue
        if s == 0:
            parts.append(str(c))
        elif s == 1:
            parts.append(f"{c}*k")
        else:
            parts.append(f"{c}*k^{s}")
    return " + ".join(parts) if parts else "0"


def _render_terms(form: AssocForm) -> str:
    if not form.terms:
        return "0"
    terms = sorted(form.terms, key=_term_sort_key)
    return " + ".join(
        f"({_render_poly(t.poly)})*({t.base})^k"
        f"*({t.right})"
        for t in terms
    )


def render_closed_form(cf) -> list[str]:
    """Deterministic text lines for a closed form."""
    if isinstance(cf, AssocForm):
        return ["a_k = " + _render_terms(cf)]
    frame = cf.frame
    lines = [
        f"frame u = {frame.u}",
        f"frame w = {frame.w}",
        f"frame l = {frame.ell}",
        f"frame u^2 = {frame.a_prime} w^2 = {frame.b_prime} l^2 = {frame.gamma_prime}",
    ]
    body = "a_k = " + _render_terms(cf.main)
    if cf.tail.terms:
        body += f" + conj({_render_terms(cf.tail)})*l"
    lines.append(body)
    return lines


def _print_solution(spec: RecurrenceSpec, cf) -> None:
    if (isinstance(cf, AssocForm) and algebra_kind(spec.algebra) == "field"
            and cf.carrier != spec.algebra):
        print(f"algebra field_sqrt {cf.carrier.d}")
    for line in render_closed_form(cf):
        print(line)


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewrec",
        description="Exact solver for left linear recurrences over fields, "
                    "quaternion algebras and octonion algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("solve", help="print the closed form")
    p.add_argument("file")
    p = sub.add_parser("eval", help="evaluate the closed form at K")
    p.add_argument("file")
    p.add_argument("k", type=_nonneg)
    p = sub.add_parser("oracle", help="iterate the recurrence up to K")
    p.add_argument("file")
    p.add_argument("k", type=_nonneg)
    p = sub.add_parser("verify", help="compare closed form and iteration up to KMAX")
    p.add_argument("file")
    p.add_argument("kmax", type=_nonneg)
    return parser


def run_command(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        spec = parse_spec_file(text)
        if args.command == "solve":
            _print_solution(spec, solve(spec))
            return 0
        if args.command == "eval":
            cf = solve(spec)
            print(eval_closed_form(cf, args.k))
            return 0
        if args.command == "oracle":
            print(iterate_oracle(spec, args.k))
            return 0
        cf = solve(spec)
        report = verify_closed_form(spec, cf, args.kmax)
        if report.ok:
            print(f"PASS (k = 0..{args.kmax})")
            return 0
        print(f"FAIL at k={report.first_failure}")
        return 1
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SkewrecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return run_command(args)


if __name__ == "__main__":
    sys.exit(main())
