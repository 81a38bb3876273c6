"""Command-line front end: skewrec {solve,eval,oracle,verify} FILE [K].

Spec files are line oriented, one key per line, '#' starting a comment.
Tokens are separated by ASCII spaces and tabs only: any other character,
a no-break space included, belongs to a token.  Each line is split once
into its token texts, the first of which is its key:

    algebra field | field_sqrt D | quaternion A B | octonion A B G
    order N
    rhs E0 E1 ... E{N-1}          # a_{k+N} = sum rhs[j] * a_{k+j}
    init E0 E1 ... E{N-1}
    roots E [mult] E [mult] ...   # optional user-supplied roots

Each value token, and each algebra parameter, is read by its carrier's
`read`, the inverse of `str` on its values (`scalar`): scalar literals
INT, INT/POSINT, or U+V*rt (rt meaning sqrt(D) of a field_sqrt context),
with ASCII digits only; quaternions [w,x,y,z] and octonions [s0,...,s7],
with scalar entries and no internal spaces.  This module holds the spec
grammar only: it reads each value line in one loop over its tokens, and
finds a token's column in its line only to place a reader's ParseError
there.  On a roots line, a bare positive integer directly after an
element is read as that root's multiplicity; write "roots 1 1 2 1" to
give the two simple roots 1 and 2.

All output is exact.  Exit status: 0 for success or PASS, 1 for FAIL or a
solver failure, 2 for usage, parse or validation errors.
"""

from __future__ import annotations

import argparse
import re
import sys

from .errors import ParseError, SkewrecError, ValidationError
from .scalar import INT_LITERAL, FieldContext
from .algebra import OctonionAlgebra, QuaternionAlgebra
from .forms import RecurrenceSpec
from .solver import iterate_oracle, solve, verify_closed_form

_KEYS = ("algebra", "order", "rhs", "init", "roots")


def _int_token(text: str) -> int | None:
    """text as an optionally signed integer of ASCII digits, or None."""
    m = INT_LITERAL.fullmatch(text)
    return int(m[0]) if m else None


_TOKEN = re.compile(r"[^ \t]+")


def _column(raw: str, i: int) -> int:
    """The column of the i-th token of a raw line, its key the 0th, or of
    the place right after its last token for i past it.  Only an error
    needs a column, so the reader keeps a line's token texts, not theirs."""
    found = list(_TOKEN.finditer(raw.split("#", 1)[0]))
    return found[i].start() + 1 if i < len(found) else found[-1].end() + 1


def _read_all(carrier, toks, line: int, col_of) -> list:
    """carrier.read of each token of toks, in one loop; a ParseError, whose
    col counts from its token's start, is placed at col_of(i), the column
    of the i-th token."""
    values, read = [], carrier.read
    try:
        for tok in toks:
            values.append(read(tok))
    except ParseError as exc:
        raise ParseError(exc.reason, line, col_of(len(values)) + exc.col) from exc
    return values


def _parse_algebra(toks, line: int, raw: str):
    """The carrier of an algebra line's value tokens toks, the line raw."""
    if not toks:
        raise ParseError("empty algebra line", line, _column(raw, 1))
    name, params = toks[0], toks[1:]
    rational = FieldContext()
    try:
        if name == "field" and not params:
            return rational
        if name == "field_sqrt" and len(params) == 1:
            d = _int_token(params[0])
            if d is None:  # worded as int()'s own error
                raise ValueError(f"invalid literal for int() with base 10: {params[0]!r}")
            return FieldContext(d)
        if (name, len(params)) in (("quaternion", 2), ("octonion", 3)):
            # each parameter a rational, a malformed one placed at its own column
            params = _read_all(rational, params, line, lambda i: _column(raw, i + 2))
            algebra = QuaternionAlgebra if name == "quaternion" else OctonionAlgebra
            return algebra(*params)
    except (ValueError, ValidationError) as exc:
        raise ParseError(f"bad algebra parameters: {exc}", line, _column(raw, 1)) from exc
    raise ParseError(f"unknown algebra form {' '.join(toks)!r}", line, _column(raw, 1))


def parse_spec_file(text: str) -> RecurrenceSpec:
    """Parse and validate a recurrence spec file."""
    seen: dict[str, tuple[list, int, str]] = {}  # key -> (value tokens, line, raw line)
    for lineno, raw in enumerate(text.splitlines(), 1):
        toks = _TOKEN.findall(raw.split("#", 1)[0])
        if not toks:
            continue
        key = toks[0]
        if key not in _KEYS:
            raise ParseError(f"unknown key {key!r}", lineno, _column(raw, 0))
        if key in seen:
            raise ParseError(f"duplicate key {key!r}", lineno, _column(raw, 0))
        seen[key] = (toks[1:], lineno, raw)

    for key in ("algebra", "order", "rhs", "init"):
        if key not in seen:
            raise ValidationError(f"missing required key {key!r}")

    algebra = _parse_algebra(*seen["algebra"])

    toks, lineno, raw = seen["order"]
    order = _int_token(toks[0]) if len(toks) == 1 else None
    if order is None:  # placed where the values start, or right after a bare key
        raise ParseError(f"order must be an integer, got {' '.join(toks)!r}",
                         lineno, _column(raw, 1))

    def elements(key):
        toks, lineno, raw = seen[key]
        return tuple(_read_all(algebra, toks, lineno, lambda i: _column(raw, i + 1)))

    roots = None
    if "roots" in seen:
        toks, lineno, raw = seen["roots"]
        elems, at, mults, bare = [], [], [], False  # bare: the last root has no multiplicity yet
        for i, tok in enumerate(toks, 1):
            if bare and tok.isascii() and tok.isdigit() and int(tok) >= 1:
                mults[-1] = int(tok)
                bare = False
            else:
                elems.append(tok)
                at.append(i)
                mults.append(1)
                bare = True
        roots = tuple(zip(_read_all(algebra, elems, lineno, lambda i: _column(raw, at[i])),
                          mults))

    return RecurrenceSpec(algebra, order, elements("rhs"), elements("init"), roots=roots)


def render_spec(spec: RecurrenceSpec) -> str:
    """Canonical file text; parse_spec_file(render_spec(s)) equals s."""
    if isinstance(spec.algebra, FieldContext):
        alg = "field" if spec.algebra.d is None else f"field_sqrt {spec.algebra.d}"
    elif isinstance(spec.algebra, QuaternionAlgebra):
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
    return "\n".join(lines) + "\n"


def render_closed_form(cf) -> list[str]:
    """Deterministic text lines for a closed form."""
    return cf._lines()


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


def _decoded(data: bytes) -> str:
    """data as UTF-8 text with a leading BOM dropped (it is no key); bytes
    that are no UTF-8 are a ParseError at the first bad byte's line and column."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.start indexes exc.object, the bytes after a BOM
        lines = (exc.object[:exc.start].decode("utf-8") + "x").splitlines()
        raise ParseError(f"can't decode byte 0x{exc.object[exc.start]:02x}: {exc.reason}",
                         len(lines), len(lines[-1])) from exc


def run_command(args) -> int:
    try:
        with open(args.file, "rb") as fh:
            data = fh.read()
    except OSError as exc:  # no file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        spec = parse_spec_file(_decoded(data))
        if args.command == "solve":
            cf = solve(spec)
            if cf.carrier != spec.algebra:  # a promoted field
                print(f"algebra field_sqrt {cf.carrier.d}")
            for line in render_closed_form(cf):
                print(line)
            return 0
        if args.command == "eval":
            cf = solve(spec)
            print(cf.value(args.k))
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
    # exact values may have any number of digits; CPython >= 3.10.7 limits
    # an int-to-str conversion to 4300 of them by default (0: no limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda n: None)
    set_limit(0)
    try:
        return run_command(args)
    finally:
        set_limit(limit)


if __name__ == "__main__":
    sys.exit(main())
