"""Command-line front end: the subcommands affine, group, verify, sweep
and paper-examples, one row each in build_parser, and json_text, the
writer of their JSON output.

Exit codes: 0 success/verified, 1 verification failure or output that
could not be written (e.g. the reader of a pipe exited early), 2 invalid
input.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from collections.abc import Iterator
from functools import cache
from json.encoder import encode_basestring_ascii

from .codes import format_matrix, rs_code
from .gf import Field, _Frozen
from .permgroup import (
    GroupReport,
    affine_group,
    brute_force_perm_group,
    check_theorem,
    exhaustive_permutations,
    search_side,
)
from .poly import EvaluationSet, Polynomial, affine_str, terms_text

RNG_NAME = "python-random (Mersenne Twister)"
SWEEP_FIELD_POOL = (5, 7, 8, 9, 11, 13, 16)


# A point list, brackets balanced and unnested; and after a comma put in
# front of it, each part: a comma, then all up to the next one outside [].
_POINT_LIST = re.compile(r"(?:[^][]|\[[^][]*\])*")
_PART = re.compile(r",((?:[^,[]|\[[^]]*\])*)")


def split_top_level(text: str) -> list[str]:
    """Split a comma-separated list, ignoring commas inside [...] literals,
    by two regular expressions, each linear in the text.

    Brackets must pair up as unnested literals; anything else, nested
    brackets included, raises ValueError.
    """
    if not _POINT_LIST.fullmatch(text):
        raise ValueError(f"unbalanced brackets in {text!r}")
    return _PART.findall("," + text)


def _points(args) -> EvaluationSet:
    """The point set that --field, --modulus and --points give: the one
    front end of affine, group and verify, which read the field from it."""
    modulus = None
    if args.modulus is not None:
        try:
            modulus = [int(c) for c in args.modulus.split(",")]
        except ValueError:
            raise ValueError(
                f"--modulus must be comma-separated ints, got {args.modulus!r}"
            ) from None
    field = Field(args.field, modulus=modulus)
    literals = [s for s in split_top_level(args.points) if s.strip()]
    return EvaluationSet(field, [field.parse(s) for s in literals])


def json_text(value) -> str:
    """Exactly json.dumps(value, indent=2), in one pass over the value.

    json.dumps runs its pure-Python encoder whenever indent is set; this
    writer does the same layout with one call per container.  Dicts with
    str keys, lists, str, int, bool and None are written here, by exact
    type, and so is a GroupReport, as the text of its to_json_dict()
    (_write_group).  Anything else is left to json.dumps.
    """
    out: list[str] = []
    _write_json(value, "\n", out)
    return "".join(out)


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append the text of value, nested so that its lines open with newline."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is list and value:
        inner = newline + "  "
        if all(type(x) is int for x in value):
            out.append(f"[{inner}{(',' + inner).join(map(int.__repr__, value))}{newline}]")
            return
        out.append("[")
        for i, x in enumerate(value):
            out.append("," + inner if i else inner)
            _write_json(x, inner, out)
        out.append(newline + "]")
    elif kind is dict and value and all(type(k) is str for k in value):
        inner = newline + "  "
        out.append("{")
        for i, (k, x) in enumerate(value.items()):
            out.append(f"{',' if i else ''}{inner}{encode_basestring_ascii(k)}: ")
            _write_json(x, inner, out)
        out.append(newline + "}")
    elif kind is GroupReport:
        _write_group(value, newline, out)
    else:
        # Empty containers, floats, tuples, other keys: the stdlib's text,
        # its line breaks moved to this depth (JSON strings hold none).
        out.append(json.dumps(value, indent=2).replace("\n", newline))


def _write_group(report: GroupReport, newline: str, out: list[str]) -> None:
    """Append the text of report.to_json_dict(), its members by template.

    The text around each member's images and polynomial is made once for
    this depth, every "perm" list reads one table of the labels 1..n (the
    members of a group all act on the same n points), and the text after
    "poly" depends on the member's degree alone.  A member's degree is
    below n, so terms_text reads its polynomial from the field's first n
    term rows in O(degree) C steps.  A polynomial's text is digits, x, ^,
    *, +, commas, brackets and spaces, which JSON writes between quotes
    unescaped.
    """
    inner = newline + "  "
    out.append("{")
    for key, x in (
        ("order", report.order),
        ("affine_order", report.affine_order),
        ("equal", report.is_affine_equal),
    ):
        out.append(f'{inner}"{key}": ')
        _write_json(x, inner, out)
        out.append(",")
    members = report.elements
    line = inner + "  "
    field = line + "  "
    image = field + "  "
    head = f'{{{field}"perm": [{image}'
    image_sep = "," + image
    poly_key = f'{field}],{field}"poly": '
    texts = []
    if members:
        labels = [str(i) for i in range(1, members[0].perm.n + 1)]
        rows = members[0].poly.field.term_rows(members[0].perm.n)
    tails: dict[int, str] = {}
    for member in members:
        poly = member.poly
        coeffs = poly.index_coeffs
        degree = len(coeffs) - 1
        tail = tails.get(degree)
        if tail is None:
            affine = "true" if degree == 1 else "false"
            tail = tails[degree] = f',{field}"degree": {degree},{field}"affine": {affine}{line}}}'
        text = terms_text(rows, coeffs) if degree > 1 else affine_str(poly)
        perm = image_sep.join(map(labels.__getitem__, member.perm.images))
        texts.append(f'{head}{perm}{poly_key}"{text}"{tail}')
    elements = f"[{line}{(',' + line).join(texts)}{inner}]" if texts else "[]"
    out.append(f'{inner}"elements": {elements}{newline}}}')


# -- subcommands -------------------------------------------------------------


def cmd_affine(args) -> int:
    points = _points(args)
    members = affine_group(points)
    if args.json:
        print(json_text({
            "field": points.field.q,
            "points": [str(a) for a in points],
            "order": len(members),
            "elements": [
                {"poly": str(m), "perm": [i + 1 for i in perm.images]} for m, perm in members
            ],
        }))
        return 0
    print(f"field {points.field}")
    print(f"points {points}")
    print(f"affine permutations of the point set: {len(members)}")
    width = max(len(str(m)) for m, _ in members)
    for m, perm in members:
        print(f"  {str(m):<{width}}  {perm}")
    return 0


def _print_group_text(report: GroupReport) -> None:
    print(f"permutation group order {report.order} ({report.hint})")
    print(
        f"affine subgroup order {report.affine_order}; "
        f"equal to the full group: {report.is_affine_equal}"
    )
    for m in report.elements:
        tag = "affine" if m.is_affine else f"degree {m.degree}"
        print(f"  {m.perm}  {affine_str(m.poly)}  [{tag}]")


def cmd_group(args) -> int:
    points = _points(args)
    result = check_theorem(points, args.k)
    if args.json:
        print(json_text(result.group))
        return 0
    code = result.code
    print(f"field {points.field}")
    print(f"points {points}")
    print(f"RS code of dimension {args.k}: n={code.n} k={code.k}")
    print("generator matrix (rref):")
    print(format_matrix(code.rref))
    _print_group_text(result.group)
    return 0


def cmd_verify(args) -> int:
    points = _points(args)
    result = check_theorem(points, args.k)
    if args.json:
        print(json_text(result._json_dict(result.group)))
    else:
        print(f"field {points.field}")
        print(f"points {points}  k={args.k}")
        if result.warning:
            print(f"warning: {result.warning}")
        print(
            f"brute-force group order {result.group.order}, "
            f"affine group order {result.group.affine_order}"
        )
        print(f"groups equal: {result.equal}")
        print(f"every member has an affine polynomial: {result.all_degree_one}")
        if not result.in_range:
            print("reported (equality not asserted outside 1 < k < n-1)")
        else:
            print("verified" if result.holds else "MISMATCH")
    return 0 if result.holds else 1


class SweepTrial(_Frozen):
    """One sweep trial: its number, its report and whether Per(C) and
    Per(C^perp) came out equal."""

    __slots__ = __match_args__ = ("index", "result", "duality_ok")

    def to_json_dict(self) -> dict:
        r = self.result
        field, n = r.points.field, r.points.n
        bound = min(r.k, n - r.k)
        degree_bound_ok = all(m.degree < bound for m in r.group.elements)
        return {
            "trial": self.index,
            "q": field.q,
            "modulus": None if field.modulus is None else list(field.modulus),
            "points": [str(a) for a in r.points],
            "k": r.k,
            "order": r.group.order,
            "affine_order": r.group.affine_order,
            "equal": r.equal,
            "all_degree_one": r.all_degree_one,
            "duality_ok": self.duality_ok,
            "degree_bound_ok": degree_bound_ok,
            "ok": r.equal and r.all_degree_one and self.duality_ok and degree_bound_ok,
        }


def run_sweep(seed: int, trials: int) -> Iterator[SweepTrial]:
    """Seeded random instances checking the affine characterization.

    Each trial samples a field from SWEEP_FIELD_POOL, a point set with
    4 <= n <= min(8, q) and a dimension 2 <= k <= n-2, then verifies
    group equality, the degree bound, and Per(C) = Per(dual C).  Trials
    are yielded one at a time, so a caller that keeps only what it needs
    of each does not hold every report of a long run.
    """
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    rng = random.Random(seed)
    for t in range(trials):
        q = rng.choice(SWEEP_FIELD_POOL)
        field = Field(q)
        n = rng.randint(4, min(8, q))
        pts = rng.sample(field.elements(), n)
        k = rng.randint(2, n - 2)
        result = check_theorem(EvaluationSet(field, pts), k)
        code = result.code
        # check_theorem searched the smaller of C and its dual; search the other.
        other = code.dual if search_side(code) is code else code
        dual_perms = {perm.images for perm in exhaustive_permutations(other)}
        group_perms = {m.perm.images for m in result.group.elements}
        yield SweepTrial(t, result, dual_perms == group_perms)


def cmd_sweep(args) -> int:
    records = [t.to_json_dict() for t in run_sweep(args.seed, args.trials)]
    failures = [r for r in records if not r["ok"]]
    if args.json:
        print(json_text({
            "rng": RNG_NAME,
            "seed": args.seed,
            "trials": args.trials,
            "passed": len(records) - len(failures),
            "failed": len(failures),
            "results": records,
        }))
        return 0 if not failures else 1
    print(f"sweep rng={RNG_NAME} seed={args.seed} trials={args.trials}")
    for r in records:
        status = "ok" if r["ok"] else "FAIL"
        print(
            f"trial {r['trial']:03d} q={r['q']} n={len(r['points'])} k={r['k']} "
            f"order={r['order']} affine={r['affine_order']} {status}"
        )
    for r in failures:
        print(
            f"FAILURE trial {r['trial']}: q={r['q']} modulus={r['modulus']} "
            f"points={','.join(r['points'])} k={r['k']} "
            f"equal={r['equal']} degrees_ok={r['all_degree_one']} "
            f"duality_ok={r['duality_ok']} bound_ok={r['degree_bound_ok']}"
        )
    print(f"{len(records) - len(failures)}/{len(records)} pass")
    return 0 if not failures else 1


def _paper_example_f13(checks: list[tuple[str, bool, str]]) -> None:
    field = Field(13)
    points = EvaluationSet(field, [0, 1, 4, 6])
    report = brute_force_perm_group(rs_code(points, 3), points)
    checks.append(
        ("F_13 group order is 6", report.order == 6, f"got {report.order}")
    )
    checks.append(
        (
            "F_13 group is non-abelian (S_3)",
            report.is_abelian is False and report.hint.endswith("(S_3)"),
            f"got {report.hint}",
        )
    )
    expected = {
        Polynomial.from_ints(field, [0, 1]),
        Polynomial.from_ints(field, [1, 3]),
        Polynomial.from_ints(field, [4, 9]),
    }
    actual = {m.polynomial for m, _ in affine_group(points)}
    checks.append(
        (
            "F_13 affine maps are exactly {x, 3*x + 1, 9*x + 4}",
            actual == expected,
            "got {" + ", ".join(sorted(affine_str(f) for f in actual)) + "}",
        )
    )
    checks.append(
        (
            "F_13 affine subgroup has order 3 and is proper",
            report.affine_order == 3 and report.is_affine_equal is False,
            f"affine order {report.affine_order}, equal {report.is_affine_equal}",
        )
    )


def _paper_example_f9(checks: list[tuple[str, bool, str]]) -> None:
    field = Field(9, modulus=(2, 2, 1))
    points = EvaluationSet(
        field, [[0, 0], [1, 0], [2, 0], [1, 1], [2, 2]]
    )
    cube = lambda v: tuple(x**3 for x in v)  # noqa: E731
    x2 = points.evaluate(Polynomial.monomial(field, 2))
    x6 = points.evaluate(Polynomial.monomial(field, 6))
    checks.append(
        (
            "F_9 cubing the x^2 evaluations gives the x^6 evaluations",
            cube(x2) == x6,
            f"{[str(v) for v in cube(x2)]} vs {[str(v) for v in x6]}",
        )
    )
    x1 = points.evaluate(Polynomial.x(field))
    x9 = points.evaluate(Polynomial.monomial(field, 9))
    checks.append(
        (
            "F_9 x^9 and x agree on the points",
            x9 == x1,
            f"{[str(v) for v in x9]} vs {[str(v) for v in x1]}",
        )
    )
    c4 = rs_code(points, 4)
    checks.append(
        (
            "F_9 Frobenius fixes the dimension-4 RS code",
            c4.frobenius_image() == c4,
            "codes differ",
        )
    )
    c3 = rs_code(points, 3)
    checks.append(
        (
            "F_9 Frobenius moves the dimension-3 RS code",
            c3.frobenius_image() != c3,
            "codes coincide",
        )
    )


def cmd_paper_examples(args) -> int:
    checks: list[tuple[str, bool, str]] = []
    _paper_example_f13(checks)
    _paper_example_f9(checks)
    failed = [c for c in checks if not c[1]]
    if args.json:
        print(json_text({
            "checks": [{"name": name, "ok": ok} for name, ok, _ in checks],
            "passed": len(checks) - len(failed),
            "failed": len(failed),
        }))
        return 0 if not failed else 1
    for name, ok, detail in checks:
        if ok:
            print(f"ok   {name}")
        else:
            print(f"FAIL {name}: {detail}")
    print(f"{len(checks) - len(failed)}/{len(checks)} checks pass")
    return 0 if not failed else 1


# -- parser -------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after it.

    Parsing writes only the namespace it returns, so one parser, with
    its subparsers by command name in .commands, serves every main call.
    Each command is one row of its name, help, handler and options, and
    every command also takes --json.
    """
    parser = argparse.ArgumentParser(
        prog="rsperm",
        description="Permutation groups of Reed-Solomon codes over arbitrary evaluation sets",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    parser.commands = subs.choices
    point_set = [
        ("--field", dict(type=int, required=True, help="field order q = p^m")),
        ("--modulus", dict(
            default=None,
            help="extension modulus c0,c1,...,cm (ascending, monic); default: first irreducible",
        )),
        ("--points", dict(
            required=True, help="comma-separated element literals, e.g. 0,1,4,6 or [0,0],[1,0]"
        )),
    ]
    code = point_set + [("--k", dict(type=int, required=True, help="code dimension"))]
    sweep = [("--seed", dict(type=int, default=42)), ("--trials", dict(type=int, default=200))]
    for name, summary, handler, options in (
        ("affine", "list the affine permutations of a point set", cmd_affine, point_set),
        ("group", "brute-force the permutation group of RS(A,k)", cmd_group, code),
        ("verify", "check Per(RS(A,k)) against the affine permutations of A", cmd_verify, code),
        ("sweep", "seeded randomized verification sweep", cmd_sweep, sweep),
        ("paper-examples", "reproduce the built-in F_13 and F_9 worked examples",
         cmd_paper_examples, []),
    ):
        sub = subs.add_parser(name, help=summary)
        for flag, settings in [*options, ("--json", dict(action="store_true"))]:
            sub.add_argument(flag, **settings)
        sub.set_defaults(func=handler)
    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join --points/--modulus with a following value such as -3,1.

    argparse reads a token that starts with '-' and is not a plain
    number as an option, so `--points -3,1` would lose its value;
    `--points=-3,1` is read as intended.
    """
    out: list[str] = []
    for token in argv:
        negative = token[:1] == "-" and token[1:2].isdigit()
        if negative and out and out[-1] in ("--points", "--modulus"):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    # A command's own subparser parses its tokens as the top parser would
    # hand them on; the top parser runs only when argv[0] names no command.
    argv = _attach_negative_values(sys.argv[1:] if argv is None else list(argv))
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Nobody reads stdout any more; point it at devnull so that the
        # interpreter's final flush of what is still buffered cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
