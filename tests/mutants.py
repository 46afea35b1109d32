"""Mutation checks as code: each mutant is one exact text edit to a file
of src/rsperm, with the tier-1 tests that must fail once it is made.

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named ones

For each mutant the runner copies the checkout, less .git and caches,
into a fresh temporary directory, makes the edit there and runs the
mutant's tests with pytest in a child process.  The mutant is caught
when every test it names fails, and survived when none does; "partly"
names the tests that passed.  Before any mutant, the union of the named
tests runs on an unmutated copy; they must pass there, or a failure
under a mutant would prove nothing.

A work-only mutant changes how much work is done and no result, so no
test can fail on it until the search counts its own work.  It names no
test, runs against the whole suite, and its survival is reported as
expected.  tests/test_mutants.py checks in tier-1 that every old text
occurs exactly once in its file, so an edit that moves the code shows
there at once.  Only the standard library is imported here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    work_only: bool = False


PERMGROUP, POLY, GF = "src/rsperm/permgroup.py", "src/rsperm/poly.py", "src/rsperm/gf.py"
CODES, CLI = "src/rsperm/codes.py", "src/rsperm/cli.py"

MUTANTS = (
    # One per path that the one-search-mode refactor rewrote.
    Mutant(
        "h1-skip-dropped", PERMGROUP,
        "if hits is None or c in s or not s and c in skip:",
        "if hits is None or c in s:",
        ("tests/test_permgroup.py::test_a_split_at_h_1_is_pruned_by_the_orbit",),
    ),
    Mutant(
        "wrong-indicator-scaler", POLY,
        "zip(terms, choice, self._scalers)",
        "zip(terms, choice, self._scalers[1:] + self._scalers[:1])",
        (
            "tests/test_interp_oracle.py::test_interpolate_satisfies_the_interpolation_conditions",
            "tests/test_poly.py::test_interpolation_round_trip_random",
        ),
    ),
    Mutant(
        "split-inside-brackets", CLI,
        '_PART = re.compile(r",((?:[^,[]|\\[[^]]*\\])*)")',
        '_PART = re.compile(r",([^,]*)")',
        (
            "tests/test_cli.py::test_split_top_level",
            "tests/test_cli.py::test_split_top_level_table",
        ),
    ),
    Mutant(
        "pivot-in-free", CODES,
        "if j not in self.pivots)",
        "if j not in self.pivots[1:])",
        (
            "tests/test_codes.py::test_dual_of_paper_code_frozen",
            "tests/test_codes.py::test_dual_involution",
            "tests/test_search_oracle.py::test_search_matches_reference",
        ),
    ),
    Mutant(
        "trim-keeps-a-zero", GF,
        "    while c and c[-1] == 0:",
        "    while len(c) > 1 and c[-1] == 0:",
        (
            "tests/test_poly.py::test_zero_degree_sentinel",
            "tests/test_gf.py::test_default_moduli_are_irreducible",
        ),
    ),
    Mutant(
        "monic-digits-reversed", GF,
        "        yield [*reversed(digits), 1]",
        "        yield [*digits, 1]",
        (
            "tests/test_gf_oracle.py::test_default_modulus_is_the_first_irreducible",
            "tests/test_golden.py::test_json_output_is_unchanged",
        ),
    ),
    # The six mutants of the earlier hand probe of permgroup.py.
    Mutant(
        "order-without-p0-term", PERMGROUP,
        "order = (1 + len(reps)) * (",
        "order = len(reps) * (",
        ("tests/test_permgroup.py::test_a_pruned_search_over_the_cap_raises_before_listing",),
    ),
    Mutant(
        "orbit-not-closed", PERMGROUP,
        "    for y in new:\n        r = orbit[y]\n",
        "    for y in new[:0]:\n        r = orbit[y]\n",
        ("tests/test_permgroup.py::test_a_transitive_group_is_closed_from_one_transversal_member",),
    ),
    Mutant(
        "orbit-subtrees-searched", PERMGROUP,
        "for t, blocks in _images(cols, h, orbit):",
        "for t, blocks in _images(cols, h, set()):",
        (
            "tests/test_permgroup.py::test_a_transitive_group_is_closed_from_one_transversal_member",
            "tests/test_permgroup.py::test_a_split_at_h_1_is_pruned_by_the_orbit",
        ),
    ),
    Mutant(
        "affine-slope-zero", PERMGROUP,
        "        if not a:\n            continue\n        b = sub(ai, mul(a, origin))\n",
        "        b = sub(ai, mul(a, origin))\n",
        ("tests/test_acceptance.py::test_criterion_01_f13_worked_example",),
    ),
    Mutant(
        "no-member-cap", PERMGROUP,
        '    accepted, order = _accepted(cols)\n    _check_cap(order, "members")\n',
        "    accepted, order = _accepted(cols)\n",
        (
            "tests/test_acceptance.py::test_criterion_11_over_the_search_cap_exits_2",
            "tests/test_permgroup.py::test_a_pruned_search_over_the_cap_raises_before_listing",
        ),
    ),
    # The rest of the search and the affine side: the check of Per(D)'s
    # members against C, and each way affine_group picks its candidates.
    Mutant(
        "fixes-accepts-every-pi", PERMGROUP,
        "pi[j] in where.get(image(t, terms), ()) for j, terms in zip(self.free, self.checks)",
        "pi[j] in where.get(image(t, terms), ()) or True for j, terms in zip(self.free, self.checks)",
        ("tests/test_search_oracle.py::test_search_matches_reference",),
    ),
    Mutant(
        "affine-base-slope-unscaled", PERMGROUP,
        "slopes = ((ai, mul(sub(total, mul(n, ai)), scale)) for ai in pts)",
        "slopes = ((ai, sub(total, mul(n, ai))) for ai in pts)",
        (
            "tests/test_permgroup.py::test_affine_group_paper_set",
            "tests/test_affine_oracle.py::test_affine_group_matches_reference_in_each_sum_case",
        ),
    ),
    Mutant(
        "affine-pairs-one-origin", PERMGROUP,
        "for ai in pts for aj in pts if ai != aj)",
        "for ai in pts[:1] for aj in pts if ai != aj)",
        (
            "tests/test_permgroup.py::test_affine_group_full_field",
            "tests/test_affine_oracle.py::test_affine_group_matches_reference_in_each_sum_case",
        ),
    ),
    # Packing: the decode, the keys of each slot layout, each scaler branch,
    # and the one cache of translate tables.
    Mutant(
        "decode-keeps-zero-bytes", GF,
        '[::step].rstrip(b"\\0"))',
        "[::step])",
        (
            "tests/test_packing_oracle.py::test_decode_is_the_stripped_vector",
            "tests/test_interp_oracle.py::test_interpolate_satisfies_the_interpolation_conditions",
        ),
    ),
    Mutant(
        "xor-keys-or", GF,
        "return [s ^ x for x in last]",
        "return [s | x for x in last]",
        (
            "tests/test_packing_oracle.py::test_keys_add_each_last_vector_to_one_sum",
            "tests/test_search_oracle.py::test_search_matches_reference",
        ),
    ),
    Mutant(
        "byte-keys-unreduced", GF,
        'from_bytes(to_bytes(s + x, length, "little").translate(mod_p), "little")',
        'from_bytes(to_bytes(s + x, length, "little"), "little")',
        (
            "tests/test_packing_oracle.py::test_keys_add_each_last_vector_to_one_sum",
            "tests/test_search_oracle.py::test_search_matches_reference",
        ),
    ),
    # The byte read-back of sums whose bytes are their indices, and the
    # whole-byte stride of p = 2 entries.
    Mutant(
        "byte-read-untranslated", GF,
        '.translate(mod_p).rstrip(b"\\0"))',
        '.rstrip(b"\\0"))',
        (
            "tests/test_packing_oracle.py::test_key_of_scaled_sums",
            "tests/test_interp_oracle.py::test_interpolate_satisfies_the_interpolation_conditions",
        ),
    ),
    Mutant(
        "byte-read-on-wider-entries", GF,
        "        if self.stride == 8:\n            self.read = read",
        "        if self.stride % 8 == 0:\n            self.read = read",
        (
            "tests/test_packing_oracle.py::test_key_of_scaled_sums",
            "tests/test_interp_oracle.py::test_interpolate_satisfies_the_interpolation_conditions",
        ),
    ),
    Mutant(
        "p2-pack-stride-undone", GF,
        "return sum(x << stride * r for r, x in enumerate(indices))",
        "return sum(x << m * r for r, x in enumerate(indices))",
        (
            "tests/test_packing_oracle.py::test_pack_matches_the_reference_layout",
            "tests/test_interp_oracle.py::test_interpolate_satisfies_the_interpolation_conditions",
        ),
    ),
    Mutant(
        "slot-keys-reduced-first", GF,
        "return [reduced(s + x) for x in last]",
        "return [reduced(s) + x for x in last]",
        ("tests/test_packing_oracle.py::test_keys_add_each_last_vector_to_one_sum",),
    ),
    Mutant(
        "scaler-bit-planes-or", GF,
        "s ^= plane * mul(g, t)",
        "s |= plane * mul(g, t)",
        (
            "tests/test_packing_oracle.py::test_scaler_packs_every_vector_times_every_element",
            "tests/test_interp_oracle.py::test_interpolate_satisfies_the_interpolation_conditions",
        ),
    ),
    Mutant(
        "scaler-byte-table-of-one", GF,
        's = int.from_bytes(laid.translate(tables[g]), "little")',
        's = int.from_bytes(laid.translate(tables[1]), "little")',
        (
            "tests/test_packing_oracle.py::test_scaler_packs_every_vector_times_every_element",
            "tests/test_interp_oracle.py::test_interpolate_satisfies_the_interpolation_conditions",
        ),
    ),
    Mutant(
        "scaler-wide-unscaled", GF,
        "s = self.pack(scale(g, flat))",
        "s = self.pack(flat)",
        (
            "tests/test_packing_oracle.py::test_scaler_packs_every_vector_times_every_element",
            "tests/test_interp_oracle.py::test_interpolate_satisfies_the_interpolation_conditions",
        ),
    ),
    Mutant(
        "translate-cache-wrong-digit", GF,
        "return [_scaled_digits(c, p) for c in range(p)]",
        "return [_scaled_digits(c + 1, p) for c in range(p)]",
        (
            "tests/test_packing_oracle.py::test_key_of_a_full_sum_of_widest_vectors",
            "tests/test_packing_oracle.py::test_scaler_packs_every_vector_times_every_element",
        ),
    ),
    # The extension field table build: its slot reduction, x*t and the
    # read-back of the lanes' indices.
    Mutant(
        "lane-slot-bias-plus-one", GF,
        "bias, tops = ((1 << w - 1) - p) * ones, ones << w - 1",
        "bias, tops = ((1 << w - 1) - p + 1) * ones, ones << w - 1",
        (
            "tests/test_tables_oracle.py::test_tables_match_reference",
            "tests/test_gf.py::test_field_axioms_exhaustive",
        ),
    ),
    Mutant(
        "lane-shift-drops-top-digit", GF,
        "cols.append(add((x & (1 << top) - 1) << w, wrap[x >> top]))",
        "cols.append(add((x & (1 << top) - 1) << w, wrap[0]))",
        (
            "tests/test_tables_oracle.py::test_tables_match_reference",
            "tests/test_gf.py::test_frobenius_is_additive_and_multiplicative",
        ),
    ),
    Mutant(
        "lane-planes-misweighted", GF,
        "indices = sum(p**i * (table >> w * i & plane) for i in range(m))",
        "indices = sum((p + 1)**i * (table >> w * i & plane) for i in range(m))",
        (
            "tests/test_tables_oracle.py::test_tables_match_reference",
            "tests/test_arith_oracle.py::test_division_matches_the_reference",
        ),
    ),
    # Output: the term writer and the JSON writers.
    Mutant(
        "terms-text-powers-shifted", GF,
        "rows + [_Terms(self.p, self.m, self.literals, i) for i in new]",
        "rows + [_Terms(self.p, self.m, self.literals, i + 1) for i in new]",
        (
            "tests/test_poly.py::test_display_styles",
            "tests/test_render_oracle.py::test_str_and_affine_str_match_the_reference",
        ),
    ),
    Mutant(
        "writer-keeps-zero-rows", POLY,
        '" + ".join(filter(None, map(dict.__getitem__, rows, index_coeffs)))',
        '" + ".join(map(dict.__getitem__, rows, index_coeffs))',
        (
            "tests/test_render_oracle.py::test_str_and_affine_str_match_the_reference",
            "tests/test_golden.py::test_json_output_is_unchanged",
        ),
    ),
    Mutant(
        "parse-digits-first-first", GF,
        "return self.ops.elements[int(digits, p)]",
        "return self.ops.elements[int(digits[::-1], p)]",
        (
            "tests/test_gf.py::test_element_parse_round_trip",
            "tests/test_gf.py::test_parse_agrees_with_element_on_every_literal_form",
        ),
    ),
    Mutant(
        "parse-one-int-above-base-10", GF,
        "if p <= 10 and len(s) == 2 * m + 1",
        "if len(s) == 2 * m + 1",
        (
            "tests/test_gf.py::test_parse_agrees_with_element_on_every_literal_form",
            "tests/test_cli.py::test_one_digit_literals_over_p_above_36_accepted",
        ),
    ),
    Mutant(
        "json-list-separator", CLI,
        'out.append("," + inner if i else inner)',
        'out.append(", " + inner if i else inner)',
        (
            "tests/test_json_text.py::test_json_text_is_json_dumps_indent_2",
            "tests/test_golden.py::test_json_output_is_unchanged",
        ),
    ),
    Mutant(
        "group-labels-0-based", CLI,
        "labels = [str(i) for i in range(1, members[0].perm.n + 1)]",
        "labels = [str(i) for i in range(members[0].perm.n)]",
        (
            "tests/test_report_writer.py::test_group_text_is_json_dumps_of_its_dict",
            "tests/test_golden.py::test_json_output_is_unchanged",
        ),
    ),
    # The CLI: its exit codes, --json on every command, and the one front
    # end of the point set.
    Mutant(
        "invalid-input-exits-1", CLI,
        "        return 2\n    except BrokenPipeError:",
        "        return 1\n    except BrokenPipeError:",
        (
            "tests/test_cli.py::test_a_refused_modulus_exits_2_with_its_message",
            "tests/test_acceptance.py::test_criterion_11_over_the_search_cap_exits_2",
        ),
    ),
    Mutant(
        "closed-stdout-exits-0", CLI,
        "sys.stdout.fileno())\n        return 1",
        "sys.stdout.fileno())\n        return 0",
        ("tests/test_cli.py::test_closed_stdout_exits_1_quietly",),
    ),
    Mutant(
        "paper-failure-exits-0", CLI,
        'checks pass")\n    return 0 if not failed else 1',
        'checks pass")\n    return 0',
        ("tests/test_cli.py::test_a_failed_paper_example_prints_fail_and_exits_1",),
    ),
    Mutant(
        "sweep-failure-exits-0", CLI,
        ' pass")\n    return 0 if not failures else 1',
        ' pass")\n    return 0',
        ("tests/test_cli.py::test_sweep_reports_a_failed_duality_check",),
    ),
    Mutant(
        "sweep-without-json", CLI,
        'for flag, settings in [*options, ("--json", dict(action="store_true"))]:',
        'for flag, settings in options if name == "sweep" else '
        '[*options, ("--json", dict(action="store_true"))]:',
        (
            "tests/test_cli.py::test_the_parser_declares_each_command_and_option_as_pinned",
            "tests/test_cli.py::test_sweep_json",
        ),
    ),
    Mutant(
        "modulus-dropped", CLI,
        "field = Field(args.field, modulus=modulus)",
        "field = Field(args.field)",
        (
            "tests/test_cli.py::test_reducible_modulus_exits_2_after_a_default_field",
            "tests/test_golden.py::test_json_output_is_unchanged",
        ),
    ),
    # Work-only: lists a Per(D) ten times larger than searching C costs,
    # then keeps the members fixing C, the same answer.  Its test is a
    # count of the search's work, once the search keeps one.
    Mutant(
        "square-gate-tenfold", PERMGROUP,
        "                if order <= cost:\n",
        "                if order <= 10 * cost:\n",
        (),
        work_only=True,
    ),
)


def _copy(into: Path) -> None:
    ignore = shutil.ignore_patterns(
        ".git", "__pycache__", "*.egg-info", ".pytest_cache", ".hypothesis", "out"
    )
    shutil.copytree(ROOT, into, ignore=ignore, dirs_exist_ok=True)


def _pytest(where: Path, tests: tuple[str, ...]) -> tuple[int, set[str]]:
    """pytest's exit code on the tests (all of tests/ when none are
    named, less the manifest check, which every mutant fails), and the
    named tests that failed, by their ids less any parameters."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
            "--ignore=tests/test_mutants.py"]
    done = subprocess.run(argv + list(tests or ("tests",)), cwd=where, env=env,
                          capture_output=True, text=True)
    failed = {
        line.split()[1].split("[")[0]
        for line in done.stdout.splitlines() if line.startswith("FAILED ")
    }
    return done.returncode, failed


def run(mutant: Mutant) -> str:
    """'caught', 'survived', 'partly: <tests that passed>' or 'error'."""
    with tempfile.TemporaryDirectory(prefix="rsperm-mutant-") as tmp:
        where = Path(tmp)
        _copy(where)
        target = where / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "error"
        target.write_text(text.replace(mutant.old, mutant.new))
        code, failed = _pytest(where, mutant.tests)
    if code not in (0, 1):
        return "error"
    passed = [t for t in mutant.tests if t not in failed]
    if code == 0 or len(passed) == len(mutant.tests) > 0:
        return "survived"
    return f"partly: {', '.join(passed)}" if passed else "caught"


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    named = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="rsperm-mutant-") as tmp:
        _copy(Path(tmp))
        if named and _pytest(Path(tmp), named)[0] != 0:
            print("the named tests fail on the unmutated code; nothing is checked")
            return 2
    bad = []
    for mutant in chosen:
        outcome = run(mutant)
        if mutant.work_only and outcome == "survived":
            outcome = "survived (work-only, expected)"
        elif outcome != "caught":
            bad.append(mutant.name)
        print(f"{mutant.name:28} {outcome}", flush=True)
    print(f"{len(chosen)} mutants, unexpected survivors or errors: {', '.join(bad) or 'none'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
