"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (run with
pytest -s to see them) and enforces its stated bound exactly.
"""

import contextlib
import io
import json
import math
import random
import subprocess
from time import perf_counter

import rsperm.permgroup
from conftest import (
    fresh_field,
    homomorphism_check,
    random_points,
    random_polynomial,
    run_process,
    vector_literals,
)
from rsperm import (
    EvaluationSet,
    Field,
    LinearCode,
    Permutation,
    Polynomial,
    affine_group,
    brute_force_perm_group,
    check_theorem,
    compose_mod,
    exhaustive_permutations,
    perm_to_poly,
    rs_code,
    rs_dual_multiplier,
)
from rsperm.cli import main, run_sweep


def _report(num: int, name: str, ok: bool, elapsed: float, limit: float | None):
    status = "PASS" if ok else "FAIL"
    line = f"acceptance {num:02d} {name}: {status} ({elapsed:.2f}s"
    if limit is not None:
        line += f", limit {limit:g}s"
    print(line + ")")


def test_criterion_01_f13_worked_example():
    t0 = perf_counter()
    field = Field(13)
    pts = EvaluationSet(field, [0, 1, 4, 6])
    report = brute_force_perm_group(rs_code(pts, 3), pts)
    affine_polys = {m.polynomial for m, _ in affine_group(pts)}
    expected_polys = {
        Polynomial.x(field),
        Polynomial.from_ints(field, [1, 3]),
        Polynomial.from_ints(field, [4, 9]),
    }
    ok = (
        report.order == 6
        and report.is_abelian is False
        and report.hint == "order 6, non-abelian (S_3)"
        and affine_polys == expected_polys
        and report.affine_order == 3
        and report.is_affine_equal is False
    )
    elapsed = perf_counter() - t0
    _report(1, "F_13 worked example", ok and elapsed < 1.0, elapsed, 1.0)
    assert ok
    assert elapsed < 1.0


def test_criterion_02_f9_frobenius_example():
    t0 = perf_counter()
    field = Field(9, modulus=(2, 2, 1))
    pts = EvaluationSet(field, [[0, 0], [1, 0], [2, 0], [1, 1], [2, 2]])
    c4 = rs_code(pts, 4)
    c3 = rs_code(pts, 3)
    x2 = pts.evaluate(Polynomial.monomial(field, 2))
    x6 = pts.evaluate(Polynomial.monomial(field, 6))
    x1 = pts.evaluate(Polynomial.x(field))
    x9 = pts.evaluate(Polynomial.monomial(field, 9))
    ok = (
        c4.frobenius_image() == c4
        and c3.frobenius_image() != c3
        and tuple(v**3 for v in x2) == x6
        and x9 == x1
    )
    elapsed = perf_counter() - t0
    _report(2, "F_9 Frobenius example", ok and elapsed < 1.0, elapsed, 1.0)
    assert ok
    assert elapsed < 1.0


def test_criterion_03_theorem_sweep_200():
    t0 = perf_counter()
    trials = list(run_sweep(seed=42, trials=200))
    failures = [t for t in trials if not (t.result.equal and t.result.all_degree_one)]
    ok = len(trials) == 200 and not failures
    elapsed = perf_counter() - t0
    _report(3, "200-instance theorem sweep", ok and elapsed < 300, elapsed, 300)
    assert not failures, failures[:3]
    assert elapsed < 300


def test_criterion_04_full_field_corollary():
    t0 = perf_counter()
    expected = {5: 20, 7: 42, 8: 56}
    bad = []
    for q, want in expected.items():
        field = Field(q)
        pts = EvaluationSet.full_field(field)
        for k in range(2, q - 1):
            order = len(exhaustive_permutations(rs_code(pts, k)))
            if order != want:
                bad.append((q, k, order))
    elapsed = perf_counter() - t0
    _report(4, "full-field corollary", not bad and elapsed < 120, elapsed, 120)
    assert not bad, bad
    assert elapsed < 120


def test_criterion_05_multiplicative_group_corollary():
    t0 = perf_counter()
    bad = []
    for q in (7, 8, 9):
        field = Field(q)
        pts = EvaluationSet.multiplicative_group(field)
        for k in range(2, (q - 1) - 1):
            order = len(exhaustive_permutations(rs_code(pts, k)))
            if order != q - 1:
                bad.append((q, k, order))
    elapsed = perf_counter() - t0
    _report(5, "multiplicative-group corollary", not bad and elapsed < 120, elapsed, 120)
    assert not bad, bad
    assert elapsed < 120


def test_criterion_06_duality_lemma_50_random_codes():
    t0 = perf_counter()
    rng = random.Random(606)
    bad = []
    for trial in range(50):
        q = rng.choice([2, 3, 5, 7])
        field = Field(q)
        n = rng.randint(2, 7)
        rows = [
            [field.from_index(rng.randrange(q)) for _ in range(n)]
            for _ in range(rng.randint(1, n))
        ]
        code = LinearCode(field, rows, n=n)
        left = set(exhaustive_permutations(code))
        right = set(exhaustive_permutations(code.dual))
        if left != right:
            bad.append((trial, q, n, code.k))
    elapsed = perf_counter() - t0
    _report(6, "duality of permutation groups", not bad, elapsed, None)
    assert not bad, bad


def test_criterion_07_star_product_dual_formula_100():
    t0 = perf_counter()
    rng = random.Random(707)
    bad = []
    for trial in range(100):
        q = rng.choice([5, 7, 8, 9, 13])
        field = Field(q)
        n = rng.randint(2, min(8, q))
        k = rng.randint(1, n - 1)
        pts = random_points(rng, field, n)
        g = rs_dual_multiplier(pts)
        lhs = rs_code(pts, n - k).star(g)
        rhs = rs_code(pts, k).dual
        if lhs.rref != rhs.rref:
            bad.append((trial, q, n, k))
    elapsed = perf_counter() - t0
    _report(7, "star-product dual formula", not bad, elapsed, None)
    assert not bad, bad


def test_criterion_08_extreme_dimensions_give_sn():
    t0 = perf_counter()
    rng = random.Random(808)
    bad = []
    for trial in range(20):
        q = rng.choice([5, 7, 9, 13])
        field = Field(q)
        n = rng.randint(2, min(6, q))
        pts = random_points(rng, field, n)
        want = math.factorial(n)
        o1 = len(exhaustive_permutations(rs_code(pts, 1)))
        o2 = len(exhaustive_permutations(rs_code(pts, n)))
        if o1 != want or o2 != want:
            bad.append((trial, q, n, o1, o2))
    elapsed = perf_counter() - t0
    _report(8, "k=1 and k=n give the symmetric group", not bad, elapsed, None)
    assert not bad, bad


def test_criterion_09_full_field_endpoint_exception():
    # at k = n-1 over the whole field the dual is a constant multiple of
    # the repetition code, so the group is all of S_n, not the affine one
    t0 = perf_counter()
    bad = []
    for q in (5, 7):
        field = Field(q)
        pts = EvaluationSet.full_field(field)
        code = rs_code(pts, q - 1)
        order = len(exhaustive_permutations(code))
        repetition = rs_code(pts, 1)
        dual_is_repetition = code.dual == repetition.star(rs_dual_multiplier(pts))
        if not (
            order == math.factorial(q)
            and order > q * (q - 1)
            and dual_is_repetition
        ):
            bad.append((q, order))
    elapsed = perf_counter() - t0
    _report(9, "k = n-1 endpoint exception over F_q", not bad, elapsed, None)
    assert not bad, bad


def test_criterion_10_algebraic_property_suites():
    t0 = perf_counter()
    failures = []

    # interpolation round trip, 1000 random polynomials of degree < n
    rng = random.Random(1010)
    for _ in range(1000):
        q = rng.choice([5, 7, 9, 13])
        field = Field(q)
        n = rng.randint(2, min(8, q))
        pts = random_points(rng, field, n)
        f = random_polynomial(rng, field, n - 1)
        if pts.interpolate(list(pts.evaluate(f))) != f:
            failures.append(("round-trip", q, n))

    # indicator Kronecker property, 50 random sets, exhaustively
    rng = random.Random(1011)
    for _ in range(50):
        q = rng.choice([5, 7, 8, 9, 13])
        field = Field(q)
        pts = random_points(rng, field, rng.randint(2, min(8, q)))
        for i, L in enumerate(pts.indicators):
            for j, a in enumerate(pts):
                want = field.one if i == j else field.zero
                if L.evaluate(a) != want:
                    failures.append(("kronecker", q, i, j))

    # homomorphism of composition modulo A, 500 random pairs
    rng = random.Random(1012)
    for _ in range(500):
        q = rng.choice([5, 7, 9, 13])
        field = Field(q)
        n = rng.randint(2, min(7, q))
        pts = random_points(rng, field, n)
        a, b = list(range(n)), list(range(n))
        rng.shuffle(a)
        rng.shuffle(b)
        if not homomorphism_check(pts, Permutation(a), Permutation(b)):
            failures.append(("homomorphism", q, n))

    # associativity of composition modulo A on permuting polynomials
    rng = random.Random(1013)
    for _ in range(200):
        q = rng.choice([5, 7, 9, 13])
        field = Field(q)
        n = rng.randint(2, min(7, q))
        pts = random_points(rng, field, n)
        ps = []
        for _ in range(3):
            images = list(range(n))
            rng.shuffle(images)
            ps.append(perm_to_poly(Permutation(images), pts))
        left = compose_mod(compose_mod(ps[0], ps[1], pts), ps[2], pts)
        right = compose_mod(ps[0], compose_mod(ps[1], ps[2], pts), pts)
        if left != right:
            failures.append(("associativity", q, n))

    # commuting diagram: permuting evaluations = evaluating on permuted points
    rng = random.Random(1014)
    for _ in range(500):
        q = rng.choice([5, 7, 9, 13])
        field = Field(q)
        n = rng.randint(2, min(8, q))
        pts = random_points(rng, field, n)
        f = random_polynomial(rng, field, rng.randint(0, n))
        images = list(range(n))
        rng.shuffle(images)
        values = pts.evaluate(f)
        if tuple(values[i] for i in images) != pts.permuted(images).evaluate(f):
            failures.append(("diagram", q, n))

    elapsed = perf_counter() - t0
    _report(10, "algebraic property suites", not failures, elapsed, None)
    assert not failures, failures[:5]


def test_criterion_11_over_the_search_cap_exits_2():
    # SEARCH_CAP counts the 16!/8! candidates of the first input before
    # searching, so it is refused, though `group` would answer it in
    # under 10 ms through the dual of the Schur square.  The second has a
    # group of 10! members, more than the cap lets a search list.
    inputs = (
        ("17", ",".join(str(a) for a in range(16)), "8"),
        ("11", ",".join(str(a) for a in range(10)), "1"),
    )
    bad = []
    t0 = perf_counter()
    for q, points, k in inputs:
        start = perf_counter()
        try:
            result = run_process(
                ["group", "--field", q, "--points", points, "--k", k, "--json"],
                capture_output=True, text=True, timeout=10,
            )
        except subprocess.TimeoutExpired:
            bad.append((q, k, "timed out"))
            continue
        elapsed = perf_counter() - start
        if not (result.returncode == 2 and result.stdout == ""
                and "SEARCH_CAP" in result.stderr and elapsed < 1.0):
            bad.append((q, k, result.returncode, result.stderr.strip(), elapsed))
    elapsed = perf_counter() - t0
    _report(11, "inputs over the search cap exit 2", not bad, elapsed, 1.0)
    assert not bad, bad


def test_criterion_12_information_set_searches_are_fast():
    # 12!/6! = 665,280 and 16!/11! = 524,160 candidates, which the meet in
    # the middle on a free column turns into 13,464 and 7,200 lookups and
    # table entries.  The first is searched through its 1-dimensional
    # square dual (C * C)^perp instead, whose 12 members all fix C.
    cases = (
        (["verify", "--field", "13", "--points", ",".join(str(a) for a in range(12)),
          "--k", "6"], lambda d: d["group"]["order"] == d["group"]["affine_order"] == 12
         and d["equal"] and d["all_degree_one"]),
        (["group", "--field", "16", "--points", vector_literals(2, 4, range(16)),
          "--k", "5"], lambda d: d["order"] == 240 and d["equal"] is True),
    )
    bad = []
    t0 = perf_counter()
    for argv, ok in cases:
        out = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out):
            code = main([*argv, "--json"])
        elapsed = perf_counter() - start
        if not (code == 0 and ok(json.loads(out.getvalue())) and elapsed < 0.5):
            bad.append((argv[0], argv[2], code, elapsed))
    elapsed = perf_counter() - t0
    _report(12, "information-set searches answer fast", not bad, elapsed, 0.5)
    assert not bad, bad


def test_criterion_13_large_field_tables_build_fast():
    # The largest fields of each kind: p = 2, the longest odd-p digit
    # strings, and p >= 131 (two digits too wide for byte slots).
    # Fresh objects: the process's own fields may have built theirs already.
    fields = [fresh_field(1 << 16), fresh_field(3**10), fresh_field(251**2)]
    bad = []
    t0 = perf_counter()
    for field in fields:
        start = perf_counter()
        exp = field.tables[0]
        elapsed = perf_counter() - start
        full_cycle = sorted(exp[: field.q - 1]) == list(range(1, field.q))
        if not (elapsed < 0.5 and full_cycle):
            bad.append((field.q, elapsed))
    elapsed = perf_counter() - t0
    _report(13, "large field tables build fast", not bad, elapsed, 0.5)
    assert not bad, bad


def test_criterion_14_reports_derive_the_hint_only_when_printed(monkeypatch):
    # k = n - 1 on GF(29) without {14, 15}: |Per| = 2^13, an abelian group,
    # against two affine maps, x and -x.  --json output prints no
    # isomorphism hint, so it must never run the commutativity test.
    calls = []
    is_abelian = rsperm.permgroup._is_abelian

    def spy(perms):
        calls.append(len(perms))
        return is_abelian(perms)

    monkeypatch.setattr(rsperm.permgroup, "_is_abelian", spy)
    points = ",".join(str(a) for a in [*range(14), *range(16, 29)])
    bad = []
    t0 = perf_counter()
    for command in ("group", "verify"):
        out = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out):
            code = main([command, "--field", "29", "--points", points, "--k", "26",
                         "--json"])
        elapsed = perf_counter() - start
        data = json.loads(out.getvalue())
        group = data.get("group", data)
        ok = (group["order"] == 2**13 and group["affine_order"] == 2
              and group["equal"] is False)
        if not (code == 0 and ok and elapsed < 5.0):
            bad.append((command, code, elapsed))

    f13 = ["--field", "13", "--points", "0,1,4,6", "--k", "3"]
    expected_calls = (
        (["group", *f13, "--json"], 0),
        (["verify", *f13], 0),
        (["verify", *f13, "--json"], 0),
        (["sweep", "--seed", "7", "--trials", "5"], 0),
        (["sweep", "--seed", "7", "--trials", "5", "--json"], 0),
        (["group", *f13], 1),
        (["paper-examples"], 1),
    )
    for argv, want in expected_calls:
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)
        if len(calls) != want:
            bad.append((argv, "commutativity tests", len(calls)))
    elapsed = perf_counter() - t0
    _report(14, "reports derive the hint only when printed", not bad, elapsed, 5.0)
    assert not bad, bad


def test_criterion_15_transitive_groups_are_searched_fast():
    # The paper's two corollaries at sizes where searching every image of
    # the pivots takes seconds: Per(RS(A, 2)) is the q - 1 maps a * x on
    # GF(q)* and AGL(1, q), of order q(q - 1), on all of GF(q).  Both
    # groups are transitive, so the search lists them as one member per
    # orbit point times the stabilizer of the first pivot.
    field_101, field_251, field_64 = Field(101), Field(251), Field(64)
    cases = (
        (EvaluationSet.multiplicative_group(field_101), 100, 1.5),
        (EvaluationSet.multiplicative_group(field_251), 250, 1.5),
        (EvaluationSet.full_field(field_64), 64 * 63, 1.5),
    )
    bad = []
    t0 = perf_counter()
    for points, want, limit in cases:
        start = perf_counter()
        report = check_theorem(points, 2)
        elapsed = perf_counter() - start
        if not (report.group.order == want and report.holds and elapsed < limit):
            bad.append((points.field.q, points.n, report.group.order, elapsed))
    elapsed = perf_counter() - t0
    _report(15, "transitive groups are searched fast", not bad, elapsed, 1.5)
    assert not bad, bad
