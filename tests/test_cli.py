import copy
import json
import os
import pickle
import random
import re
import subprocess
import time

import pytest

import rsperm
import rsperm.cli
import rsperm.gf
import rsperm.permgroup
from conftest import run_process, vector_literals
from rsperm.cli import SweepTrial, main, run_sweep, split_top_level


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_split_top_level():
    assert split_top_level("0,1,4,6") == ["0", "1", "4", "6"]
    assert split_top_level("[0,0],[1,2]") == ["[0,0]", "[1,2]"]
    with pytest.raises(ValueError):
        split_top_level("[0,1")


def test_affine_lists_paper_maps(capsys):
    code, out, _ = run(capsys, "affine", "--field", "13", "--points", "0,1,4,6")
    assert code == 0
    assert "affine permutations of the point set: 3" in out
    for poly in ("x", "3*x + 1", "9*x + 4"):
        assert poly in out


def test_affine_full_field_count(capsys):
    code, out, _ = run(capsys, "affine", "--field", "5", "--points", "0,1,2,3,4")
    assert code == 0
    assert "affine permutations of the point set: 20" in out


def test_affine_duplicate_point_exits_2(capsys):
    code, _, err = run(capsys, "affine", "--field", "13", "--points", "0,1,1,6")
    assert code == 2
    assert "distinct" in err


def test_group_more_points_than_the_field_exits_2(capsys):
    """Six points of GF(5) repeat one (5 is 0), caught as a duplicate."""
    code, _, err = run(capsys, "group", "--field", "5", "--points", "0,1,2,3,4,5", "--k", "2")
    assert code == 2
    assert "pairwise distinct" in err


def test_affine_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "affine", "--field", "13", "--points", "0,1,4,6", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 3
    assert json.dumps(data, indent=2) == out.strip()


def test_group_paper_example(capsys):
    code, out, _ = run(
        capsys, "group", "--field", "13", "--points", "0,1,4,6", "--k", "3"
    )
    assert code == 0
    assert "permutation group order 6" in out
    assert "S_3" in out


def test_group_k1_gives_full_symmetric_group(capsys):
    code, out, _ = run(
        capsys, "group", "--field", "13", "--points", "0,1,4,6", "--k", "1"
    )
    assert code == 0
    assert "permutation group order 24" in out


def test_group_k2_affine_only(capsys):
    code, out, _ = run(
        capsys, "group", "--field", "13", "--points", "0,1,4,6", "--k", "2"
    )
    assert code == 0
    assert "permutation group order 3" in out
    assert "equal to the full group: True" in out


def test_text_group_decides_a_large_abelian_hint_quickly(capsys):
    # k = n - 1 on GF(29) without {14, 15}: |Per| = 2^13, an abelian group
    # whose pairwise commutativity test took about 27 s.
    points = ",".join(str(a) for a in [*range(14), *range(16, 29)])
    start = time.perf_counter()
    code, out, _ = run(capsys, "group", "--field", "29", "--points", points, "--k", "26")
    assert time.perf_counter() - start < 3.0
    assert code == 0
    assert "permutation group order 8192 (order 8192, abelian)" in out


def test_group_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "group",
        "--field",
        "13",
        "--points",
        "0,1,4,6",
        "--k",
        "3",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"order", "affine_order", "equal", "elements"}
    assert data["order"] == 6 and data["affine_order"] == 3
    assert json.dumps(data, indent=2) == out.strip()


def test_group_extension_field(capsys):
    code, out, _ = run(
        capsys,
        "group",
        "--field",
        "9",
        "--modulus",
        "2,2,1",
        "--points",
        "[0,0],[1,0],[2,0],[1,1],[2,2]",
        "--k",
        "2",
    )
    assert code == 0
    assert "permutation group order" in out


def test_verify_in_range(capsys):
    code, out, _ = run(
        capsys, "verify", "--field", "13", "--points", "0,1,4,6", "--k", "2"
    )
    assert code == 0
    assert "groups equal: True" in out
    assert "verified" in out


def test_verify_boundary_reports_inequality(capsys):
    code, out, _ = run(
        capsys, "verify", "--field", "13", "--points", "0,1,4,6", "--k", "3"
    )
    assert code == 0
    assert "warning" in out
    assert "groups equal: False" in out


def test_verify_full_field_f7(capsys):
    code, out, _ = run(
        capsys, "verify", "--field", "7", "--points", "0,1,2,3,4,5,6", "--k", "3"
    )
    assert code == 0
    assert "brute-force group order 42, affine group order 42" in out


def test_verify_json(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--field",
        "13",
        "--points",
        "0,1,4,6",
        "--k",
        "2",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is True and data["in_range"] is True
    assert json.dumps(data, indent=2) == out.strip()


def test_verify_bad_k_exits_2(capsys):
    code, _, err = run(
        capsys, "verify", "--field", "13", "--points", "0,1,4,6", "--k", "9"
    )
    assert code == 2


def test_sweep_deterministic(capsys):
    code1, out1, _ = run(capsys, "sweep", "--seed", "42", "--trials", "5")
    code2, out2, _ = run(capsys, "sweep", "--seed", "42", "--trials", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "5/5 pass" in out1
    assert "seed=42" in out1


def test_sweep_duality_check_searches_the_other_side(monkeypatch):
    """check_theorem searches the smaller of C and its dual; the duality
    check must search the other one, or it compares a search with itself."""
    seen = []
    search = rsperm.permgroup.exhaustive_permutations

    def spy(code, *args, **kwargs):
        seen.append(code.rref)
        return search(code, *args, **kwargs)

    monkeypatch.setattr(rsperm.permgroup, "exhaustive_permutations", spy)
    monkeypatch.setattr(rsperm.cli, "exhaustive_permutations", spy)
    [trial] = run_sweep(seed=0, trials=1)
    n, k = trial.result.points.n, trial.result.k
    assert k != n - k
    assert trial.duality_ok
    assert len(seen) == 2
    assert seen[0] != seen[1]
    assert sorted(len(rref) for rref in seen) == sorted([k, n - k])


def test_sweep_duality_check_builds_no_square(monkeypatch):
    """A sweep builds no square dual D = (C * C)^perp: on its shapes
    (n <= 8) searching C costs less than building D.  And the side with
    2k > n never goes through D, even with the cost gate forced open, so
    duality_ok never compares two searches of one D."""
    built = []
    square_dual = rsperm.permgroup._square_dual

    def spy(code):
        built.append(code.k)
        return square_dual(code)

    monkeypatch.setattr(rsperm.permgroup, "_square_dual", spy)
    trials = list(run_sweep(seed=42, trials=40))
    assert all(t.duality_ok for t in trials)
    assert built == []
    monkeypatch.setattr(rsperm.permgroup, "_square_pays", lambda n, k, cost: True)
    larger = [
        code if 2 * code.k > code.n else code.dual
        for code in (t.result.code for t in trials)
        if 2 * code.k != code.n
    ]
    assert len(larger) >= 20
    for code in larger:
        rsperm.permgroup.exhaustive_permutations(code)
    assert built == []
    # With the gate open, some of the smaller sides do build one.
    for code in larger:
        rsperm.permgroup.exhaustive_permutations(code.dual)
    assert built


def count_table_builds(monkeypatch) -> list[int]:
    """The order of every field whose tables are built from now on, in a
    process that has made no field yet (with the no_fields fixture)."""
    built = []
    primitive_powers = rsperm.gf._primitive_powers

    def counting(field):
        built.append(field.q)
        return primitive_powers(field)

    monkeypatch.setattr(rsperm.gf, "_primitive_powers", counting)
    return built


def test_sweep_builds_each_field_once(monkeypatch, no_fields):
    """A run uses one Field per order it draws and builds its tables
    once, however many trials draw it."""
    built = count_table_builds(monkeypatch)
    trials = list(run_sweep(seed=42, trials=30))
    fields = {t.result.points.field.q: t.result.points.field for t in trials}
    assert all(t.result.points.field is fields[t.result.points.field.q] for t in trials)
    assert sorted(built) == sorted(fields)
    assert len(trials) > len(built)


def test_verify_calls_in_one_process_build_the_tables_once(capsys, monkeypatch, no_fields):
    built = count_table_builds(monkeypatch)
    points = vector_literals(2, 8, (1, 2, 3, 5, 8, 13))
    for k in ("2", "3"):
        code, out, _ = run(capsys, "verify", "--field", "256", "--points", points, "--k", k)
        assert code == 0, out
    assert built == [256]


def test_sweep_reports_a_failed_duality_check(capsys, monkeypatch):
    """A trial whose dual search disagrees is printed as FAIL, described on
    a FAILURE line, counted in the JSON, and makes the sweep exit 1."""
    monkeypatch.setattr(rsperm.cli, "exhaustive_permutations", lambda code: [])
    code, out, _ = run(capsys, "sweep", "--seed", "3", "--trials", "2")
    assert code == 1
    lines = out.splitlines()
    assert re.fullmatch(r"trial 000 q=\d+ n=\d k=\d order=\d+ affine=\d+ FAIL", lines[1])
    assert re.fullmatch(
        r"FAILURE trial 0: q=\d+ modulus=(None|\[[\d, ]+\]) points=\S+ k=\d "
        r"equal=True degrees_ok=True duality_ok=False bound_ok=True",
        lines[3],
    )
    assert lines[-1] == "0/2 pass"
    code, out, _ = run(capsys, "sweep", "--seed", "3", "--trials", "2", "--json")
    data = json.loads(out)
    assert code == 1 and (data["passed"], data["failed"]) == (0, 2)
    assert [t["ok"] for t in data["results"]] == [False, False]


def test_sweep_zero_trials(capsys):
    code, out, err = run(capsys, "sweep", "--trials", "0")
    assert code == 2
    assert "pass" not in out
    assert "trials" in err


def test_sweep_negative_trials(capsys):
    code, out, err = run(capsys, "sweep", "--trials", "-5")
    assert code == 2
    assert "pass" not in out
    assert "trials" in err


def test_field_order_above_cap_exits_2(capsys):
    start = time.perf_counter()
    code, _, err = run(
        capsys, "affine", "--field", "1000000007", "--points", "0,1"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "exceeds cap" in err


def test_sweep_json(capsys):
    code, out, _ = run(
        capsys, "sweep", "--seed", "7", "--trials", "3", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] == 3 and data["failed"] == 0
    assert len(data["results"]) == 3


def test_sweep_trial_behaves_as_a_frozen_dataclass():
    [trial] = run_sweep(seed=3, trials=1)
    result = trial.result
    assert trial == SweepTrial(index=0, result=result, duality_ok=True)
    assert trial == SweepTrial(0, result, True) and trial != SweepTrial(0, result, False)
    assert hash(trial) == hash((0, result, True))
    assert trial.__eq__((0, result, True)) is NotImplemented
    assert repr(trial) == f"SweepTrial(index=0, result={result!r}, duality_ok=True)"
    for name in ("index", "result", "duality_ok", "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(trial, name, None)
    for name in ("index", "result", "duality_ok"):
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(trial, name)
    assert copy.copy(trial) == trial
    for twin in (pickle.loads(pickle.dumps(trial)), copy.deepcopy(trial)):
        assert type(twin) is SweepTrial
        assert twin.to_json_dict() == trial.to_json_dict()


def test_paper_examples_pass(capsys):
    code, out, _ = run(capsys, "paper-examples")
    assert code == 0
    assert "8/8 checks pass" in out


def test_paper_examples_json(capsys):
    code, out, _ = run(capsys, "paper-examples", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0
    assert len(data["checks"]) == 8


def test_invalid_field_exits_2(capsys):
    code, _, err = run(capsys, "affine", "--field", "6", "--points", "0,1")
    assert code == 2


def test_points_may_start_with_a_negative_literal(capsys):
    split = run(capsys, "affine", "--field", "13", "--points", "-3,1")
    joined = run(capsys, "affine", "--field", "13", "--points=-3,1")
    assert split == joined
    assert split[0] == 0
    assert "points (10, 1)" in split[1]


def test_modulus_may_start_with_a_negative_literal(capsys):
    points = ["--points", "[0,1],[1,1]"]
    split = run(capsys, "affine", "--field", "9", "--modulus", "-1,2,1", *points)
    joined = run(capsys, "affine", "--field", "9", "--modulus=-1,2,1", *points)
    assert split == joined
    assert split[0] == 0


def test_reducible_modulus_exits_2_after_a_default_field(capsys):
    points = ["--points", "[0,0,0,0,0,0,0,0],[1,0,0,0,0,0,0,0]"]
    assert run(capsys, "affine", "--field", "256", *points)[0] == 0
    # t^8 + 1 = (t + 1)^8 over F_2
    modulus = ["--modulus", "1,0,0,0,0,0,0,0,1"]
    code, _, err = run(capsys, "affine", "--field", "256", *modulus, *points)
    assert code == 2
    assert "reducible" in err


def test_bare_trailing_points_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["affine", "--field", "13", "--points"])
    assert exc.value.code == 2
    assert "--points" in capsys.readouterr().err


def test_main_shares_one_parser_and_leaks_no_options(capsys):
    instance = ["group", "--field", "13", "--points", "0,1,4,6", "--k", "3"]
    assert rsperm.cli.build_parser() is rsperm.cli.build_parser()
    for _ in range(2):
        code, out, _ = run(capsys, *instance, "--json")
        assert code == 0
        assert json.loads(out)["order"] == 6
        code, out, _ = run(capsys, *instance)
        assert code == 0
        assert out.startswith("field GF(13)\n")
        # The calls before gave --points; this one must still lack it.
        with pytest.raises(SystemExit) as exc:
            main(["group", "--field", "13", "--k", "3", "--json"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--points" in err


# Every command with all its flags, help at each level, an abbreviation,
# "--", an option before the command, an unknown command, no command,
# leftover tokens, values that start with "-", and missing or bad values.
DISPATCH_ARGVS = [
    ["affine", "--field", "9", "--modulus", "2,2,1", "--points", "[0,0],[1,0]", "--json"],
    ["group", "--field", "13", "--modulus", "1,1", "--points", "0,1,4,6", "--k", "3", "--json"],
    ["verify", "--json", "--k", "2", "--points", "0,1,4,6", "--modulus", "2,1", "--field", "13"],
    ["sweep", "--seed", "7", "--trials", "3", "--json"],
    ["paper-examples", "--json"],
    ["-h"],
    ["--help"],
    ["affine", "-h"],
    ["group", "--help"],
    ["verify", "-h", "--field", "13"],
    ["sweep", "--help"],
    ["paper-examples", "-h"],
    ["group", "--poi", "0,1,4,6", "--fi", "13", "--k", "3"],
    ["sweep", "--", "--seed", "3"],
    ["affine", "--field", "13", "--points", "0,1", "--"],
    ["--", "sweep"],
    ["--json", "group", "--field", "13", "--points", "0,1,4,6", "--k", "3"],
    ["frobnicate", "--json"],
    [],
    ["sweep", "--trials", "3", "extra", "--bogus"],
    ["paper-examples", "--json", "--json", "x"],
    ["affine", "--field", "13", "--points", "-3,1"],
    ["affine", "--field", "9", "--modulus", "-1,2,1", "--points", "[0,0]"],
    ["sweep", "--seed", "-5"],
    ["group", "--field", "13", "--k", "3"],
    ["verify", "--field", "x", "--points", "0,1", "--k", "1"],
    ["sweep", "--trials"],
]


@pytest.fixture
def recorded(monkeypatch):
    """The namespaces the commands are called with: the shared parser is
    rebuilt with each command replaced by a recorder returning 0, and
    rebuilt from the real commands afterwards."""
    seen = []

    def record(args):
        seen.append(args)
        return 0

    for name in ("cmd_affine", "cmd_group", "cmd_verify", "cmd_sweep", "cmd_paper_examples"):
        monkeypatch.setattr(rsperm.cli, name, record)
    rsperm.cli.build_parser.cache_clear()
    yield seen
    rsperm.cli.build_parser.cache_clear()


def _outcome(capsys, call):
    """(result or exit code, stdout, stderr) of call()."""
    try:
        result = call()
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


@pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_dispatch_parses_as_the_top_parser_does(capsys, recorded, argv):
    """main gives the namespace, exit code, stdout and stderr that the
    top parser's parse_args gives on the same tokens."""
    code, out, err = _outcome(capsys, lambda: main(argv))
    tokens = rsperm.cli._attach_negative_values(argv)
    want, want_out, want_err = _outcome(capsys, lambda: rsperm.cli.build_parser().parse_args(tokens))
    assert (out, err) == (want_out, want_err)
    if isinstance(want, int):
        assert (code, recorded) == (want, [])
    else:
        assert (code, recorded) == (0, [want])


def test_bad_point_literal_exits_2(capsys):
    code, _, err = run(capsys, "affine", "--field", "13", "--points", "0,zz")
    assert code == 2


def test_closed_stdout_exits_1_quietly():
    """A reader that has gone away (e.g. `| head -1`) is not a crash."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = run_process(
            ["affine", "--field", "13", "--points", ",".join(map(str, range(13))),
             "--json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == b""


# Affine enumeration tries n(n-1) two-point candidates, so these finish in
# about a second whatever q is; the bound includes the O(q) table build.
LARGE_FIELD_SECONDS = 10.0


def _timed(argv):
    start = time.perf_counter()
    result = run_process(
        argv, capture_output=True, text=True, timeout=4 * LARGE_FIELD_SECONDS
    )
    return result, time.perf_counter() - start


def test_affine_gf4096_six_points_is_fast():
    # {0, 1, t, t+1, t^2, t^2+1} is a union of cosets of {0, 1}.
    result, seconds = _timed(
        ["affine", "--field", "4096", "--points", vector_literals(2, 12, range(6)),
         "--json"]
    )
    assert seconds < LARGE_FIELD_SECONDS
    assert result.returncode == 0, result.stderr
    polys = [e["poly"] for e in json.loads(result.stdout)["elements"]]
    assert polys[0] == "x"
    assert "x + [" + ",".join(["1"] + ["0"] * 11) + "]" in polys


def test_affine_gf65536_seven_points_is_fast():
    points = vector_literals(2, 16, random.Random(65536).sample(range(1 << 16), 7))
    result, seconds = _timed(
        ["affine", "--field", "65536", "--points", points, "--json"]
    )
    assert seconds < LARGE_FIELD_SECONDS
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["elements"][0]["poly"] == "x"


def test_verify_gf65536_seven_points_is_fast():
    points = vector_literals(2, 16, random.Random(7).sample(range(1 << 16), 7))
    result, seconds = _timed(
        ["verify", "--field", "65536", "--points", points, "--k", "3", "--json"]
    )
    assert seconds < LARGE_FIELD_SECONDS
    assert result.returncode == 0, result.stderr
    data = json.loads(result.stdout)
    assert data["equal"] and data["all_degree_one"]


# The paper's corollaries at n = 16: the permutation group of RS(A, k)
# for A all of GF(q) (or a subfield) is AGL(1, q), of order q(q-1), and
# for A = GF(q)* it is the q-1 scalings.  The search meets the
# n!/(n-d)! candidates, d = min(k, n-k), in the middle on one free
# column, so each of these takes well under a second.
COROLLARY_SECONDS = 10.0


def _corollary(command, field, points, k):
    start = time.perf_counter()
    result = run_process(
        [command, "--field", str(field), "--points", points, "--k", str(k), "--json"],
        capture_output=True, text=True, timeout=4 * COROLLARY_SECONDS,
    )
    assert time.perf_counter() - start < COROLLARY_SECONDS
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def _group_order(field, points, k):
    data = _corollary("group", field, points, k)
    assert data["equal"] is True
    assert all(e["degree"] == 1 for e in data["elements"])
    return data["order"]


@pytest.mark.parametrize("k", [3, 5])
def test_group_of_all_of_gf16(k):
    q = 16
    assert _group_order(q, vector_literals(2, 4, range(q)), k) == q * (q - 1)


def test_group_of_the_units_of_gf17():
    q = 17
    assert _group_order(q, ",".join(str(a) for a in range(1, q)), 4) == q - 1


def test_group_of_gf16_inside_gf256():
    field = rsperm.Field(256)
    sub = [str(x) for x in field.elements() if x**16 == x]
    q = len(sub)
    assert q == 16
    # The subfield is closed under every affine map with coefficients in
    # it, and those are the only affine maps of GF(256) that fix it.
    assert _group_order(256, ",".join(sub), 3) == q * (q - 1)


def test_verify_gf13_less_one_point():
    """A = GF(13) without 12: the affine maps fixing 12, q - 1 of them."""
    q = 13
    data = _corollary("verify", q, ",".join(str(a) for a in range(q - 1)), 6)
    assert data["equal"] and data["all_degree_one"]
    assert data["group"]["order"] == data["group"]["affine_order"] == q - 1
