"""Seeded benchmark workloads: the argv of every instance and its oracle.

Nothing here imports rsperm.  Inputs are generated from the benchmark
seed and outputs are checked without calling the code being measured,
so an oracle cannot share a defect with the path it checks.

An instance is one RS(A, k) question answered: one `group`/`verify`
invocation, or one sweep trial.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

# The field pool `rsperm sweep` draws from, and the first two draws it
# makes per trial (q, then n); used only to stratify the trial mix.
SWEEP_FIELDS = (5, 7, 8, 9, 11, 13, 16)
# 40 is divisible by the 2, 4 or 5 values n can take for each q, so the
# pass holds exactly the expected share of every (q, n) cell.
SWEEP_TRIALS_PER_FIELD = 40

# (q, k) per scan-n10 instance.  k is fixed because the scan's cost per
# permutation grows with k; only the 10-point set is seeded.
SCAN_N10 = ((11, 5), (13, 5), (16, 4))

BIGFIELDS = (128, 243, 256)


@dataclass(frozen=True)
class Instance:
    """One CLI invocation and the oracle for its (exit code, stdout)."""

    argv: tuple[str, ...]
    check: Callable[[int | None, str], str | None]  # None when correct


def prime_power(q: int) -> tuple[int, int]:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    m, rest = 0, q
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, m


def literal(q: int, index: int) -> str:
    """rsperm's element literal for the element with the given index."""
    p, m = prime_power(q)
    if m == 1:
        return str(index)
    digits = []
    for _ in range(m):
        digits.append(str(index % p))
        index //= p
    return "[" + ",".join(digits) + "]"


def point_literals(q: int, indices) -> list[str]:
    return [literal(q, i) for i in indices]


def _group_argv(command: str, q: int, literals: list[str], k: int) -> tuple[str, ...]:
    return (command, "--field", str(q), "--points", ",".join(literals),
            "--k", str(k), "--json")


def _load(code: int | None, out: str) -> tuple[dict | None, str | None]:
    if code != 0:
        return None, f"exit code {code}"
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


# -- sweep ---------------------------------------------------------------------


def sweep_shape(trial_seed: int) -> tuple[int, int]:
    """(q, n) of the single trial `rsperm sweep --seed s --trials 1` draws."""
    rng = random.Random(trial_seed)
    q = rng.choice(SWEEP_FIELDS)
    return q, rng.randint(4, min(8, q))


def _check_sweep(shape: tuple[int, int], code: int | None, out: str) -> str | None:
    report, err = _load(code, out)
    if err:
        return err
    trial = report["results"][0]
    if (trial["q"], len(trial["points"])) != shape:
        return f"trial shape {trial['q']}, {len(trial['points'])} != {shape}"
    if report["passed"] != 1 or trial["ok"] is not True:
        return "trial not ok"
    return None


def sweep(seed: int) -> list[Instance]:
    """Sweep trials stratified to the exact expected (q, n) mix.

    Each trial is a real `rsperm sweep` trial (seed drawn from the bench
    seed); candidates are kept only while their (q, n) cell has room, so
    the pass's cost does not swing with how many n=8 trials a seed draws.
    """
    quota = {}
    for q in SWEEP_FIELDS:
        ns = range(4, min(8, q) + 1)
        for n in ns:
            quota[(q, n)] = SWEEP_TRIALS_PER_FIELD // len(ns)
    rng = random.Random(f"sweep:{seed}")
    out = []
    while len(out) < SWEEP_TRIALS_PER_FIELD * len(SWEEP_FIELDS):
        trial_seed = rng.getrandbits(32)
        shape = sweep_shape(trial_seed)
        if quota[shape]:
            quota[shape] -= 1
            argv = ("sweep", "--seed", str(trial_seed), "--trials", "1", "--json")
            out.append(Instance(argv, partial(_check_sweep, shape)))
    return out


# -- scan-n10 ------------------------------------------------------------------


def scan_n10_inputs(seed: int) -> list[tuple[int, list[str], int]]:
    rng = random.Random(f"scan-n10:{seed}")
    return [(q, point_literals(q, rng.sample(range(q), 10)), k) for q, k in SCAN_N10]


def _check_scan_n10(code: int | None, out: str) -> str | None:
    report, err = _load(code, out)
    if err:
        return err
    if report["equal"] is not True:
        return "group not equal to the affine group"
    if report["order"] != report["affine_order"]:
        return f"order {report['order']} != affine order {report['affine_order']}"
    if any(e["degree"] != 1 for e in report["elements"]):
        return "a member has degree != 1"
    return None


def scan_n10(seed: int) -> list[Instance]:
    return [Instance(_group_argv("group", q, lits, k), _check_scan_n10)
            for q, lits, k in scan_n10_inputs(seed)]


# -- boundary-sym --------------------------------------------------------------


def _check_symmetric(n: int, code: int | None, out: str) -> str | None:
    # k=1 is the repetition code for any A; for k=n-1 on the full field
    # the dual multiplier is constant.  Either way every permutation fixes
    # the code, whatever rsperm computes.
    report, err = _load(code, out)
    if err:
        return err
    if report["order"] != math.factorial(n):
        return f"order {report['order']} != {n}!"
    return None


def boundary_sym(seed: int) -> list[Instance]:
    rng = random.Random(f"boundary-sym:{seed}")
    full = list(range(7))
    rng.shuffle(full)
    seven_of_8 = rng.sample(range(8), 7)
    return [
        Instance(_group_argv("group", 7, point_literals(7, full), 6),
                 partial(_check_symmetric, 7)),
        Instance(_group_argv("group", 8, point_literals(8, seven_of_8), 1),
                 partial(_check_symmetric, 7)),
    ]


# -- bigfield ------------------------------------------------------------------


def _check_verified(code: int | None, out: str) -> str | None:
    report, err = _load(code, out)
    if err:
        return err
    if report["equal"] is not True:
        return "group not equal to the affine group"
    return None


def bigfield(seed: int) -> list[Instance]:
    rng = random.Random(f"bigfield:{seed}")
    out = []
    for q in BIGFIELDS:
        lits = point_literals(q, rng.sample(range(q), 7))
        out.append(Instance(_group_argv("verify", q, lits, rng.randint(2, 5)),
                            _check_verified))
    return out


BUILDERS = {
    "sweep": sweep,
    "scan-n10": scan_n10,
    "boundary-sym": boundary_sym,
    "bigfield": bigfield,
}

# Fields each workload's instances construct; setup_s builds exactly these.
FIELDS = {
    "sweep": SWEEP_FIELDS,
    "scan-n10": tuple(q for q, _ in SCAN_N10),
    "boundary-sym": (7, 8),
    "bigfield": BIGFIELDS,
}
