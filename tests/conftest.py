import os
import random
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path

import pytest

import rsperm
import rsperm.gf
from rsperm import EvaluationSet, Field, LinearCode, Permutation, Polynomial, compose_mod, perm_to_poly

SRC = str(Path(rsperm.__file__).resolve().parent.parent)


def fresh_field(q, modulus=None) -> Field:
    """A Field equal to Field(q, modulus) that is not that object and
    shares none of its tables or strings.

    Field(q, modulus) hands out the process's one field; this runs
    Field.__init__ on a new object once that field exists, so the new
    object is checked like any field but not registered in its place.
    """
    shared = Field(q, modulus)
    field = object.__new__(Field)
    field.__init__(q, modulus)
    assert field is not shared and field == shared
    return field


@pytest.fixture
def no_fields(monkeypatch):
    """A field registry with nothing in it, for the test; the process's
    own registry is put back after."""
    for name in ("_FIELDS", "_KEPT"):
        monkeypatch.setattr(rsperm.gf, name, type(getattr(rsperm.gf, name))())


@pytest.fixture
def f13():
    return Field(13)


@pytest.fixture
def f9():
    # modulus t^2 + 2t + 2 over F_3, so the generator a satisfies a^2 = a + 1
    return Field(9, modulus=(2, 2, 1))


@pytest.fixture
def pts13(f13):
    return EvaluationSet(f13, [0, 1, 4, 6])


@pytest.fixture
def pts9(f9):
    return EvaluationSet(f9, [[0, 0], [1, 0], [2, 0], [1, 1], [2, 2]])


def run_process(argv, **kwargs):
    """rsperm in a fresh interpreter, importing the package under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "rsperm.cli", *argv], env=env, **kwargs
    )


def vector_literals(p: int, m: int, indices) -> str:
    """Comma-separated GF(p^m) literals; base-p digit b of an index is coefficient b."""
    return ",".join(
        "[" + ",".join(str(i // p**b % p) for b in range(m)) + "]" for i in indices
    )


def random_points(rng: random.Random, field: Field, n: int) -> EvaluationSet:
    return EvaluationSet(field, rng.sample(field.elements(), n))


def random_polynomial(rng: random.Random, field: Field, max_degree: int) -> Polynomial:
    coeffs = [field.from_index(rng.randrange(field.q)) for _ in range(max_degree + 1)]
    return Polynomial(field, coeffs)


def reference_members(code: LinearCode) -> list[tuple[int, ...]]:
    """Every pi, 0-based, with (r[pi(0)], ..., r[pi(n-1)]) in the code for each row r.

    An n! search through LinearCode.contains: it calls no search routine
    of rsperm.permgroup, so it is a reference for both of them.
    """
    return [
        pi
        for pi in permutations(range(code.n))
        if all(code.contains([row[i] for i in pi]) for row in code.rref)
    ]


def group_closure_check(perms) -> bool:
    """True iff the set contains the identity and is closed under * and inverse."""
    ps = set(perms)
    if not ps:
        return False
    n = len(next(iter(ps)))
    if Permutation.identity(n) not in ps:
        return False
    for a in ps:
        if a.inverse() not in ps:
            return False
        for b in ps:
            if a * b not in ps:
                return False
    return True


def homomorphism_check(
    points: EvaluationSet, perm1: Permutation, perm2: Permutation
) -> bool:
    """Composition modulo the set matches index composition of permutations."""
    lhs = compose_mod(
        perm_to_poly(perm1, points), perm_to_poly(perm2, points), points
    )
    return lhs == perm_to_poly(perm1 * perm2, points)


class Reference:
    """GF(p^m) on coefficient tuples, ascending powers of t.

    Products reduce by the field's modulus and inverses go by square and
    multiply.  It reads only the modulus, so it shares no code with the
    index arithmetic of Field.ops that it checks.
    """

    def __init__(self, field: Field):
        self.p, self.m, self.q = field.p, field.m, field.q
        self.modulus = field.modulus
        self.zero = (0,) * self.m
        self.one = (1,) + (0,) * (self.m - 1)

    def add(self, x, y):
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple((a - b) % self.p for a, b in zip(x, y))

    def mul(self, x, y):
        m = self.m
        prod = [0] * (2 * m - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                prod[i + j] += a * b
        # t^m is minus the modulus below its (monic) top coefficient.
        for d in range(2 * m - 2, m - 1, -1):
            c = prod[d] % self.p
            prod[d] = 0
            for i, r in enumerate(self.modulus[:m]):
                prod[d - m + i] -= c * r
        return tuple(c % self.p for c in prod[:m])

    def inv(self, x):
        assert x != self.zero
        result, base, e = self.one, x, self.q - 2
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def dot(self, u, v):
        acc = self.zero
        for a, b in zip(u, v):
            acc = self.add(acc, self.mul(a, b))
        return acc

    def rref(self, rows):
        """Reduced row echelon form; zero rows dropped."""
        work = [list(r) for r in rows]
        if not work:
            return []
        pivot_row = 0
        for col in range(len(work[0])):
            pivot = next(
                (r for r in range(pivot_row, len(work)) if work[r][col] != self.zero),
                None,
            )
            if pivot is None:
                continue
            work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
            inv = self.inv(work[pivot_row][col])
            work[pivot_row] = [self.mul(inv, x) for x in work[pivot_row]]
            for r in range(len(work)):
                f = work[r][col]
                if r != pivot_row and f != self.zero:
                    work[r] = [
                        self.sub(a, self.mul(f, b))
                        for a, b in zip(work[r], work[pivot_row])
                    ]
            pivot_row += 1
            if pivot_row == len(work):
                break
        return [r for r in work[:pivot_row] if any(x != self.zero for x in r)]


def min_distance(code) -> int:
    """Least weight of a nonzero codeword, by listing all q^k codewords.

    Each codeword is a sum of multiples of the rref rows, taken on
    Reference coefficient tuples, so no Field.ops arithmetic is involved.
    """
    ref = Reference(code.field)
    scalars = list(product(range(ref.p), repeat=ref.m))
    words = [(ref.zero,) * code.n]
    for row in code.rref:
        row = [x.coeffs for x in row]
        multiples = [[ref.mul(c, x) for x in row] for c in scalars]
        words = [tuple(map(ref.add, w, v)) for w in words for v in multiples]
    weights = (sum(x != ref.zero for x in w) for w in words)
    return min(w for w in weights if w)
