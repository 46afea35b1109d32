import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import rsperm
from rsperm import EvaluationSet, Field, Polynomial

SRC = str(Path(rsperm.__file__).resolve().parent.parent)


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
