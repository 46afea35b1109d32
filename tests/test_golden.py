"""Byte-identical CLI output for fixed inputs and seeds.

Each case pins the sha256 of the ``--json`` stdout of one invocation.
The digests were taken before the field kernel moved to element
indices, so any refactor that changes a single output byte fails here.
A deliberate change of output format must update the digests in the
same commit and say why.
"""

import hashlib
import random

import pytest

from conftest import vector_literals
from rsperm.cli import main


def _gf256_points(seed: int, n: int) -> str:
    """n distinct GF(256) literals."""
    return vector_literals(2, 8, random.Random(seed).sample(range(256), n))


CASES = {
    "paper-examples": ["paper-examples", "--json"],
    "affine-gf13": ["affine", "--field", "13", "--points", "0,1,4,6", "--json"],
    # All 240 maps of GF(16), and the 8 of GF(9)* with the given modulus:
    # both pin the order in which affine maps are listed.
    "affine-gf16-full": [
        "affine", "--field", "16", "--points", vector_literals(2, 4, range(16)), "--json",
    ],
    "affine-gf9-units": [
        "affine", "--field", "9", "--modulus", "2,2,1",
        "--points", vector_literals(3, 2, range(1, 9)), "--json",
    ],
    "group-gf13": [
        "group", "--field", "13", "--points", "0,1,4,6", "--k", "3", "--json",
    ],
    "group-gf9": [
        "group", "--field", "9", "--modulus", "2,2,1",
        "--points", "[0,0],[1,0],[2,0],[1,1],[2,2]", "--k", "4", "--json",
    ],
    # t is not primitive under the default GF(256) modulus.
    "verify-gf256": [
        "verify", "--field", "256", "--points", _gf256_points(256, 7),
        "--k", "3", "--json",
    ],
    # Three reports of all of S_7, 5040 members each, whose polynomials
    # print prime, p = 2 and odd-p vector literals: the largest outputs
    # pinned here, and the only ones where most members have polynomials
    # of high degree.
    "group-gf7-full-k6": [
        "group", "--field", "7", "--points", "0,1,2,3,4,5,6", "--k", "6", "--json",
    ],
    "group-gf8-units-k1": [
        "group", "--field", "8", "--points", vector_literals(2, 3, range(1, 8)),
        "--k", "1", "--json",
    ],
    "group-gf9-seven-k1": [
        "group", "--field", "9", "--points", vector_literals(3, 2, [0, 1, 2, 4, 5, 7, 8]),
        "--k", "1", "--json",
    ],
    # The same S_7 reports nested two levels deep in a verify report: one
    # with the out-of-range warning text over a prime field, one with
    # bracketed odd-p literals.
    "verify-gf7-full-k6": [
        "verify", "--field", "7", "--points", "0,1,2,3,4,5,6", "--k", "6", "--json",
    ],
    "verify-gf9-seven-k1": [
        "verify", "--field", "9", "--points", vector_literals(3, 2, [0, 1, 2, 4, 5, 7, 8]),
        "--k", "1", "--json",
    ],
    # S_5 over GF(257): slots wider than a byte, and term keys i*q + c
    # past 256.
    "group-gf257-k1": [
        "group", "--field", "257", "--points", "0,1,2,3,4", "--k", "1", "--json",
    ],
    # S_5 over GF(243): byte slots with m = 5, and members of degree 3
    # and 4 whose coefficients print as five-digit literals.
    "group-gf243-k1": [
        "group", "--field", "243",
        "--points", "[0,0,0,0,0],[1,0,0,0,0],[0,1,0,0,0],[2,2,1,0,1],[1,1,1,1,1]",
        "--k", "1", "--json",
    ],
    "sweep-42-30": ["sweep", "--seed", "42", "--trials", "30", "--json"],
    # The headline run: every field of the sweep pool, 200 trials.
    "sweep-42-200": ["sweep", "--seed", "42", "--trials", "200", "--json"],
}

DIGESTS = {
    "affine-gf16-full": "00ec55d0c25d1f3652e43ef753cb72f3f8e3952d72e74436d3afcbeb02f6070b",
    "affine-gf9-units": "ec475f189aa8a212f75e84e946ec075add68df3aafa396c7fa3f1bb720405169",
    "affine-gf13": "3ada8537d205511f1db11e7e50dcb82e344c6879b3bf6c35abc563f86280c114",
    "group-gf13": "d89f4fd21df2bd1f9f4e865e5964f5774d93d27bdc8adde3f70b4f368a8f818a",
    "group-gf7-full-k6": "c3cc080e3a8f59253bc1b37c89555593419e73fc4f7136ddcef22e1b9f0e6ddf",
    "group-gf8-units-k1": "b56a7516c97c09b9ac0ac46b3240b6120cdace53da561d9547c37722d0b87df0",
    "group-gf243-k1": "b42db1ab8723dc4f1aabcedfd9e94e9bbecaf88adf6d58f6cc5d443bcb76fd80",
    "group-gf257-k1": "4e26150d21dc3ec79dbf90050bc6ab7f0ed13eaab79a6205b8134aebe5fbb38d",
    "group-gf9": "672c40b921df854f44afd8a70a1a0d88c29ea54d7bb3e1f0ca6f94b2f1a11712",
    "group-gf9-seven-k1": "699ff9e6bf214994cf64e135c4bf470bac006c5f9003e32f8b8957124f104323",
    "paper-examples": "5f06041a64d5cccb7bb9295726c8b6374eefda84ade5456605369774f25a9f7f",
    "sweep-42-30": "4179d3b5b9f3efaf8bbcb458a926c75100186a5a2bfa5f3636cb89702755aca5",
    "sweep-42-200": "b73164eb7d6c933ed4e0631060d0e1de695a03376f2098a871762a975f6d9be8",
    "verify-gf7-full-k6": "37574c3cc772eda36e0451161e9f6314b427aa8523ca632b35c6d894fa46f64f",
    "verify-gf9-seven-k1": "c2ba73acfd72e2aa246be87d21c5f1c2d5b228e83eecce7ce1e651070715f9a1",
    "verify-gf256": "bdb606de42bef5a6300fa522829977c24f061d12d7e1e14b5392115225caf005",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_is_unchanged(capsys, name):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[name]
