"""The orbit-by-orbit commutativity test against the pairwise definition.

_is_abelian assumes its members form a group, so every input here is
the closure of a few generators, built in this file.  The reference
compares every pair of members on every point, sharing no code with the
orbit test it checks.
"""

import random

import pytest

from rsperm.permgroup import Permutation, _is_abelian


def closure(generators: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    n = len(generators[0])
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        new = []
        for a in frontier:
            for g in generators:
                c = tuple(g[a[i]] for i in range(n))
                if c not in group:
                    group.add(c)
                    new.append(c)
        frontier = new
    return sorted(group)


def pairwise_abelian(group: list[tuple[int, ...]]) -> bool:
    return all(a[b[i]] == b[a[i]] for a in group for b in group for i in range(len(a)))


def cycles(n: int, *cs: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation of 0..n-1 with the given 1-based disjoint cycles."""
    images = list(range(n))
    for c in cs:
        for x, y in zip(c, c[1:] + c[:1]):
            images[x - 1] = y - 1
    return tuple(images)


def orbit_sizes(group: list[tuple[int, ...]]) -> list[int]:
    n, placed, sizes = len(group[0]), set(), []
    for x in range(n):
        if x not in placed:
            orbit = {a[x] for a in group}
            placed |= orbit
            sizes.append(len(orbit))
    return sizes


NAMED = {
    # Intransitive and cyclic of order 6.
    "<(1 2), (3 4 5)>": ([cycles(5, (1, 2)), cycles(5, (3, 4, 5))], 6, [2, 3], True),
    # The dihedral group of the square: transitive, not regular.
    "<(1 2 3 4), (1 3)>": ([cycles(4, (1, 2, 3, 4)), cycles(4, (1, 3))], 8, [4], False),
    # S_3 acting on itself: regular, so it has one restriction per point,
    # and those do not commute.
    "regular S_3": (
        [cycles(6, (1, 2, 3), (4, 5, 6)), cycles(6, (1, 4), (2, 6), (3, 5))],
        6, [6], False,
    ),
    "Klein four, regular": (
        [cycles(4, (1, 2), (3, 4)), cycles(4, (1, 3), (2, 4))], 4, [4], True,
    ),
    "S_3 with two fixed points": (
        [cycles(5, (1, 2, 3)), cycles(5, (1, 2))], 6, [3, 1, 1], False,
    ),
    "a 7-cycle": ([cycles(7, (1, 2, 3, 4, 5, 6, 7))], 7, [7], True),
    "the identity": ([cycles(3)], 1, [1, 1, 1], True),
}


@pytest.mark.parametrize("name", NAMED)
def test_named_groups(name):
    generators, order, sizes, abelian = NAMED[name]
    group = closure(generators)
    assert len(group) == order
    assert sorted(orbit_sizes(group)) == sorted(sizes)
    assert pairwise_abelian(group) is abelian
    assert _is_abelian([Permutation(a) for a in group]) is abelian


def random_generator(rng: random.Random, n: int) -> tuple[int, ...]:
    """A random permutation of a random subset of the points, so that
    intransitive and abelian groups are common."""
    support = rng.sample(range(n), rng.randint(0, n))
    images = list(range(n))
    for x, y in zip(support, rng.sample(support, len(support))):
        images[x] = y
    return tuple(images)


def test_seeded_closures_agree_with_the_pairwise_definition():
    rng = random.Random(2015)
    seen = {(a, t): 0 for a in (True, False) for t in (True, False)}
    for _ in range(600):
        n = rng.randint(1, 7)
        generators = [random_generator(rng, n) for _ in range(rng.randint(1, 3))]
        group = closure(generators)
        rng.shuffle(group)
        abelian = pairwise_abelian(group)
        assert _is_abelian([Permutation(a) for a in group]) is abelian, generators
        seen[abelian, orbit_sizes(group) == [n]] += 1
    # Abelian and non-abelian groups, transitive and intransitive, all occur.
    assert min(seen.values()) >= 10, seen
