"""|Per(RS(A, n-1))| from a closed form, against the exhaustive search.

For k = n-1 the dual of RS(A, k) is spanned by v with
v_i = 1 / prod_{j != i} (a_i - a_j), and C and its dual have the same
group.  So pi is a member exactly when v o pi = c * v for a scalar c:
each such c maps every level set {i : v_i = y} onto the level set of
c * y, and gives prod_y |level set of y|! members.  The order is the sum
of those products over the valid c.  This oracle needs only field
arithmetic; closed_form_order calls nothing in rsperm.permgroup, so it
shares no code with the search it checks.
"""

import math
import random
from collections import Counter

import pytest

from rsperm import EvaluationSet, Field, rs_code
from rsperm.permgroup import exhaustive_permutations, search_side


def closed_form_order(points: list) -> int:
    field = points[0].field
    v = []
    for i, a in enumerate(points):
        d = field.one
        for j, b in enumerate(points):
            if j != i:
                d = d * (a - b)
        v.append(d.inverse())
    levels = Counter(v)
    block = math.prod(math.factorial(size) for size in levels.values())
    # A valid c sends v_0 to some entry of v, so it is one of v_j / v_0.
    scalars = {y * v[0].inverse() for y in levels}
    return block * sum(
        Counter(c * y for y in v) == levels for c in scalars
    )


def search_order(field: Field, points: list) -> int:
    pts = EvaluationSet(field, points)
    return len(exhaustive_permutations(search_side(rs_code(pts, len(points) - 1))))


@pytest.mark.parametrize("q", [5, 7, 8, 9, 13, 16])
def test_closed_form_matches_search_on_seeded_sets(q):
    field = Field(q)
    rng = random.Random(3100 + q)
    elements = field.elements()
    for _ in range(40):
        # Below all of the field, whose group is S_q: too many to list at q > 7.
        n = rng.randint(2, min(q - 1, 9))
        points = rng.sample(elements, n)
        assert closed_form_order(points) == search_order(field, points), (q, points)


@pytest.mark.parametrize("q, n", [(13, 3), (13, 4), (13, 6), (16, 5), (9, 8), (7, 6)])
def test_closed_form_matches_search_on_unit_subgroups(q, n):
    """The n-th roots of unity: v_i is a_i / n up to one constant, order n."""
    field = Field(q)
    roots = [x for x in field.elements() if not x.is_zero() and x**n == field.one]
    assert len(roots) == n
    assert closed_form_order(roots) == search_order(field, roots) == n


def test_closed_form_on_all_of_gf7():
    """v_i = 1/f'(a_i) for f = x^7 - x, which is -1 everywhere: all of S_7."""
    field = Field(7)
    points = field.elements()
    assert closed_form_order(points) == search_order(field, points) == math.factorial(7)


def test_closed_form_on_the_paper_example():
    field = Field(13)
    points = [field.element(a) for a in (0, 1, 4, 6)]
    assert closed_form_order(points) == search_order(field, points) == 6
