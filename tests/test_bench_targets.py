"""The benchmark tracer's targets still resolve in the package.

benchmarks/spans.py wraps each entry of TARGETS, found by module, class
path and attribute, and rewraps cached properties as cached properties;
the backtrack probe calls exhaustive_permutations with method=.  A
refactor that renames or retypes any of them would break traced runs
(--trace 1) without failing anything else.  This reads benchmarks/ and
changes nothing there.
"""

import importlib
import inspect
import runpy
from functools import cached_property
from pathlib import Path

import pytest

from rsperm import EvaluationSet, Field, LinearCode, exhaustive_permutations

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"
TARGETS = runpy.run_path(str(SPANS))["TARGETS"]


@pytest.mark.parametrize("target", TARGETS, ids=[t[0] for t in TARGETS])
def test_target_resolves(target):
    _, module, path, _ = target
    owner = importlib.import_module(module)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
        assert inspect.isclass(owner), path
    assert attr in owner.__dict__, path


@pytest.mark.parametrize(
    "owner, attr", ((Field, "tables"), (EvaluationSet, "indicators"), (LinearCode, "dual"))
)
def test_traced_cached_properties_stay_cached_properties(owner, attr):
    assert isinstance(owner.__dict__[attr], cached_property)


def test_exhaustive_permutations_takes_method():
    assert "method" in inspect.signature(exhaustive_permutations).parameters
