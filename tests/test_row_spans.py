"""A diagram's row spans have one home: `GridDiagram.row_spans()`, which
derives them once and keeps them.  No function takes them as an argument,
and census representatives do not keep them."""

import importlib
import inspect
import pkgutil

import pytest

import gridknot
from gridknot import census as cs


def _package_functions():
    """Every function and method defined in the gridknot modules."""
    for info in pkgutil.iter_modules(gridknot.__path__):
        module = importlib.import_module(f"gridknot.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_function_takes_row_spans_as_an_argument():
    found = list(_package_functions())
    assert any(name == "gridknot.grid.canonical_key" for name, _ in found)
    takers = [name for name, fn in found if "rows" in inspect.signature(fn).parameters]
    assert takers == []


@pytest.mark.parametrize(
    "n, filt",
    [
        (6, cs.CensusFilter(knots_only=True)),
        (8, cs.CensusFilter(knots_only=True, stuck_only=True)),
        (8, cs.CensusFilter(knots_only=True, stuck_only=True, trivial_only=True)),
    ],
)
def test_census_representatives_keep_no_row_spans(n, filt):
    reps = cs.enumerate_diagrams(n, filt).representatives
    assert reps
    assert all(d._rows is None for d in reps)
