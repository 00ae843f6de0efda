"""Fixtures shared by the test modules."""

from collections import Counter

import pytest

from hirzebruch import CohomologyTriple, DivisorClass


@pytest.fixture
def built(monkeypatch):
    """Counts the DivisorClass and CohomologyTriple objects built, by class name."""
    made = Counter()
    for cls in (DivisorClass, CohomologyTriple):

        def counting(obj, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            made[_name] += 1
            _init(obj, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return made
