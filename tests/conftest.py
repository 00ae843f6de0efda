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


@pytest.fixture
def exclusion_calls(monkeypatch):
    """Every class `bundles._exclusion` is asked about, in call order."""
    import hirzebruch.bundles as bundles

    real = bundles._exclusion
    calls = []
    monkeypatch.setattr(
        bundles, "_exclusion", lambda datum, n_cls: calls.append(n_cls) or real(datum, n_cls)
    )
    return calls
