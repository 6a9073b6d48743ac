from fractions import Fraction

import pytest


@pytest.fixture
def fraction_count(monkeypatch):
    """A counter on ``Fraction.__new__``, installed as perfbench's tracer does."""
    raw = Fraction.__dict__["__new__"]
    new = raw.__func__ if isinstance(raw, staticmethod) else raw
    count = [0]

    def counted_new(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    return count
