"""Helpers that several test modules share and that are not references:
map fields and unchecked records, the outcome of a call, and the rational
strategies drawn at integer cost.  The ``Fraction``-era references live in
``reference.py``."""

from fractions import Fraction as F
from math import ceil, floor

from hypothesis import strategies as st

from germkit.plmap import PLMap, _frac

FIELDS = ("breakpoints", "values", "left_slope", "right_slope", "tail_offset")


def field_dict(f, **changes):
    """``f``'s five fields as the constructor's keyword arguments, those
    named in ``changes`` replaced."""
    assert set(changes) <= set(FIELDS), changes
    return {name: changes.get(name, getattr(f, name)) for name in FIELDS}


def record_of(breakpoints, values, left_slope, right_slope, tail_offset):
    """The map whose record holds these fields, each read with ``_frac``,
    unchecked, as ``_canonical`` would store them were they canonical: the
    one way a test builds a map that breaks a rule."""
    ls, rs, b = _frac(left_slope), _frac(right_slope), _frac(tail_offset)
    pairs = tuple((x.numerator, x.denominator, y.numerator, y.denominator)
                  for x, y in zip(map(_frac, breakpoints), map(_frac, values)))
    return PLMap._of(pairs, ls.numerator, ls.denominator, rs.numerator, rs.denominator,
                     b.numerator, b.denominator)


def outcome(fn, *args, **kwargs):
    """What ``fn`` returns, or the type and message of what it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def rationals(draw, lo, hi, max_den):
    """The values of ``st.fractions(min_value=lo, max_value=hi,
    max_denominator=max_den)``, every rational in ``[lo, hi]`` with
    denominator at most ``max_den``, drawn at integer cost: a denominator
    ``d``, then a numerator in ``[ceil(lo*d), floor(hi*d)]``."""
    d = draw(st.integers(min_value=1, max_value=max_den))
    return F(draw(st.integers(min_value=ceil(lo * d), max_value=floor(hi * d))), d)


small_fractions = rationals(-20, 20, 12)
slopes = rationals(F(1, 8), 8, 8)
# Denominators up to 2**64, so that products in the integer routes exceed
# machine words.
large_fractions = rationals(-20, 20, 2**64)
large_slopes = rationals(F(1, 8), 8, 2**64)
# Slopes of either sign, for data that break the rules.
loose_slopes = rationals(-2, 2, 6)
