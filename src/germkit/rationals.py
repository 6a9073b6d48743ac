"""Exact rational parsing and formatting.

All coordinates in this package are :class:`fractions.Fraction` values.
The text form is ``"p/q"`` in lowest terms with a positive denominator,
shortened to ``"p"`` for integers.  :func:`format_rational` always emits
the canonical form; :func:`parse_rational` accepts any ``p/q`` or ``p``
string of ASCII digits with no surrounding whitespace (so ``"2/4"``
parses fine but re-serializes as ``"1/2"``, and ``" 1"`` or ``"1\n"`` is
rejected).  An integer past the interpreter's string conversion limit
(4,300 digits by default) is a format error too.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/(-?[0-9]+))?")


class RationalFormatError(ValueError):
    """A string does not denote a rational number."""


def parse_rational(text: str) -> Fraction:
    if not isinstance(text, str):
        raise RationalFormatError(f"expected a rational string, got {text!r}")
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise RationalFormatError(f"not a rational: {text!r} (expected 'p' or 'p/q')")
    try:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) is not None else 1
    except ValueError:  # past the interpreter's integer string limit
        raise RationalFormatError(
            f"not a rational: too many digits ({len(text)} characters)"
        ) from None
    if den == 0:
        raise RationalFormatError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
