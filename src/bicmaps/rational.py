"""Exact rational coefficient type.

``Rat`` is the stdlib ``Fraction``.  Integral values are kept as plain
ints (see ``rat``): integer-count series then stay in int arithmetic,
several times faster than ``Fraction``, and a rational only appears where
a value really has a denominator.  Series sums and products do not add or
multiply rationals at all: a series stores integer numerators over one
denominator (see ``series``) and builds a rational only where its
coefficients are read, so no faster rational type is needed.
"""

from __future__ import annotations

import numbers
from fractions import Fraction

Rat = Fraction
GMPY2_BACKEND = False  # read by the benchmark's environment report


def rat(numerator, denominator=None):
    """Build an exact rational from ints, strings, Fractions or Rat values.

    A value with denominator 1 comes back as a plain int, so never divide
    two results with ``/``: pass both to ``rat(numerator, denominator)``.
    """
    value = Rat(numerator) if denominator is None else Rat(numerator, denominator)
    return int(value) if value.denominator == 1 else value


def is_rational(x) -> bool:
    """True for anything usable as an exact series coefficient."""
    return isinstance(x, numbers.Rational)
