"""Exact rational coefficient type.

Uses gmpy2's mpq when it is importable and falls back to the stdlib
Fraction otherwise.  Both expose ``numerator``/``denominator`` and
interoperate with plain ints, so the rest of the package never needs to
know which backend is active.  Set ``BICMAPS_PURE_PYTHON=1`` to force the
Fraction backend.

Integral values are kept as plain ints (see ``rat``): integer-count series
then stay in int arithmetic, several times faster than ``Fraction``, and a
rational only appears where a value really has a denominator.
"""

from __future__ import annotations

import numbers
import os
from fractions import Fraction

if os.environ.get("BICMAPS_PURE_PYTHON"):
    Rat = Fraction
    GMPY2_BACKEND = False
else:
    try:
        from gmpy2 import mpq as Rat  # type: ignore[no-redef]

        GMPY2_BACKEND = True
    except ImportError:
        Rat = Fraction
        GMPY2_BACKEND = False


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
