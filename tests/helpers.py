"""Small shared helpers for the test suite."""

from __future__ import annotations

from bicmaps.series import MSeries, agree, first_difference


def S(num_vars, order, terms, reliable=None):
    """Build a series from an {exponents: coefficient} dict (ints allowed)."""
    return MSeries(num_vars, order, terms, reliable)


def assert_series(actual, expected, through=None, label=""):
    diff = first_difference(actual, expected, through)
    if diff is not None:
        e, ca, ce = diff
        raise AssertionError(
            f"{label or 'series'} differ at exponent {e}: got {ca}, expected {ce}\n"
            f"actual:   {actual}\nexpected: {expected}"
        )



def assert_stable(low, high, reliable):
    """``low`` reports ``reliable`` and agrees with ``high`` through it."""
    assert low.reliable == reliable
    assert agree(low, high), (low, high)
