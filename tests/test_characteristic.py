"""The characteristic polynomial F of the slice recursion far from the floor.

Row i of the recursion, with every strip far above the floor, is
B_i = t_black + sum_k g_k Z_k(i), where Z_k sums the +-1 step words of
length 2k - 1 from height i down to i - 1 and weighs each descending step
by the entry at its upper end: B at even relative heights and W at odd
ones, with the colors exchanged in the W row.  Linearizing around the
limits, B_h = B + eps b x^h and W_h = W + eps w x^h, gives a 2 x 2 system
in (b, w) whose determinant D is computed here with sympy (used in tests
only).  It factors exactly as D = F(s) F(-s) with s^2 = BW (x + 1/x)^2 and
F monic of degree p in s.  For p = 1 and p = 2 the same F is the equation
that ``closedform.quad_params`` and ``closedform.hex_params`` solve.
"""

from __future__ import annotations

from itertools import product

import pytest
import sympy as sp

from bicmaps.closedform import hex_params, quad_params
from bicmaps.series import MSeries, SeriesRing, agree, one, zero
from bicmaps.slices import FaceWeights, tail_solve

B, W, x, eps, b, w, s, d = sp.symbols("B W x eps b w s d")
# sqrt(BW) (x + 1/x) with B, W positive, so that its square is BW (x + 1/x)^2
_BP, _WP = sp.symbols("B W", positive=True)
S_ROOT = sp.sqrt(_BP * _WP) * (x + 1 / x)

F = {
    (0, 1): s + 2 * (B + W) - 1,
    (0, 0, 1): s**2 + 3 * (B + W) * s + 3 * B**2 + 8 * B * W + 3 * W**2 - 1,
    (0, 0, 0, 1): (
        s**3
        + 4 * (B + W) * s**2
        + (6 * B**2 + 14 * B * W + 6 * W**2) * s
        + 4 * B**3 + 20 * B**2 * W + 20 * B * W**2 + 4 * W**3
        - 1
    ),
    (0, 1, 1): (
        s**2
        + (3 * (B + W) + 1) * s
        + 3 * B**2 + 8 * B * W + 3 * W**2 + 2 * (B + W)
        - 1
    ),
}


def strip_sum(length: int, black_row: bool):
    """Z over the words of ``length`` steps from relative height 0 to -1."""
    total = 0
    for steps in product((1, -1), repeat=length):
        if sum(steps) != -1:
            continue
        weight, h = 1, 0
        for step in steps:
            if step < 0:
                black = (h % 2 == 0) == black_row
                weight *= (B + eps * b * x**h) if black else (W + eps * w * x**h)
            h += step
        total += weight
    return total


def linear_determinant(g: tuple) -> sp.Expr:
    """det of the eps-coefficients of (b, w) in own - sum_k g_k Z_k, per row."""
    rows = []
    for black_row, own in ((True, b), (False, w)):
        rhs = sum(gk * strip_sum(2 * k - 1, black_row) for k, gk in enumerate(g, 1) if gk)
        lin = sp.expand(own - sp.diff(rhs, eps).subs(eps, 0))
        rows.append([lin.coeff(b), lin.coeff(w)])
    return sp.Matrix(rows).det()


@pytest.mark.parametrize("g", sorted(F))
def test_determinant_is_f_times_f_reflected(g):
    f = F[g]
    assert sp.Poly(f, s).LC() == 1 and sp.degree(f, s) == len(g) - 1
    product_ = (f * f.subs(s, -s)).subs({s: S_ROOT}).subs({_BP: B, _WP: W})
    assert sp.expand(linear_determinant(g) - product_) == 0


def test_pure_families_start_at_roots_of_unity():
    for g in ((0, 1), (0, 0, 1), (0, 0, 0, 1)):
        assert sp.expand(F[g].subs({B: 0, W: 0}) - (s ** (len(g) - 1) - 1)) == 0


def test_mixed_family_roots_are_irrational_at_t_zero():
    # s^2 + s - 1: its roots (-1 +- sqrt 5)/2 are not rational, so no root
    # of F is a series over Q and the closed route needs the quotient ring
    start = F[(0, 1, 1)].subs({B: 0, W: 0})
    assert sp.expand(start - (s**2 + s - 1)) == 0
    assert sp.discriminant(start, s) == 5


def evaluate(expr: sp.Expr, values: dict) -> MSeries:
    """A sympy polynomial over Z at series values for its symbols."""
    names = sorted(values, key=str)
    poly = sp.Poly(sp.expand(expr), *names)
    first = values[names[0]]
    total = zero(first.num_vars, first.order)
    for exps, c in poly.terms():
        term = one(first.num_vars, first.order) * int(c)
        for name, k in zip(names, exps):
            term = term * values[name] ** k
        total = total + term
    return total


def test_quadrangulation_equation_is_f1():
    ring = SeriesRing(2, 8)
    tb, tw = tail_solve(FaceWeights.quadrangulations(), ring)
    params = quad_params(tb, tw)
    # d F1(W d + B/d) is a polynomial in d: quad_params' quadratic
    quadratic = sp.expand(d * F[(0, 1)].subs(s, W * d + B / d))
    residual = evaluate(quadratic, {B: tb, W: tw, d: params.d})
    assert residual.reliable >= ring.order - 1
    assert agree(residual, zero(2, ring.order))


def test_hexangulation_equation_is_f2():
    ring = SeriesRing(2, 8)
    tb, tw = tail_solve(FaceWeights.hexangulations(), ring)
    params = hex_params(tb, tw)
    for wz in (params.wz1, params.wz2):
        residual = evaluate(F[(0, 0, 1)], {B: tb, W: tw, s: wz})
        assert residual.reliable >= ring.order - 1
        assert agree(residual, zero(2, ring.order))
