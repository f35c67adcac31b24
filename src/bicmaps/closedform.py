"""Closed-form slice ladders via series-valued parametrizations.

The explicit solutions involve a color ratio c and characteristic roots x
that are not power series themselves (c is a square root of B/W).  All
formulas here are pre-rewritten in combinations that are series:

* quadrangulations: d = c*x, y = x^2, beta = (d+y)/(1+d), gamma = y/beta;
* hexangulations: the analogous pair (d_a, y_a) per root, the interpolation
  weights lambda_a, the ratios beta_a and gamma_a = y_a/beta_a, and the
  product (W/B)*d1*d2.

One pipeline serves both, and the ternary ladder in ``extensions``:
``characteristic`` derives (d, y, beta, gamma) from a root's quadratic,
``unit_factors`` builds the three factor families over one root or the
lambda-weighted hexangulation roots, and ``quad_pattern_ladder`` builds them
from the roots it is given and assembles the four-factor entries.

Every inverted factor is a unit, every division goes through exact_div,
and the two quadratic branches are pinned by their leading vertex-weight
coefficients, which are asserted at runtime.
"""

from __future__ import annotations

from typing import NamedTuple

from .paths import WeightLadder
from .rational import rat
from .series import (
    MSeries,
    SeriesRing,
    agree,
    exact_div,
    inv_unit,
    one,
    solve_quadratic_branch,
    sqrt_unit,
    zero,
)
from .slices import FaceWeights, TwoPointTable, tail_solve, twopoint_from_ladder


class QuadParams(NamedTuple):
    """Series parametrization of the quadrangulation closed forms."""

    B: MSeries
    W: MSeries
    d: MSeries
    y: MSeries
    beta: MSeries
    gamma: MSeries


class HexParams(NamedTuple):
    """Series parametrization of the hexangulation closed forms."""

    B: MSeries
    W: MSeries
    wz1: MSeries
    wz2: MSeries
    d1: MSeries
    d2: MSeries
    y1: MSeries
    y2: MSeries
    lam1: MSeries
    lam2: MSeries
    beta1: MSeries
    beta2: MSeries
    wd: MSeries  # (W/B) * d1 * d2
    gamma1: MSeries
    gamma2: MSeries


def characteristic(a2: MSeries, a1: MSeries, a0: MSeries):
    """The series root d of a2 d^2 + a1 d + a0 = 0 with d(0) = 0, and its
    (y, beta, gamma): y = a2 d^2 / a0, beta = (d+y)/(1+d), gamma = y/beta.

    Returns (d, y, beta, gamma); the residual of the quadratic is asserted.
    """
    d = solve_quadratic_branch(a2, a1, a0)
    a2dd = a2 * d * d
    assert agree(a2dd + a1 * d + a0, zero(d.num_vars, d.order)), (
        "derived quadratic residual does not vanish"
    )
    y = exact_div(a2dd, a0)
    beta = (d + y) * inv_unit(1 + d)
    return d, y, beta, exact_div(y, beta)


def quad_params(b: MSeries, w: MSeries) -> QuadParams:
    """Solve W d^2 + (2(B+W) - 1) d + B = 0 and derive y, beta, gamma."""
    d, y, beta, gamma = characteristic(w, 2 * (b + w) - 1, b)
    lead = (1, 0) + (0,) * (b.num_vars - 2)
    assert d.coefficient(lead) == 1, "quadratic branch drifted from +t_black"
    return QuadParams(b, w, d, y, beta, gamma)


def unit_factors(roots, top: int):
    """Factor families for j <= top over roots (y_a, lam_a, beta_a, gamma_a):
    u(j) = 1 - sum_a lam_a y_a^j, and the same sums with weights
    lam_a*beta_a and lam_a*gamma_a.

    One root with lam = 1 gives 1 - y^j, 1 - beta*y^j, 1 - gamma*y^j.
    Each root keeps its three weighted terms at the current j and moves
    them to j + 1 with one product by y_a each.
    """
    terms = [[lam, lam * beta, lam * gamma] for _, lam, beta, gamma in roots]
    families = ([], [], [])
    for j in range(top + 1):
        for k, family in enumerate(families):
            f = 1
            for t in terms:
                f = f - t[k]
            family.append(f)
        if j < top:
            for (y, _, _, _), t in zip(roots, terms):
                t[:] = [x * y for x in t]
    return families


def quad_pattern_ladder(tail_b: MSeries, tail_w: MSeries, roots, i_max: int) -> WeightLadder:
    """Entries 1..i_max of the four-factor product solution.

    The same pattern solves the quadrangulation, hexangulation and
    ternary-tree systems; only the tails and the ``roots`` of the factor
    families (``unit_factors``) differ.  Entries 1..i_max read the families
    up to index (i_max + 3)//2: u[m + 2] at the last odd entry 2m + 1, and
    index m + 1 at the last even entry 2m.
    """
    u, ub, ug = unit_factors(roots, (i_max + 3) // 2)
    blacks, whites = [], []
    for idx in range(1, i_max + 1):
        m, odd = divmod(idx, 2)
        if not odd:
            blacks.append(tail_b * u[m] * ub[m + 1] * inv_unit(u[m + 1] * ub[m]))
            whites.append(tail_w * u[m] * ug[m + 1] * inv_unit(u[m + 1] * ug[m]))
        else:
            blacks.append(tail_b * ug[m] * u[m + 2] * inv_unit(ug[m + 1] * u[m + 1]))
            whites.append(tail_w * ub[m] * u[m + 2] * inv_unit(ub[m + 1] * u[m + 1]))
    return WeightLadder(tuple(blacks), tuple(whites), tail_b, tail_w)


def quad_ladder_closed(params: QuadParams, i_max: int) -> WeightLadder:
    roots = [(params.y, 1, params.beta, params.gamma)]
    return quad_pattern_ladder(params.B, params.W, roots, i_max)


def hex_params(b: MSeries, w: MSeries) -> HexParams:
    """Both branches of the hexangulation characteristic system.

    (W z)^2 + 3(B+W)(W z) + 8BW + 3(B^2 + W^2) - 1 = 0 fixes W*z as a
    series (z itself is not one); each branch then feeds the quadratic
    W d^2 - (W z) d + B = 0 whose series roots start at -t_black and
    +t_black respectively.
    """
    if b.order < 2:
        raise ValueError(
            "the hexangulation closed form needs truncation order at least 2: "
            "below it the interpolation weights lose every known degree"
        )
    disc = 2 * sqrt_unit(1 - (3 * b * b + 14 * b * w + 3 * w * w) * rat(1, 4))
    wz1 = (-3 * (b + w) - disc) * rat(1, 2)
    wz2 = (-3 * (b + w) + disc) * rat(1, 2)
    d1, y1, beta1, gamma1 = characteristic(w, -wz1, b)
    d2, y2, beta2, gamma2 = characteristic(w, -wz2, b)
    lead = (1, 0) + (0,) * (b.num_vars - 2)
    assert d1.coefficient(lead) == -1, "first branch drifted from -t_black"
    assert d2.coefficient(lead) == 1, "second branch drifted from +t_black"
    diff = d1 - d2
    lam1 = exact_div(d1 - y1 * d2, diff)
    lam2 = exact_div(d2 - y2 * d1, -diff)
    wd = exact_div(d1 * d2 * w, b)
    # the interpolation weights and the cross product must resolve unity
    assert agree(lam1 + lam2 + wd, one(b.num_vars, b.order)), "lambda normalization broken"
    return HexParams(
        b, w, wz1, wz2, d1, d2, y1, y2, lam1, lam2, beta1, beta2, wd, gamma1, gamma2
    )


def hex_ladder_closed(params: HexParams, i_max: int) -> WeightLadder:
    """Hexangulation entries: the quadrangulation pattern with each factor a
    lambda-weighted sum over the two roots and their product.

    The inverse-beta family is shifted by one power of y_a so that only
    gamma_a = y_a/beta_a appears; every denominator is then a unit.
    """
    p = params
    roots = [
        (p.y1, p.lam1, p.beta1, p.gamma1),
        (p.y2, p.lam2, p.beta2, p.gamma2),
        (p.y1 * p.y2, p.wd, p.beta1 * p.beta2, p.gamma1 * p.gamma2),
    ]
    return quad_pattern_ladder(p.B, p.W, roots, i_max)


def closed_ladder(g: FaceWeights, ring: SeriesRing, i_max: int) -> WeightLadder:
    """Tail solve plus closed-form evaluation for quadrangulations and
    hexangulations, g = (0, 1) and (0, 0, 1): the closed forms assume a top
    face weight of 1 and no lower weights."""
    b, w = tail_solve(g, ring)
    if g == FaceWeights.quadrangulations():
        return quad_ladder_closed(quad_params(b, w), i_max)
    if g == FaceWeights.hexangulations():
        return hex_ladder_closed(hex_params(b, w), i_max)
    raise ValueError(
        "closed forms cover quadrangulations and hexangulations, g = (0, 1) and (0, 0, 1), only; "
        "use the recursion or determinant routes for other families"
    )


def twopoint_closed(g: FaceWeights, ring: SeriesRing, i_max: int) -> TwoPointTable:
    """Full closed-form pipeline down to the two-point table."""
    return twopoint_from_ladder(closed_ladder(g, ring, i_max + 1), i_max)
