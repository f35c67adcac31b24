"""Closed-form parametrizations: rational-point oracles, printed values, routes."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicmaps.closedform import (
    closed_ladder,
    hex_ladder_closed,
    hex_params,
    quad_ladder_closed,
    quad_params,
    quad_pattern_ladder,
    twopoint_closed,
    unit_factors,
)
from bicmaps.rational import rat
from bicmaps.series import MSeries, SeriesRing, agree, exact_div, first_difference, one, zero
from bicmaps.slices import FaceWeights, ladder_solve, tail_solve
from bicmaps.suites import SuiteRun, suite_closedform

from helpers import S, assert_ladder_stable, assert_series
from printed import (
    HEX_D1,
    HEX_D2,
    HEX_TWOPOINT,
    HEX_Y1,
    HEX_Y2,
    QUAD_D,
    QUAD_TWOPOINT,
    QUAD_Y,
)

QUAD = FaceWeights.quadrangulations()
HEX = FaceWeights.hexangulations()
N = 8
RING = SeriesRing(2, N)


@pytest.fixture(scope="module")
def quad():
    b, w = tail_solve(QUAD, RING)
    return quad_params(b, w)


@pytest.fixture(scope="module")
def hexp():
    b, w = tail_solve(HEX, RING)
    return hex_params(b, w)


# -- rational-point oracle for the (y, beta, gamma) rewriting -----------------
#
# The product solution is classically written with factors 1 - x^j,
# 1 - mu*x^j and 1 - x^j/mu where mu = (c + x)/(1 + c*x).  Before trusting
# the series engine we confirm, at exact rational (c, x) points, that those
# factors coincide with 1 - y^i, 1 - beta*y^i and 1 - gamma*y^i under
# d = c*x, y = x^2, beta = (d+y)/(1+d), gamma = y/beta, and that the four
# assembled entry formulas agree as well.

POINTS = [
    (rat(5, 3), rat(1, 7)),
    (rat(2), rat(1, 3)),
    (rat(1, 2), rat(2, 5)),
    (rat(7, 4), rat(3, 8)),
    (rat(1), rat(1, 9)),
]


def classic_factors(c, x, j):
    mu = (c + x) / (1 + c * x)
    return 1 - x ** j, 1 - mu * x ** j, 1 - x ** j / mu


def test_rewriting_identities_at_rational_points():
    for c, x in POINTS:
        d, y = c * x, x * x
        beta = (d + y) / (1 + d)
        gamma = y / beta
        assert beta == x * (c + x) / (1 + c * x)
        assert gamma == x * (1 + c * x) / (c + x)
        for i in range(5):
            u, ubar, uhat = classic_factors(c, x, 2 * i + 1)
            assert ubar == 1 - beta * y ** i
            assert uhat == 1 - gamma * y ** i
            assert classic_factors(c, x, 2 * i)[0] == 1 - y ** i


def test_entry_formulas_at_rational_points():
    for c, x in POINTS:
        if c == x:  # avoid accidental degeneracies in the classic form
            continue
        d, y = c * x, x * x
        beta = (d + y) / (1 + d)
        gamma = y / beta
        B, W = rat(11, 10), rat(13, 10)  # arbitrary nonzero tails
        for i in range(4):
            u = lambda j: 1 - x ** j
            mu = (c + x) / (1 + c * x)
            ubar = lambda j: 1 - mu * x ** j
            uhat = lambda j: 1 - x ** j / mu
            classic = {
                "b_even": B * u(2 * i) * ubar(2 * i + 3) / (ubar(2 * i + 1) * u(2 * i + 2)),
                "w_odd": W * ubar(2 * i + 1) * u(2 * i + 4) / (u(2 * i + 2) * ubar(2 * i + 3)),
                "b_odd": B * uhat(2 * i + 1) * u(2 * i + 4) / (u(2 * i + 2) * uhat(2 * i + 3)),
                "w_even": W * u(2 * i) * uhat(2 * i + 3) / (uhat(2 * i + 1) * u(2 * i + 2)),
            }
            rewritten = {
                "b_even": B
                * (1 - y ** i)
                * (1 - beta * y ** (i + 1))
                / ((1 - y ** (i + 1)) * (1 - beta * y ** i)),
                "w_odd": W
                * (1 - beta * y ** i)
                * (1 - y ** (i + 2))
                / ((1 - y ** (i + 1)) * (1 - beta * y ** (i + 1))),
                "b_odd": B
                * (1 - gamma * y ** i)
                * (1 - y ** (i + 2))
                / ((1 - y ** (i + 1)) * (1 - gamma * y ** (i + 1))),
                "w_even": W
                * (1 - y ** i)
                * (1 - gamma * y ** (i + 1))
                / ((1 - y ** (i + 1)) * (1 - gamma * y ** i)),
            }
            for key in classic:
                assert classic[key] == rewritten[key], (key, i, c, x)


# -- quadrangulations ---------------------------------------------------------


def test_quad_d_and_y_printed(quad):
    assert_series(quad.d.truncate(4), S(2, N, QUAD_D), label="d")
    assert_series(quad.y.truncate(3), S(2, N, QUAD_Y), label="y")


def test_quad_defining_relations(quad):
    residual = quad.W * quad.d * quad.d + (2 * (quad.B + quad.W) - 1) * quad.d + quad.B
    assert agree(residual, zero(2, N))
    assert agree(quad.y * quad.B, quad.d * quad.d * quad.W)
    assert agree(quad.beta * (1 + quad.d), quad.d + quad.y)
    assert agree(quad.gamma * quad.beta, quad.y)
    assert exact_div(quad.y, quad.beta) == quad.gamma  # leading term t_white
    assert quad.gamma.coefficient((0, 1)) == 1


def test_quad_closed_entry_zero_at_origin(quad):
    # the 1 - y^0 factor kills the index-0 entry
    quad_pattern_ladder(quad.B, quad.W, [(quad.y, 1, quad.beta, quad.gamma)], 2)
    u0 = 1 - quad.y ** 0
    assert u0.is_zero()


def test_quad_closed_stabilization(quad):
    closed = quad_ladder_closed(quad, 7)
    for i in range(1, 8):
        k = min(i - 1, closed.black_weight(i).reliable)
        assert closed.black_weight(i).truncate(k) == quad.B.truncate(k), i


# -- hexangulations -----------------------------------------------------------


def test_hex_branch_expansions_printed(hexp):
    assert_series(hexp.d1.truncate(4), S(2, N, HEX_D1), label="d1")
    assert_series(hexp.d2.truncate(4), S(2, N, HEX_D2), label="d2")
    assert_series(hexp.y1.truncate(3), S(2, N, HEX_Y1), label="y1")
    assert_series(hexp.y2.truncate(3), S(2, N, HEX_Y2), label="y2")


def test_hex_defining_relations(hexp):
    z = zero(2, N)
    for wz in (hexp.wz1, hexp.wz2):
        residual = (
            wz * wz
            + 3 * (hexp.B + hexp.W) * wz
            + 8 * hexp.B * hexp.W
            + 3 * (hexp.B * hexp.B + hexp.W * hexp.W)
            - 1
        )
        assert agree(residual, z)
    for d, wz, y in ((hexp.d1, hexp.wz1, hexp.y1), (hexp.d2, hexp.wz2, hexp.y2)):
        assert agree(hexp.W * d * d - wz * d + hexp.B, z)
        assert agree(y * hexp.B, d * d * hexp.W)
    assert agree(hexp.lam1 * (hexp.d1 - hexp.d2), hexp.d1 - hexp.y1 * hexp.d2)
    assert agree(hexp.lam2 * (hexp.d2 - hexp.d1), hexp.d2 - hexp.y2 * hexp.d1)
    assert agree(hexp.wd * hexp.B, hexp.d1 * hexp.d2 * hexp.W)
    assert agree(hexp.lam1 + hexp.lam2 + hexp.wd, one(2, N))


@pytest.mark.parametrize(
    "weights, params, build",
    [(QUAD, "quad", quad_ladder_closed), (HEX, "hexp", hex_ladder_closed)],
    ids=["quad", "hex"],
)
def test_closed_matches_recursion(request, weights, params, build):
    ladder = ladder_solve(weights, RING)
    closed = build(request.getfixturevalue(params), 6)
    for i in range(1, 7):
        got, want = closed.black_weight(i), ladder.black_weight(i)
        assert agree(got, want), (i, first_difference(got, want))
        assert agree(closed.white_weight(i), ladder.white_weight(i)), i


def test_hex_closed_index_zero_would_vanish(hexp):
    # 1 - lam1 - lam2 - wd is the index-0 numerator factor
    assert agree(1 - hexp.lam1 - hexp.lam2 - hexp.wd, zero(2, N))


# -- shared pipeline ----------------------------------------------------------


def test_uncolored_collapse_closed():
    for g, i_top in ((QUAD, 5), (HEX, 5)):
        ladder = closed_ladder(g, SeriesRing(2, 6), i_top)
        for i in range(1, i_top + 1):
            bc = ladder.black_weight(i).collapse_vars()
            wc = ladder.white_weight(i).collapse_vars()
            assert first_difference(bc, wc) is None, (g.g, i)


def test_twopoint_closed_printed_tables():
    quad_table = twopoint_closed(QUAD, SeriesRing(2, 6), 3)
    for i, (want, deg) in QUAD_TWOPOINT.items():
        got = quad_table.g_black(i)
        assert_series(got.truncate(min(deg, got.reliable)), S(2, 6, want), label=f"G_{i}")
    hex_table = twopoint_closed(HEX, SeriesRing(2, 8), 3)
    for i, (want, deg) in HEX_TWOPOINT.items():
        got = hex_table.g_black(i)
        assert_series(got.truncate(min(deg, got.reliable)), S(2, 8, want), label=f"hex G_{i}")


def test_closed_ladder_rejects_general_families():
    with pytest.raises(ValueError):
        closed_ladder(FaceWeights((rat(0), rat(0), rat(0), rat(1))), RING, 3)


@pytest.mark.parametrize("g", [(0, 2), (0, rat(1, 2)), (0, 0, 3)])
def test_closed_ladder_rejects_other_face_weights(g):
    # same p and zero lower weights as a named family, but a top weight not 1
    with pytest.raises(ValueError):
        closed_ladder(FaceWeights(tuple(rat(x) for x in g)), RING, 3)


def test_suite_closedform_product_count(series_products):
    # the tails come from the ladders the suite solves, not from a second solve
    suite_closedform(SuiteRun(7, 1))
    assert series_products[0] <= 475


def test_closed_ladder_hex_product_count(series_products):
    # the closed hex ladder, its factor families built only through the
    # indices its entries read
    closed_ladder(HEX, SeriesRing(2, 14), 8)
    assert series_products[0] <= 256


# -- unit_factors against the y ** j formula it replaced ----------------------


def power_unit_factors(roots, top):
    """The factor families with y_a ** j raised afresh for every j."""
    weights = [(lam, lam * beta, lam * gamma) for _, lam, beta, gamma in roots]
    powers = [[y ** j for j in range(top + 1)] for y, _, _, _ in roots]
    families = ([], [], [])
    for j in range(top + 1):
        for k, family in enumerate(families):
            f = 1
            for wt, p in zip(weights, powers):
                f = f - wt[k] * p[j]
            family.append(f)
    return families


def assert_power_unit_factors(roots, top):
    # at j = 0 no power of y enters, so the order and reliable of a value
    # are the weights' own there and are compared from j = 1 on
    for got, want in zip(unit_factors(roots, top), power_unit_factors(roots, top)):
        assert len(got) == len(want) == top + 1
        assert got[0] == want[0]
        for g, w in zip(got[1:], want[1:]):
            assert (g, g.order, g.reliable) == (w, w.order, w.reliable)


def root_series(order):
    return st.builds(
        lambda terms, reliable: MSeries(2, order, terms, reliable),
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.fractions(-3, 3, max_denominator=4),
            max_size=5,
        ),
        st.integers(0, order),
    )


@pytest.mark.parametrize("count", [1, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_unit_factors_equal_the_power_formula(count, data):
    # every caller's roots and weights share one order; reliable varies
    series = root_series(data.draw(st.integers(1, 6)))
    roots = data.draw(st.lists(st.tuples(*[series] * 4), min_size=count, max_size=count))
    assert_power_unit_factors(roots, data.draw(st.integers(0, 5)))


def test_unit_factors_of_the_closed_forms_equal_the_power_formula(quad, hexp):
    assert_power_unit_factors([(quad.y, 1, quad.beta, quad.gamma)], 4)
    p = hexp
    assert_power_unit_factors(
        [
            (p.y1, p.lam1, p.beta1, p.gamma1),
            (p.y2, p.lam2, p.beta2, p.gamma2),
            (p.y1 * p.y2, p.wd, p.beta1 * p.beta2, p.gamma1 * p.gamma2),
        ],
        6,
    )


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(("quad", "hex")), st.integers(2, 6), st.integers(1, 2))
def test_closed_ladder_stable_under_higher_order(name, n, k):
    g = QUAD if name == "quad" else HEX
    low = closed_ladder(g, SeriesRing(2, n), 6)
    high = closed_ladder(g, SeriesRing(2, n + k), 6)
    assert low.black_weight(1).reliable >= n - 2
    assert_ladder_stable(low, high, 6)
