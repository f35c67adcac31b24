"""Ternary, binary and tricolored ladder systems and their closed forms."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicmaps.extensions import (
    binary_closed_ladder,
    binary_solve,
    rotate_colors,
    solve_height_params,
    ternary_closed_ladder,
    ternary_solve,
    tricolor_characteristic_residual,
    tricolor_closed_check,
    tricolor_closed_t,
    tricolor_solve,
)
from bicmaps.paths import ladder_pairs
from bicmaps.rational import rat
from bicmaps.series import SeriesRing, agree, exact_div, first_difference, one, zero
from bicmaps.slices import FaceWeights, ladder_solve

from helpers import assert_ladder_stable, substitute

R2 = SeriesRing(2, 8)
R3 = SeriesRing(3, 6)


@pytest.fixture(scope="module")
def ternary():
    return ternary_solve(R2)


@pytest.fixture(scope="module")
def binary():
    return binary_solve(R2)


@pytest.fixture(scope="module")
def tricolor():
    return tricolor_solve(R3)


def test_tricolor_state_height(tricolor):
    # order + 2 entries per color
    assert tricolor.height == len(tricolor.u_list) == len(tricolor.v_list) == 8


def test_ternary_seed_values(ternary):
    assert ternary.black_weight(0).is_zero()
    assert ternary.white_weight(0).is_zero()
    assert ternary.black_weight(1) == one(2, 8)  # P_1 = 1 exactly
    assert ternary.white_weight(1) == one(2, 8)


def test_entries_below_index_one_are_zero(ternary, binary, tricolor):
    for ladder in (ternary, binary):
        for i in (0, -1, -2):
            assert ladder.black_weight(i).is_zero(), i
            assert ladder.white_weight(i).is_zero(), i
    for at in (tricolor.t_at, tricolor.u_at, tricolor.v_at):
        for i in (0, -1, -2):
            assert at(i).is_zero(), i


def test_ternary_tail_equations(ternary):
    zb, zw = R2.gens()
    p, q = ternary.tail_black, ternary.tail_white
    assert p == 1 + zw * q * q * p
    assert q == 1 + zb * p * p * q


def test_ternary_closed_matches_perturbative(ternary):
    closed = ternary_closed_ladder(ternary, 6)
    for i in range(1, 7):
        assert agree(closed.black_weight(i), ternary.black_weight(i)), (
            i,
            first_difference(closed.black_weight(i), ternary.black_weight(i)),
        )
        assert agree(closed.white_weight(i), ternary.white_weight(i)), i
    assert all(agree(f, g) for f, g in ladder_pairs(ternary_closed_ladder(ternary, 6), ternary, 6))


def test_ternary_uncolored_collapse(ternary):
    for i in range(1, 7):
        pc = ternary.black_weight(i).collapse_vars()
        qc = ternary.white_weight(i).collapse_vars()
        assert first_difference(pc, qc) is None, i


def test_binary_seed_values(binary):
    assert binary.black_weight(0).is_zero()
    assert binary.black_weight(1) == one(2, 8)  # R_1 = 1 exactly
    assert binary.white_weight(1) == one(2, 8)


def test_binary_tail_equations(binary):
    yb, yw = R2.gens()
    r, s = binary.tail_black, binary.tail_white
    assert r == 1 + yb * s * s
    assert s == 1 + yw * r * r


def test_binary_closed_matches_perturbative(binary):
    closed = binary_closed_ladder(binary, 6)
    for i in range(1, 7):
        assert agree(closed.black_weight(i), binary.black_weight(i)), (
            i,
            first_difference(closed.black_weight(i), binary.black_weight(i)),
        )
        assert agree(closed.white_weight(i), binary.white_weight(i)), i
    assert all(agree(f, g) for f, g in ladder_pairs(binary_closed_ladder(binary, 6), binary, 6))


def test_binary_closed_unit_seed(binary):
    closed = binary_closed_ladder(binary, 1)
    assert agree(closed.black_weight(1), one(2, 8))
    assert agree(closed.white_weight(1), one(2, 8))


CLOSED_ROUTES = {
    "ternary": (ternary_solve, ternary_closed_ladder),
    "binary": (binary_solve, binary_closed_ladder),
}


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(sorted(CLOSED_ROUTES)), st.integers(1, 6), st.integers(1, 2))
def test_tree_closed_ladders_stable_under_higher_order(name, n, k):
    solve, closed = CLOSED_ROUTES[name]
    low = closed(solve(SeriesRing(2, n)), 6)
    high = closed(solve(SeriesRing(2, n + k)), 6)
    for i in range(1, 7):
        assert min(low.black_weight(i).reliable, low.white_weight(i).reliable) >= n - 2
    assert_ladder_stable(low, high, 6)


# -- collapse onto the quadrangulation solution --------------------------------


@pytest.fixture(scope="module")
def quad_ladder_for_collapse():
    return ladder_solve(FaceWeights.quadrangulations(), SeriesRing(2, 6))


def test_ternary_specializes_to_quad_slices(quad_ladder_for_collapse):
    lad = quad_ladder_for_collapse
    tb = SeriesRing(2, 6).gens()[0]
    tw = SeriesRing(2, 6).gens()[1]
    b1, w1 = lad.black_weight(1), lad.white_weight(1)
    z_black = exact_div(b1 * b1, tb)
    z_white = exact_div(w1 * w1, tw)
    sys = ternary_solve(SeriesRing(2, 6))
    for i in range(1, 6):
        p_quad = exact_div(lad.black_weight(i), b1)
        q_quad = exact_div(lad.white_weight(i), w1)
        assert agree(substitute(sys.black_weight(i), [z_black, z_white]), p_quad), i
        assert agree(substitute(sys.white_weight(i), [z_black, z_white]), q_quad), i


def test_binary_specializes_through_delta(quad_ladder_for_collapse):
    # The second conserved quantity packages quad data as the binary system:
    # delta = (Q_2 - 1)/z_black = (P_2 - 1)/z_white, inputs y = z*delta.
    lad = quad_ladder_for_collapse
    ring = SeriesRing(2, 6)
    tb, tw = ring.gens()
    b1, w1 = lad.black_weight(1), lad.white_weight(1)
    z_black = exact_div(b1 * b1, tb)
    z_white = exact_div(w1 * w1, tw)
    p2 = exact_div(lad.black_weight(2), b1)
    q2 = exact_div(lad.white_weight(2), w1)
    delta = exact_div(q2 - 1, z_black)
    assert agree(delta, exact_div(p2 - 1, z_white))
    y_black = z_black * delta
    y_white = z_white * delta
    sys = binary_solve(ring)
    for i in range(1, 5):
        p_next = exact_div(lad.black_weight(i + 1), b1)
        r_quad = exact_div(p_next - 1, z_white * delta)
        assert agree(substitute(sys.black_weight(i), [y_black, y_white]), r_quad), i


# -- tricolored system ----------------------------------------------------------


def test_tricolor_seed_and_leading_terms(tricolor):
    assert tricolor.t_at(0).is_zero()
    assert tricolor.t_at(1).coefficient((1, 0, 0)) == 1
    assert tricolor.e.coefficient((1, 0, 0)) == 1  # e = T + ... = t_black + ...
    assert tricolor.e.valuation() == 1
    assert tricolor.d.valuation() == 2
    assert tricolor.y.valuation() == 3


def test_tricolor_tail_equations(tricolor):
    tb, tw, tg = R3.gens()
    t, u, v = tricolor.t, tricolor.u, tricolor.v
    assert t == tb + t * (u + v)
    assert u == tw + u * (v + t)
    assert v == tg + v * (t + u)


def test_tricolor_rotation_symmetry(tricolor):
    for i in range(1, tricolor.height + 1):
        assert rotate_colors(tricolor.t_at(i)) == tricolor.u_at(i), i
        assert rotate_colors(tricolor.u_at(i)) == tricolor.v_at(i), i
        assert rotate_colors(tricolor.v_at(i)) == tricolor.t_at(i), i


def test_tricolor_uncolored_collapse(tricolor):
    # all colors equal: one Eulerian-triangulation equation T = t + 2T^2
    tc = tricolor.t.collapse_vars()
    t = R3.gens()[0].collapse_vars()
    assert tc == t + 2 * tc * tc
    for i in range(1, 5):
        assert tricolor.t_at(i).collapse_vars() == tricolor.u_at(i).collapse_vars(), i


def test_tricolor_height_params_defining_equations(tricolor):
    t, u, v = tricolor.t, tricolor.u, tricolor.v
    y, d, e = tricolor.y, tricolor.d, tricolor.e
    assert y == u * (y + d) + v * y * (1 + e)
    assert d == v * (d + e) + t * (d + y)
    assert e == t * (e + 1) + u * (e + d)
    assert agree(tricolor.a_hat * (1 + e + d), e + d + y)


def test_tricolor_closed_multiples_of_three(tricolor):
    assert tricolor_closed_t(tricolor, 0).is_zero()
    for i in (1, 2):
        closed = tricolor_closed_t(tricolor, i)
        assert agree(closed, tricolor.t_at(3 * i)), (
            i,
            first_difference(closed, tricolor.t_at(3 * i)),
        )
        assert agree(rotate_colors(closed), tricolor.u_at(3 * i)), i


def test_tricolor_characteristic_identity():
    state = tricolor_solve(SeriesRing(3, 8))
    residual = tricolor_characteristic_residual(state)
    assert agree(residual, zero(3, 8))


def test_tricolor_closed_check_bundled(tricolor):
    assert tricolor_closed_check(tricolor, 6)


def test_characteristic_rearrangement_at_rational_points():
    # Oracle for replacing x^3 + 1/x^3 + 2 by (1+y)^2/y with y = x^3: at
    # rational (t, u, v, x) the parametrized T, U, V satisfy both forms.
    points = [
        (rat(1), rat(1, 2), rat(1, 3), rat(1, 5)),
        (rat(1), rat(2), rat(3), rat(1, 7)),
        (rat(2, 3), rat(1, 4), rat(5, 2), rat(2, 9)),
        (rat(1), rat(1), rat(1), rat(1, 4)),
        (rat(3), rat(1, 5), rat(4, 7), rat(3, 11)),
    ]
    for t, u, v, x in points:
        den1 = u + t * x
        den2 = t + v * x
        den3 = v + u * x
        T = u * v * x / (den1 * den2)
        U = t * v * x / (den1 * den3)
        V = t * u * x / (den3 * den2)
        y = x ** 3
        gap = 1 - T - U - V
        assert T * U * V * (x ** 3 + x ** -3 + 2) == gap * gap
        assert T * U * V * (1 + y) ** 2 == y * gap * gap


def test_height_params_positive_in_formal_colors():
    # y, d, e expand with non-negative integer coefficients in T, U, V
    ring = SeriesRing(3, 6)
    t, u, v = ring.gens()
    y, d, e = solve_height_params(t, u, v)
    for series in (y, d, e):
        for _, c in series.terms():
            assert c > 0 and rat(c).denominator == 1
