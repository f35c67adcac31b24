"""Slice solvers: frozen expansions, conserved quantities, two-point tables."""

from __future__ import annotations

from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicmaps.closedform import closed_ladder
from bicmaps.paths import WeightLadder, l_zero, ladder_pairs
from bicmaps.rational import rat
from bicmaps.series import MSeries, SeriesRing, agree, exact_div, first_difference, variable
from bicmaps.slices import (
    FaceWeights,
    alpha_brackets,
    alpha_coeffs,
    conserved,
    f_sequence,
    ladder_solve,
    tail_solve,
    twopoint_from_ladder,
)
from bicmaps.suites import SuiteRun, suite_slices

from helpers import S, assert_series, conserved_at, drawn_face_weights, series_digest
from printed import (
    HEX_LADDER,
    HEX_TWOPOINT,
    QUAD_LADDER,
    QUAD_TWOPOINT,
)

QUAD = FaceWeights.quadrangulations()
HEX = FaceWeights.hexangulations()
MIXED = FaceWeights((rat(1, 2), rat(1)))  # degrees 2 and 4 together
HALF = FaceWeights((rat(1, 2),))  # p = 0: bigons only

R6 = SeriesRing(2, 6)
R7 = SeriesRing(2, 7)


@pytest.fixture(scope="module")
def quad_tail():
    return tail_solve(QUAD, R6)


@pytest.fixture(scope="module")
def quad_ladder():
    return ladder_solve(QUAD, R6)


@pytest.fixture(scope="module")
def hex_ladder():
    return ladder_solve(HEX, R7)


def test_tail_quad_frozen(quad_tail):
    # Hand iteration of B <- tb + B(B + 2W) from (tb, tw), through degree 3.
    b, w = quad_tail
    expected = S(
        2, 6, {(1, 0): 1, (2, 0): 1, (1, 1): 2, (3, 0): 2, (2, 1): 10, (1, 2): 6}
    )
    assert_series(b.truncate(3), expected, label="quad tail B")
    assert w == b.swap_vars()


def test_tail_quad_satisfies_equations(quad_tail):
    b, w = quad_tail
    tb, tw = R6.gens()
    assert b == tb + b * (b + 2 * w)
    assert w == tw + w * (w + 2 * b)


def test_tail_hex_low_order_and_equations():
    b, w = tail_solve(HEX, SeriesRing(2, 8))
    tb, tw = SeriesRing(2, 8).gens()
    assert b.truncate(2) == tb.truncate(2)
    assert w.truncate(2) == tw.truncate(2)
    assert b == tb + b * (b * b + 3 * w * w + 6 * b * w)
    assert w == tw + w * (w * w + 3 * b * b + 6 * b * w)


def test_tail_uncolored_collapse(quad_tail):
    b, w = quad_tail
    assert b.collapse_vars() == w.collapse_vars()
    # collapsed solution solves the uncolored equation B = t + 3B^2
    bc = b.collapse_vars()
    t = variable(2, 6, 0)
    assert bc == t + 3 * bc * bc


def test_tail_mixed_family_equations():
    b, w = tail_solve(MIXED, R6)
    tb, tw = R6.gens()
    assert b == tb + rat(1, 2) * b + b * (b + 2 * w)
    assert w == tw + rat(1, 2) * w + w * (w + 2 * b)


def test_quad_ladder_printed_expansions(quad_ladder):
    for i, table in QUAD_LADDER.items():
        assert_series(
            quad_ladder.black_weight(i).truncate(4), S(2, 6, table), label=f"B_{i}"
        )


def test_hex_ladder_printed_expansions(hex_ladder):
    for i, table in HEX_LADDER.items():
        assert_series(
            hex_ladder.black_weight(i).truncate(5), S(2, 7, table), label=f"hex B_{i}"
        )


def test_ladder_color_symmetries(quad_ladder):
    tb, tw = R6.gens()
    assert tw * quad_ladder.black_weight(1) == tb * quad_ladder.white_weight(1)
    for i in range(1, 7):
        assert quad_ladder.black_weight(i).swap_vars() == quad_ladder.white_weight(i)


def test_ladder_stabilizes_onto_tail(quad_ladder):
    for i in range(1, quad_ladder.height + 1):
        k = min(i - 1, 6)
        assert quad_ladder.black_weight(i).truncate(k) == quad_ladder.tail_black.truncate(k)


def test_quad_first_entries_rational_closed_forms(quad_ladder):
    # B_1 (1 - 2B - W) = B (1 - 2B - 2W) and its color mirror: independent
    # rational expressions for the first slice entries in terms of the tails.
    b, w = quad_ladder.tail_black, quad_ladder.tail_white
    b1, w1 = quad_ladder.black_weight(1), quad_ladder.white_weight(1)
    assert b1 * (1 - 2 * b - w) == b * (1 - 2 * b - 2 * w)
    assert w1 * (1 - 2 * w - b) == w * (1 - 2 * b - 2 * w)


def test_face_weights_from_a_list_are_the_tuple_ones():
    # FaceWeights keeps g as a tuple, so a list input is equal, hashes alike
    # and keys a verify run's ladders
    listed = FaceWeights([rat(0), rat(1)])
    assert listed == QUAD and hash(listed) == hash(QUAD)
    pairs = ladder_pairs(closed_ladder(listed, R6, 4), closed_ladder(QUAD, R6, 4), 4)
    assert all(got == want for got, want in pairs)
    run = SuiteRun(4, 1)
    assert run.ladder(listed) is run.ladder(QUAD)


def test_conserved_quad_at_origin_is_w1(quad_ladder):
    got = conserved(1, 0, quad_ladder, QUAD)[1]
    assert agree(got, quad_ladder.white_weight(1))


def test_conserved_quad_second_closed_value(quad_ladder):
    # F_2 telescopes to W_1 (W_1 + B_2): at offset zero the correction term
    # carries the vanishing index-0 entry.
    w1 = quad_ladder.white_weight(1)
    b2 = quad_ladder.black_weight(2)
    assert agree(conserved(2, 0, quad_ladder, QUAD)[2], w1 * (w1 + b2))


def test_conserved_independent_of_offset(quad_ladder, hex_ladder):
    for g, ladder in ((QUAD, quad_ladder), (HEX, hex_ladder)):
        base = conserved(2, 0, ladder, g)
        for d in range(1, 4):
            got = conserved(2, d, ladder, g)
            for n in (1, 2):
                assert agree(got[n], base[n]), (g.g, n, d)


def test_conserved_white_variant(quad_ladder):
    got = conserved(1, 0, quad_ladder, QUAD, black_start=False)[1]
    assert agree(got, quad_ladder.black_weight(1))  # F_1 white = B_1
    base = conserved(2, 0, quad_ladder, QUAD, black_start=False)[2]
    for d in (1, 2, 3):
        assert agree(conserved(2, d, quad_ladder, QUAD, black_start=False)[2], base), d
    b, w = quad_ladder.tail_black, quad_ladder.tail_white
    assert agree(f_sequence(2, QUAD, b, w, black_start=False)[2], base)


def test_conserved_mixed_family_independence():
    ladder = ladder_solve(MIXED, SeriesRing(2, 5))
    base = conserved(1, 0, ladder, MIXED)[1]
    for d in (1, 2, 3):
        assert agree(conserved(1, d, ladder, MIXED)[1], base)


def test_conserved_constant_ladder_limit(quad_tail):
    # Far from the floor the conserved quantity reduces to W - B^2*W/tb.
    b, w = quad_tail
    lad = WeightLadder((), (), b, w)
    tb = variable(2, 6, 0)
    expected = w - exact_div(b * b * w, tb)
    assert agree(conserved(1, 8, lad, QUAD)[1], expected)


OCT = FaceWeights((0, 0, 0, rat(1)))


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(st.sampled_from([QUAD, HEX, MIXED, OCT, HALF]), drawn_face_weights()),
    st.integers(0, 7),
    st.integers(0, 4),
    st.integers(1, 4),
    st.booleans(),
)
@example(HEX, 6, 0, 4, True)
@example(OCT, 7, 3, 4, False)
def test_conserved_equals_the_per_n_formula(g, order, d, n_max, black_start):
    # the one walk against F_n alone from walks of its own, field by field
    ladder = ladder_solve(g, SeriesRing(2, order))
    if order == 0:  # t_root is the zero series: both forms refuse to divide
        with pytest.raises(ZeroDivisionError):
            conserved(n_max, d, ladder, g, black_start=black_start)
        with pytest.raises(ZeroDivisionError):
            conserved_at(n_max, d, ladder, g, black_start=black_start)
        return
    got = conserved(n_max, d, ladder, g, black_start=black_start)
    assert len(got) == n_max + 1
    for n, f in enumerate(got):
        want = conserved_at(n, d, ladder, g, black_start=black_start)
        assert (f.nums, f.den, f.order, f.reliable) == (
            want.nums, want.den, want.order, want.reliable
        ), n


def test_f_direct_f0_is_one(quad_tail):
    b, w = quad_tail
    for g, (bb, ww) in ((QUAD, (b, w)), (HEX, tail_solve(HEX, R6))):
        f0 = f_sequence(0, g, bb, ww)[0]
        assert agree(f0, R6.one())


def test_f_direct_quad_f1(quad_tail, quad_ladder):
    b, w = quad_tail
    tb = variable(2, 6, 0)
    expected = w - exact_div(b * b * w, tb)
    assert agree(f_sequence(1, QUAD, b, w)[1], expected)
    assert agree(f_sequence(1, QUAD, b, w)[1], quad_ladder.white_weight(1))


def test_f_direct_equals_conserved(quad_tail, quad_ladder):
    b, w = quad_tail
    at_origin = conserved(3, 0, quad_ladder, QUAD)
    for n in (1, 2, 3):
        assert agree(f_sequence(n, QUAD, b, w)[n], at_origin[n]), n


@pytest.mark.parametrize("g", [QUAD, HEX, MIXED], ids=["quad", "hex", "mixed"])
def test_shorter_moment_walk_is_a_prefix_of_a_longer_one(g):
    # F_k does not depend on how far the walk goes: f_sequence(m)[k] is
    # f_sequence(n)[k] for every k <= n <= m, which the callers rely on
    # when they walk only the moments they read
    b, w = tail_solve(g, SeriesRing(2, 7))
    walks = [f_sequence(n, g, b, w) for n in range(8)]
    for m, longer in enumerate(walks):
        for shorter in walks[:m]:
            for k, f in enumerate(shorter):
                got = longer[k]
                assert (got.nums, got.den, got.order, got.reliable) == (
                    f.nums, f.den, f.order, f.reliable
                ), (m, len(shorter) - 1, k)


def test_suite_slices_product_count(series_products):
    # one moment walk of F_0..F_3 per family serves conserved-equals-direct,
    # and one conserved walk per (family, offset) serves F_1..F_3
    suite_slices(SuiteRun(7, 1))
    assert series_products[0] <= 623


@pytest.mark.parametrize(
    "g, order, bound",
    [
        (QUAD, 12, 108),
        (HEX, 7, 227),
        (FaceWeights((0, rat(1, 3), rat(2))), 7, 227),
        (FaceWeights((0, 0, 0, rat(1))), 7, 557),
    ],
    ids=["quad", "hex", "0,1/3,2", "oct"],
)
def test_ladder_solve_product_count(series_products, g, order, bound):
    # each row takes one product by the weight of its first descent
    ladder_solve(g, SeriesRing(2, order))
    assert series_products[0] <= bound


@pytest.mark.parametrize("order, bound", [(12, 92), (30, 371)])
def test_headline_ladder_solve_product_count(series_products, order, bound):
    # the ladder the two-point table reads to i_max 6, each row above it
    # solved only to the degree that can reach the entries read
    ladder_solve(QUAD, SeriesRing(2, order), height=6)
    assert series_products[0] <= bound


def test_f_color_exchange(quad_tail):
    b, w = quad_tail
    tb, tw = R6.gens()
    fb = f_sequence(4, QUAD, b, w)
    fw = f_sequence(4, QUAD, b, w, black_start=False)
    # n = 0 is the bare convention F_0 = 1, not a map count, so the color
    # exchange identity starts at n = 1.
    for n in range(1, 5):
        assert agree(tb * fb[n], tw * fw[n]), n
        assert agree(fw[n], fb[n].swap_vars()), n


def test_alpha_proportionality(quad_tail):
    b, w = quad_tail
    tb, tw = R6.gens()
    black, white = alpha_coeffs(QUAD, b, w), alpha_coeffs(QUAD, b, w, black_start=False)
    assert len(black) == len(white) == QUAD.p + 1
    for aq, atq in zip(black, white):
        assert agree(exact_div(tb * aq, b), exact_div(tw * atq, w))



@settings(max_examples=40, deadline=None)
@given(st.one_of(st.just(HALF), drawn_face_weights()), st.integers(0, 8))
@example(HALF, 0)
@example(HALF, 8)
def test_alpha_brackets_equal_the_l_zero_formula(g, order):
    # the one profile walk against one l_zero walk per round-trip length,
    # field by field, on the tails of g
    b, w = tail_solve(g, SeriesRing(2, order))
    got = alpha_brackets(g, b, w)
    assert len(got) == g.p + 1
    for q, bracket in enumerate(got):
        want = MSeries(2, order, {(0, 0): 1} if q == 0 else {})
        for k in range(q + 1, g.p + 2):
            want = want - g.weight(k) * l_zero(2 * k - 2 * q - 2, b, w)
        assert (bracket.nums, bracket.den, bracket.order, bracket.reliable) == (
            want.nums, want.den, want.order, want.reliable
        ), q

# F_0..F_4, F_2 from a walk of its own and F_1..F_3 of conserved at d = 0..2 at
# order 6, per root color, as computed when the root color was named by a string
NAMED_COLOR_DIGESTS = {
    True: "8f8bd17d3103c5ed85e82e2b9ad0efa99e6ab35a46f691bed5465cc8bd465f95",
    False: "29b2f9d24df5d5ab92439f85605af02739f32322ef5c21fb36003761fed3c8c8",
}


@pytest.mark.parametrize("black_start", [True, False], ids=["black", "white"])
def test_named_root_colors_unchanged(quad_tail, quad_ladder, black_start):
    b, w = quad_tail
    values = (
        f_sequence(4, QUAD, b, w, black_start=black_start)
        + [f_sequence(2, QUAD, b, w, black_start=black_start)[2]]
        + [
            conserved(3, d, quad_ladder, QUAD, black_start=black_start)[n]
            for n in (1, 2, 3)
            for d in (0, 1, 2)
        ]
    )
    assert series_digest(values) == NAMED_COLOR_DIGESTS[black_start]


def test_twopoint_quad_printed(quad_ladder):
    table = twopoint_from_ladder(quad_ladder, 3)
    for i, (want, deg) in QUAD_TWOPOINT.items():
        assert_series(table.g_black(i).truncate(deg), S(2, 6, want), label=f"G_{i}")


def test_twopoint_hex_printed(hex_ladder):
    table = twopoint_from_ladder(hex_ladder, 3)
    for i, (want, deg) in HEX_TWOPOINT.items():
        assert_series(table.g_black(i).truncate(deg), S(2, 7, want), label=f"hex G_{i}")


def test_twopoint_counts_are_nonneg_integers(quad_ladder, hex_ladder):
    for ladder in (quad_ladder, hex_ladder):
        table = twopoint_from_ladder(ladder, 4)
        for series in table.black + table.white:
            for _, c in series.terms():
                assert rat(c).denominator == 1 and c > 0


def test_twopoint_color_swap(quad_ladder):
    table = twopoint_from_ladder(quad_ladder, 4)
    for i in range(1, 5):
        assert table.g_black(i).swap_vars() == table.g_white(i)


def test_twopoint_table_reads_distance_i(quad_ladder):
    table = twopoint_from_ladder(quad_ladder, 4)
    for i in range(1, 5):
        assert table.g_black(i) is table.black[i - 1]
        assert table.g_white(i) is table.white[i - 1]


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from([QUAD, HEX, MIXED, OCT]), drawn_face_weights()), st.integers(2, 10))
@example(FaceWeights((rat(-1, 2), rat(1))), 9)
@example(FaceWeights((0, rat(1, 3), rat(2))), 7)
def test_two_point_functions_sum_to_the_pointed_rooted_maps(g, order):
    # sum_i (G_black_i + G_white_i) = E(t_b F_1 - t_b t_w), with E the
    # degree operator t_b d/dt_b + t_w d/dt_w: the ends of the root edge lie
    # at distances i and i - 1 from the marked vertex for exactly one i, and
    # t_b F_1 - t_b t_w counts the rooted maps, to which E adds a marked
    # vertex.  G_i has no term below degree i + 1 (a path of i edges has
    # i + 1 vertices), so a ladder of height order + 1 carries every G_i
    # that reaches degree order - 1, F_1's bound.
    ring = SeriesRing(2, order)
    ladder = ladder_solve(g, ring, order + 1)
    table = twopoint_from_ladder(ladder, order + 1)
    total = ring.zero()
    for f in table.black + table.white:
        total = total + f
    tb, tw = ring.gens()
    rooted = tb * f_sequence(1, g, ladder.tail_black, ladder.tail_white)[1] - tb * tw
    pointed = MSeries(2, order, {e: c * sum(e) for e, c in rooted.coeffs.items()})
    assert rooted.reliable >= order - 1
    assert first_difference(total, pointed, order - 1) is None


@pytest.mark.parametrize(
    "g, message",
    [
        ((), "non-empty"),
        ((rat(1), rat(0)), "nonzero last entry"),
        ((rat(0), 1.0), "exact rationals"),
        ((rat(1), rat(1)), "g_1 = 1"),
    ],
    ids=["empty", "zero-last", "float", "g1-one"],
)
def test_face_weights_reject_bad_lists(g, message):
    with pytest.raises(ValueError, match=message):
        FaceWeights(g)


def test_equal_face_weights_are_one_key():
    # verify's runs key their ladders by FaceWeights
    a, b = FaceWeights((rat(1, 2), rat(1))), FaceWeights((rat(1, 2), rat(1)))
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a: 1, b: 2}) == 1
    assert a != FaceWeights.quadrangulations()


def test_quadrangulation_census():
    # Tutte, "A census of planar maps" (Canad. J. Math. 1963): there are
    # 2 * 3^f (2f)! / (f! (f + 2)!) rooted quadrangulations with f faces,
    # hence f + 2 vertices.  Summed over distances and both root colors at
    # t_black = t_white, the two-point functions count them once per choice
    # of the marked vertex.
    order = 8
    ladder = ladder_solve(QUAD, SeriesRing(2, order), height=order + 2)
    table = twopoint_from_ladder(ladder, order + 1)
    total = SeriesRing(2, order).zero()
    for g in table.black + table.white:
        total = total + g
    census = {}
    for f in range(1, order - 1):
        rooted = 2 * 3**f * factorial(2 * f) // (factorial(f) * factorial(f + 2))
        census[f + 2, 0] = (f + 2) * rooted
    assert [census[f + 2, 0] for f in range(1, 7)] == [6, 36, 270, 2268, 20412, 192456]
    assert total.reliable == order
    assert dict(total.collapse_vars().terms()) == census
