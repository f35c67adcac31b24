"""Lattice-path sums: DP vs brute force, frozen small values, reflections."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicmaps import paths
from bicmaps.paths import (
    BalancedSums,
    RatPathWeights,
    WeightLadder,
    check_reflection_even,
    check_reflection_odd,
    l_zero,
    rat_path,
    strip_sum,
    weigh_tally,
    word_tally,
    z_plus,
    z_plus_profile,
    z_strip,
)
from bicmaps.rational import rat
from bicmaps.series import MSeries, SeriesRing, one, zero
from bicmaps.slices import FaceWeights, tail_solve

from helpers import assert_series, rat_path_brute, rat_path_one_end

R = SeriesRing(2, 12)
tb, tw = R.gens()
CONST = WeightLadder((), (), tb, tw)


def indexed_ladder(height):
    """Ladder with distinguishable entries B_i = (10+i)*tb, W_i = (30+i)*tw."""
    black = tuple((10 + i) * tb for i in range(1, height + 1))
    white = tuple((30 + i) * tw for i in range(1, height + 1))
    return WeightLadder(black, white, 1000 * tb, 2000 * tw)


def series_brute(start, end, length, floor, black_parity, ladder):
    """Independent enumeration oracle for the series-valued DP."""
    nv, order = ladder.tail_black.num_vars, ladder.tail_black.order
    total = zero(nv, order)
    for word in product((1, -1), repeat=length):
        h = start
        weight = one(nv, order)
        ok = True
        for s in word:
            nh = h + s
            if floor is not None and nh < floor:
                ok = False
                break
            if s < 0:
                weight = weight * ladder.step_weight(h, black_parity)
            h = nh
        if ok and h == end:
            total = total + weight
    return total


def test_ladder_with_no_entries_reads_its_tails_above_zero():
    lad = WeightLadder((), (), tb, tw)
    assert lad.height == 0
    for i in range(-3, 1):
        assert lad.black_weight(i).is_zero() and lad.white_weight(i).is_zero(), i
    for i in range(1, 9):
        assert lad.black_weight(i) == tb and lad.white_weight(i) == tw, i


def test_z_plus_single_updown_is_w1():
    lad = indexed_ladder(4)
    assert z_plus(0, 0, 2, lad) == 31 * tw  # W_1


def test_z_plus_constant_length_four():
    # B W constant weights: the two round trips give W^2 + B*W.
    got = z_plus(0, 0, 4, CONST)
    assert got == tw * tw + tb * tw


def test_z_plus_white_start_at_floor_one():
    got = z_plus(1, 1, 2, CONST, floor=1, black_start=False)
    assert got == tb  # single up-down whose descending step leaves black height 2


def test_z_plus_rejects_bad_geometry():
    with pytest.raises(ValueError):
        z_plus(0, 1, 2, CONST)  # parity mismatch
    with pytest.raises(ValueError):
        z_plus(0, 4, 2, CONST)  # too short
    with pytest.raises(ValueError):
        z_plus(0, 0, 2, CONST, floor=1)


def test_weight_ladder_rejects_unequal_entry_lists():
    with pytest.raises(ValueError, match="equal length"):
        WeightLadder((tb,), (), tb, tw)
    with pytest.raises(ValueError, match="equal length"):
        WeightLadder((), (tw,), tb, tw)


@pytest.mark.parametrize(
    "b, w", [(0, 1), (1, 0), (rat(-1, 2), 3), (2, rat(-3, 5))]
)
def test_rat_path_weights_reject_nonpositive_weights(b, w):
    with pytest.raises(ValueError, match="positive"):
        RatPathWeights(b, w)


def test_z_plus_translation_invariance_constant_ladder():
    for offset in (0, 1, 2, 5):
        assert z_plus(offset, offset, 6, CONST, floor=offset) == z_plus(0, 0, 6, CONST)


def test_z_plus_profile_matches_single_calls():
    lad = indexed_ladder(6)
    prof = z_plus_profile(0, 8, lad)
    for s in range(0, 9, 2):
        assert prof[s] == z_plus(0, 0, s, lad)
    assert all(prof[s].is_zero() for s in range(1, 9, 2))


@pytest.mark.parametrize(
    "g",
    [FaceWeights.quadrangulations(), FaceWeights.hexangulations(), FaceWeights((rat(1, 5), rat(1)))],
    ids=["quad", "hex", "g1=1/5"],
)
def test_capped_moment_walk_matches_single_walks(g):
    # the profile on a constant ladder drops the degrees a height cannot
    # bring back to d; z_plus walks each length in full
    order = 6
    b, w = tail_solve(g, SeriesRing(2, order))
    top = 2 * order + 4
    for lad in (
        WeightLadder((), (), b, w),
        WeightLadder((), (), b.with_reliable(order - 2), w.with_reliable(order - 1)),
    ):
        for d, floor in ((0, 0), (2, None), (2, 0)):
            for black_start in (True, False):
                prof = z_plus_profile(d, top, lad, floor, black_start=black_start)
                for s in range(0, top + 1, 2):
                    want = z_plus(d, d, s, lad, floor, black_start=black_start)
                    got = prof[s]
                    assert (got.coeffs, got.order, got.reliable) == (
                        want.coeffs,
                        want.order,
                        want.reliable,
                    ), (d, floor, black_start, s)
                assert all(prof[s].is_zero() for s in range(1, top + 1, 2))


def test_z_strip_quad_shape():
    lad = indexed_ladder(6)
    for i in (1, 2, 3):
        bi = lad.black_weight(i)
        expected = bi * (lad.white_weight(i - 1) + bi + lad.white_weight(i + 1))
        assert_series(z_strip(i, 3, lad), expected, label=f"strip i={i}")


def test_z_strip_single_step():
    lad = indexed_ladder(3)
    assert z_strip(1, 1, lad) == lad.black_weight(1)
    assert z_strip(1, 1, lad, black_start=False) == lad.white_weight(1)


def test_z_strip_hex_limit():
    # Far from the floor the degree-5 strip equals B(B^2 + 6BW + 3W^2).
    got = z_strip(7, 5, CONST)
    b, w = tb, tw
    assert_series(got, b * (b * b + 6 * b * w + 3 * w * w))


def test_z_strip_degree_five_height_dependent():
    # Degree-5 strips with height-resolved weights, entries at index <= 0
    # vanishing; checked against independent enumeration and the expanded
    # seven-term bracket.
    lad = indexed_ladder(8)
    for i in (1, 2, 3, 4):
        bi = lad.black_weight(i)
        bracket = (
            lad.black_weight(i - 2) * lad.white_weight(i - 1)
            + 2 * bi * (lad.white_weight(i - 1) + lad.white_weight(i + 1))
            + bi * bi
            + lad.white_weight(i - 1) ** 2
            + lad.white_weight(i + 1) ** 2
            + lad.white_weight(i - 1) * lad.white_weight(i + 1)
            + lad.white_weight(i + 1) * lad.black_weight(i + 2)
        )
        got = z_strip(i, 5, lad)
        assert_series(got, bi * bracket, label=f"degree-5 strip i={i}")
        assert_series(got, series_brute(i, i - 1, 5, 0, i % 2, lad))


def test_z_strip_validation():
    with pytest.raises(ValueError):
        z_strip(1, 2, CONST)
    with pytest.raises(ValueError):
        z_strip(0, 3, CONST)


@st.composite
def random_ladders(draw):
    """Ladders of height 0..6 at one order 0..6, in two variables, whose
    entries and tails have random terms (zero now and then) and reliable."""
    order = draw(st.integers(0, 6))
    expos = st.tuples(st.integers(0, 3), st.integers(0, 3))
    coeffs = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
    series = st.builds(
        MSeries,
        st.just(2),
        st.just(order),
        st.dictionaries(expos, coeffs, max_size=3),
        st.integers(0, order),
    )
    height = draw(st.integers(0, 6))
    black, white = (tuple(draw(series) for _ in range(height)) for _ in range(2))
    return WeightLadder(black, white, draw(series), draw(series))


@settings(max_examples=150, deadline=None)
@given(
    random_ladders(),
    st.lists(st.sampled_from([0, 1, 2, rat(-1, 3)]), min_size=1, max_size=5),
    st.integers(1, 6),
    st.booleans(),
)
def test_strip_sum_equals_the_weighted_strips(lad, weights, i, black_start):
    # p = 0..4: the first-passage sum against one z_strip walk per length
    want = zero(2, lad.tail_black.order)
    for m, c in enumerate(weights):
        if c:
            want = want + c * z_strip(i, 2 * m + 1, lad, black_start=black_start)
    got = strip_sum(i, weights, lad, black_start=black_start)
    assert (got.nums, got.den, got.order, got.reliable) == (
        want.nums, want.den, want.order, want.reliable
    )


def test_strip_sum_validation():
    with pytest.raises(ValueError):
        strip_sum(0, (0, 1), CONST)


def test_l_zero_small_values():
    assert l_zero(0, tb, tw) == one(2, 12)
    assert l_zero(2, tb, tw) == tb + tw
    # frozen from enumerating the six step orderings of length 4
    assert l_zero(4, tb, tw) == tb ** 2 + tw ** 2 + 4 * tb * tw


@pytest.mark.parametrize("weights", [(0, 1), (0, rat(1, 3), 2)], ids=["quad", "0,1/3,2"])
def test_l_zero_matches_brute_round_trips(weights):
    # unfloored round trips of length 2j from height 2j, black there: the
    # walk never comes below height j, so every descent reads a tail
    b, w = tail_solve(FaceWeights(tuple(rat(x) for x in weights)), SeriesRing(2, 6))
    lad = WeightLadder((), (), b, w)
    for j in range(5):
        got = l_zero(2 * j, b, w)
        want = series_brute(2 * j, 2 * j, 2 * j, None, 0, lad)
        assert (got.nums, got.den, got.order, got.reliable) == (
            want.nums,
            want.den,
            want.order,
            want.reliable,
        ), j


def test_series_dp_equals_brute():
    lad = indexed_ladder(8)
    cases = [
        (0, 0, 6, 0, 0),
        (1, 3, 4, 0, 1),
        (2, 0, 6, 0, 0),
        (3, 2, 5, 0, 1),
        (0, 0, 8, -8, 0),
        (2, 1, 3, 0, 0),
    ]
    for start, end, length, floor, parity in cases:
        got = z_plus(start, end, length, lad, floor=floor, black_start=(start % 2 == parity))
        want = series_brute(start, end, length, floor, parity, lad)
        assert_series(got, want, label=f"path {start}->{end} len {length}")


WT = RatPathWeights(rat(2), rat(3))


def test_rat_path_small():
    assert rat_path(1, 1, 2, 0, WT, black_start=False) == 4 + 9  # b^2 + w^2
    assert rat_path(0, 0, 0, None, WT) == 1
    assert rat_path(0, 2, 1, None, WT) == 0  # impossible length


def test_rat_path_balanced_equals_descending_specialization():
    # With b^2 = B, w^2 = W the balanced and descending-only conventions
    # agree on closed paths.
    wt = RatPathWeights(rat(2), rat(3))
    for n in (1, 2, 3, 4):
        series_value = z_plus(n, n, 2 * n, CONST, floor=0).evaluate([4, 9])
        assert rat_path(0, 0, 2 * n, None, wt) == series_value


def test_rat_path_matches_brute():
    # every start and end in 0..4, with the start below the floor too
    assert rat_path_brute(0, 2, 2, 1, WT) == 0
    for wt in (WT, RatPathWeights(rat(3, 4), rat(5, 7))):
        for black_start, start, end, length, floor in product(
            (True, False), range(5), range(5), range(9), (None, 0, 1, 2, 3)
        ):
            case = (start, end, length, floor, wt)
            got = rat_path(*case, black_start=black_start)
            assert got == rat_path_brute(*case, black_start=black_start), (case, black_start)


def word_product_sum(start, end, length, floor, wt, black_start):
    """Reference for rat_path_brute: one Fraction product per step word."""
    black = start % 2 if black_start else (start + 1) % 2
    total = Fraction(0)
    for word in product((1, -1), repeat=length):
        heights = [start]
        for s in word:
            heights.append(heights[-1] + s)
        if heights[-1] != end or (floor is not None and min(heights) < floor):
            continue
        weight = Fraction(1)
        for h, nh in zip(heights, heights[1:]):
            weight *= wt.w if min(h, nh) % 2 == black else wt.b
        total += weight
    return total


def test_rat_path_brute_equals_word_products():
    wt = RatPathWeights(rat(3, 4), rat(5, 7))
    for length in range(11):
        for black_start, start, floor in product((True, False), (0, 1, 2), (None, 1)):
            for end in (start + length % 2, start - 2 + length % 2):
                case = (start, end, length, floor, wt)
                got = rat_path_brute(*case, black_start=black_start)
                assert got == word_product_sum(*case, black_start), (case, black_start)
                assert isinstance(got, Fraction)


def test_reflection_odd_known_value():
    # k = l = 1, q = 1: both sides equal b^2 + w^2 = 13 at (b, w) = (2, 3).
    assert rat_path_brute(1, 1, 2, 0, WT, black_start=False) == 13
    assert check_reflection_odd(1, 1, 1, BalancedSums(WT, 2), brute=True)


def test_reflection_zero_length():
    sums = BalancedSums(WT, 0)
    for k in (1, 2, 3):
        assert check_reflection_odd(k, k, 0, sums)
        assert check_reflection_even(k, k, 0, sums)


def test_reflection_sweep_small():
    points = [
        RatPathWeights(rat(2), rat(3)),
        RatPathWeights(rat(1, 2), rat(5, 3)),
        RatPathWeights(rat(7, 4), rat(1, 7)),
    ]
    for wt in points:
        sums = BalancedSums(wt, 6)
        for k, l in product(range(1, 3), repeat=2):
            for q in range(4):
                assert check_reflection_odd(k, l, q, sums), (k, l, q)
        for k, l in product(range(0, 3), repeat=2):
            for q in range(4):
                assert check_reflection_even(k, l, q, sums), (k, l, q)


def test_word_tally_is_weight_free():
    # one tally serves every sample point, and weighs to rat_path_brute at each
    shape = (2, 0, 6, 0)
    tally = word_tally(*shape)
    assert sum(tally) == 9  # the paths from 2 down to 0 in 6 steps that stay >= 0
    for wt in (WT, RatPathWeights(rat(3, 4), rat(5, 7))):
        assert weigh_tally(tally, wt) == rat_path_brute(*shape, wt) == rat_path(*shape, wt)
    assert word_tally(0, 2, 2, 1) == (0, 0, 0)


positive = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=10), positive, positive)
def test_weigh_tally_equals_the_fraction_powers(tally, b, w):
    # the integer sum over one denominator against sum n * w^k * b^(L - k)
    length = len(tally) - 1
    want = sum((n * w**k * b ** (length - k) for k, n in enumerate(tally)), Fraction(0))
    got = weigh_tally(tuple(tally), RatPathWeights(b, w))
    assert got == want and type(got) is Fraction


def test_balanced_sums_share_tallies_and_drops():
    # a drop is read at end -2|j| of the free walk from 0; rat_path walks it
    # from 2|j| down to 0
    tallies = {}
    for wt in (WT, RatPathWeights(rat(3, 4), rat(5, 7))):
        sums = BalancedSums(wt, 8, tallies)
        for j in range(-3, 4):
            assert sums.drop(j, 8) == rat_path(2 * abs(j), 0, 8, None, sums.wt)
        assert sums.c == Fraction(wt.b) / Fraction(wt.w)
        got = sums.path(3, 1, 6, 0, black_start=False, brute=True)
        assert got == rat_path_brute(3, 1, 6, 0, sums.wt, black_start=False)
        assert got == sums.path(3, 1, 6, 0, black_start=False)
    assert list(tallies) == [(3, 1, 6, 0, False)]


def test_balanced_sums_read_every_end_and_length(monkeypatch):
    # every (end, length <= 10) of one walk per start against a walk of its
    # own pruned to that end (rat_path_one_end) and, through length 8, the
    # step words (word_tally)
    walks = []
    real = paths._balanced_walk

    def counting(start, ends, length, floor, nb, nw, black_start):
        walks.append((start, floor, black_start))
        return real(start, ends, length, floor, nb, nw, black_start)

    monkeypatch.setattr(paths, "_balanced_walk", counting)
    tallies = {}
    points = [
        RatPathWeights(rat(2), rat(3)),
        RatPathWeights(rat(3, 4), rat(5, 7)),
        RatPathWeights(rat(7, 4), rat(1, 7)),
    ]
    starts = [(0, 0), (1, 0), (3, 1), (2, None), (1, None)]
    shapes = [
        ((start, end, length, floor), black_start)
        for (start, floor), black_start in product(starts, (True, False))
        for length in range(11)
        for end in range(start - length, start + length + 1)
    ]
    for wt in points:
        sums = BalancedSums(wt, 10, tallies)
        walks.clear()
        read = [sums.path(*shape, black_start=black_start) for shape, black_start in shapes]
        assert len(walks) == len(set(walks)) == 2 * len(starts)
        for got, (shape, black_start) in zip(read, shapes):
            want = rat_path_one_end(*shape, wt, black_start=black_start)
            assert got == want, (shape, black_start)
            if shape[2] <= 8 and (shape[0] - shape[1] - shape[2]) % 2 == 0:
                brute = sums.path(*shape, black_start=black_start, brute=True)
                assert got == brute, (shape, black_start)
    with pytest.raises(ValueError, match="length"):
        sums.path(0, 0, 12, None)
