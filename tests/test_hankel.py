"""Hankel determinants, continued-fraction extraction and expansion."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicmaps.hankel import (
    boundary_hankel_family,
    cf_expand,
    cf_extract,
    det_division_free,
    det_leibniz,
    determinant_ladder,
    hankel_det,
    hankel_family,
)
from bicmaps.rational import rat
from bicmaps.series import SeriesRing, agree, common_reliable, first_difference, one
from bicmaps.slices import FaceWeights, f_sequence, ladder_solve, tail_solve

from helpers import assert_ladder_stable

QUAD = FaceWeights.quadrangulations()
HEX = FaceWeights.hexangulations()
N = 8
RING = SeriesRing(2, N)


@pytest.fixture(scope="module")
def quad_data():
    b, w = tail_solve(QUAD, RING)
    ladder = ladder_solve(QUAD, RING)
    fb = f_sequence(7, QUAD, b, w, color="black")
    fw = f_sequence(7, QUAD, b, w, color="white")
    return ladder, fb, fw


@pytest.fixture(scope="module")
def hex_data():
    b, w = tail_solve(HEX, RING)
    ladder = ladder_solve(HEX, RING)
    fb = f_sequence(7, HEX, b, w, color="black")
    fw = f_sequence(7, HEX, b, w, color="white")
    return ladder, fb, fw


def test_det_matches_leibniz_on_random_integers():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            rows = [[rat(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
            assert det_division_free(rows) == det_leibniz(rows)


def test_det_matches_leibniz_on_series(quad_data):
    _, fb, _ = quad_data
    for i in (1, 2, 3):
        rows = [[fb[n + m] for m in range(i + 1)] for n in range(i + 1)]
        assert det_division_free(rows) == det_leibniz(rows)


def test_hankel_det_base_cases(quad_data):
    ladder, fb, _ = quad_data
    assert agree(hankel_det(fb, 0, 0), one(2, N))  # F_0 = 1
    assert agree(hankel_det(fb, 1, 0), ladder.white_weight(1))  # F_1 = W_1


def test_hankel_det_requires_enough_moments(quad_data):
    _, fb, _ = quad_data
    with pytest.raises(ValueError):
        hankel_det(fb[:3], 1, 1)


def test_cf_extract_first_entry_is_f1(quad_data):
    _, fb, fw = quad_data
    fam = hankel_family(fb, fw, 1)
    extracted = cf_extract(fam, 1)
    assert agree(extracted.white_weight(1), fb[1])


def test_cf_extract_matches_ladder_quad(quad_data):
    ladder, fb, fw = quad_data
    fam = hankel_family(fb, fw, 3)
    extracted = cf_extract(fam, 6)
    for i in range(1, 7):
        for side in ("black_weight", "white_weight"):
            got = getattr(extracted, side)(i)
            want = getattr(ladder, side)(i)
            assert agree(got, want), (i, side, first_difference(got, want))
    # the low entries keep enough reliable order for real content
    assert extracted.black_weight(2).reliable >= N - 2
    assert common_reliable(extracted.black_weight(1)) >= N - 1


def test_cf_extract_matches_ladder_hex(hex_data):
    ladder, fb, fw = hex_data
    fam = hankel_family(fb, fw, 3)
    extracted = cf_extract(fam, 6)
    for i in range(1, 7):
        assert agree(extracted.black_weight(i), ladder.black_weight(i)), i
        assert agree(extracted.white_weight(i), ladder.white_weight(i)), i


def test_cf_extract_vacuous_entries_convention(quad_data):
    # beyond the truncation-feasible depth (the index-3 determinants have
    # valuation 12 > 8 here, so the ratios are uninformative), entries come
    # back as zero series with reliable order 0 instead of erroring
    _, fb, fw = quad_data
    extracted = cf_extract(hankel_family(fb, fw, 3), 7)
    assert extracted.black_weight(7).is_zero()
    assert extracted.black_weight(7).reliable == 0
    assert extracted.white_weight(7).is_zero()


def test_cf_expand_low_coefficients(quad_data):
    ladder, fb, _ = quad_data
    F = cf_expand(ladder, depth=8, n_max=4)
    assert agree(F[0], one(2, N))
    assert agree(F[1], ladder.white_weight(1))  # order-z coefficient
    for n in range(5):
        assert agree(F[n], fb[n]), n


def test_cf_expand_depth_stability(quad_data):
    ladder, _, _ = quad_data
    shallow = cf_expand(ladder, depth=5, n_max=4)
    deep = cf_expand(ladder, depth=11, n_max=4)
    for a, b in zip(shallow, deep):
        assert a == b


def test_cf_round_trip(quad_data):
    ladder, _, _ = quad_data
    fb = cf_expand(ladder, depth=9, n_max=7)
    fw = cf_expand(ladder.swapped(), depth=9, n_max=7)
    fam = hankel_family(fb, fw, 3)
    back = cf_extract(fam, 6)
    for i in range(1, 7):
        assert agree(back.black_weight(i), ladder.black_weight(i)), i
        assert agree(back.white_weight(i), ladder.white_weight(i)), i


def test_hankel_positivity_at_small_specialization():
    # Stieltjes-moment positivity: every determinant specializes positive at
    # a small positive vertex weight.  The index-4 shifted determinant only
    # has content from total degree 25 on, hence the high working order.
    ring = SeriesRing(2, 26)
    b, w = tail_solve(QUAD, ring)
    moments = f_sequence(9, QUAD, b, w)
    point = [rat(1, 16), rat(1, 16)]
    values = [f.evaluate(point) for f in moments]
    for shift in (0, 1):
        for i in range(5):
            rows = [[values[n + m + shift] for m in range(i + 1)] for n in range(i + 1)]
            assert det_division_free(rows) > 0, (shift, i)


FAMILIES = {
    "quad": QUAD,
    "hex": HEX,
    "g1=1/5": FaceWeights((rat(1, 5), rat(1))),
    "p=3": FaceWeights((rat(0), rat(0), rat(0), rat(1))),
}


def test_determinant_ladder_is_the_extraction_of_the_moment_family(quad_data):
    _, fb, fw = quad_data
    assert boundary_hankel_family(QUAD, RING, 3) == hankel_family(fb, fw, 3)
    assert determinant_ladder(QUAD, RING, 6) == cf_extract(hankel_family(fb, fw, 3), 6)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.integers(2, 6), st.integers(1, 2))
def test_determinant_ladder_stable_under_higher_order(name, n, k):
    g = FAMILIES[name]
    low = determinant_ladder(g, SeriesRing(2, n), 6)
    high = determinant_ladder(g, SeriesRing(2, n + k), 6)
    assert low.black_weight(1).reliable == n - 1
    assert_ladder_stable(low, high, 6)
