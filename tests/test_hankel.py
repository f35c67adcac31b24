"""Hankel determinants, continued-fraction extraction and expansion."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicmaps.dimers import _column, lgv
from bicmaps.hankel import (
    cf_expand,
    cf_extract,
    det_division_free,
    det_leibniz,
    determinant_ladder,
    hankel_det,
    hankel_family,
    moment_ladder,
)
from bicmaps.paths import WeightLadder, ladder_pairs
from bicmaps.rational import rat
from bicmaps.series import (
    MSeries,
    SeriesRing,
    agree,
    common_reliable,
    first_difference,
    one,
    zero,
)
from bicmaps.slices import FaceWeights, alpha_brackets, f_sequence, ladder_solve, tail_solve
from bicmaps.suites import SuiteRun, suite_hankel

from helpers import DRAWN_WEIGHTS, assert_ladder_stable, cf_expand_recurrence, drawn_face_weights

QUAD = FaceWeights.quadrangulations()
HEX = FaceWeights.hexangulations()
FAMILIES = {
    "quad": QUAD,
    "hex": HEX,
    "g1=1/5": FaceWeights((rat(1, 5), rat(1))),
    "p=3": FaceWeights((rat(0), rat(0), rat(0), rat(1))),
}
N = 8
RING = SeriesRing(2, N)


@pytest.fixture(scope="module")
def quad_data():
    b, w = tail_solve(QUAD, RING)
    ladder = ladder_solve(QUAD, RING)
    return ladder, f_sequence(7, QUAD, b, w)


@pytest.fixture(scope="module")
def hex_data():
    b, w = tail_solve(HEX, RING)
    ladder = ladder_solve(HEX, RING)
    return ladder, f_sequence(7, HEX, b, w)


def test_det_matches_leibniz_on_random_integers():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            rows = [[rat(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
            assert det_division_free(rows) == det_leibniz(rows)


def test_det_matches_leibniz_on_series(quad_data):
    _, fb = quad_data
    for i in (1, 2, 3):
        rows = [[fb[n + m] for m in range(i + 1)] for n in range(i + 1)]
        assert det_division_free(rows) == det_leibniz(rows)


def _fields(f: MSeries) -> tuple:
    """Everything a series stores and a document prints, ``reliable`` included."""
    return f.nums, f.den, f.order, f.reliable


@pytest.fixture(scope="module")
def order10_moments():
    """Black and white moments F_0..F_11 at order 10, by family name."""
    ring = SeriesRing(2, 10)
    out = {}
    for name in ("quad", "g1=1/5"):
        g = FAMILIES[name]
        b, w = tail_solve(g, ring)
        out[name] = (f_sequence(11, g, b, w), f_sequence(11, g, b, w, black_start=False))
    return out


@pytest.mark.parametrize("name", ["quad", "g1=1/5"])
def test_pruned_det_matches_leibniz_on_hankel_matrices(order10_moments, name):
    # size 3 prunes minors, size 4 and size 5 at shift 0 end in the (min, +)
    # bound, size 5 at shift 1 in the row bound
    fb, _ = order10_moments[name]
    for size in (3, 4, 5):
        for shift in (0, 1):
            rows = [[fb[n + m + shift] for m in range(size)] for n in range(size)]
            assert _fields(det_division_free(rows)) == _fields(det_leibniz(rows)), (size, shift)


def _random_entry(rng: random.Random, order: int) -> MSeries:
    """A series of valuation 0..4 (or zero), order and reliable near ``order``."""
    own_order = rng.choice((order, order + 1))
    reliable = rng.randint(order - 2, own_order)
    if rng.random() < 0.2:
        return MSeries(2, own_order, {}, reliable)
    v = rng.randint(0, 4)
    a = rng.randint(0, v)
    terms = {(a, v - a): rng.choice((1, -1, 2, rat(1, 3)))}
    for _ in range(rng.randint(0, 4)):
        d = rng.randint(v, own_order)
        a = rng.randint(0, d)
        terms[(a, d - a)] = rng.randint(-3, 3)
    return MSeries(2, own_order, terms, reliable)


def test_pruned_det_matches_leibniz_on_random_series():
    rng = random.Random(11)
    for trial in range(40):
        n = 2 + trial % 4
        rows = [[_random_entry(rng, 6) for _ in range(n)] for _ in range(n)]
        assert _fields(det_division_free(rows)) == _fields(det_leibniz(rows)), trial


def test_determinants_killed_by_truncation_make_no_products(order10_moments, series_products):
    # index i has valuation at least i(i+1) > 10 from i = 3 on
    for moments in order10_moments["g1=1/5"]:
        for shift in (0, 1):
            for i in (3, 4, 5):
                det = hankel_det(moments, shift, i)
                used = moments[shift : 2 * i + 1 + shift]
                assert det.is_zero() and det.order == 10
                assert det.reliable == min(m.reliable for m in used)
    assert series_products[0] == 0


def test_row_bound_skips_a_large_determinant(series_products):
    ring = SeriesRing(2, 6)
    b, w = tail_solve(QUAD, ring)
    moments = f_sequence(30, QUAD, b, w)
    series_products[0] = 0
    det = hankel_det(moments, 0, 15)
    assert det.is_zero() and det.order == 6
    assert det.reliable == min(m.reliable for m in moments)
    assert series_products[0] == 0


def test_hankel_det_base_cases(quad_data):
    ladder, fb = quad_data
    assert agree(hankel_det(fb, 0, 0), one(2, N))  # F_0 = 1
    assert agree(hankel_det(fb, 1, 0), ladder.white_weight(1))  # F_1 = W_1


def test_hankel_det_requires_enough_moments(quad_data):
    _, fb = quad_data
    with pytest.raises(ValueError):
        hankel_det(fb[:3], 1, 1)


def test_hankel_family_reaches_as_far_as_its_moments(order10_moments):
    # F_0..F_n reach shift 0 through index n // 2 and shift 1 through (n - 1) // 2
    fb, _ = order10_moments["g1=1/5"]
    for n in range(12):
        fam = hankel_family(fb[: n + 1])
        assert (len(fam.h0), len(fam.h1)) == (n // 2 + 1, (n + 1) // 2), n
        for shift, seq in ((0, fam.h0), (1, fam.h1)):
            want = [hankel_det(fb, shift, i) for i in range(len(seq))]
            assert [_fields(d) for d in seq] == [_fields(d) for d in want], (n, shift)


def test_cf_extract_reaches_as_far_as_its_family(quad_data):
    # the family of F_0..F_n fixes entries 1..n, and lgv(top) is the family
    # of F_0..F_{2 top + 1}
    _, fb = quad_data
    for n in range(1, 8):
        assert cf_extract(hankel_family(fb[: n + 1])).height == n, n
    b, w = tail_solve(QUAD, RING)
    for top in range(4):
        assert cf_extract(lgv(top, QUAD, b, w)).height == 2 * top + 1, top
    with pytest.raises(ValueError, match="F_0 and F_1"):
        cf_extract(hankel_family(fb[:1]))


def test_cf_extract_first_entry_is_f1(quad_data):
    _, fb = quad_data
    fam = hankel_family(fb[:4])
    extracted = cf_extract(fam)
    assert agree(extracted.white_weight(1), fb[1])


def test_cf_extract_matches_ladder_quad(quad_data):
    ladder, fb = quad_data
    fam = hankel_family(fb)
    extracted = cf_extract(fam)
    for i in range(1, 7):
        for side in ("black_weight", "white_weight"):
            got = getattr(extracted, side)(i)
            want = getattr(ladder, side)(i)
            assert agree(got, want), (i, side, first_difference(got, want))
    # the low entries keep enough reliable order for real content
    assert extracted.black_weight(2).reliable >= N - 2
    assert common_reliable(extracted.black_weight(1)) >= N - 1


def test_cf_extract_matches_ladder_hex(hex_data):
    ladder, fb = hex_data
    fam = hankel_family(fb)
    extracted = cf_extract(fam)
    for i in range(1, 7):
        assert agree(extracted.black_weight(i), ladder.black_weight(i)), i
        assert agree(extracted.white_weight(i), ladder.white_weight(i)), i


def test_cf_extract_vacuous_entries_convention(quad_data):
    # beyond the truncation-feasible depth (the index-3 determinants have
    # valuation 12 > 8 here, so the ratios are uninformative), entries come
    # back as zero series with reliable order 0 instead of erroring
    _, fb = quad_data
    extracted = cf_extract(hankel_family(fb))
    assert extracted.black_weight(7).is_zero()
    assert extracted.black_weight(7).reliable == 0
    assert extracted.white_weight(7).is_zero()


def test_cf_expand_low_coefficients(quad_data):
    ladder, fb = quad_data
    F = cf_expand(ladder, n_max=4)
    assert agree(F[0], one(2, N))
    assert agree(F[1], ladder.white_weight(1))  # order-z coefficient
    for n in range(5):
        assert agree(F[n], fb[n]), n


def test_cf_expand_reads_no_level_above_n_max(quad_data):
    # levels above n_max enter F_0..F_{n_max} at no degree, so a ladder cut
    # after entry n_max, with zero tails, gives the same moments
    ladder, _ = quad_data
    nothing = zero(2, N)
    cut = WeightLadder(ladder.black[:4], ladder.white[:4], nothing, nothing)
    assert cf_expand(cut, n_max=4) == cf_expand(ladder, n_max=4)


def test_cf_round_trip(quad_data):
    ladder, _ = quad_data
    fam = hankel_family(cf_expand(ladder, n_max=7))
    back = cf_extract(fam)
    for i in range(1, 7):
        assert agree(back.black_weight(i), ladder.black_weight(i)), i
        assert agree(back.white_weight(i), ladder.white_weight(i)), i


@st.composite
def drawn_ladders(draw):
    """A ladder of random series at one order 0-8, with 0-6 entries per
    color, every entry and tail with its own reliable, and all of them
    with a constant term allowed or none with one."""
    order = draw(st.integers(0, 8))
    height = draw(st.integers(0, 6))
    low = draw(st.integers(0, 1))
    exponents = [(a, d - a) for d in range(low, order + 1) for a in range(d + 1)]
    terms = st.dictionaries(st.sampled_from(exponents), st.sampled_from(DRAWN_WEIGHTS), max_size=4)

    def series():
        drawn = draw(terms) if exponents else {}
        return MSeries(2, order, drawn, draw(st.integers(0, order)))

    black = tuple(series() for _ in range(height))
    white = tuple(series() for _ in range(height))
    return WeightLadder(black, white, series(), series())


@settings(max_examples=80, deadline=None)
@given(drawn_ladders(), st.integers(0, 6))
def test_cf_expand_equals_the_recurrence(ladder, n_max):
    # the Dyck-path walk against the fraction evaluated as polynomials in
    # the boundary-length marker, field by field
    got = cf_expand(ladder, n_max)
    want = cf_expand_recurrence(ladder, n_max)
    assert [_fields(f) for f in got] == [_fields(f) for f in want]


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


def _ladder_fields(ladder) -> list:
    entries = ladder.black + ladder.white + (ladder.tail_black, ladder.tail_white)
    return [_fields(e) for e in entries]


def test_determinant_ladder_is_the_extraction_of_the_moment_family(quad_data):
    _, fb = quad_data
    fam = hankel_family(f_sequence(7, QUAD, *tail_solve(QUAD, RING)))
    want = hankel_family(fb)
    for got_seq, want_seq in ((fam.h0, want.h0), (fam.h1, want.h1)):
        assert [_fields(d) for d in got_seq] == [_fields(d) for d in want_seq]
    got = determinant_ladder(QUAD, RING, 7)
    assert _ladder_fields(got) == _ladder_fields(cf_extract(want))


@pytest.mark.parametrize("name", ["quad", "g1=1/5", "p=3"])
def test_moment_ladder_reads_only_the_moments_it_needs(name):
    # F_0..F_i fix entries 1..i: more moments change no field of them
    g = FAMILIES[name]
    fb = f_sequence(9, g, *tail_solve(g, RING))
    full = moment_ladder(fb)
    for i in (5, 6):
        got = moment_ladder(fb[: i + 1])
        assert got.height == i
        for side in ("black", "white"):
            prefix = getattr(full, side)[:i]
            assert [_fields(e) for e in getattr(got, side)] == [_fields(e) for e in prefix]


@pytest.mark.parametrize(
    "weights",
    [(0, 1), (0, 0, 1), (0, 0, 0, 1), (rat(1, 5), 0, 0, 1), (rat(1, 5), 1)],
    ids=["quad", "hex", "oct", "oct-g1", "g1=1/5"],
)
def test_dimer_family_stands_in_for_the_moment_family(weights):
    # the column walk's family, extracted, is the determinant route's ladder
    g = FaceWeights(tuple(rat(x) for x in weights))
    ring = SeriesRing(2, 10)
    b, w = tail_solve(g, ring)
    got = cf_extract(lgv(4, g, b, w))
    want = determinant_ladder(g, ring, 9)
    assert _ladder_fields(got) == _ladder_fields(want)
    assert [e.reliable for e in got.black] == [9, 8, 6, 4, 1, 0, 0, 0, 0]


@settings(max_examples=20, deadline=None)
@given(drawn_face_weights(), st.integers(3, 7), st.integers(2, 6))
def test_routes_agree_over_random_face_weights(g, order, i_max):
    # the determinant and dimer routes against the recursion; a draw in
    # which every compared entry has reliable 0 would compare nothing.  The
    # column the dimer route walks is exact through the order.
    ring = SeriesRing(2, order)
    recursion = ladder_solve(g, ring, height=i_max)
    b, w = recursion.tail_black, recursion.tail_white
    top = i_max // 2
    column = _column(2 * top + 2 * g.p, b, w, alpha_brackets(g, b, w))
    assert {part.reliable for state in column for part in state.parts} == {order}, g.g
    dimers = cf_extract(lgv(top, g, b, w))
    for route in (determinant_ladder(g, ring, i_max), dimers):
        pairs = ladder_pairs(route, recursion, i_max)
        assert all(agree(x, y) for x, y in pairs), g.g
        assert max(common_reliable(x, y) for x, y in pairs) >= 1, g.g


# sha256 over (sorted nums, den, order, reliable) of every entry, black,
# white and the two tails, of determinant_ladder(g, SeriesRing(2, order), 11)
# and, for p >= 1, of cf_extract(lgv(5, ...)) at order 8.  Most of these
# entries lie past the reach of the truncation: zero with reliable 0.
CF_PINNED = {
    ('determinant', '0,1', 1): '5c7989bceaa8a336ddba59bb12e136877a33a4199c3f304bb26f54b970b7db6d',
    ('determinant', '0,1', 2): '32e1e412bbef89b8b2a5ebfe40e3d900b1e7c5525a3902e3275bcc1f8b7e1e71',
    ('determinant', '0,1', 6): '9f718e4bfeacd123e83d8c41b296c46d8851fa19567631896e7121ea5351663c',
    ('determinant', '0,1', 10): '8d513d77573a64418e69b8ee8916f12b023de043814d7c9007ad0eaa8c8715ea',
    ('lgv', '0,1', 8): 'f15b80b2b2beb0ae4edf01486e50ec2a38e9fbaff7e9fb7821d7e2a00fd2f0ff',
    ('determinant', '0,0,1', 1): '5c7989bceaa8a336ddba59bb12e136877a33a4199c3f304bb26f54b970b7db6d',
    ('determinant', '0,0,1', 2): '32e1e412bbef89b8b2a5ebfe40e3d900b1e7c5525a3902e3275bcc1f8b7e1e71',
    ('determinant', '0,0,1', 6): 'ae189a91245c66c0d5607f68a2ac12ea92915600bd69f8303a5d741d1001085e',
    ('determinant', '0,0,1', 10): 'f95b7d147c82f6ab7b48a611e9343edcf574bcdac1d14f24557db498a42e6bb0',
    ('lgv', '0,0,1', 8): '965b6e332578dfde92cc83c1d5adeec447045f8dd00d61538be87399cb19323b',
    ('determinant', '1/5,1', 1): '5c7989bceaa8a336ddba59bb12e136877a33a4199c3f304bb26f54b970b7db6d',
    ('determinant', '1/5,1', 2): 'd75a09f46a92a8de85bc63822eead6a909217cf40c7938f8d43f2716d3477653',
    ('determinant', '1/5,1', 6): '3c668f3b1287885ab87fa212bf04718601633162f269360ef9a3d9450369add2',
    ('determinant', '1/5,1', 10): 'd975f084819e9ac4bfe51bfdd3f30341ba8879a1f84b0705991395a7fab83406',
    ('lgv', '1/5,1', 8): '9fd1ff82bb849a9b9e2f52ae2fcb910bea67f7f62c25d1baef6a10873b4a4905',
    ('determinant', '0,0,0,1', 1): '5c7989bceaa8a336ddba59bb12e136877a33a4199c3f304bb26f54b970b7db6d',
    ('determinant', '0,0,0,1', 2): '32e1e412bbef89b8b2a5ebfe40e3d900b1e7c5525a3902e3275bcc1f8b7e1e71',
    ('determinant', '0,0,0,1', 6): '24a24a4bd0b8ee6412ed4df673263b6d2ffccfbc773bbe68e0889777acf06845',
    ('determinant', '0,0,0,1', 10): 'bdeae7d577f8fe6d8f3d3d04e6cc4e63121a6ff9900c87a80a465cd9d1d10743',
    ('lgv', '0,0,0,1', 8): '174cb69e15e61fb39ace1bbe229b02db3f65663931687da41ed7a1c612f78579',
    ('determinant', '0,1,1', 1): '5c7989bceaa8a336ddba59bb12e136877a33a4199c3f304bb26f54b970b7db6d',
    ('determinant', '0,1,1', 2): '32e1e412bbef89b8b2a5ebfe40e3d900b1e7c5525a3902e3275bcc1f8b7e1e71',
    ('determinant', '0,1,1', 6): 'bb6880bc3a9a802811bbeabe7eb830eb98dfe82d6fa3477a7acdc23777266550',
    ('determinant', '0,1,1', 10): '04cc30271bfeec7b98510802049ee3183d9bf5c96affa9edb97e4b72ca823fc8',
    ('lgv', '0,1,1', 8): 'ea7831e5864e2fa701f7689b44c61f6b5703ff421f0606cec238751081e79079',
    ('determinant', '1/2', 1): '5c7989bceaa8a336ddba59bb12e136877a33a4199c3f304bb26f54b970b7db6d',
    ('determinant', '1/2', 2): '4ec2f114e00ebd4e17be9c587f45796207bcace423a01e2325f488e2f326f02e',
    ('determinant', '1/2', 6): 'd8de3324871c9f8ca4e0b320972c42b32ff2f04286d763e4037b5bd968e0174b',
    ('determinant', '1/2', 10): '5fd4a5f8b7d8de720230e7adb24d60524895c448c3b455c44b78b7a0295be9cb',
}


@pytest.mark.parametrize("case", list(CF_PINNED), ids=lambda c: f"{c[0]}-g={c[1]}-order{c[2]}")
def test_cf_extract_pinned(case):
    route, weights, order = case
    g = FaceWeights(tuple(rat(x) for x in weights.split(",")))
    ring = SeriesRing(2, order)
    if route == "determinant":
        ladder = determinant_ladder(g, ring, 11)
    else:
        b, w = tail_solve(g, ring)
        ladder = cf_extract(lgv(5, g, b, w))
    h = hashlib.sha256()
    for nums, *rest in _ladder_fields(ladder):
        h.update(repr((sorted(nums.items()), *rest)).encode())
    assert h.hexdigest() == CF_PINNED[case]


SYMMETRY_G = [
    (0, 1), (0, 0, 1), (rat(1, 5), 1), (0, rat(1, 3), 2), (0, 0, 0, 1), (rat(1, 5), 0, 0, 1),
    (0, 1, 1),
]


@pytest.mark.parametrize(
    "weights", SYMMETRY_G, ids=lambda ws: "g=" + ",".join(str(rat(x)) for x in ws)
)
def test_white_quantities_are_the_color_swaps_of_the_black_ones(weights):
    # the determinant route walks the black moments only and takes every
    # white quantity from the color swap; here the white moments are walked
    # on their own and each white quantity is checked field by field
    g = FaceWeights(tuple(rat(x) for x in weights))
    ring = SeriesRing(2, 10)
    b, w = tail_solve(g, ring)
    fb = f_sequence(11, g, b, w)
    fw = f_sequence(11, g, b, w, black_start=False)
    assert [_fields(f) for f in fw] == [_fields(f.swap_vars()) for f in fb]
    fam = hankel_family(fb)
    for shift, seq in ((0, fam.h0), (1, fam.h1)):
        walked = [hankel_det(fw, shift, i) for i in range(6)]
        assert [_fields(d.swap_vars()) for d in seq] == [_fields(d) for d in walked], shift
    ladder = determinant_ladder(g, ring, 10)
    for i in range(1, 11):
        black, white = ladder.black_weight(i), ladder.white_weight(i)
        assert _fields(white) == _fields(black.swap_vars()), i


def test_determinant_ladder_product_count(series_products):
    # one color of moments, determinants and ratios: 406 products with both,
    # 185 before the tails' slice rows went by first passage, 124 with a
    # graded sweep at the order
    determinant_ladder(FaceWeights((rat(1, 5), rat(1))), SeriesRing(2, 10), 10)
    assert series_products[0] <= 123


def test_suite_hankel_product_count(series_products):
    # each family walks F_0..F_6, all that entries 1..6 read; 984
    # before cf_expand cut each level to the degree F_0..F_5 read of it, 604
    # before the Leibniz check read its determinants from the extraction's
    # Hankel family, 582 with a graded sweep at the order, 537 before
    # cf_expand walked the ladder's Dyck paths
    suite_hankel(SuiteRun(7, 1))
    assert series_products[0] <= 457


def _ladder_digest(ladder) -> str:
    h = hashlib.sha256()
    for nums, *rest in _ladder_fields(ladder):
        h.update(repr((sorted(nums.items()), *rest)).encode())
    return h.hexdigest()


# the digest of CF_PINNED for determinant_ladder(g, SeriesRing(2, order), 10):
# an even i_max, whose last entry is a B and reads no h1 of index i_max // 2
DETERMINANT_EVEN_PINNED = {
    ('0,1', 1): 'ff3f6fc2c247771b7d0c14f8d436996233d9aec44a0015ce255293e313bf3662',
    ('0,1', 2): '33aaa64056a1596ea357ac8b7aafef0372e2347dc6b915f625b8f491b5698a0c',
    ('0,1', 6): '7de456bb0970fc25a86170e95e9e1665905b4ad269fd6c023e855d8237d4957f',
    ('0,1', 10): 'd06325bf58451938ee20411396db4e9b48be3d3f5f249dd8814dcfc9da443c92',
    ('0,0,1', 1): 'ff3f6fc2c247771b7d0c14f8d436996233d9aec44a0015ce255293e313bf3662',
    ('0,0,1', 2): '33aaa64056a1596ea357ac8b7aafef0372e2347dc6b915f625b8f491b5698a0c',
    ('0,0,1', 6): '63dd49235ed6a80e9b491226ab2f3361603e70f9a0a9c4b9a3b0c559f8c0093d',
    ('0,0,1', 10): '2a63e96a04552dd436b49fd228b7ae8f389aac3199480608fe5adde2b8253270',
    ('1/5,1', 1): 'ff3f6fc2c247771b7d0c14f8d436996233d9aec44a0015ce255293e313bf3662',
    ('1/5,1', 2): '66850fd391cdc4b6d9bed72c2da698d9a5e945702aa4126624da1089b1e485a9',
    ('1/5,1', 6): 'bffc3d0c4389ab23594e82e6a48bb440832b38b625536cb636925c816be0ad57',
    ('1/5,1', 10): '6c4ebcbc917801d7d8e40a93528d401662e6d50d0716884cea0d027f65d7b574',
    ('0,0,0,1', 1): 'ff3f6fc2c247771b7d0c14f8d436996233d9aec44a0015ce255293e313bf3662',
    ('0,0,0,1', 2): '33aaa64056a1596ea357ac8b7aafef0372e2347dc6b915f625b8f491b5698a0c',
    ('0,0,0,1', 6): '3168a5576967c4c447d16946c057340203c6b7106880a17712691b01e3667a21',
    ('0,0,0,1', 10): 'cad31e1efa4fcc19e5aebb5fa5e68eb780bdffb60bb0187c11edc2cbe14ecc96',
    ('0,1,1', 1): 'ff3f6fc2c247771b7d0c14f8d436996233d9aec44a0015ce255293e313bf3662',
    ('0,1,1', 2): '33aaa64056a1596ea357ac8b7aafef0372e2347dc6b915f625b8f491b5698a0c',
    ('0,1,1', 6): '40eca65c84626cfb44ecfe5a39015188e7fcedd70129e4df5a4e8fefe04e867e',
    ('0,1,1', 10): '8feab429ec912a72acd187856e89bc8dade55f1f0ddfde07cc44afa846daf83a',
    ('1/2', 1): 'ff3f6fc2c247771b7d0c14f8d436996233d9aec44a0015ce255293e313bf3662',
    ('1/2', 2): '10139886d326285f32ac672ddc718e0c77c26cfff7f984a495ee99f74f4b84ad',
    ('1/2', 6): '6e4425b07b561c5699b7bb2a7e04ec3d19e93ed6f02f3c235b3a2f383a200bd5',
    ('1/2', 10): '8aee2cd34ebd02e0cb1a085dd588c903be283adb43dd67d30a2e2015ba05e5ea',
}


@pytest.mark.parametrize(
    "case", list(DETERMINANT_EVEN_PINNED), ids=lambda c: f"g={c[0]}-order{c[1]}"
)
def test_determinant_ladder_pinned_at_even_i_max(case):
    weights, order = case
    g = FaceWeights(tuple(rat(x) for x in weights.split(",")))
    ladder = determinant_ladder(g, SeriesRing(2, order), 10)
    assert _ladder_digest(ladder) == DETERMINANT_EVEN_PINNED[case]


@settings(max_examples=20, deadline=None)
@given(drawn_face_weights(), st.integers(2, 6), st.integers(1, 2))
def test_determinant_ladder_stable_under_higher_order(g, n, k):
    low = determinant_ladder(g, SeriesRing(2, n), 6)
    high = determinant_ladder(g, SeriesRing(2, n + k), 6)
    assert low.black_weight(1).reliable == n - 1
    assert_ladder_stable(low, high, 6)
